"""The three benchmark workloads: seeded inputs, timed jobs, untimed checks.

A job is one call a library user makes: one ``engine.spectrum``, one
``engine.decide_k``, or one instance certify (construct, walk down,
validate, probe).  The seed only orders the jobs and picks the certify
probes; the library receives only the generated inputs.

Every library call goes through its module attribute at call time
(``engine.spectrum(...)``, never a name bound at import), so the tracing
wrappers of ``tracing.py`` see the benchmark's own calls too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from sigma_spectra import constructions, engine, formulas, validator, verification
from sigma_spectra.core import Colouring, HypergraphSpec, build_sigma, profile_of

SPECTRUM_BUDGET = 5_000_000
DECIDE_BUDGET = 50_000_000

# The appendix gap fixture and the k values its suite decides.
APPENDIX_SPEC = HypergraphSpec(n=7, q=6, sigma=build_sigma([6, 6]), alpha=3, beta=3)
APPENDIX_K = (3, 4, 8)

# No-gap-law instances (alpha = 2, 2 <= s <= beta, delta >= r - beta + 1)
# past the 12-vertex oracle cap, as (sigma, beta, n, q) with 25 <= n*q <= 42.
# With the paired and recipe instances below there are 13 jobs.  The count
# is odd, the median job takes about twice as long as the next faster one
# and half as long as the next slower one, and the three slowest take
# within 30% of each other, so the median and the tail of a run's pooled
# job times fall inside a group of similar times, not on an edge.
# n stays <= 7: canonicalising a layered colouring with disjoint 2-colour
# palettes takes 0.14-0.22 s at n = 7 and 1.6-1.8 s at n = 8, so one n = 8
# instance would be most of the workload.
WALK_INSTANCES = (
    ((1, 1), 4, 7, 4),
    ((1, 1), 3, 7, 5),
    ((2, 2), 4, 7, 5),
    ((2, 2), 4, 6, 6),
    ((3, 3), 4, 7, 6),
    ((2, 1, 1), 4, 7, 4),
    ((2, 2, 2), 5, 7, 6),
    ((2, 2, 2), 5, 6, 5),
)
# Instances also walked from a start whose classes share palettes in pairs.
# No class has a private colour there, so the walk needs engine fallbacks.
PAIRED_INSTANCES = (
    ((3, 3), 6, 5, 6),
    ((3, 3), 6, 6, 5),
)
PROBES_PER_COLOURING = 2


@dataclass(frozen=True)
class Job:
    """One timed call and what the checks need to judge its result.

    ``observe`` maps the result to its golden record (JSON data that must
    equal the stored one); ``verify`` returns the problems an independent
    re-check finds, such as a witness that ``is_valid`` rejects.
    """

    key: str
    run: Callable[[], Any]
    observe: Callable[[Any], dict]
    verify: Callable[[Any], list[str]]


def _spec(parts: tuple[int, ...], beta: int, n: int, q: int) -> HypergraphSpec:
    """An alpha = 2 instance from a (sigma, beta, n, q) row."""
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=2, beta=beta)


def _witness_problems(spec: HypergraphSpec, k: int, witness: Colouring | None
                      ) -> list[str]:
    if witness is None:
        return [f"k={k}: feasible without a witness"]
    problems = []
    if witness.colour_count != k:
        problems.append(f"k={k}: witness uses {witness.colour_count} colours")
    if not validator.is_valid(spec, witness):
        problems.append(f"k={k}: witness fails is_valid")
    return problems


# ---------------------------------------------------------------------------
# nogap-sweep: engine.spectrum over the whole no-gap grid
# ---------------------------------------------------------------------------


def _spectrum_record(result: engine.SpectrumResult) -> dict:
    return {
        "feasible_k": list(result.feasible_k),
        "unknown_k": list(result.unknown_k),
        "gaps": [[g.lo, g.hi] for g in result.gaps],
        "nodes": {str(k): n for k, n in sorted(result.nodes_explored.items())},
    }


def _spectrum_problems(spec: HypergraphSpec, result: engine.SpectrumResult
                       ) -> list[str]:
    problems = [f"k={k}: unknown" for k in result.unknown_k]
    for k in result.feasible_k:
        problems += _witness_problems(spec, k, result.witnesses.get(k))
    extra = set(result.witnesses) - set(result.feasible_k)
    if extra:
        problems.append(f"witnesses for non-feasible k {sorted(extra)}")
    return problems


def _spectrum_job(spec: HypergraphSpec) -> Job:
    return Job(
        key=str(spec),
        run=lambda: engine.spectrum(spec, node_budget=SPECTRUM_BUDGET),
        observe=_spectrum_record,
        verify=lambda result: _spectrum_problems(spec, result),
    )


def nogap_sweep(seed: int) -> list[Job]:
    specs = verification.nogap_grid()
    random.Random(seed).shuffle(specs)
    return [_spectrum_job(spec) for spec in specs]


# ---------------------------------------------------------------------------
# gap-proof: engine.decide_k at single k
# ---------------------------------------------------------------------------


def gap_recipe_specs() -> list[HypergraphSpec]:
    """The gap-construction instances of ``verification.gap_cells``."""
    out = []
    for alpha, beta, parts in verification.gap_cells():
        sigma = build_sigma(parts)
        q, n = formulas.gap_instance_params(alpha, beta, sigma)
        out.append(HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta))
    return out


def _decision_problems(spec: HypergraphSpec, decision: engine.KDecision
                       ) -> list[str]:
    if decision.verdict == "unknown":
        return [f"k={decision.k}: unknown"]
    if decision.verdict == "feasible":
        return _witness_problems(spec, decision.k, decision.witness)
    if decision.witness is not None:
        return [f"k={decision.k}: infeasible with a witness"]
    return []


def _decide_job(spec: HypergraphSpec, k: int) -> Job:
    return Job(
        key=f"{spec}|k={k}",
        run=lambda: engine.decide_k(spec, k, DECIDE_BUDGET),
        observe=lambda d: {"verdict": d.verdict, "nodes": d.nodes},
        verify=lambda d: _decision_problems(spec, d),
    )


def gap_proof(seed: int) -> list[Job]:
    pairs = [(APPENDIX_SPEC, k) for k in APPENDIX_K]
    for spec in gap_recipe_specs():
        pairs += [(spec, k) for k in range(1, spec.beta + 2)]
    random.Random(seed).shuffle(pairs)
    return [_decide_job(spec, k) for spec, k in pairs]


# ---------------------------------------------------------------------------
# certify-walk: construct, walk down, validate and probe past the oracle cap
# ---------------------------------------------------------------------------


def _top_count(spec: HypergraphSpec) -> int:
    """The largest colour count ``layered_colouring`` reaches."""
    per_class = spec.beta // spec.sigma.s
    return spec.n * per_class + spec.beta - per_class * spec.sigma.s


def _paired_colouring(spec: HypergraphSpec) -> Colouring:
    """Classes 2i and 2i+1 share a palette of ``beta // s`` colours."""
    size = spec.beta // spec.sigma.s
    return Colouring(classes=tuple(
        tuple((i // 2) * size + j % size for j in range(spec.q))
        for i in range(spec.n)
    ))


def _perturb(colouring: Colouring, rng: random.Random) -> Colouring:
    """Recolour one vertex to another colour, possibly a fresh one."""
    classes = [list(cls) for cls in colouring.classes]
    i = rng.randrange(colouring.n)
    j = rng.randrange(colouring.q)
    old = classes[i][j]
    classes[i][j] = rng.choice(
        [c for c in range(colouring.colour_count + 1) if c != old])
    return Colouring(classes=tuple(tuple(cls) for cls in classes))


def _certify(spec: HypergraphSpec, starts: tuple[str, ...], rng: random.Random
             ) -> dict:
    """The timed certify call of one instance.  An instance without walk
    starts is a gap-recipe instance and gets its balanced beta-colouring."""
    out: dict = {"walks": {}, "mono": {}, "probes": []}
    probed: list[Colouring] = []
    if not starts:
        built = constructions.beta_colouring(spec)
        out["beta"] = (built, validator.is_valid(spec, built))
        probed.append(built)
    for name in starts:
        start = (constructions.layered_colouring(spec, _top_count(spec))
                 if name == "layered" else _paired_colouring(spec))
        steps = constructions.spectrum_walk_steps(
            spec, start, "down", node_budget=SPECTRUM_BUDGET)
        out["walks"][name] = (start, steps)
        probed += [start] + [step.colouring for step in steps]
    for k in formulas.mono_zone(spec):
        colouring = constructions.mono_colouring(spec, k)
        out["mono"][k] = (colouring, validator.is_valid(spec, colouring))
    for colouring in probed:
        for _ in range(PROBES_PER_COLOURING):
            probe = _perturb(colouring, rng)
            out["probes"].append((probe, validator.find_violation(spec, probe)))
    return out


def _certify_record(result: dict) -> dict:
    record = {
        "walks": {
            name: {"start": start.colour_count,
                   "steps": [[s.step.kind, s.colour_count] for s in steps]}
            for name, (start, steps) in result["walks"].items()
        },
        "mono_k": sorted(result["mono"]),
    }
    if "beta" in result:
        record["beta_colours"] = result["beta"][0].colour_count
    return record


def witness_problems(spec: HypergraphSpec, colouring: Colouring,
                     witness: validator.EdgeWitness) -> list[str]:
    """Why ``witness`` does not describe a real edge of ``spec`` whose
    colour count under ``colouring`` lies outside the window."""
    problems = []
    classes = witness.class_tuple
    if len(set(classes)) != len(classes) or not all(
            0 <= i < spec.n for i in classes):
        problems.append(f"class tuple {classes} is not a set of classes")
        return problems
    if tuple(sorted(witness.part_assignment, reverse=True)) != spec.sigma.parts:
        problems.append(f"parts {witness.part_assignment} do not realise sigma")
    union: set[int] = set()
    for i, part, pick in zip(classes, witness.part_assignment,
                             witness.per_class_choice):
        have = profile_of(colouring, i).counts
        if sum(pick.values()) != part:
            problems.append(f"class {i}: picks {sum(pick.values())} of {part}")
        if any(m < 1 or m > have.get(c, 0) for c, m in pick.items()):
            problems.append(f"class {i}: pick {pick} exceeds the class")
        union.update(pick)
    if len(union) != witness.distinct_colours:
        problems.append(
            f"pick has {len(union)} colours, witness says "
            f"{witness.distinct_colours}")
    if spec.alpha <= witness.distinct_colours <= spec.beta:
        problems.append(f"{witness.distinct_colours} colours is inside the window")
    return problems


def _certify_problems(spec: HypergraphSpec, result: dict) -> list[str]:
    problems = []
    if "beta" in result:
        built, valid = result["beta"]
        if not valid or built.colour_count != spec.beta:
            problems.append("beta colouring invalid or wrong count")
    for name, (start, steps) in result["walks"].items():
        count = start.colour_count
        for step in steps:
            c = step.colouring
            if c.colour_count != step.colour_count or not 0 <= count - c.colour_count <= 1:
                problems.append(f"{name} walk: step to {c.colour_count} from {count}")
            if not validator.is_valid(spec, c):
                problems.append(f"{name} walk: step at {c.colour_count} invalid")
            count = c.colour_count
        if count != spec.n + 1:
            problems.append(f"{name} walk ends at {count}, not n+1={spec.n + 1}")
    for k, (colouring, valid) in result["mono"].items():
        if not valid or colouring.colour_count != k:
            problems.append(f"mono k={k}: invalid or wrong count")
    for probe, witness in result["probes"]:
        if (witness is None) != validator.is_valid(spec, probe):
            problems.append("find_violation disagrees with is_valid")
        elif witness is not None:
            problems += witness_problems(spec, probe, witness)
    return problems


def _certify_job(spec: HypergraphSpec, starts: tuple[str, ...], seed: int) -> Job:
    key = f"{spec}|{'+'.join(starts) or 'beta'}"
    return Job(
        key=key,
        run=lambda: _certify(spec, starts, random.Random(f"{seed}/{key}")),
        observe=_certify_record,
        verify=lambda result: _certify_problems(spec, result),
    )


def certify_walk(seed: int) -> list[Job]:
    jobs = [_certify_job(_spec(*inst), ("layered",), seed)
            for inst in WALK_INSTANCES]
    jobs += [_certify_job(_spec(*inst), ("layered", "paired"), seed)
             for inst in PAIRED_INSTANCES]
    jobs += [_certify_job(spec, (), seed) for spec in gap_recipe_specs()]
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "nogap-sweep": nogap_sweep,
    "gap-proof": gap_proof,
    "certify-walk": certify_walk,
}
