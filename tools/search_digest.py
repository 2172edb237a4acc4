"""Print one digest line per set of engine searches, to compare two checkouts.

An engine line holds ``decisions=``, a SHA-256 over every decision's
(spec, k, verdict, witness classes); ``nodes=``, the total node count and a
SHA-256 over the per-k node counts in decision order, as ``total:sha256``
(both fields from :class:`EngineDigest`); and ``checks``, the (group,
binding) shape checks the engine's mask fills make (one per bit
``_Search._passing`` is asked about, counted by :func:`check_counter`).
Equal ``decisions=`` fields mean equal verdicts and raw witnesses, whatever
the node counts; equal lines mean equal node counts and shape-check work
too.  The engine checks shapes by bit tests and calls no range solver,
which ``test_a_spectrum_calls_no_range_solver`` guards.  The counts repeat
exactly, so a cut in them shows without timing noise, and a change that
cuts nodes alone keeps every ``decisions=`` field.

``nogap-family`` makes the decisions of ``nogap-sweep``, in the same order,
through one search context per family H(., q | sigma), alpha, beta, which
meets its specs in ascending n.  Its ``decisions=`` and ``nodes=`` equal
``nogap-sweep``'s exactly when sharing a context across n moves no verdict,
node count or witness; its ``checks`` are fewer, as pass masks found at one
n serve every n.  ``tests/test_engine.py`` pins both fields of the
``nogap-sweep`` and ``gap-proof`` lines through :class:`EngineDigest`, from
decisions its tests already make, and through :func:`check_counter` the
``gap-proof`` checks and those of three spectra with s >= 3 parts.

The ``validator`` line holds one SHA-256 per set of engine witnesses, those
of ``nogap-sweep`` and of ``gap-proof``, over (spec, classes, ``is_valid``,
``find_violation``'s witness) for each witness and two seeded one-vertex
perturbations of it (:func:`validator_records`), then the validator's
``range_of_keys`` calls and the range solver's misses, read off
``validator._range_of.cache_info()`` (each call is one cache access, a hit
or a miss), both from empty caches (``validator._class_key`` included):
``range_calls=6566 range_misses=465``.  Whole-class bounds prove most valid
colourings valid before any shape is scanned, and every scanned shape goes
to the range cache with its colours renamed by first appearance.  Equal
sha256 fields mean equal verdicts and equal violation witnesses; the tests
pin them beside the engine digests.

The ``verify`` line holds a SHA-256 over every row (suite, name, passed,
detail) of every suite in ``verification.SUITES``, in ``SUITES`` order.
Equal lines mean every suite gives the same verdicts and details, so a
change to the verification harness can be checked by it;
``tests/test_verification.py`` pins it.

The ``closed-forms`` line holds a SHA-256 over the value, or the exception
type, of every public ``formulas`` function and of the ``mono_distribution``,
``mono_colouring``, ``layered_colouring`` and ``beta_colouring`` builders
on a fixed grid with ``alpha >= 2`` (:func:`closed_form_records`); equal
lines mean a change to the closed forms moves no value and no error.
``tests/test_formulas.py`` pins it.

The ``walks`` line holds a SHA-256 over every step of
``constructions.spectrum_walk_steps`` on each ``nogap_grid`` spec with
n*q <= 16, walked down from the engine's chi-bar witness and up from its chi
witness (:func:`walk_records`): spec, direction, step kind, class index,
colour count and the step's colouring classes.  Equal lines mean the walks
take the same moves to the same colourings; ``tests/test_constructions.py``
pins it.

The ``canonical`` line holds a SHA-256 over (input classes, canonical
classes) for a seeded set of colourings (:func:`canonical_records`): 4,000
random ones with n <= 7 and q <= 4, every other one made of copies of at
most three base classes; one two-colour palette per class at n = 2..40;
pairs (a,a,a,b), (a,b,b,b), each over its own two colours, at n <= 10; and
chains (i, i+1) at n <= 12, the last three with classes shuffled and
colours renamed.  Equal lines mean ``core.canonical_colouring`` gives the
same forms; ``tests/test_core.py`` pins it.

    python tools/search_digest.py
"""

import hashlib
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sigma_spectra import (  # noqa: E402
    Colouring, HypergraphSpec, build_sigma, canonical_colouring, decide_k, engine,
    find_violation, is_valid, spectrum,
)
from sigma_spectra import constructions, formulas, validator, verification  # noqa: E402


def sha256_of(lines) -> str:
    """The hex SHA-256 over ``lines``, byte strings, in order."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line)
    return digest.hexdigest()


class EngineDigest:
    """The ``decisions=`` and ``nodes=`` fields of an engine line, fed one
    decision at a time in decision order."""

    def __init__(self):
        self.decisions, self.nodes, self.total = hashlib.sha256(), hashlib.sha256(), 0

    def update(self, spec, k, verdict, nodes, witness) -> None:
        self.decisions.update(
            repr((str(spec), k, verdict, witness and witness.classes)).encode())
        self.nodes.update(f"{nodes}\n".encode())
        self.total += nodes

    def fields(self) -> tuple[str, str]:
        """The two fields' values: the decisions sha256, and the total node
        count and the per-k nodes sha256 as ``total:sha256``."""
        return self.decisions.hexdigest(), f"{self.total}:{self.nodes.hexdigest()}"


@contextmanager
def check_counter():
    """Count, while the block runs, the (group, binding) shape checks the
    engine's mask fills make, one per bit ``_Search._passing`` is asked
    about; yields the counter, whose ``checks`` is the count so far."""
    counter = SimpleNamespace(checks=0)
    passing = engine._Search._passing

    def counted(search, group, bindings, fresh):
        counter.checks += fresh.bit_count()
        return passing(search, group, bindings, fresh)

    with mock.patch.object(engine._Search, "_passing", counted):
        yield counter


def validator_records(spec, witness):
    """The validator's verdict and violation witness on ``witness`` and on
    two one-vertex perturbations of it, drawn by a generator seeded with the
    spec and the witness, each as a line's SHA-256 reads it."""
    rng = random.Random(f"{spec}|{witness.classes}")
    colourings = [witness]
    for _ in range(2):
        classes = [list(cls) for cls in witness.classes]
        i, v = rng.randrange(spec.n), rng.randrange(spec.q)
        # an old colour or one new one
        classes[i][v] = rng.randrange(witness.colour_count + 1)
        colourings.append(Colouring(classes=tuple(map(tuple, classes))))
    for colouring in colourings:
        yield repr((str(spec), colouring.classes, is_valid(spec, colouring),
                    find_violation(spec, colouring))).encode()


def spectrum_decisions(spec, res):
    """The decisions of ``res``, the spectrum of ``spec``, in k order."""
    for k, nodes in res.nodes_explored.items():
        verdict = ("unknown" if k in res.unknown_k else
                   "feasible" if k in res.feasible_k else "infeasible")
        yield spec, k, verdict, nodes, res.witnesses.get(k)


def nogap_sweep():
    for spec in verification.nogap_grid():
        yield from spectrum_decisions(spec, spectrum(spec, node_budget=5_000_000))


def nogap_family():
    searches = {}
    for spec in verification.nogap_grid():
        family = (spec.q, spec.sigma, spec.alpha, spec.beta)
        search = searches.setdefault(family, engine._Search(*family))
        for k in range(1, spec.num_vertices + 1):
            d = decide_k(spec, k, 5_000_000, _search=search)
            yield spec, k, d.verdict, d.nodes, d.witness


def gap_proof_pairs():
    """The (spec, k) decisions of the ``gap-proof`` line, in order: the
    appendix fixture at k = 3, 4 and 8, then each gap recipe's instance at
    k = 1..beta+1."""
    appendix = HypergraphSpec(n=7, q=6, sigma=build_sigma([6, 6]), alpha=3, beta=3)
    pairs = [(appendix, k) for k in (3, 4, 8)]
    for alpha, beta, parts in verification.gap_cells():
        sigma = build_sigma(parts)
        q, n = formulas.gap_instance_params(alpha, beta, sigma)
        spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
        pairs += [(spec, k) for k in range(1, beta + 2)]
    return pairs


def gap_proof():
    for spec, k in gap_proof_pairs():
        d = decide_k(spec, k, 50_000_000)
        yield spec, k, d.verdict, d.nodes, d.witness


def closed_form_records():
    """Each closed form's value, or the type of what it raised, as the
    ``closed-forms`` line's SHA-256 reads them: the partition bounds at
    2 <= a <= 5, b, d < 8, n < 13, and the rest over every sigma with
    r <= 5, n <= 6, q <= 5, 2 <= alpha <= beta <= 5 and each k in 0..n+1
    (0..n*q+1 for ``layered_colouring``)."""
    def outcome(f, *args):
        try:
            value = f(*args)
        except Exception as exc:
            value = type(exc).__name__
        # a spec's outcomes follow its own record, so they leave it out
        shown = args[1:] if isinstance(args[0], HypergraphSpec) else args
        return repr((f.__name__, shown, value)).encode()

    for a in range(2, 6):
        for d in range(8):
            for b in range(8):
                yield outcome(formulas.max_sum_capped_head, a, b, d)
            for n in range(13):
                for f in (formulas.min_parts_formula, formulas.min_parts_attainable,
                          formulas.min_parts_capped_head):
                    yield outcome(f, a, d, n)
    windows = [(alpha, beta) for beta in range(2, 6) for alpha in range(2, beta + 1)]
    for r in range(1, 6):
        for parts in engine._partitions(r, r):
            sigma = build_sigma(parts)
            for alpha, beta in windows:
                yield outcome(formulas.gap_instance_params, alpha, beta, sigma)
                for n in range(1, 7):
                    for q in range(1, 6):
                        spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
                        yield str(spec).encode()
                        for f in (formulas.mono_zone_lower_bound, formulas.mono_zone,
                                  formulas.no_mono_zone_above, formulas.extended_interval,
                                  formulas.zone_only_condition,
                                  formulas.uncolourable_condition,
                                  constructions.beta_colouring):
                            yield outcome(f, spec)
                        for k in range(n + 2):  # the zone lies in 1..n
                            yield outcome(constructions.mono_distribution, spec, k)
                            yield outcome(constructions.mono_colouring, spec, k)
                        for k in range(n * q + 2):
                            yield outcome(constructions.layered_colouring, spec, k)


def verify_records():
    """Each row of every verification suite, in ``SUITES`` order, as the
    ``verify`` line's SHA-256 reads them."""
    for suite, run in verification.SUITES.items():
        for row in run():
            yield repr((suite, row.name, row.passed, row.detail)).encode()


def walk_records():
    """Each step of the recolouring walks, as the ``walks`` line's SHA-256
    reads them."""
    for spec in verification.nogap_grid():
        if spec.num_vertices > 16:
            continue
        res = spectrum(spec, node_budget=5_000_000)
        for direction, k in (("down", res.chi_bar), ("up", res.chi)):
            steps = constructions.spectrum_walk_steps(spec, res.witnesses[k], direction)
            for s in steps:
                yield repr((str(spec), direction, s.step.kind, s.step.class_index,
                            s.colour_count, s.colouring.classes)).encode()


def canonical_records():
    """Each colouring of the ``canonical`` line's set with its canonical
    form, as the line's SHA-256 reads them."""
    rng = random.Random("canonical")
    inputs = []
    for i in range(4000):
        q = rng.randint(1, 4)
        base = [tuple(rng.randrange(6) for _ in range(q)) for _ in range(rng.randint(1, 3))]
        inputs.append(tuple(rng.choice(base) if i % 2 else
                            tuple(rng.randrange(6) for _ in range(q))
                            for _ in range(rng.randint(1, 7))))
    structured = []
    for n in range(2, 41):  # class i holds a of colour 2i and 4 - a of 2i + 1
        counts = [rng.randint(1, 3) for _ in range(n)]
        structured.append(tuple((2 * i,) * a + (2 * i + 1,) * (4 - a)
                                for i, a in enumerate(counts)))
    structured += [tuple(cls for a in range(0, n, 2)
                         for cls in ((a, a, a, a + 1), (a, a + 1, a + 1, a + 1)))
                   for n in range(2, 11, 2)]
    structured += [tuple((i, i + 1) for i in range(n)) for n in range(1, 13)]
    for classes in structured:
        colours = sorted({c for cls in classes for c in cls})
        rename = dict(zip(colours, rng.sample(colours, len(colours))))
        inputs.append(tuple(tuple(rename[c] for c in cls)
                            for cls in rng.sample(classes, len(classes))))
    for classes in inputs:
        yield repr((classes, canonical_colouring(Colouring(classes=classes)).classes)).encode()


def main() -> None:
    witnesses = {}
    for name, decisions in (("nogap-sweep", nogap_sweep), ("nogap-family", nogap_family),
                            ("gap-proof", gap_proof)):
        digest = EngineDigest()
        found = witnesses[name] = []
        with check_counter() as counter:
            for spec, k, verdict, nodes, witness in decisions():
                digest.update(spec, k, verdict, nodes, witness)
                if witness is not None:
                    found.append((spec, witness))
        decided, counted = digest.fields()
        print(f"{name}: decisions={decided} nodes={counted} checks={counter.checks}")
    validator._range_of.cache_clear()
    validator._class_key.cache_clear()
    fields = []
    for name in ("nogap-sweep", "gap-proof"):
        lines = (line for spec, witness in witnesses[name]
                 for line in validator_records(spec, witness))
        fields.append(f"{name}_sha256={sha256_of(lines)}")
    ranges = validator._range_of.cache_info()
    print(f"validator: {' '.join(fields)} range_calls={ranges.hits + ranges.misses} "
          f"range_misses={ranges.misses}")
    print(f"verify: sha256={sha256_of(verify_records())}")
    print(f"closed-forms: sha256={sha256_of(closed_form_records())}")
    print(f"walks: sha256={sha256_of(walk_records())}")
    print(f"canonical: sha256={sha256_of(canonical_records())}")


if __name__ == "__main__":
    main()
