"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance; every
comparison here is exact.  Budgets are generous but finite: a budget trip
is a hard failure, never a silent pass.
"""

import json
import random
import time
from pathlib import Path

from sigma_spectra import (
    HypergraphSpec,
    build_sigma,
    brute_oracle,
    decide_k,
    is_valid,
    k_colourable,
    recolour_whole_class,
    spectrum,
    split_to_fixed,
)
from sigma_spectra.verification import (
    suite_appendix,
    suite_gaps,
    suite_lemmas,
    suite_nogaps,
    suite_uncolourable,
    suite_zone,
)
from support import APPENDIX, spec_of


def report(number, passed, text):
    print(f"CRITERION {number} {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, f"criterion {number}: {text}"


def test_criterion_1_partition_bound_oracle_grid():
    """Closed-form bounds match exhaustive enumeration on the full grid."""
    t0 = time.perf_counter()
    rows = suite_lemmas()
    elapsed = time.perf_counter() - t0
    failures = [r for r in rows if not r.passed]
    report(
        1,
        not failures and elapsed < 5.0,
        f"bounds vs enumeration on {len(rows)} (a,d) cells, "
        f"b<=8, n<=40, {elapsed:.2f}s (limit 5s); failures={failures[:3]}",
    )


def test_criterion_2_gap_fixture_reproduction():
    """H(7,12,6|(6,6)) window (3,3): 3 and 8 feasible, 4 not; a gap.

    3 and 8 feasible with 4 infeasible already exhibits a gap between 3
    and 8; a budget trip on any of the three decisions is a failure.  Each
    decision also visits exactly the nodes the benchmark's golden file pins
    (read here, never written).
    """
    spec = APPENDIX
    budget = 50_000_000
    golden = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "golden.json")
        .read_text(encoding="utf-8")
    )["gap-proof"]
    t0 = time.perf_counter()
    decisions = {k: decide_k(spec, k, budget) for k in (3, 4, 8)}
    elapsed = time.perf_counter() - t0
    verdicts = {k: d.verdict for k, d in decisions.items()}
    nodes = {k: d.nodes for k, d in decisions.items()}
    golden_nodes = {k: golden[f"{spec}|k={k}"]["nodes"] for k in decisions}
    tripped = [k for k, v in verdicts.items() if v == "unknown"]
    gap_shown = (
        verdicts[3] == "feasible"
        and verdicts[8] == "feasible"
        and verdicts[4] == "infeasible"
    )
    ok = (not tripped and gap_shown and nodes == golden_nodes
          and elapsed < 300.0)
    report(
        2,
        ok,
        f"verdicts={verdicts}, gap between 3 and 8 shown={gap_shown}, "
        f"budget tripped={tripped}, nodes={nodes} (golden {golden_nodes}), "
        f"{elapsed:.1f}s (limit 300s)",
    )


def test_criterion_3_point_spectrum_reproduction():
    """H(5,4,2|(2,2)) window (3,3): the full spectrum is exactly {6}."""
    spec = spec_of(5, 2, [2, 2], 3, 3)
    t0 = time.perf_counter()
    result = spectrum(spec, node_budget=10_000_000)
    elapsed = time.perf_counter() - t0
    ok = (
        result.complete
        and result.feasible_k == (6,)
        and result.gaps == ()
        and elapsed < 30.0
    )
    report(3, ok, f"spectrum={list(result.feasible_k)}, {elapsed:.2f}s (limit 30s)")


def test_criterion_4_gap_construction_desk_instance():
    """window (2,2), parts (2,2) -> q=2, n=5: 2 and [5,5] in, 3 and 4 out."""
    spec = spec_of(5, 2, [2, 2], 2, 2)
    t0 = time.perf_counter()
    result = spectrum(spec, node_budget=10_000_000)
    elapsed = time.perf_counter() - t0
    feasible = set(result.feasible_k)
    ok = (
        result.complete
        and 2 in feasible
        and 5 in feasible
        and 3 not in feasible
        and 4 not in feasible
        and elapsed < 60.0
    )
    report(4, ok, f"feasible={sorted(feasible)}, {elapsed:.2f}s (limit 60s)")


def test_criterion_5_monochromatic_zone_law():
    """>=30 small specs: zone formula minimal and every point realised."""
    rows = suite_zone()
    failures = [r for r in rows if not r.passed]
    report(
        5,
        len(rows) >= 30 and not failures,
        f"{len(rows)} specs, failures={[(r.name, r.detail) for r in failures[:3]]}",
    )


def test_criterion_6_no_gap_law():
    """>=20 specs with smallest part >= r-beta+1, alpha=2: one interval."""
    rows = suite_nogaps()
    failures = [r for r in rows if not r.passed]
    report(
        6,
        len(rows) >= 20 and not failures,
        f"{len(rows)} specs, failures={[(r.name, r.detail) for r in failures[:3]]}",
    )


def oracle_grid():
    sigmas = [(1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (3,)]
    out = []
    for parts in sigmas:
        sigma = build_sigma(list(parts))
        for n in range(1, 7):
            for q in range(1, 5):
                if n * q > 12:
                    continue
                for alpha, beta in ((2, 2), (2, 3), (3, 3)):
                    if beta > sigma.r:
                        continue
                    out.append(HypergraphSpec(
                        n=n, q=q, sigma=sigma, alpha=alpha, beta=beta
                    ))
    return out


def test_criterion_7_oracle_equivalence():
    """Engine agrees with the literal oracle for every k on >=50 instances."""
    specs = oracle_grid()
    t0 = time.perf_counter()
    mismatches = []
    for spec in specs:
        for k in range(1, spec.num_vertices + 1):
            engine_says = k_colourable(spec, k, node_budget=5_000_000) is not None
            if engine_says != brute_oracle(spec, k):
                mismatches.append((str(spec), k))
    elapsed = time.perf_counter() - t0
    ok = len(specs) >= 50 and not mismatches and elapsed < 120.0
    report(
        7,
        ok,
        f"{len(specs)} instances, every k, mismatches={mismatches[:3]}, "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_8_non_colourability_thresholds():
    """>=5 threshold instances: no feasible k; oracle agrees where it fits."""
    rows = suite_uncolourable()
    failures = [r for r in rows if not r.passed]
    report(
        8,
        len(rows) >= 5 and not failures,
        f"{len(rows)} instances, failures={[(r.name, r.detail) for r in failures]}",
    )


def test_criterion_9_recolouring_preserves_validity():
    """1000 randomised recolouring applications, zero validity failures."""
    rng = random.Random(20240814)
    specs = [
        spec_of(4, 3, [2, 2], 2, 3),
        spec_of(4, 2, [1, 1], 2, 2),
        spec_of(5, 2, [2, 1], 2, 3),
        spec_of(6, 2, [1, 1, 1], 2, 3),
        spec_of(3, 3, [3, 3], 2, 5),
    ]
    pools = {}
    for spec in specs:
        assert spec.sigma.delta_min >= spec.r - spec.beta + 1
        result = spectrum(spec)
        pools[id(spec)] = (spec, [result.witnesses[k] for k in result.feasible_k])
    applications = 0
    failures = 0
    t0 = time.perf_counter()
    while applications < 1000:
        spec, pool = pools[id(rng.choice(specs))]
        current = rng.choice(pool)
        for _ in range(rng.randint(1, 5)):
            owners = {}
            for i, cls in enumerate(current.classes):
                for colour in cls:
                    owners.setdefault(colour, set()).add(i)
            mergeable = {}
            for i, cls in enumerate(current.classes):
                mine = sorted(c for c in set(cls) if owners[c] == {i})
                if len(mine) >= 2:
                    mergeable[i] = mine
            if mergeable and rng.random() < 0.5:
                i = rng.choice(sorted(mergeable))
                x, y = rng.sample(mergeable[i], 2)
                current = split_to_fixed(current, i, x, y)
            else:
                current = recolour_whole_class(current, rng.randrange(current.n))
            applications += 1
            if not is_valid(spec, current):
                failures += 1
            if applications >= 1000:
                break
    elapsed = time.perf_counter() - t0
    report(
        9,
        applications >= 1000 and failures == 0,
        f"{applications} applications, {failures} failures, {elapsed:.1f}s",
    )


def test_appendix_suite_rows_all_pass():
    """The two fixture rows of the appendix suite, as the CLI runs them."""
    rows = suite_appendix()
    assert all(r.passed for r in rows), [r.detail for r in rows if not r.passed]


def test_gap_suite_rows_all_pass():
    rows = suite_gaps()
    assert all(r.passed for r in rows), [r.detail for r in rows if not r.passed]
