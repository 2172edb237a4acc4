"""Grid verification suites: closed forms against exhaustive enumeration,
and engine results against the structural laws.

Each suite returns a list of :class:`SuiteRow`; a row is one instance (or
one parameter cell) with a pass/fail verdict and a short detail string.

The exhaustive side stays independent of ``formulas``, the closed forms it
checks, since a value read off the code under test cannot catch a fault in
it.  It shares one enumeration with the rest of the package: the
monochromatic zone walks the partitions of n from ``engine._partitions``,
which ``TestPartitions`` in ``tests/test_engine.py`` checks against a
reference enumeration.  Both partition bounds read the sums of one
enumerator of capped-head vectors, memoised per vector shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Iterator

from .constructions import beta_colouring, mono_colouring
from .core import HypergraphSpec, build_sigma
from .engine import _partitions, decide_k, spectrum
from .formulas import (
    gap_instance_params,
    max_sum_capped_head,
    min_parts_attainable,
    min_parts_capped_head,
    mono_zone,
    uncolourable_condition,
    zone_only_condition,
)
from .oracle import SIZE_CAP, brute_spectrum
from .validator import is_valid

__all__ = [
    "SuiteRow",
    "SUITES",
    "exhaustive_max_sum",
    "exhaustive_min_parts",
    "exhaustive_mono_zone",
    "suite_lemmas",
    "suite_zone",
    "suite_zone_only",
    "suite_uncolourable",
    "suite_nogaps",
    "suite_gaps",
    "suite_appendix",
]


@dataclass(frozen=True)
class SuiteRow:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# exhaustive enumerations (the independent side of each comparison)
# ---------------------------------------------------------------------------


def _capped_vectors(length: int, head: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing positive vectors of ``length`` entries whose first
    ``head`` entries sum to at most ``cap``."""

    def rec(prefix: list[int], remaining: int, max_value: int,
            head_sum: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(max_value, 0, -1):
            hs = head_sum + (v if len(prefix) < head else 0)
            if len(prefix) < head and hs > cap:
                continue
            prefix.append(v)
            yield from rec(prefix, remaining - 1, v, hs)
            prefix.pop()

    yield from rec([], length, cap, 0)


@lru_cache(maxsize=None)
def _capped_sums(a: int, b: int, d: int) -> frozenset[int]:
    """The sums of ``_capped_vectors(b, a - 1, d - 1)``."""
    return frozenset(map(sum, _capped_vectors(b, a - 1, d - 1)))


def exhaustive_max_sum(a: int, b: int, d: int) -> int:
    """Brute-force maximum of the capped-head partition sum."""
    return max(_capped_sums(a, b, d))


def exhaustive_min_parts(a: int, d: int, n: int) -> int | None:
    """Brute-force least b >= a reaching sum exactly n, or None."""
    return next((b for b in range(a, n + 1) if n in _capped_sums(a, b, d)), None)


def exhaustive_mono_zone(spec: HypergraphSpec) -> set[int]:
    """All k admitting a valid all-monochromatic colouring, by checking
    every partition of n against the per-edge colour window directly."""
    if not spec.has_edges:
        return set(range(1, spec.n + 1))
    s = spec.sigma.s
    feasible: set[int] = set()
    for dist in _partitions(spec.n, spec.n):
        k = len(dist)
        if k in feasible:
            continue
        # an edge sees exactly the colours of its s classes, so the extremes
        # come straight from the distribution of classes per colour: fewest
        # when they fill the largest colours first, most at one per colour
        lo = next(i for i, taken in enumerate(accumulate(dist), 1) if taken >= s)
        hi = min(s, k)
        if lo >= spec.alpha and hi <= spec.beta:
            feasible.add(k)
    return feasible


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# every suite decision fits: the largest, the appendix k=4 proof, takes
# 507,599 nodes
_NODE_BUDGET = 5_000_000


def _row(name: str, problems: list[str],
         pass_detail: Callable[[], str]) -> SuiteRow:
    """A FAIL row listing ``problems``, or, when there are none, a PASS row
    whose detail ``pass_detail()`` may read values that exist only then."""
    if problems:
        return SuiteRow(name=name, passed=False, detail="; ".join(problems))
    return SuiteRow(name=name, passed=True, detail=pass_detail())


def _zone_problems(spec: HypergraphSpec, zone: Iterable[int]) -> list[str]:
    """The zone points whose solid colouring is invalid or miscounted."""
    problems = []
    for k in zone:
        colouring = mono_colouring(spec, k)
        if colouring.colour_count != k or not is_valid(spec, colouring):
            problems.append(f"zone k={k} construction failed validation")
    return problems


def suite_lemmas() -> list[SuiteRow]:
    """Closed-form partition bounds against exhaustive enumeration."""
    rows = []
    for a in range(2, 8):
        for d in range(a, 8):
            problems = []
            for b in range(a, 9):
                expect = exhaustive_max_sum(a, b, d)
                got = max_sum_capped_head(a, b, d)
                if got != expect:
                    problems.append(f"b={b}: {got}!={expect}")
            for n in range(1, 41):
                expect_b = exhaustive_min_parts(a, d, n)
                if expect_b is None:
                    if min_parts_attainable(a, d, n):
                        problems.append(f"n={n}: expected unattainable")
                else:
                    got_b = min_parts_capped_head(a, d, n)
                    if got_b != expect_b or not min_parts_attainable(a, d, n):
                        problems.append(f"n={n}: {got_b}!={expect_b}")
            rows.append(_row(f"bounds a={a} d={d}", problems,
                             lambda: f"b in [{a},8], n in [1,40]"))
    return rows


def zone_grid() -> list[HypergraphSpec]:
    """Small instances with alpha <= s <= beta and edges present."""
    sigmas = [(1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)]
    out = []
    for parts in sigmas:
        sigma = build_sigma(parts)
        for n in range(sigma.s, 8):
            for q in (sigma.delta_max, min(4, sigma.delta_max + 1)):
                for alpha in range(2, sigma.s + 1):
                    for beta in range(sigma.s, sigma.s + 2):
                        out.append(HypergraphSpec(
                            n=n, q=q, sigma=sigma, alpha=alpha, beta=beta
                        ))
    return out


def suite_zone() -> list[SuiteRow]:
    """Monochromatic zone: formula equals exhaustive partition check and
    every zone point is realised by a validated solid colouring."""
    rows = []
    for spec in zone_grid():
        zone = mono_zone(spec)
        expect = exhaustive_mono_zone(spec)
        if zone is None or set(zone) != expect:
            problems = [f"zone {zone} != exhaustive {sorted(expect)}"]
        else:
            problems = _zone_problems(spec, zone)
        rows.append(_row(str(spec), problems, lambda: f"zone={zone}"))
    return rows


def suite_zone_only() -> list[SuiteRow]:
    """Instances past the zone-only threshold: spectrum == zone exactly."""
    instances = [
        HypergraphSpec(n=4, q=3, sigma=build_sigma([2, 1]), alpha=2, beta=2),
        HypergraphSpec(n=4, q=3, sigma=build_sigma([2, 2]), alpha=2, beta=2),
        HypergraphSpec(n=5, q=3, sigma=build_sigma([2, 1]), alpha=2, beta=2),
    ]
    rows = []
    for spec in instances:
        zone = mono_zone(spec)
        result = spectrum(spec, node_budget=_NODE_BUDGET)
        detail = f"spectrum={list(result.feasible_k)} zone={zone}"
        problems = [] if zone_only_condition(spec) else [
            "instance misses the threshold"]
        if not result.complete or zone is None or list(result.feasible_k) != list(zone):
            problems.append(detail)
        rows.append(_row(str(spec), problems, lambda: detail))
    return rows


def uncolourable_grid() -> list[HypergraphSpec]:
    """Instances meeting the non-colourability thresholds at minimal n, q.

    The first three sit in the ``s < alpha`` regime, the last two in the
    ``beta < s`` regime (which forces n*q >= 21, beyond the oracle cap).
    """
    return [
        HypergraphSpec(n=3, q=4, sigma=build_sigma([2, 2]), alpha=3, beta=3),
        HypergraphSpec(n=3, q=7, sigma=build_sigma([3, 1]), alpha=3, beta=3),
        HypergraphSpec(n=3, q=7, sigma=build_sigma([3, 2]), alpha=3, beta=3),
        HypergraphSpec(n=7, q=3, sigma=build_sigma([2, 1, 1]), alpha=2, beta=2),
        HypergraphSpec(n=7, q=3, sigma=build_sigma([2, 2, 1]), alpha=2, beta=2),
    ]


def suite_uncolourable() -> list[SuiteRow]:
    """Threshold instances: the engine finds no feasible k at all, and the
    literal oracle agrees wherever it fits."""
    rows = []
    for spec in uncolourable_grid():
        problems = []
        if not uncolourable_condition(spec):
            problems.append("threshold predicate is false")
        result = spectrum(spec, node_budget=_NODE_BUDGET)
        if not result.complete:
            problems.append("budget tripped")
        if result.colourable:
            problems.append(f"engine found feasible k={list(result.feasible_k)}")
        if spec.num_vertices <= SIZE_CAP:
            if brute_spectrum(spec) != ():
                problems.append("oracle found a colouring")
        rows.append(_row(str(spec), problems,
                         lambda: f"all k in [1,{spec.num_vertices}] infeasible"))
    return rows


def nogap_grid() -> list[HypergraphSpec]:
    """delta >= r - beta + 1, alpha = 2, 2 <= s <= beta, n*q <= 24."""
    cells = [
        ((1, 1), 2), ((1, 1), 3),
        ((2, 1), 3), ((2, 2), 3), ((2, 2), 4),
        ((3, 3), 4), ((2, 1, 1), 4), ((2, 2, 2), 5),
    ]
    out = []
    for parts, beta in cells:
        sigma = build_sigma(parts)
        for n in range(sigma.s, 7):
            for q in (sigma.delta_max, sigma.delta_max + 1, sigma.delta_max + 2):
                if n * q > 24 or n * q < 4:
                    continue
                spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=2, beta=beta)
                if spec.sigma.delta_min >= spec.r - beta + 1 and spec.has_edges:
                    out.append(spec)
    return out


def suite_nogaps() -> list[SuiteRow]:
    """No-gap law: the spectrum of each grid instance is one interval."""
    rows = []
    for spec in nogap_grid():
        result = spectrum(spec, node_budget=_NODE_BUDGET)
        ok = (result.complete and result.colourable and not result.gaps
              and result.feasible_k == tuple(range(result.chi, result.chi_bar + 1)))
        problems = [] if ok else [
            f"feasible={list(result.feasible_k)} gaps={list(result.gaps)}"]
        rows.append(_row(str(spec), problems,
                         lambda: f"spectrum=[{result.chi},{result.chi_bar}]"))
    return rows


def gap_cells() -> list[tuple[int, int, tuple[int, ...]]]:
    return [
        (2, 2, (2, 2)),
        (2, 2, (3, 1)),
        (2, 3, (3, 2)),
    ]


def suite_gaps() -> list[SuiteRow]:
    """Gap construction: k <= beta-1 and beta+1 infeasible, beta feasible,
    the whole monochromatic zone feasible, and the zone starts past beta+1."""
    rows = []
    for alpha, beta, parts in gap_cells():
        sigma = build_sigma(parts)
        q, n_min = gap_instance_params(alpha, beta, sigma)
        spec = HypergraphSpec(n=n_min, q=q, sigma=sigma, alpha=alpha, beta=beta)
        problems = []
        built = beta_colouring(spec)
        if built.colour_count != beta or not is_valid(spec, built):
            problems.append("balanced beta-colouring failed validation")
        result = spectrum(spec, k_max=beta + 1, node_budget=_NODE_BUDGET)
        if not result.complete or result.feasible_k != (beta,):
            problems.append(f"k<={beta + 1} feasible at {list(result.feasible_k)}, "
                            f"unknown at {list(result.unknown_k)}, not {beta} alone")
        zone = mono_zone(spec)
        if zone is None or zone.is_empty or zone.lo <= beta + 1:
            problems.append(f"zone {zone} does not sit above the gap")
        else:
            problems += _zone_problems(spec, zone)
        rows.append(_row(str(spec), problems,
                         lambda: f"gap between {beta} and {zone.lo}"))
    return rows


def suite_appendix() -> list[SuiteRow]:
    """The two boundary fixtures: a gap without a monochromatic zone, and a
    one-point spectrum without one."""
    gap_spec = HypergraphSpec(n=7, q=6, sigma=build_sigma([6, 6]), alpha=3, beta=3)
    problems = []
    for k, want in ((3, "feasible"), (4, "infeasible"), (8, "feasible")):
        got = decide_k(gap_spec, k, _NODE_BUDGET).verdict
        if got != want:
            problems.append(f"k={k} {got}, not {want}")
    zone = mono_zone(gap_spec)
    if zone is None or not zone.is_empty:
        problems.append("monochromatic zone should be empty")

    point_spec = HypergraphSpec(n=5, q=2, sigma=build_sigma([2, 2]), alpha=3, beta=3)
    result = spectrum(point_spec, node_budget=_NODE_BUDGET)
    detail = f"spectrum={list(result.feasible_k)}"
    ok = result.complete and list(result.feasible_k) == [6] and not result.gaps
    return [
        _row(str(gap_spec), problems,
             lambda: "3 feasible, 4 infeasible, 8 feasible: gap"),
        _row(str(point_spec), [] if ok else [detail], lambda: detail),
    ]


SUITES: dict[str, Callable[[], list[SuiteRow]]] = {
    "lemmas": suite_lemmas,
    "zone": suite_zone,
    "zone-only": suite_zone_only,
    "uncolourable": suite_uncolourable,
    "nogaps": suite_nogaps,
    "gaps": suite_gaps,
    "appendix": suite_appendix,
}
