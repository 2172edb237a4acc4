"""Exact decision of k-colourability and full spectrum computation.

The search never touches vertices.  Each class receives a colour profile in
two stages: an abstract partition of ``q`` (how the class splits into
colour multiplicities) and a binding of those multiplicities to concrete
colours.  Classes are interchangeable and colours are interchangeable, so
the search only visits canonical prefixes:

* class partitions must be lexicographically non-increasing in class order;
* a binding may reuse any already-used colour, but fresh colours are
  consecutive and handed to larger multiplicities first.

Every edge shape whose classes are all bound is checked as soon as its last
class is bound, through the exact range solver, failing partial colourings
as early as possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .core import Colouring, HypergraphSpec, part_arrangements
# canonical_colouring is unused here; bench/tracing.py wraps it by this name
from .core import canonical_colouring  # noqa: F401
from .errors import BudgetExceededError
from .formulas import IntInterval
from .validator import range_of_keys

__all__ = [
    "SpectrumResult",
    "KDecision",
    "decide_k",
    "k_colourable",
    "spectrum",
    "verify_interval",
]


@lru_cache(maxsize=None)
def _partitions(total: int, max_parts: int, max_value: int) -> tuple[tuple[int, ...], ...]:
    """Non-increasing partitions of ``total``, at most ``max_parts`` parts,
    entries <= ``max_value``, in lexicographically decreasing order."""
    if total == 0:
        return ((),)
    if max_parts == 0 or max_value == 0:
        return ()
    out = []
    for first in range(min(total, max_value), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            out.append((first,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class KDecision:
    """Outcome of one exact-k decision.  ``witness`` is in the layout the
    search placed it, not canonical; ``witness.canonical()`` gives that."""

    k: int
    verdict: str  # "feasible" | "infeasible" | "unknown"
    witness: Colouring | None
    nodes: int


@dataclass(frozen=True)
class SpectrumResult:
    """All feasible colour counts of an instance, with gap structure.

    ``gaps`` are the maximal runs of decided-infeasible k strictly between
    the spectrum endpoints.  ``complete`` is False when any k hit the node
    budget; such k are listed in ``unknown_k`` and excluded from
    ``feasible_k``.  ``witnesses`` maps each feasible k to the search's
    witness, as in :class:`KDecision`.
    """

    feasible_k: tuple[int, ...]
    unknown_k: tuple[int, ...]
    k_max: int
    chi: int | None
    chi_bar: int | None
    gaps: tuple[IntInterval, ...]
    colourable: bool
    complete: bool
    witnesses: dict[int, Colouring] = field(compare=False)
    nodes_explored: dict[int, int] = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "feasible_k": list(self.feasible_k),
            "unknown_k": list(self.unknown_k),
            "k_max": self.k_max,
            "chi": self.chi,
            "chi_bar": self.chi_bar,
            "gaps": [g.to_json() for g in self.gaps],
            "colourable": self.colourable,
            "complete": self.complete,
        }


ProfileKey = tuple[tuple[int, int], ...]


class _Search:
    """Exact-k feasibility searches over class profiles, one context per spec.

    State lives as long as it stays true.  Per spec, for every k up to
    ``k_max``: the part arrangements, the memo state cap, the shape
    verdicts and the colour bindings.  A shape verdict says whether every
    edge over a tuple of class profiles sees between alpha and beta
    colours; those profiles fix the colours an edge sees, whatever k the
    whole colouring uses, so the verdict holds for every k.  Bindings are
    generated with at most ``k_max`` colours and filtered to the current k
    where they are used.  Per k, reset by :meth:`decide`: the node count,
    the failure memo, the placed profiles, the witness and the per-class
    colour cap with its partitions.

    Beyond the canonical-prefix reductions, failing search states are
    memoised: whether a prefix can complete depends only on how many classes
    remain, the last partition (the non-increase rule), the used-colour
    count, and the distinct bound profiles (with multiplicity capped at
    ``s - 1``, the most classes an edge shape can share with the future).
    Prefixes differing elsewhere collapse onto one verdict.
    """

    def __init__(self, spec: HypergraphSpec, k_max: int):
        self.spec = spec
        self.k_max = k_max
        self.arrangements = part_arrangements(spec.sigma)
        self.state_cap = spec.sigma.s - 1
        self._shape_cache: dict[tuple, bool] = {}
        self._bindings_cache: dict[tuple, tuple] = {}

    def decide(self, k: int, node_budget: int | None) -> KDecision:
        """Decide exactly ``k`` colours; "unknown" when the budget trips."""
        assert k <= self.k_max, f"k={k} above the context's k_max={self.k_max}"
        spec = self.spec
        self.k = k
        self.node_budget = node_budget
        self.nodes = 0
        # An edge may put its largest part, delta_max vertices, on any class,
        # so when delta_max > beta no class may carry more than beta colours.
        # This clamp is the whole largest-part condition: a class of at most
        # beta parts (each part >= 1 vertex) needs at most beta colours to
        # cover delta_max vertices and can never be forced past beta.
        self.max_new = min(spec.q, k)
        if spec.sigma.delta_max > spec.beta:
            self.max_new = min(self.max_new, spec.beta)
        self.partitions = _partitions(spec.q, self.max_new, spec.q)
        self.keys: list[ProfileKey] = []
        self.key_counts: dict[ProfileKey, int] = {}
        self.failed: set = set()
        self.witness: Colouring | None = None
        try:
            found = self._place(0, (spec.q + 1,), 0)
        except BudgetExceededError:
            return KDecision(k=k, verdict="unknown", witness=None, nodes=self.nodes)
        return KDecision(k=k, verdict="feasible" if found else "infeasible",
                         witness=self.witness, nodes=self.nodes)

    def _tick(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceededError(
                f"exceeded {self.node_budget} nodes deciding k={self.k}"
            )

    def _check_new_class(self, i: int) -> bool:
        """All edge shapes whose last class is ``i``, with verdicts cached
        per spec."""
        spec = self.spec
        s = spec.sigma.s
        if i + 1 < s:
            return True
        new_key = self.keys[i]
        for others in itertools.combinations(range(i), s - 1):
            group = tuple(sorted(self.keys[j] for j in others))
            verdict = self._shape_cache.get((group, new_key))
            if verdict is None:
                verdict = True
                shape_keys = group + (new_key,)
                for parts in self.arrangements:
                    lo, hi = range_of_keys(shape_keys, parts)
                    if lo < spec.alpha or hi > spec.beta:
                        verdict = False
                        break
                self._shape_cache[(group, new_key)] = verdict
            if not verdict:
                return False
        return True

    def _bindings(self, partition: tuple[int, ...], used: int
                  ) -> tuple[tuple[ProfileKey, int], ...]:
        """All canonical colour bindings of ``partition`` after ``used``
        colours, as (profile key, new used count), with at most ``k_max``
        colours; cached, since they depend on nothing else.

        Parts with equal size form groups; each group takes a set of old
        colours plus fresh ones, fresh identifiers running consecutively,
        larger sizes first.
        """
        cached = self._bindings_cache.get((partition, used))
        if cached is not None:
            return cached
        groups = [(size, len(list(grp)))
                  for size, grp in itertools.groupby(partition)]
        out: list[tuple[ProfileKey, int]] = []

        def assign(gi: int, available: tuple[int, ...], fresh: int,
                   pairs: tuple[tuple[int, int], ...]) -> None:
            if gi == len(groups):
                out.append((tuple(sorted(pairs)), used + fresh))
                return
            size, count = groups[gi]
            for t in range(min(count, len(available)), -1, -1):
                new_here = count - t
                if used + fresh + new_here > self.k_max:
                    break
                first_new = used + fresh
                new_pairs = tuple((first_new + j, size) for j in range(new_here))
                for olds in itertools.combinations(available, t):
                    rest = tuple(c for c in available if c not in olds)
                    assign(gi + 1, rest, fresh + new_here,
                           pairs + tuple((c, size) for c in olds) + new_pairs)

        assign(0, tuple(range(used)), 0, ())
        cached = self._bindings_cache[(partition, used)] = tuple(out)
        return cached

    def _state(self, i: int, prev: tuple[int, ...], used: int):
        if self.state_cap == 0:
            return (i, prev, used)
        profile_part = frozenset(
            (key, min(count, self.state_cap))
            for key, count in self.key_counts.items()
        )
        return (i, prev, used, profile_part)

    def _place(self, i: int, prev: tuple[int, ...], used: int) -> bool:
        spec = self.spec
        if i == spec.n:
            if used != self.k:
                return False
            self.witness = Colouring(classes=tuple(
                tuple(c for c, m in key for _ in range(m)) for key in self.keys
            ))
            return True
        state = self._state(i, prev, used)
        if state in self.failed:
            return False
        # fresh counts only grow down a binding's branch, so testing k here
        # keeps the bindings of at most k colours in their generation order
        least = self.k - (spec.n - i - 1) * self.max_new
        for partition in self.partitions:
            if partition > prev:
                continue
            for key, new_used in self._bindings(partition, used):
                if not least <= new_used <= self.k:
                    continue
                self._tick()
                self.keys.append(key)
                self.key_counts[key] = self.key_counts.get(key, 0) + 1
                ok = self._check_new_class(i) and self._place(
                    i + 1, partition, new_used
                )
                if self.key_counts[key] == 1:
                    del self.key_counts[key]
                else:
                    self.key_counts[key] -= 1
                self.keys.pop()
                if ok:
                    return True
        self.failed.add(state)
        return False


def _trivial_colouring(spec: HypergraphSpec, k: int) -> Colouring:
    """A k-colouring of an edgeless instance, in canonical form: colour 0
    on the first ``n*q - k + 1`` vertices, then one vertex per colour."""
    flat = [max(0, t - (spec.num_vertices - k)) for t in range(spec.num_vertices)]
    return Colouring(classes=tuple(
        tuple(flat[i * spec.q : (i + 1) * spec.q]) for i in range(spec.n)
    ))


def decide_k(spec: HypergraphSpec, k: int, node_budget: int | None = None,
             *, _search: _Search | None = None) -> KDecision:
    """Decide whether a valid colouring with exactly ``k`` colours exists.

    Returns verdict "unknown" instead of raising when the node budget runs
    out.  Raises ``ValueError`` for k outside [1, n*q].  ``_search`` is the
    search context of ``spec`` shared by the k of one spectrum.
    """
    if not 1 <= k <= spec.num_vertices:
        raise ValueError(f"k={k} outside [1, {spec.num_vertices}]")
    if not spec.has_edges:
        return KDecision(k=k, verdict="feasible",
                         witness=_trivial_colouring(spec, k), nodes=0)
    if _search is None:
        _search = _Search(spec, k)
    return _search.decide(k, node_budget)


def k_colourable(
    spec: HypergraphSpec, k: int, node_budget: int | None = None
) -> Colouring | None:
    """The search's witness of a k-colouring, or None when none exists;
    ``.canonical()`` on it gives the canonical form.

    Raises :class:`BudgetExceededError` when the budget trips, keeping
    "cannot decide" distinct from "infeasible".
    """
    decision = decide_k(spec, k, node_budget)
    if decision.verdict == "unknown":
        raise BudgetExceededError(f"budget exhausted deciding k={k}")
    return decision.witness


def _gaps_between(
    feasible: list[int], unknown: list[int], chi: int, chi_bar: int
) -> tuple[IntInterval, ...]:
    """Maximal runs of decided-infeasible k in (chi, chi_bar).

    An undecided k interrupts a run: a gap is only reported where every
    member was proven infeasible.
    """
    feasible_set = set(feasible)
    unknown_set = set(unknown)
    gaps = []
    run_start = None
    for k in range(chi + 1, chi_bar):
        if k not in feasible_set and k not in unknown_set:
            if run_start is None:
                run_start = k
        elif run_start is not None:
            gaps.append(IntInterval(run_start, k - 1))
            run_start = None
    if run_start is not None:
        gaps.append(IntInterval(run_start, chi_bar - 1))
    return tuple(gaps)


def spectrum(
    spec: HypergraphSpec,
    k_max: int | None = None,
    node_budget: int | None = None,
) -> SpectrumResult:
    """Decide every k from 1 to ``k_max`` (default n*q) and assemble the
    spectrum, chromatic endpoints and gap intervals.

    Each k goes through :func:`decide_k` with one shared search context,
    so verdicts that hold for every k are found once; each verdict,
    witness and node count equals that of a lone :func:`decide_k` call.
    """
    cap = spec.num_vertices if k_max is None else min(k_max, spec.num_vertices)
    if cap < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    search = _Search(spec, cap)
    decisions = [decide_k(spec, k, node_budget, _search=search)
                 for k in range(1, cap + 1)]
    feasible = [d.k for d in decisions if d.verdict == "feasible"]
    unknown = [d.k for d in decisions if d.verdict == "unknown"]
    chi = feasible[0] if feasible else None
    chi_bar = feasible[-1] if feasible else None
    gaps: tuple[IntInterval, ...] = ()
    if chi is not None and chi_bar is not None and chi_bar - chi > 1:
        gaps = _gaps_between(feasible, unknown, chi, chi_bar)
    return SpectrumResult(
        feasible_k=tuple(feasible),
        unknown_k=tuple(unknown),
        k_max=cap,
        chi=chi,
        chi_bar=chi_bar,
        gaps=gaps,
        colourable=bool(feasible),
        complete=not unknown,
        witnesses={d.k: d.witness for d in decisions if d.witness is not None},
        nodes_explored={d.k: d.nodes for d in decisions},
    )


def verify_interval(
    spec: HypergraphSpec,
    interval: IntInterval,
    node_budget: int | None = None,
) -> bool:
    """True iff every k in ``interval`` admits a valid k-colouring.

    Vacuously true for an empty interval.
    """
    return all(
        k_colourable(spec, k, node_budget) is not None for k in interval
    )
