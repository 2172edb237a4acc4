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

A search context keeps, per spec, only what holds for every k (profile
ids, shape verdicts, colour bindings per window of final colour counts, the
class partitions); what belongs to one k (budget, node count, failure memo)
is local to one decision.  The search runs on profile ids, small ints
interned per spec: the placed profiles, the shape groups and the failure
memo hold ids, and only the witness maps them back to profile keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Colouring, HypergraphSpec, part_arrangements
# canonical_colouring is unused here; bench/tracing.py wraps it by this name
from .core import canonical_colouring  # noqa: F401
from .errors import BudgetExceededError, InstanceTooLargeError
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


def _partitions(q: int, most: int) -> tuple[tuple[int, ...], ...]:
    """Every partition of ``q`` into at most ``most`` parts, parts
    non-increasing, in lexicographically decreasing order."""
    out = []
    parts = [q]
    while True:
        out.append(tuple(parts))
        # the next partition down: lower the last part that can go down by
        # one while what it and the parts after it held still fits, in parts
        # of its new size, into the parts left; then refill them greedily
        rest = 0
        while True:
            if not parts:
                return tuple(out)
            size = parts[-1] - 1
            rest += parts.pop()
            if size and rest <= size * (most - len(parts)):
                break
        while rest > size:
            parts.append(size)
            rest -= size
        parts.append(rest)


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

    State lives as long as it stays true.  Per spec, across every k: the
    part arrangements, the profile id table, the shape verdicts, the colour
    bindings and the partitions of q into as many parts as any decision so
    far allowed a class.  Each profile key is interned to a small int when a
    binding list first yields it (``_ids`` maps key to id, ``_keys`` id to
    key), so the search compares and hashes ints, never nested tuples.  A
    shape verdict says whether every edge over a group of class profiles
    plus one new profile sees between alpha and beta colours; those
    profiles fix the colours an edge sees, whatever k the whole colouring
    uses, so the verdict holds for every k.  A binding list is cached under
    the window of final colour counts it was built for, so it too holds for
    every k.  Per :meth:`decide`, as its locals: k, the node budget and
    count, the failure memo and the per-class colour cap with the partitions
    it allows.

    Each node receives the placed profiles as a tuple of ids, at most
    ``s - 1`` copies of each (the most classes an edge shape can share with
    the future), copies together, ids in first-placement order.  Sorted,
    it is the failure memo's profile part: whether a prefix can complete
    depends only on it, how many classes remain, the last partition (the
    non-increase rule) and the used-colour count.  Its distinct
    ``s - 1``-element groups, each sorted, are the shapes every child must
    pass with its new profile.
    """

    def __init__(self, spec: HypergraphSpec):
        self.spec = spec
        self.arrangements = part_arrangements(spec.sigma)
        self._ids: dict[ProfileKey, int] = {}
        self._keys: list[ProfileKey] = []
        self._shape_cache: dict[tuple[tuple[int, ...], int], bool] = {}
        self._bindings_cache: dict[tuple, tuple] = {}
        self._class_partitions: tuple[tuple[int, ...], ...] = ()
        self._class_partitions_most = 0

    def decide(self, k: int, node_budget: int | None) -> KDecision:
        """Decide exactly ``k`` colours; "unknown" when the budget trips."""
        spec = self.spec
        n = spec.n
        cap = spec.sigma.s - 1
        # An edge may put its largest part, delta_max vertices, on any class,
        # so when delta_max > beta no class may carry more than beta colours.
        # This clamp is the whole largest-part condition: a class of at most
        # beta parts (each part >= 1 vertex) needs at most beta colours to
        # cover delta_max vertices and can never be forced past beta.
        max_new = min(spec.q, k)
        if spec.sigma.delta_max > spec.beta:
            max_new = min(max_new, spec.beta)
        if max_new > self._class_partitions_most:
            # widen at least twofold, so the rising caps of a spectrum
            # rebuild the list about log2(q) times, not once per k
            most = min(spec.q, max(max_new, 2 * self._class_partitions_most))
            self._class_partitions = _partitions(spec.q, most)
            self._class_partitions_most = most
        partitions = [p for p in self._class_partitions if len(p) <= max_new]
        shapes = self._shape_cache
        failed: set[tuple] = set()
        nodes = 0

        def place(i: int, prev: tuple[int, ...], used: int,
                  placed: tuple[int, ...]) -> tuple[int, ...] | None:
            """Profile ids of classes ``i..`` that complete the prefix with
            exactly k colours, or None when no completion exists."""
            nonlocal nodes
            if i == n:
                return () if used == k else None
            state = (i, prev, used, tuple(sorted(placed)))
            if state in failed:
                return None
            # first-placement order: the order the groups below are checked in
            groups = tuple(dict.fromkeys(
                tuple(sorted(group))
                for group in itertools.combinations(placed, cap)
            ))
            # the classes after this one add at most max_new colours each
            least = k - (n - i - 1) * max_new
            for partition in partitions:
                # a binding ends with at most used + len(partition) colours
                if partition > prev or len(partition) < least - used:
                    continue
                for key, new_used in self._bindings(partition, used, least, k):
                    nodes += 1
                    if node_budget is not None and nodes > node_budget:
                        raise BudgetExceededError(
                            f"exceeded {node_budget} nodes deciding k={k}")
                    for group in groups:
                        ok = shapes.get((group, key))
                        if ok is None:
                            ok = self._solve_shape(group, key)
                        if not ok:
                            break
                    else:
                        # a copy joins its id's copies, a new id goes last
                        after = placed
                        if placed.count(key) < cap:
                            at = placed.index(key) if key in placed else len(placed)
                            after = placed[:at] + (key,) + placed[at:]
                        rest = place(i + 1, partition, new_used, after)
                        if rest is not None:
                            return (key,) + rest
            failed.add(state)
            return None

        try:
            found = place(0, (spec.q + 1,), 0, ())
        except BudgetExceededError:
            return KDecision(k=k, verdict="unknown", witness=None, nodes=nodes)
        except RecursionError as exc:  # the search recurses once per class
            raise InstanceTooLargeError(
                f"n={n} classes exceed the engine search's recursion depth"
            ) from exc
        witness = None if found is None else Colouring(classes=tuple(
            tuple(c for c, m in self._keys[i] for _ in range(m)) for i in found
        ))
        return KDecision(k=k, verdict="infeasible" if found is None else "feasible",
                         witness=witness, nodes=nodes)

    def _solve_shape(self, group: tuple[int, ...], key: int) -> bool:
        """Whether every edge over classes with the profiles of ``group``
        (sorted ids) and one of ``key`` sees alpha..beta colours; solved
        once per spec and cached."""
        spec = self.spec
        keys = self._keys
        # the group's profile keys in key order, so the range solver sees
        # one form of a shape whatever order its ids were interned in
        shape_keys = tuple(sorted(keys[g] for g in group)) + (keys[key],)
        verdict = True
        for parts in self.arrangements:
            lo, hi = range_of_keys(shape_keys, parts)
            if lo < spec.alpha or hi > spec.beta:
                verdict = False
                break
        self._shape_cache[(group, key)] = verdict
        return verdict

    def _bindings(self, partition: tuple[int, ...], used: int, lo: int, hi: int
                  ) -> tuple[tuple[int, int], ...]:
        """The canonical colour bindings of ``partition`` after ``used``
        colours that end with ``lo..hi`` colours, as (profile id, new used
        count); cached per window, since they depend on nothing else.

        Parts with equal size form groups; each group takes a set of old
        colours plus fresh ones, fresh identifiers running consecutively,
        larger sizes first.
        """
        # a binding ends with between used and used + len(partition) colours
        window = (partition, used, max(lo, used), min(hi, used + len(partition)))
        cached = self._bindings_cache.get(window)
        if cached is not None:
            return cached
        groups = [(size, len(list(grp)))
                  for size, grp in itertools.groupby(partition)]
        ids, keys = self._ids, self._keys
        out: list[tuple[int, int]] = []

        def assign(gi: int, available: tuple[int, ...], fresh: int,
                   pairs: tuple[tuple[int, int], ...]) -> None:
            if gi == len(groups):
                key = tuple(sorted(pairs))
                if key not in ids:
                    ids[key] = len(keys)
                    keys.append(key)
                out.append((ids[key], used + fresh))
                return
            size, count = groups[gi]
            # t old colours here leave at most used + fresh + (parts left) - t
            # colours at the end, every later part taking a fresh one
            most_old = used + fresh + len(partition) - len(pairs) - lo
            for t in range(min(count, len(available), most_old), -1, -1):
                new_here = count - t
                if used + fresh + new_here > hi:
                    break
                first_new = used + fresh
                new_pairs = tuple((first_new + j, size) for j in range(new_here))
                for olds in itertools.combinations(available, t):
                    rest = tuple(c for c in available if c not in olds)
                    assign(gi + 1, rest, fresh + new_here,
                           pairs + tuple((c, size) for c in olds) + new_pairs)

        assign(0, tuple(range(used)), 0, ())
        cached = self._bindings_cache[window] = tuple(out)
        return cached


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
    out.  Raises ``ValueError`` for k outside [1, n*q], and its subclass
    :class:`InstanceTooLargeError` when the search, one frame per class,
    outgrows Python's recursion limit (n = 900 fits the default one).
    ``_search`` is the search context of ``spec`` shared by one spectrum.
    """
    if not 1 <= k <= spec.num_vertices:
        raise ValueError(f"k={k} outside [1, {spec.num_vertices}]")
    if not spec.has_edges:
        return KDecision(k=k, verdict="feasible",
                         witness=_trivial_colouring(spec, k), nodes=0)
    if _search is None:
        _search = _Search(spec)
    return _search.decide(k, node_budget)


def k_colourable(
    spec: HypergraphSpec, k: int, node_budget: int | None = None
) -> Colouring | None:
    """The search's witness of a k-colouring, or None when none exists;
    ``.canonical()`` on it gives the canonical form.

    Raises :class:`BudgetExceededError` when the budget trips, keeping
    "cannot decide" distinct from "infeasible"; and, as :func:`decide_k`,
    :class:`InstanceTooLargeError`.
    """
    decision = decide_k(spec, k, node_budget)
    if decision.verdict == "unknown":
        raise BudgetExceededError(f"budget exhausted deciding k={k}")
    return decision.witness


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
    search = _Search(spec)
    decisions = [decide_k(spec, k, node_budget, _search=search)
                 for k in range(1, cap + 1)]
    feasible = [d.k for d in decisions if d.verdict == "feasible"]
    unknown = [d.k for d in decisions if d.verdict == "unknown"]
    chi = feasible[0] if feasible else None
    chi_bar = feasible[-1] if feasible else None
    # maximal runs of decided-infeasible k in (chi, chi_bar); an undecided
    # k interrupts a run
    runs = itertools.groupby(range(chi + 1, chi_bar) if feasible else (),
                             key=lambda k: decisions[k - 1].verdict == "infeasible")
    gaps = tuple(IntInterval(run[0], run[-1])
                 for run in (list(ks) for infeasible, ks in runs if infeasible))
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
