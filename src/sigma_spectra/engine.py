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
as early as possible.  A node checks a whole window of bindings against one
shape group at a time, and keeps the verdicts as the group's pass masks on
that window: a binding is checked against a group at most once per family,
and a node steps only to the bindings that pass every group it has.  The
edge condition counts distinct colours only, so a verdict is keyed on the
shape up to a colour renaming: the group's colour columns and the new
profile's place in them.  The range solver runs once per such key.

A search context (:class:`_Search`) keeps, per family H(., q | sigma) with
its alpha and beta, only what holds for every n and k, sized by the profiles
and shapes the search met, never by the n*q vertices; what belongs to one
decision (n, k, budget, node count, failure memo) is local to it and freed,
by reference counting alone, when the decision returns.  The search
runs on profile ids, small ints interned per family: the placed profiles, the
shape groups and the failure memo hold sorted ids, and only the witness maps
them back to profile keys.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .core import Colouring, HypergraphSpec, Sigma, part_arrangements
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
    "WITNESS_VERTEX_LIMIT",
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
    search placed it, not canonical; ``witness.canonical()`` gives that.

    ``nodes`` counts the colour bindings the search tried, in search order,
    whether or not they passed the shape checks; once the count passes the
    budget it reads ``node_budget + 1``, wherever the search stopped.
    """

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
    """Exact-k feasibility searches over class profiles, one context per family
    H(., q | sigma) with its alpha and beta; n is an argument of a decision.

    State lives as long as it stays true.  Per family, across every n and k:
    the part arrangements (built on first use), the profile id tables, the
    shape groups, the verdict tables, the windows of colour bindings and the
    partitions of q into at most the largest colour cap a decision gave a
    class (one list; a smaller cap filters it).  Each profile key is
    interned to a small int when a binding list first yields it (``_ids``
    maps key to id, ``_keys`` id to key), so the search compares and hashes
    ints, never nested tuples.  A shape
    verdict says whether every edge over a group of class profiles plus one
    new profile sees between alpha and beta colours; those profiles fix the
    colours an edge sees, whatever n and k the whole colouring has, so the
    verdict holds for every n and k.
    ``_groups`` keeps, per group met, its profile keys, its colours'
    offsets (see :meth:`_group`) and the verdict table ``_verdicts`` holds
    for its sorted colour columns: it maps a relation (how the new
    profile's colours sit in those columns, as sorted ints, see
    :meth:`_passing`) to the verdict, so shapes equal up to a colour
    renaming share one.  ``_windows`` holds, for each window of final
    colour counts a node met, its binding list and its pass masks: for
    each shape group checked against the window, ``(known, ok)``, where
    bit p of ``known`` says binding p was checked against the group and
    bit p of ``ok`` that it passed.  A node ANDs the masks of its groups,
    checking only the bindings still in the running that a group has not
    seen, so a window's bits fill lazily.  Per :meth:`decide`, as its
    locals, freed when it returns: n, k, the node budget and count, the
    failure memo and the per-class colour cap.

    Each node receives the placed profiles as a sorted tuple of ids, at
    most ``s - 1`` copies of each (the most classes an edge shape can share
    with the future).  It is the failure memo's profile part: whether a
    prefix can complete depends only on it, how many classes remain, the
    last partition (the non-increase rule) and the used-colour count.  The
    memo holds that partition as its index in the decision's partitions,
    which run in decreasing order, so a child scans from that index on; a
    parent tests the memo before it calls a child and fills it after.  The
    placed tuple's distinct ``s - 1``-element groups, sorted as it is, are
    the shapes every child must pass with its new profile.

    A memo state is one flat tuple, ``(i, j, used) + placed``: class index,
    partition index and used-colour count, then the placed ids; the prefix
    has a fixed length, so states never collide, and no placed tuple is
    kept for the memo.  The memo is a dict used as a set: from a few
    thousand states to about 80,000 (the benchmark's largest memos hold
    27,403) Python 3.11 gives a dict the smaller table.
    """

    def __init__(self, q: int, sigma: Sigma, alpha: int, beta: int):
        self.q, self.sigma, self.alpha, self.beta = q, sigma, alpha, beta
        self._ids: dict[ProfileKey, int] = {}
        self._keys: list[ProfileKey] = []
        # shape group -> _group's (profile keys, colour offsets, verdicts)
        self._groups: dict[tuple[int, ...], tuple] = {}
        # sorted colour columns -> relation (sorted ints) -> verdict
        self._verdicts: dict[tuple[tuple[int, ...], ...], dict[tuple, bool]] = {}
        # clamped window -> (bindings, shape group -> (known, ok) pass masks)
        self._windows: dict[tuple, tuple[tuple, dict]] = {}
        # _partitions(q, cap) for the largest per-class colour cap met
        self._partitions: tuple[tuple[int, ...], ...] = ()
        self._partitions_cap = 0

    @cached_property
    def arrangements(self) -> tuple[tuple[int, ...], ...]:
        return part_arrangements(self.sigma)

    def decide(self, n: int, k: int, node_budget: int | None) -> KDecision:
        """Decide exactly ``k`` colours on ``n`` classes; "unknown" when the
        budget trips.  The failure memo and the search closure die when it
        returns; the context keeps only what holds for every n and k."""
        if n < self.sigma.s or self.q < self.sigma.delta_max:  # no edges
            return KDecision(k=k, verdict="feasible",
                             witness=_trivial_colouring(n, self.q, k), nodes=0)
        cap = self.sigma.s - 1
        # An edge may put its largest part, delta_max vertices, on any class,
        # so when delta_max > beta no class may carry more than beta colours.
        # This clamp is the whole largest-part condition: a class of at most
        # beta parts (each part >= 1 vertex) needs at most beta colours to
        # cover delta_max vertices and can never be forced past beta.
        max_new = min(self.q, k)
        if self.sigma.delta_max > self.beta:
            max_new = min(max_new, self.beta)
        partitions = self._capped_partitions(max_new)
        windows = self._windows
        failed: dict[tuple, None] = {}
        nodes = 0

        def place(i: int, j: int, used: int,
                  placed: tuple[int, ...]) -> tuple[int, ...] | None:
            """Profile ids of classes ``i..`` that complete the prefix with
            exactly k colours, or None when no completion exists; the class
            takes ``partitions[j]`` or a later one.  The caller tests the
            failure memo first and fills it on None.  The count, which only
            grows, meets the budget here and when the decision ends."""
            nonlocal nodes
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceededError(
                    f"exceeded {node_budget} nodes deciding k={k}")
            # the last class's window is (partition, used, k, k): every
            # binding in it ends with exactly k colours
            if i == n:
                return ()
            # combinations of a sorted tuple come out sorted
            groups = tuple(dict.fromkeys(itertools.combinations(placed, cap)))
            # the classes after this one add at most max_new colours each
            least = k - (n - i - 1) * max_new
            lo = least if least > used else used
            # partitions run in decreasing order, so scanning from j keeps
            # the class partitions non-increasing
            for j in range(j, len(partitions)):
                partition = partitions[j]
                # a binding ends with at most used + len(partition) colours
                top = used + len(partition)
                if top < least:
                    continue
                # least..k clamped to the counts this partition can reach
                window = (partition, used, lo, k if k < top else top)
                entry = windows.get(window)
                if entry is None:
                    entry = windows[window] = (self._bindings(*window), {})
                bindings, masks = entry
                live = (1 << len(bindings)) - 1
                # AND the groups' masks, checking only the bindings still
                # live that a group has not seen
                for group in groups:
                    known, ok = masks.get(group, (0, 0))
                    fresh = live & ~known
                    if fresh:
                        ok |= self._passing(group, bindings, fresh)
                        masks[group] = (known | fresh, ok)
                    live &= ok
                    if not live:
                        break
                # every binding is a node, passing or not: a step to the
                # next passing one counts the failing ones it skips
                last = -1
                while live:
                    low = live & -live
                    pos = low.bit_length() - 1
                    nodes += pos - last
                    last = pos
                    key, new_used = bindings[pos]
                    # the id joins at its sorted place, up to cap copies
                    after = placed
                    if placed.count(key) < cap:
                        at = bisect.bisect(placed, key)
                        after = placed[:at] + (key,) + placed[at:]
                    state = (i + 1, j, new_used) + after
                    if state not in failed:
                        rest = place(i + 1, j, new_used, after)
                        if rest is not None:
                            return (key,) + rest
                        failed[state] = None
                    live ^= low
                nodes += len(bindings) - 1 - last
            return None

        try:
            found = place(0, 0, 0, ())
        except BudgetExceededError:
            found = None  # nodes > node_budget, reported just below
        except RecursionError as exc:  # the search recurses once per class
            raise InstanceTooLargeError(
                f"n={n} classes exceed the engine search's recursion depth"
            ) from exc
        finally:
            # place's closure holds place; break that cycle, so the memo
            # dies now and not at the collector's next full pass
            del place
        if node_budget is not None and nodes > node_budget:
            return KDecision(k=k, verdict="unknown", witness=None,
                             nodes=node_budget + 1)
        witness = None if found is None else Colouring(classes=tuple(
            tuple(c for c, m in self._keys[i] for _ in range(m)) for i in found
        ))
        return KDecision(k=k, verdict="infeasible" if found is None else "feasible",
                         witness=witness, nodes=nodes)

    def _capped_partitions(self, cap: int) -> tuple[tuple[int, ...], ...]:
        """``_partitions(q, cap)``, read off the one list the context holds,
        which it widens to ``cap`` first if ``cap`` is the largest met."""
        if cap > self._partitions_cap:
            # the partitions into exactly m parts are those of q - m into at
            # most m parts, one added to each part and padded with ones
            # (q = m pads the one partition of 0, (0,), to m ones)
            wider = [tuple(part + 1 for part in p) + (1,) * (m - len(p))
                     for m in range(self._partitions_cap + 1, cap + 1)
                     for p in _partitions(self.q - m, m)]
            self._partitions = tuple(sorted(wider + list(self._partitions), reverse=True))
            self._partitions_cap = cap
        if cap == self._partitions_cap:
            return self._partitions
        return tuple(p for p in self._partitions if len(p) <= cap)  # still decreasing

    def _group(self, group: tuple[int, ...]
               ) -> tuple[tuple[ProfileKey, ...], list[int], dict]:
        """The shape data of ``group`` (sorted ids), built once per family:
        its profile keys in key order (slot j holds the j-th), its colours'
        offsets in a list up to its largest colour, and the verdict table of
        its sorted columns, which fix the group up to a colour renaming.

        A colour's column is ``(slot, mult, slot, mult, ...)`` over the
        group's slots that hold it.  Its offset ``base[c]`` is ``(rank + 1)
        * (q + 1)``, rank being the column's place among the sorted columns
        that key the table, so every group sharing the table gives a column
        one offset; a colour the group lacks reads 0, inside the list or past
        its end.  ``base[c] + m`` for a multiplicity 1 <= m <= q names
        (column, m) by one int, distinct for distinct pairs (a width of q
        would do too; q - 1 would not)."""
        # key order, so a group has one slot order whatever order its ids
        # were interned in
        shape_keys = tuple(sorted(map(self._keys.__getitem__, group)))
        cols: dict[int, tuple[int, ...]] = {}
        for slot, key in enumerate(shape_keys):
            for c, m in key:
                cols[c] = cols.get(c, ()) + (slot, m)
        columns = tuple(sorted(cols.values()))
        base = [0] * (max(cols, default=-1) + 1)
        for c, column in cols.items():
            # equal columns share the rank of the first of them
            base[c] = (columns.index(column) + 1) * (self.q + 1)
        table = self._verdicts.setdefault(columns, {})
        return self._groups.setdefault(group, (shape_keys, base, table))

    def _passing(self, group: tuple[int, ...], bindings: tuple, fresh: int
                 ) -> int:
        """The bits of ``fresh`` whose bindings pass against ``group``
        (sorted ids): every edge over the group's classes and the binding's
        class sees alpha..beta colours.

        A verdict is solved once per family for each (sorted group columns,
        relation).  The relation is the sorted ints ``base[c] + m`` (``m``
        past the list's end) over the colours c of the new profile with
        multiplicity m (see :meth:`_group`): it pairs each colour with its
        column in the group (empty when new to it) and its multiplicity, and
        within one table offsets are injective in the column, so two
        relations are equal exactly when those pairs are.  Equal keys give a
        colour renaming that carries one shape onto the other, group slot j
        to slot j and new class to new class; arrangements hand out parts by
        slot, so the verdicts are equal.  A verdict is False at the first
        arrangement an edge fails.
        """
        shape_keys, base, table = self._groups.get(group) or self._group(group)
        keys = self._keys
        ok, size = 0, len(base)
        while fresh:
            low = fresh & -fresh
            key = bindings[low.bit_length() - 1][0]
            relation = tuple(sorted([base[c] + m if c < size else m
                                     for c, m in keys[key]]))
            verdict = table.get(relation)
            if verdict is None:
                shape = shape_keys + (keys[key],)
                verdict = table[relation] = all(
                    self.alpha <= lo and hi <= self.beta
                    for lo, hi in (range_of_keys(shape, parts)
                                   for parts in self.arrangements))
            if verdict:
                ok |= low
            fresh ^= low
        return ok

    def _bindings(self, partition: tuple[int, ...], used: int, lo: int, hi: int
                  ) -> tuple[tuple[int, int], ...]:
        """The canonical colour bindings of ``partition`` after ``used``
        colours that end with ``lo..hi`` colours, as (profile id, new used
        count), in generation order.

        Parts with equal size form groups; each group takes a set of old
        colours plus fresh ones, fresh identifiers running consecutively,
        larger sizes first.
        """
        groups = [(size, len(list(grp)))
                  for size, grp in itertools.groupby(partition)]
        ids, keys = self._ids, self._keys
        out: list[tuple[int, int]] = []

        def assign(gi: int, available: tuple[int, ...], fresh: int,
                   pairs: tuple[tuple[int, int], ...]) -> None:
            size, count = groups[gi]
            final = gi == len(groups) - 1
            # t old colours here leave at most used + fresh + (parts left) - t
            # colours at the end, every later part taking a fresh one
            most_old = used + fresh + len(partition) - len(pairs) - lo
            for t in range(min(count, len(available), most_old), -1, -1):
                ends = used + fresh + count - t
                if ends > hi:
                    break
                new_pairs = tuple(zip(range(used + fresh, ends),
                                      itertools.repeat(size)))
                for olds in itertools.combinations(available, t):
                    here = pairs + tuple(zip(olds, itertools.repeat(size))) + new_pairs
                    if not final:
                        assign(gi + 1, tuple(c for c in available if c not in olds),
                               ends - used, here)
                        continue
                    key = tuple(sorted(here))
                    pid = ids.get(key)
                    if pid is None:
                        pid = ids[key] = len(keys)
                        keys.append(key)
                    out.append((pid, ends))

        assign(0, tuple(range(used)), 0, ())
        del assign  # its closure holds it, as place's does
        return tuple(out)


# The most vertices an edgeless witness is built with; the searched ones are
# bounded by the recursion depth instead
WITNESS_VERTEX_LIMIT = 10**5


def _trivial_colouring(n: int, q: int, k: int) -> Colouring:
    """A k-colouring of n edgeless classes of q vertices, in canonical form:
    colour 0 on the first ``n*q - k + 1`` vertices, then one per colour.
    Past ``WITNESS_VERTEX_LIMIT`` vertices it raises
    :class:`InstanceTooLargeError`."""
    if n * q > WITNESS_VERTEX_LIMIT:
        raise InstanceTooLargeError(
            f"n*q={n * q} vertices exceed the {WITNESS_VERTEX_LIMIT}-vertex "
            "limit of an edgeless witness")
    shift = n * q - k
    return Colouring(classes=tuple(
        tuple(max(0, t - shift) for t in range(i * q, (i + 1) * q))
        for i in range(n)))


def decide_k(spec: HypergraphSpec, k: int, node_budget: int | None = None,
             *, _search: _Search | None = None) -> KDecision:
    """Decide whether a valid colouring with exactly ``k`` colours exists.

    Returns verdict "unknown" instead of raising when the node budget runs
    out.  Raises ``ValueError`` for k outside [1, n*q], and its subclass
    :class:`InstanceTooLargeError` when the search, one frame per class,
    outgrows Python's recursion limit (n = 900 fits the default one), or
    when an instance without edges, every k feasible, has more than
    ``WITNESS_VERTEX_LIMIT`` vertices for its witness.
    ``_search`` is a search context of ``spec``'s family, shared by decisions.
    """
    if not 1 <= k <= spec.num_vertices:
        raise ValueError(f"k={k} outside [1, {spec.num_vertices}]")
    if _search is None:
        _search = _Search(spec.q, spec.sigma, spec.alpha, spec.beta)
    return _search.decide(spec.n, k, node_budget)


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

    Each k goes through :func:`decide_k` with one context of the spec's
    family, n an argument of each decision, so what holds for every n and k
    is found once; each verdict, witness and node count equals that of a
    lone :func:`decide_k` call.
    """
    cap = spec.num_vertices if k_max is None else min(k_max, spec.num_vertices)
    if cap < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    search = _Search(spec.q, spec.sigma, spec.alpha, spec.beta)
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

