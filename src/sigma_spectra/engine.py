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
that window: a binding is checked against a group at most once per spec,
and a node steps only to the bindings that pass every group it has.  The
edge condition counts distinct colours only, so a verdict is keyed on the
shape up to a colour renaming: the group's colour columns and the new
profile's place in them.  The range solver runs once per such key.

A search context keeps, per spec, only what holds for every k (profile
ids, shape groups with their colour columns, a verdict table per set of
columns, colour bindings per window of final colour counts with their pass
masks, the class partitions); what belongs to one k (budget, node count,
failure memo) is local to one decision.  The search runs on profile ids,
small ints interned per spec: the placed profiles, the shape groups and
the failure memo hold sorted ids, and only the witness maps them back to
profile keys.
"""

from __future__ import annotations

import bisect
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
    whether or not they passed the shape checks; when the budget trips it
    is ``node_budget + 1``, the binding that tripped it.
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
    """Exact-k feasibility searches over class profiles, one context per spec.

    State lives as long as it stays true.  Per spec, across every k: the
    part arrangements, the profile id table, the shape groups, the verdict
    tables, the windows of colour bindings and the partitions of q into as
    many parts as any decision so far allowed a class.  Each profile key is
    interned to a small int when a binding list first yields it (``_ids``
    maps key to id, ``_keys`` id to key), so the search compares and hashes
    ints, never nested tuples.  A shape verdict says whether every edge over
    a group of class profiles plus one new profile sees between alpha and
    beta colours; those profiles fix the colours an edge sees, whatever k
    the whole colouring uses, so the verdict holds for every k.  ``_groups``
    keeps, per group met, its profile keys, colour columns and verdict
    table, the one ``_verdicts`` holds for its sorted columns: it maps a
    relation (how the new profile's colours sit in the group's columns, see
    :meth:`_passing`) to the verdict, so shapes equal up to a colour
    renaming share one.  ``_windows`` holds the binding list of each window
    of final colour counts a node met, so it too holds for every k, and
    its pass masks: for each shape group checked against the window,
    ``(known, ok)``, where bit p of ``known`` says binding p was checked
    against the group and bit p of ``ok`` that it passed.  A node ANDs the
    masks of its groups, checking only the bindings still in the running
    that a group has not seen, so a window's bits fill lazily.  Per
    :meth:`decide`, as its locals: k, the node budget and count, the failure
    memo and the per-class colour cap with the partitions it allows.

    Each node receives the placed profiles as a sorted tuple of ids, at
    most ``s - 1`` copies of each (the most classes an edge shape can share
    with the future).  It is the failure memo's profile part: whether a
    prefix can complete depends only on it, how many classes remain, the
    last partition (the non-increase rule) and the used-colour count.  Its
    distinct ``s - 1``-element groups, sorted as it is, are the shapes
    every child must pass with its new profile.
    """

    def __init__(self, spec: HypergraphSpec):
        self.spec = spec
        self.arrangements = part_arrangements(spec.sigma)
        self._ids: dict[ProfileKey, int] = {}
        self._keys: list[ProfileKey] = []
        # shape group -> _group's (profile keys, colour columns, verdicts)
        self._groups: dict[tuple[int, ...], tuple] = {}
        # sorted colour columns -> relation -> verdict
        self._verdicts: dict[tuple[tuple[int, ...], ...], dict[tuple, bool]] = {}
        # clamped window -> (its bindings, a mask with a bit for each of
        # them, shape group -> (known, ok) pass masks)
        self._windows: dict[tuple, tuple[tuple, int, dict]] = {}
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
        windows = self._windows
        failed: set[tuple] = set()
        nodes = 0

        def place(i: int, prev: tuple[int, ...], used: int,
                  placed: tuple[int, ...]) -> tuple[int, ...] | None:
            """Profile ids of classes ``i..`` that complete the prefix with
            exactly k colours, or None when no completion exists."""
            nonlocal nodes
            if i == n:
                return () if used == k else None
            state = (i, prev, used, placed)
            if state in failed:
                return None
            # combinations of a sorted tuple come out sorted
            groups = tuple(dict.fromkeys(itertools.combinations(placed, cap)))
            # the classes after this one add at most max_new colours each
            least = k - (n - i - 1) * max_new
            lo = least if least > used else used
            for partition in partitions:
                # a binding ends with at most used + len(partition) colours
                top = used + len(partition)
                if partition > prev or top < least:
                    continue
                # least..k clamped to the counts this partition can reach
                window = (partition, used, lo, k if k < top else top)
                entry = windows.get(window)
                if entry is None:
                    bindings = self._bindings(*window)
                    entry = windows[window] = (bindings, (1 << len(bindings)) - 1, {})
                bindings, live, masks = entry
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
                    if node_budget is not None and nodes > node_budget:
                        raise BudgetExceededError(
                            f"exceeded {node_budget} nodes deciding k={k}")
                    key, new_used = bindings[pos]
                    # the id joins at its sorted place, up to cap copies
                    after = placed
                    if placed.count(key) < cap:
                        at = bisect.bisect(placed, key)
                        after = placed[:at] + (key,) + placed[at:]
                    rest = place(i + 1, partition, new_used, after)
                    if rest is not None:
                        return (key,) + rest
                    live ^= low
                nodes += len(bindings) - 1 - last
                if node_budget is not None and nodes > node_budget:
                    raise BudgetExceededError(
                        f"exceeded {node_budget} nodes deciding k={k}")
            failed.add(state)
            return None

        try:
            found = place(0, (spec.q + 1,), 0, ())
        except BudgetExceededError:
            # the count may have stepped past the binding that tripped it
            return KDecision(k=k, verdict="unknown", witness=None,
                             nodes=node_budget + 1)
        except RecursionError as exc:  # the search recurses once per class
            raise InstanceTooLargeError(
                f"n={n} classes exceed the engine search's recursion depth"
            ) from exc
        witness = None if found is None else Colouring(classes=tuple(
            tuple(c for c, m in self._keys[i] for _ in range(m)) for i in found
        ))
        return KDecision(k=k, verdict="infeasible" if found is None else "feasible",
                         witness=witness, nodes=nodes)

    def _group(self, group: tuple[int, ...]
               ) -> tuple[tuple[ProfileKey, ...], dict[int, tuple[int, ...]], dict]:
        """The shape data of ``group`` (sorted ids), built once per spec:
        its profile keys in key order (slot j holds the j-th), each colour's
        column ``(slot, mult, slot, mult, ...)``, and the verdict table of
        its sorted columns, which fix the group up to a colour renaming."""
        # key order, so a group has one slot order whatever order its ids
        # were interned in
        shape_keys = tuple(sorted(map(self._keys.__getitem__, group)))
        cols: dict[int, tuple[int, ...]] = {}
        for slot, key in enumerate(shape_keys):
            for c, m in key:
                cols[c] = cols.get(c, ()) + (slot, m)
        table = self._verdicts.setdefault(tuple(sorted(cols.values())), {})
        info = self._groups[group] = (shape_keys, cols, table)
        return info

    def _passing(self, group: tuple[int, ...], bindings: tuple, fresh: int
                 ) -> int:
        """The bits of ``fresh`` whose bindings pass against ``group``
        (sorted ids): every edge over the group's classes and the binding's
        class sees alpha..beta colours.

        A verdict is solved once per spec for each (sorted group columns,
        relation), the relation pairing each colour of the new profile with
        its column in the group (empty when new to it) and its multiplicity.
        Equal keys give a colour renaming that carries one shape onto the
        other, group slot j to slot j and new class to new class;
        arrangements hand out parts by slot, so the verdicts are equal.  A
        verdict is False at the first arrangement an edge fails.
        """
        shape_keys, cols, table = self._groups.get(group) or self._group(group)
        get, keys, spec = cols.get, self._keys, self.spec
        ok = 0
        while fresh:
            low = fresh & -fresh
            key = bindings[low.bit_length() - 1][0]
            relation = tuple(sorted([(get(c, ()), m) for c, m in keys[key]]))
            verdict = table.get(relation)
            if verdict is None:
                shape = shape_keys + (keys[key],)
                verdict = table[relation] = all(
                    spec.alpha <= lo and hi <= spec.beta
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
        return tuple(out)


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

