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
class is bound, by exact tests on integer colour masks (see
:meth:`_Search._group`), failing partial colourings as early as possible.

When sigma has two parts a shape is a pair of profiles, so a failed check
is a clash between two profile ids, true for every n and k of the family.
The search context keeps the clashes the last class met, and the class
before last reads them ahead: a last class whose every binding clashes
with an id already placed is settled, its bindings counted, without the
call (forward checking, Haralick and Elliott 1980).
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, getitem, or_

from .core import Colouring, HypergraphSpec, ProfileKey, Sigma, _check_spec, _touch_sets
# canonical_colouring and range_of_keys are unused here; bench/tracing.py
# wraps them by these names
from .core import canonical_colouring  # noqa: F401
from .errors import BudgetExceededError, InstanceTooLargeError
from .formulas import IntInterval
from .validator import range_of_keys  # noqa: F401

__all__ = [
    "SpectrumResult",
    "KDecision",
    "decide_k",
    "k_colourable",
    "spectrum",
    "WITNESS_VERTEX_LIMIT",
    "SPECTRUM_WITNESS_VERTEX_LIMIT",
]


def _hall_terms(masks: list[int], parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(A, M)`` for each subset J of the classes with colour masks
    ``masks`` that give ``parts`` vertices to an edge: A the parts of the
    classes outside J, M the union of J's colours.  The most colours an edge
    can see is the least ``A + |M|`` (see :meth:`_Search._group`)."""
    terms = [(0, 0)]
    for mask, part in zip(masks, parts):
        terms = [(A + part, M) for A, M in terms] + [(A, M | mask) for A, M in terms]
    return terms


def _ids_at(bindings: tuple, bits: int) -> int:
    """The profile ids of the bindings at the set bits of ``bits``, as bits."""
    ids = 0
    while bits:
        low = bits & -bits
        bits ^= low
        ids |= 1 << bindings[low.bit_length() - 1][0]
    return ids


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
    whether or not they passed the shape checks; a last class its parent
    settles from the clash sets (see :class:`_Search`) still counts its
    windows' bindings, as its visit would.  Once the count passes the
    budget it reads ``node_budget + 1``, wherever the search stopped.
    """

    k: int
    verdict: str  # "feasible" | "infeasible" | "unknown"
    witness: Colouring | None
    nodes: int


@dataclass(frozen=True)
class SpectrumResult:
    """All feasible colour counts of an instance, with gap structure.

    Built from ``feasible_k``, ``unknown_k``, ``k_max``, ``witnesses`` and
    ``nodes_explored``; the rest is derived from them at construction.
    ``chi`` and ``chi_bar`` are the least and largest feasible k (None when
    none is), ``colourable`` says one is, and ``complete`` that no k hit the
    node budget; such k are listed in ``unknown_k`` and excluded from
    ``feasible_k``.  ``gaps`` are the maximal runs of k strictly between
    ``chi`` and ``chi_bar`` that are neither feasible nor unknown, so an
    undecided k interrupts a run.  ``witnesses`` maps each feasible k to
    the search's witness, as in :class:`KDecision`.
    """

    feasible_k: tuple[int, ...]
    unknown_k: tuple[int, ...]
    k_max: int
    chi: int | None = field(init=False)
    chi_bar: int | None = field(init=False)
    gaps: tuple[IntInterval, ...] = field(init=False)
    colourable: bool = field(init=False)
    complete: bool = field(init=False)
    witnesses: dict[int, Colouring] = field(compare=False)
    nodes_explored: dict[int, int] = field(compare=False)

    def __post_init__(self) -> None:
        chi = min(self.feasible_k, default=None)
        chi_bar = max(self.feasible_k, default=None)
        decided = {*self.feasible_k, *self.unknown_k}
        runs = itertools.groupby(range(chi + 1, chi_bar) if self.feasible_k else (),
                                 key=lambda k: k not in decided)
        gaps = tuple(IntInterval(run[0], run[-1])
                     for run in (list(ks) for infeasible, ks in runs if infeasible))
        for name, value in (("chi", chi), ("chi_bar", chi_bar), ("gaps", gaps),
                            ("colourable", bool(self.feasible_k)),
                            ("complete", not self.unknown_k)):
            object.__setattr__(self, name, value)

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


class _Search:
    """Exact-k feasibility searches over class profiles, one context per family
    H(., q | sigma) with its alpha and beta; n is an argument of a decision.

    State lives as long as it stays true.  Per family, across every n and k,
    sized by the profiles and shapes the search met, never by the n*q
    vertices:

    * the profile ids: :meth:`_intern`, called only where :meth:`_window`
      lists a binding, gives each profile key a small int when first met
      (``_ids`` maps key to id, ``_keys`` id to key, ``_heavy`` id to its
      colour masks), so the search compares and hashes ints, never nested
      tuples, and only the witness maps ids back to keys;
    * the shape groups, with their halves of the shape tests and, when
      alpha >= 3, their verdict tables (:meth:`_group`).  A verdict says
      whether every edge over a group of class profiles plus one new
      profile sees between alpha and beta colours; those profiles fix the
      colours an edge sees, whatever n and k the whole colouring has, so it
      holds for every n and k;
    * the window entries (:meth:`_window`);
    * when sigma has two parts, the clash sets: bit y of ``_clash[x]`` says
      binding id y failed group x, a verdict on the pair, so true for the
      whole family.  :meth:`_intern` appends an empty set per id; the last
      class fills them at its mask fills, with the fresh bits that did not
      pass, and the class before last reads them to settle a last class
      whose bindings all clash with an id placed;
    * the partitions of q into at most a held cap, one list with each
      partition's length beside it, read in place by every decision (a
      larger cap relists it at least twice the held cap, up to q, as
      spectra raise caps by one and lone decisions ask once); sigma keeps
      its own part arrangements, built on first use.

    Per :meth:`decide`, as its locals, freed by reference counting alone
    when it returns: n, k, the node budget and count, the failure memo, the
    per-class colour cap, the window entries the decision met and, when
    sigma has two parts, ``lasts``, the last class's windows scanned so far
    per (partition index, used colours), their bindings' count and ids.  A
    (j, used) is scanned only from its second meeting on, and a scan stops
    at the first window holding an id that clashes with no id placed, so
    it builds only windows the last class would build.
    """

    def __init__(self, q: int, sigma: Sigma, alpha: int, beta: int):
        self.q, self.sigma, self.alpha, self.beta = q, sigma, alpha, beta
        self._ids: dict[ProfileKey, int] = {}
        self._keys: list[ProfileKey] = []
        self._heavy: list[tuple[int, ...]] = []
        # sigma of two parts: bit y of _clash[x] says binding id y failed group x
        self._clash: list[int] = []
        # shape group -> _group's (tests, profile keys, colour offsets, verdicts)
        self._groups: dict[int | tuple[int, ...], tuple] = {}
        # alpha >= 3: sorted colour columns -> relation (sorted ints) -> verdict
        self._verdicts: dict[tuple[tuple[int, ...], ...], dict[tuple, bool]] = {}
        # window -> _window's entry
        self._windows: dict[tuple, tuple[int, tuple, list[int], dict]] = {}
        self._partitions: tuple[tuple[int, ...], ...] = ()
        self._lengths: tuple[int, ...] = ()
        self._partitions_cap = 0

    def decide(self, n: int, k: int, node_budget: int | None) -> KDecision:
        """Decide exactly ``k`` colours on ``n`` classes of an instance with
        edges; "unknown" when the budget trips."""
        cap = self.sigma.s - 1
        # An edge may put its largest part, delta_max vertices, on any class,
        # so when delta_max > beta no class may carry more than beta colours.
        # This clamp is the whole largest-part condition: a class of at most
        # beta parts (each part >= 1 vertex) needs at most beta colours to
        # cover delta_max vertices and can never be forced past beta.
        max_new = min(self.q, k)
        if self.sigma.delta_max > self.beta:
            max_new = min(max_new, self.beta)
        partitions, lengths = self._capped_partitions(max_new)
        windows = self._windows
        count = len(partitions)
        # The failure memo.  A node receives the placed profiles as a sorted
        # tuple of ids, at most s - 1 copies of each (the most classes an edge
        # shape can share with the future), and whether the prefix can
        # complete depends only on that tuple and on how many classes remain.
        # The used-colour count and the last partition (where the next class
        # scans from) are functions of the tuple, as each placed class's
        # profile is in it: fresh colours are consecutive, so the prefix uses
        # exactly the colours from 0 to the largest it placed, and partitions
        # are non-increasing in class order, so the last is the least placed
        # one.  So failed[i] holds the placed ids that failed at class i, as
        # a parent keys them for its child, which it tests before the call
        # and adds after a failure: a dict used as a set (smaller than a set
        # from a few thousand entries up), made at the class's first visit.
        # At s = 2 an id is placed once and the key is the ids as bits, an
        # int, so a memo hit builds no tuple; at s >= 3 it is the tuple.  A
        # last class its parent settles from the clash sets is recorded as
        # failed, as after a call that failed.
        failed: defaultdict[int, dict[int | tuple[int, ...], None]] = defaultdict(dict)
        # rows[used * count + j]: the window entry of partitions[j] after used
        # colours, reached by one int-keyed read
        rows: dict[int, tuple] = {}
        nodes = 0
        # sigma of two parts: the last class (i == last) fills the clash
        # sets and the class before last (i == pen) reads them; both are
        # below 0 otherwise.  lasts[used * count + j] is [nodes, ids, next
        # j]: the last class's windows from partitions[j] after used colours
        # scanned so far, each taken at low end k.
        clash = self._clash
        last = n - 1 if cap == 1 else -1
        pen = last - 1
        lasts: dict[int, list[int]] = {}

        def fetch(j: int, used: int, lo: int) -> tuple:
            """The window entry of ``partitions[j]`` after ``used`` colours,
            held at low end ``lo`` or below, looked up or built and stored in
            ``rows``: the miss path of a row read."""
            top = used + lengths[j]
            window = (partitions[j], used, k if k < top else top)
            entry = windows.get(window)
            if entry is None or entry[0] > lo:
                entry = windows[window] = self._window(window, lo)
            rows[used * count + j] = entry
            return entry

        def settles(scan: list[int], used: int, cand: int) -> bool:
            """Whether no binding of the last class at ``scan``'s (j,
            ``used``) has an id in ``cand``, extending the scan window by
            window up to the first whose ids meet ``cand``: every window it
            builds, the last class would build too."""
            found, ids, j = scan
            short, base = k - used, used * count
            while j < count and not ids & cand:
                if short <= lengths[j] <= max_new:
                    entry = rows.get(base + j)
                    if entry is None or entry[0] > k:
                        entry = fetch(j, used, k)
                    held, bindings, ends_from, _ = entry
                    bits = ends_from[k - held]
                    found += bits.bit_count()
                    ids |= _ids_at(bindings, bits)
                j += 1
            scan[:] = found, ids, j
            return not ids & cand

        def place(i: int, j: int, used: int, placed: tuple[int, ...],
                  seen: int) -> tuple[int, ...] | None:
            """Profile ids of classes ``i..`` that complete the prefix with
            exactly k colours, or None when no completion exists; the class
            takes ``partitions[j]`` or a later one.  At s = 2 ``seen`` holds
            the placed ids as bits, the memo key, else 0.  A window visit
            counts its bindings when done: all after failing children, those
            up to the witness's on return.  So the count the budget meets
            here lags by the visits open on the stack, at most one window per
            class; the check when the decision ends sees it whole."""
            nonlocal nodes
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceededError(
                    f"exceeded {node_budget} nodes deciding k={k}")
            # the last class's low end and top count are both k: every
            # binding it takes ends with exactly k colours
            if i == n:
                return ()
            # the classes after this one add at most max_new colours each
            least = k - (n - i - 1) * max_new
            lo = least if least > used else used
            fails, base = failed[i + 1], used * count
            taken = None  # at pen: the ids some placed id clashes with, made once
            # scanning the decreasing list from j keeps class partitions
            # non-increasing; it may hold ones past max_new parts, and a
            # binding ends with at most used + len(partition) colours
            short = least - used
            for j in range(j, count):
                if not short <= lengths[j] <= max_new:
                    continue
                entry = rows.get(base + j)
                if entry is None or entry[0] > lo:
                    entry = fetch(j, used, lo)
                held, bindings, ends_from, masks = entry
                live = bits = ends_from[lo - held]
                # the shape groups every child must pass, walked lazily: a
                # repeat finds known >= live and live <= ok, so asks nothing
                for group in placed if cap == 1 else itertools.combinations(placed, cap):
                    known, ok = masks.get(group, (0, 0))
                    fresh = live & ~known
                    if fresh:
                        ok |= self._passing(group, bindings, fresh)
                        masks[group] = (known | fresh, ok)
                        if i == last:
                            clash[group] |= _ids_at(bindings, fresh & ~ok)
                    live &= ok
                    if not live:
                        break
                # every binding of the window is a node, passing or not
                while live:
                    low = live & -live
                    live ^= low
                    key, new_used = bindings[low.bit_length() - 1]
                    # the id joins at its sorted place, up to cap copies
                    if cap == 1:
                        memo = seen | 1 << key
                        if memo in fails:
                            continue
                    if i == pen:
                        # a last class met before at (j, new_used) fails when
                        # its scanned bindings all clash with an id placed
                        at = new_used * count + j
                        scan = lasts.get(at)
                        if scan is None:
                            lasts[at] = [0, 0, j]
                        else:
                            if taken is None:
                                taken = reduce(or_, map(clash.__getitem__, placed), 0)
                            cand = ~(clash[key] | taken)
                            if not scan[1] & cand and (
                                    scan[2] == count or settles(scan, new_used, cand)):
                                nodes += scan[0]
                                fails[memo] = None
                                continue
                    after = placed
                    if memo != seen if cap == 1 else placed.count(key) < cap:
                        at = bisect.bisect(placed, key)
                        after = placed[:at] + (key,) + placed[at:]
                    if cap > 1:
                        memo = after
                        if memo in fails:
                            continue
                    rest = place(i + 1, j, new_used, after, memo if cap == 1 else 0)
                    if rest is not None:
                        nodes += (bits & (2 * low - 1)).bit_count()
                        return (key,) + rest
                    fails[memo] = None
                nodes += bits.bit_count()
            return None

        try:
            found = place(0, 0, 0, (), 0)
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

    def _capped_partitions(self, cap: int
                           ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The one list the context holds, the partitions of q into at most
        the held cap parts, with their lengths; a decision skips those of
        more than ``cap`` parts.  A larger cap relists at ``max(cap, min(q,
        2 * held cap))``: rising caps relist O(log q) times, a lone cap once."""
        if cap > self._partitions_cap:
            self._partitions_cap = max(cap, min(self.q, 2 * self._partitions_cap))
            self._partitions = ()  # drop the old list before the new one is built
            self._partitions = _partitions(self.q, self._partitions_cap)
            self._lengths = tuple(map(len, self._partitions))
        return self._partitions, self._lengths

    def _window(self, window: tuple[tuple[int, ...], int, int], lo: int
                ) -> tuple[int, tuple, list[int], dict]:
        """The entry of ``window`` held at low end ``lo``, with no pass masks
        yet.  A window is (partition, used colours, top count ``hi``), the
        top count being ``min(k, used + len(partition))``, the most colours
        up to k its bindings can end with; the context keeps one entry per
        window a node met, ``(lo, bindings, ends_from, masks)``:

        * ``lo``, the held low end: the lowest final colour count a node has
          asked of the window;
        * the canonical colour bindings of the partition after ``used``
          colours that end with ``lo..hi`` colours, as (profile id, new used
          count) in generation order (parts of equal size form groups, each
          taking old colours, in colour order, then fresh ones, consecutive
          from ``used`` up, larger sizes first).  Fresh colours lie above
          old ones, so a key is sorted by colour as built: its olds, sorted
          only when an earlier group took some, then its fresh pairs;
        * ``ends_from``: bit p of ``ends_from[e - lo]`` is set when binding p
          ends with at least e colours, lo <= e <= hi (a run of bits per count
          of olds in the last group).  The low end only prunes subtrees, so
          those bits list, in order, the bindings of low end e;
        * ``masks``: for each shape group checked against the entry,
          ``(known, ok)``, where bit p of ``known`` says binding p was
          checked against the group and bit p of ``ok`` that it passed.

        A node at the held low end or above takes the ``ends_from`` bits of
        its low end, the bindings its own list would hold; one at a lower low
        end rebuilds the entry there.  A node ANDs the masks of its groups,
        checking only the bindings still live that a group has not seen, so
        an entry's bits fill lazily and serve every low end."""
        partition, used, hi = window
        groups = [(size, len(list(grp)))
                  for size, grp in itertools.groupby(partition)]
        ids = self._ids
        out: list[tuple[int, int]] = []
        ends_from = [0] * (hi - lo + 2)

        def assign(gi: int, available: tuple[int, ...], taken: ProfileKey,
                   new: ProfileKey) -> None:
            size, count = groups[gi]
            final = gi == len(groups) - 1
            start = used + len(new)
            pairs = tuple(zip(available, itertools.repeat(size)))
            # t old colours here leave at most used + len(partition) - len(taken)
            # - t colours at the end, every part without an old one taking a fresh one
            most_old = used + len(partition) - len(taken) - lo
            for t in range(min(count, len(available), most_old), -1, -1):
                ends = start + count - t
                if ends > hi:
                    break
                here = new + tuple(zip(range(start, ends), itertools.repeat(size)))
                if not final:
                    for olds in itertools.combinations(pairs, t):
                        rest = tuple(c for c in available if (c, size) not in olds)
                        assign(gi + 1, rest, taken + olds, here)
                    continue
                first = len(out)
                for olds in itertools.combinations(pairs, t):
                    key = tuple(sorted(taken + olds)) + here if taken else olds + here
                    pid = ids.get(key)
                    if pid is None:
                        pid = self._intern(key)
                    out.append((pid, ends))
                ends_from[ends - lo] |= (1 << len(out)) - (1 << first)

        assign(0, tuple(range(used)), (), ())
        del assign  # its closure holds it, as place's does
        for e in range(hi - lo, -1, -1):
            ends_from[e] |= ends_from[e + 1]
        return lo, tuple(out), ends_from, {}

    def _intern(self, key: ProfileKey) -> int:
        """A new id for profile ``key``, and its colour masks: ``heavy[a]``
        holds the colours of multiplicity at least a, for a = 0..delta_max,
        so ``heavy[1]`` is the profile's colour set: each colour at its
        multiplicity, capped at delta_max, then one suffix OR."""
        pid = self._ids[key] = len(self._keys)
        self._keys.append(key)
        self._clash.append(0)
        top = self.sigma.delta_max
        heavy = [0] * (top + 1)
        for c, m in key:
            heavy[m if m < top else top] |= 1 << c
        for a in range(top - 1, -1, -1):
            heavy[a] |= heavy[a + 1]
        self._heavy.append(tuple(heavy))
        return pid

    def _group(self, group: int | tuple[int, ...]) -> tuple:
        """The shape data of ``group``, built once per family: ``(tests,
        profile keys, offsets, table)``, the group's half of each shape test
        and, when alpha >= 3, what keys its verdict table.

        A node's shape groups, which every child must pass with its new profile,
        are the ``s - 1``-element combinations of its sorted placed tuple, each
        sorted, walked lazily at each window visit: a repeat asks nothing, as
        its first pass left every live binding known and passing.  When sigma
        has two parts the placed tuple holds each id once and is itself that
        list, so a group is its int id, here and in the pass masks alike;
        otherwise it is a tuple of sorted ids.  Its profile keys are in key
        order, slot j holding the j-th; an arrangement of sigma's parts gives
        its first parts to the slots in order and its last, a, to the new class.

        Per arrangement, two exact tests.  An edge sees one colour c only if
        every class holds at least its part of c, and alpha >= 2 in every
        spec, so a binding fails if ``mono & heavy_new[a]``, ``mono`` being
        the AND of the slots' ``heavy[part]`` (:meth:`_intern`).  A pick of a_j
        vertices from class j can touch any a_j of its colours C_j (a_j <= q
        pads it), so the most colours an edge sees is a bipartite
        b-matching: by the deficiency form of Hall's theorem, the least over
        subsets J of the classes of ``sum(a_j, j not in J) + |union(C_j, j
        in J)|``.  J holds the new class or not, so over the group's ``(A,
        M)`` terms (:func:`_hall_terms`) a binding passes when ``h = min(A +
        |M|) + a`` is at most beta or some ``A + |M | C_new|`` is.
        ``tests`` keeps per arrangement ``(a, mono, terms)``, terms as
        ``(beta - A, M)``: none when h <= beta, else those a new class could
        meet.  Arrangements every binding passes are dropped.

        When alpha >= 3 an edge must also not see 2..alpha-1 colours.  That
        verdict goes in a table per family keyed by the group's sorted
        colour columns, which fix it up to a colour renaming.  A colour's
        column is ``(slot, mult, slot, mult, ...)`` over the slots that hold
        it.  Its offset ``base[c]`` is ``(rank + 1) * (q + 1)``, rank being
        the column's place among the sorted columns that key the table, so
        every group sharing the table gives a column one offset; a colour
        the group lacks reads 0, inside the list or past its end.  ``base[c]
        + m`` for a multiplicity 1 <= m <= q names (column, m) by one int,
        distinct for distinct pairs (a width of q would do too; q - 1 would
        not)."""
        ids = (group,) if type(group) is int else group
        # key order, so a group has one slot order whatever order its ids
        # were interned in
        slots = sorted(ids, key=self._keys.__getitem__)
        shape_keys = tuple(map(self._keys.__getitem__, slots))
        heavy = list(map(self._heavy.__getitem__, slots))
        beta = self.beta
        tests = {}
        for *parts, a in self.sigma.arrangements:
            mono = reduce(and_, map(getitem, heavy, parts), -1)
            hall = _hall_terms([marks[1] for marks in heavy], parts)
            terms = ()
            if min(A + M.bit_count() for A, M in hall) + a > beta:
                # room -1 when no term is left: no new class fits
                terms = tuple((beta - A, M) for A, M in hall
                              if A + M.bit_count() <= beta) or ((-1, 0),)
            if mono or terms:
                tests[a, mono, terms] = None
        base = table = None
        if self.alpha >= 3:
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
        return self._groups.setdefault(group, (tuple(tests), shape_keys, base, table))

    def _passing(self, group: int | tuple[int, ...], bindings: tuple, fresh: int
                 ) -> int:
        """The bits of ``fresh`` whose bindings pass against ``group``:
        every edge over the group's classes and the binding's class sees
        alpha..beta colours, by :meth:`_group`'s tests.

        When alpha >= 3 a binding that passes them reads the low end's
        verdict from the table, solved on a miss by :meth:`_no_small_edge`.
        The relation is the sorted ints ``base[c] + m`` (``m`` past the
        list's end) over the colours c of the new profile with multiplicity
        m: it pairs each colour with its column in the group (empty when new
        to it) and its multiplicity, and within one table offsets are
        injective in the column, so two relations are equal exactly when
        those pairs are.  Equal keys give a colour renaming that carries
        one shape onto the other, group slot j to slot j and new class to
        new class; arrangements hand out parts by slot, so the verdicts are
        equal.
        """
        tests, shape_keys, base, table = self._groups.get(group) or self._group(group)
        if not tests and table is None:
            return fresh
        heavy_of, keys = self._heavy, self._keys
        ok, size = 0, len(base or ())
        while fresh:
            low = fresh & -fresh
            key = bindings[low.bit_length() - 1][0]
            heavy = heavy_of[key]
            colours = heavy[1]
            for a, mono, terms in tests:
                if mono & heavy[a]:
                    break
                for room, M in terms:
                    if (M | colours).bit_count() <= room:
                        break
                else:
                    if terms:  # no term fits: an edge sees more than beta
                        break
            else:
                if table is None:
                    ok |= low
                else:
                    relation = tuple(sorted([base[c] + m if c < size else m
                                             for c, m in keys[key]]))
                    verdict = table.get(relation)
                    if verdict is None:
                        verdict = table[relation] = self._no_small_edge(
                            shape_keys + (keys[key],))
                    if verdict:
                        ok |= low
            fresh ^= low
        return ok

    def _no_small_edge(self, shape_keys: tuple[ProfileKey, ...]) -> bool:
        """Whether no edge over classes with these profile keys sees fewer
        than alpha colours, in any arrangement of sigma's parts: the unions
        of one touch set per class (:func:`_touch_sets`), kept while they
        hold fewer than alpha colours, all die before the last class."""
        for parts in self.sigma.arrangements:
            unions = {0}
            for key, part in zip(shape_keys, parts):
                unions = {u | t for u in unions for t in _touch_sets(key, part)
                          if (u | t).bit_count() < self.alpha}
            if unions:
                return False
        return True

# The most vertices an edgeless witness is built with, and the most that an
# edgeless spectrum's witnesses hold together (one per k); the searched ones
# are bounded by the recursion depth instead
WITNESS_VERTEX_LIMIT = 10**5
SPECTRUM_WITNESS_VERTEX_LIMIT = 10**6


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
    out.  Raises ``ValueError`` for a ``spec`` that is not a
    :class:`HypergraphSpec`, a ``k`` that is not an int in [1, n*q] or a
    ``node_budget`` that is not None or an int >= 0 (a bool is not an int
    here), and its subclass :class:`InstanceTooLargeError` when the
    search, one frame per class, outgrows Python's recursion limit (n = 900
    fits the default one), or when an instance without edges, every k
    feasible, has more than ``WITNESS_VERTEX_LIMIT`` vertices for its
    witness.  ``_search`` is a search context of ``spec``'s family, shared
    by decisions.
    """
    _check_spec(spec)
    if type(k) is not int or not 1 <= k <= spec.num_vertices:
        raise ValueError(f"k must be an int in [1, {spec.num_vertices}], got {k!r}")
    if node_budget is not None and (type(node_budget) is not int or node_budget < 0):
        raise ValueError(f"node_budget must be None or an int >= 0, got {node_budget!r}")
    if not spec.has_edges:
        return KDecision(k=k, verdict="feasible",
                         witness=_trivial_colouring(spec.n, spec.q, k), nodes=0)
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
    ``ValueError`` and :class:`InstanceTooLargeError`.
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
    lone :func:`decide_k` call.  Raises what :func:`decide_k` raises, and
    before any decision ``ValueError`` for a ``k_max`` that is not None or
    an int >= 1 and :class:`InstanceTooLargeError` when an instance
    without edges would keep more than ``SPECTRUM_WITNESS_VERTEX_LIMIT``
    witness vertices over its k.
    """
    _check_spec(spec)
    if k_max is not None and (type(k_max) is not int or k_max < 1):
        raise ValueError(f"k_max must be None or an int >= 1, got {k_max!r}")
    cap = spec.num_vertices if k_max is None else min(k_max, spec.num_vertices)
    if not spec.has_edges and cap * spec.num_vertices > SPECTRUM_WITNESS_VERTEX_LIMIT:
        raise InstanceTooLargeError(
            f"{cap} witnesses of n*q={spec.num_vertices} vertices exceed the "
            f"{SPECTRUM_WITNESS_VERTEX_LIMIT}-vertex limit of an edgeless spectrum")
    search = _Search(spec.q, spec.sigma, spec.alpha, spec.beta)
    decisions = [decide_k(spec, k, node_budget, _search=search)
                 for k in range(1, cap + 1)]
    return SpectrumResult(
        feasible_k=tuple(d.k for d in decisions if d.verdict == "feasible"),
        unknown_k=tuple(d.k for d in decisions if d.verdict == "unknown"),
        k_max=cap,
        witnesses={d.k: d.witness for d in decisions if d.witness is not None},
        nodes_explored={d.k: d.nodes for d in decisions},
    )
