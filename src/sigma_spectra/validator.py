"""Deciding whether a colouring satisfies the per-edge colour window.

An edge shape fixes which classes participate and how many vertices come
from each.  Within one class, picking ``a`` vertices can touch a colour set
``S`` iff ``|S| <= a <= sum of S's multiplicities``; only which colours are
touched matters, never how the count splits beyond feasibility.  The solver
walks the classes once, tracking only the part of the running colour union
that future classes can still see, and gives both range ends in one pass;
``find_violation`` reads its pick off the same solver.  The range cache, a
bounded LRU, keys a shape as passed; a miss renames its colours densely to
mask bits.  The validator passes shapes renamed by first appearance (equal
up to colour names, one solve) and caches each class's key and ranges.  The
engine checks its shapes without the solver.

Bounds over whole classes prove most valid colourings valid before any
class tuple is visited (:func:`_certified`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import Callable, Sequence

from .core import (
    ClassProfile, Colouring, HypergraphSpec, ProfileKey, _profile_key, _touch_sets,
)
from .errors import DimensionMismatchError, InfeasibleShapeError

__all__ = [
    "EdgeWitness",
    "edge_colour_range",
    "is_valid",
    "find_violation",
]

@dataclass(frozen=True)
class EdgeWitness:
    """A concrete edge violating the colour window.

    ``per_class_choice[j]`` maps colour -> number of chosen vertices in the
    class ``class_tuple[j]``; the chosen counts sum to ``part_assignment[j]``
    and the union of chosen colours has ``distinct_colours`` members.
    """

    class_tuple: tuple[int, ...]
    part_assignment: tuple[int, ...]
    per_class_choice: tuple[dict[int, int], ...]
    distinct_colours: int


def _descend(touch: list[tuple[int, ...]], future: list[int],
             memo: list[dict[int, tuple[int, int]]], j: int, seen: int
             ) -> tuple[int, int]:
    """The (fewest, most) colours classes ``j..`` add beyond ``seen``,
    kept in ``memo[j]`` by ``seen``; see :func:`_solver`."""
    known = memo[j].get(seen)
    if known is not None:
        return known
    # picks that leave the same colours to later classes share a descent
    added: dict[int, list[int]] = {}
    later = future[j + 1]
    for pick in touch[j]:
        added.setdefault((seen | pick) & later, []).append((pick & ~seen).bit_count())
    lows, highs = [], []
    for after, news in added.items():
        lo, hi = _descend(touch, future, memo, j + 1, after)
        lows.append(min(news) + lo)
        highs.append(max(news) + hi)
    known = memo[j][seen] = min(lows), max(highs)
    return known


def _solver(keys: tuple[ProfileKey, ...], parts: tuple[int, ...]
            ) -> tuple[Callable[[int, int], tuple[int, int]], list[int]]:
    """One DP for both range ends over profile keys with dense colours
    0, 1, ..., each colour a bit of a mask.  ``solve(j, seen)`` is the
    (fewest, most) colours classes ``j..`` add beyond ``seen``.
    ``future[j]`` holds the colours of classes ``j..``; ``seen`` keeps only
    those a later class sees.  The memo is a dict per class, not a cache on
    a closure that calls itself, so a solve is freed by reference counting.
    """
    s = len(parts)
    future = [0] * (s + 1)
    for j in range(s - 1, -1, -1):
        future[j] = future[j + 1] | sum(1 << c for c, _ in keys[j])
    touch = [_touch_sets(key, part) for key, part in zip(keys, parts)]
    # past the last class nothing is seen and nothing added
    memo: list[dict[int, tuple[int, int]]] = [{} for _ in parts] + [{0: (0, 0)}]
    return partial(_descend, touch, future, memo), future


def _dense(keys: Sequence[ProfileKey]) -> tuple[list[int], tuple[ProfileKey, ...]]:
    """The colours of profile ``keys`` in sorted order, and the keys with
    each colour renamed to its place in that order (the solver's dense
    colours)."""
    colours = sorted({c for key in keys for c, _ in key})
    dense = {c: i for i, c in enumerate(colours)}
    return colours, tuple([tuple([(dense[c], m) for c, m in key]) for key in keys])


@lru_cache(maxsize=4096)
def _range_of(profile_keys: tuple[ProfileKey, ...], parts: tuple[int, ...]
              ) -> tuple[int, int]:
    """The (fewest, most) distinct colours over picks of ``parts[j]``
    vertices from the class with profile key ``profile_keys[j]``, raw
    (colour, mult) pairs in any order (the solver and :func:`_touch_sets`
    read a key as a set); no validation.  Keyed by the shape as passed, so
    only a miss renames its colours (:func:`_dense`) and solves."""
    return _solver(_dense(profile_keys)[1], parts)[0](0, 0)


# the name the validator calls the range through
range_of_keys = _range_of


def edge_colour_range(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
) -> tuple[int, int]:
    """Minimum and maximum distinct colours over all vertex selections.

    ``parts[j]`` vertices are drawn from the class described by
    ``profiles[j]``; the range covers every simultaneous choice.  A part
    that is not an int >= 1 (a bool included) raises ``ValueError``.
    """
    if len(profiles) != len(parts) or not parts:
        raise ValueError("profiles and parts must align and be non-empty")
    for prof, a in zip(profiles, parts):
        if type(a) is not int or a < 1:
            raise ValueError(f"part sizes must be ints >= 1, got {a!r}")
        if a > prof.total:
            raise InfeasibleShapeError(
                f"part {a} exceeds class size {prof.total}"
            )
    return range_of_keys(tuple(p.key() for p in profiles), tuple(parts))


def _pick(key: ProfileKey, touched: int, part: int,
          colours: list[int]) -> dict[int, int]:
    """A ``part``-vertex pick touching exactly the colours of mask
    ``touched``: one vertex per colour, then padding in colour order.
    Colour ``c`` of ``key`` is named ``colours[c]``."""
    chosen = [(c, m) for c, m in key if touched >> c & 1]
    pick = {}
    short = part - len(chosen)
    for c, m in chosen:
        extra = min(m - 1, short)
        pick[colours[c]] = 1 + extra
        short -= extra
    return pick


def _selection(keys: Sequence[ProfileKey], parts: tuple[int, ...], target: int
               ) -> tuple[dict[int, int], ...]:
    """Per class of profile ``keys``, a pick whose union has exactly
    ``target`` colours; ``ValueError`` when none has.  Shape unchecked."""
    # the solver wants dense colours; the picks name the real ones
    colours, keys = _dense(keys)
    solve, future = _solver(keys, parts)
    # Swapping one picked vertex moves the union by at most one colour, so
    # every count between a state's two ends is reachable: each class takes
    # the first colour set after which the rest can still reach target.
    picks = []
    seen = 0
    left = target
    for j, (key, part) in enumerate(zip(keys, parts)):
        for touched in _touch_sets(key, part):
            added = (touched & ~seen).bit_count()
            after = (seen | touched) & future[j + 1]
            lo, hi = solve(j + 1, after)
            if lo <= left - added <= hi:
                break
        else:
            raise ValueError(f"no selection reaches exactly {target} distinct colours")
        picks.append(_pick(key, touched, part, colours))
        seen, left = after, left - added
    return tuple(picks)


def _check_dimensions(spec: HypergraphSpec, colouring: Colouring) -> None:
    if not isinstance(colouring, Colouring):
        raise ValueError(f"colouring must be a Colouring, got {colouring!r}")
    if colouring.n != spec.n or colouring.q != spec.q:
        raise DimensionMismatchError(
            f"colouring is {colouring.n}x{colouring.q}, spec needs {spec.n}x{spec.q}"
        )


@cache
def _class_row(mults: tuple[int, ...], top: int, width: int) -> tuple[int, ...]:
    """Per part size ``a`` in ``0..top``, the range of an ``a``-vertex pick
    from a class with colour multiplicities ``mults`` (largest first),
    packed as one int ``lo << width | hi``: as few colours as the largest
    multiplicities it takes to reach ``a``, as many as ``min(a, number of
    colours)``.  Cached: a row depends only on the multiplicity pattern (a
    partition of the class size), never on which colours the class holds,
    so the cache stays bounded however many colourings are checked."""
    row = [0]
    touched = held = 0
    for a in range(1, top + 1):
        while held < a:
            held += mults[touched]
            touched += 1
        row.append(touched << width | min(a, len(mults)))
    return tuple(row)


@lru_cache(maxsize=4096)
def _class_data(cls: tuple[int, ...], top: int, width: int
                ) -> tuple[ProfileKey, tuple[int, ...]]:
    """The profile key of the sorted class ``cls`` and its packed range row
    (:func:`_class_row`), cached: walk steps and probes repeat classes."""
    key = _profile_key(cls)
    return key, _class_row(tuple(sorted([m for _, m in key], reverse=True)), top, width)


def _certified(spec: HypergraphSpec, keys: Sequence[ProfileKey]) -> bool:
    """True when bounds over whole classes, read off the classes' profile
    ``keys``, prove every edge's colour count lies in the window; False
    proves nothing.  With c(1) >= c(2) >= ... the classes' colour counts and
    d1 >= ... >= ds sigma's parts, the high end holds when
    min(sum over j of min(dj, c(j)), colours used) <= beta: an edge sees at
    most min(part, colours) of each of its classes, pairing both lists
    largest first gives the largest such sum, and no edge sees more colours
    than the colouring uses.  The low end is proved at alpha = 2 only, when
    no edge is monochromatic: a colour fills an edge exactly when its
    multiplicities over the classes holding it, largest first, are >= d1,
    ..., ds."""
    if spec.alpha != 2:
        return False
    parts = spec.sigma.parts
    held: dict[int, list[int]] = {}
    for key in keys:
        for c, m in key:
            held.setdefault(c, []).append(m)
    counts = sorted(map(len, keys), reverse=True)
    if min(len(held), sum(map(min, parts, counts))) > spec.beta:
        return False
    return not any(len(mults) >= len(parts)
                   and all(map(int.__ge__, sorted(mults, reverse=True), parts))
                   for mults in held.values())


def _first_violation(spec: HypergraphSpec, colouring: Colouring
                     ) -> tuple[tuple[int, ...], tuple[int, ...], int,
                                tuple[ProfileKey, ...]] | None:
    """The first shape, in shape order, whose colour range leaves the window:
    (class tuple, parts, the offending distinct-colour count, the classes'
    profile keys), or None.

    Each class's profile key and packed per-part ranges come from
    :func:`_class_data`, once per distinct class.  A colouring
    :func:`_certified` proves valid visits no shape; any other is scanned,
    so verdicts and witnesses are the scan's; the scan builds each class's
    colour mask (over the colouring's colours renamed densely).  When a
    shape's classes share no colour, its edges' colours are a disjoint union
    and its range the sum of their ranges, both ends in one sum of packed
    ints (no end exceeds the edge size r, so they never carry); any other
    shape goes to :func:`range_of_keys` with its colours renamed by first
    appearance, in slot order, so shapes equal up to colour names share one
    entry.  A spec's shapes never ask for more vertices than a class holds:
    :func:`edge_colour_range`'s checks are skipped.
    """
    _check_dimensions(spec, colouring)
    if not spec.has_edges:
        return None
    width = spec.r.bit_length()
    low_bits = (1 << width) - 1
    top = spec.sigma.delta_max
    keys, ranges = zip(*[_class_data(cls, top, width) for cls in colouring.classes])
    if _certified(spec, keys):
        return None
    dense: dict[int, int] = {}
    masks = []
    for key in keys:
        mask = 0
        for c, _ in key:
            mask |= 1 << dense.setdefault(c, len(dense))
        masks.append(mask)
    alpha, beta = spec.alpha, spec.beta
    arrangements = spec.sigma.arrangements
    for class_tuple in itertools.combinations(range(spec.n), spec.sigma.s):
        seen = 0
        for i in class_tuple:
            if masks[i] & seen:  # a shared colour: key the shape up to colour names
                names, rows = {}, None
                shape = tuple([tuple([(names.setdefault(c, len(names)), m)
                                      for c, m in keys[i]]) for i in class_tuple])
                break
            seen |= masks[i]
        else:  # the classes share no colour: their ranges add up
            rows = [ranges[i] for i in class_tuple]
        for parts in arrangements:
            if rows is None:
                lo, hi = range_of_keys(shape, parts)
            else:
                total = sum(map(tuple.__getitem__, rows, parts))
                lo, hi = total >> width, total & low_bits
            if lo < alpha or hi > beta:
                return (class_tuple, parts, lo if lo < alpha else hi,
                        tuple(keys[i] for i in class_tuple))
    return None


def is_valid(spec: HypergraphSpec, colouring: Colouring) -> bool:
    """True iff every edge carries between alpha and beta distinct colours.

    Vacuously true when the hypergraph has no edges.
    """
    return _first_violation(spec, colouring) is None


def find_violation(spec: HypergraphSpec, colouring: Colouring) -> EdgeWitness | None:
    """First violating edge in shape order, realised as a concrete pick.

    ``None`` when the colouring is valid.
    """
    found = _first_violation(spec, colouring)
    if found is None:
        return None
    class_tuple, parts, bad, keys = found
    return EdgeWitness(
        class_tuple=class_tuple,
        part_assignment=parts,
        per_class_choice=_selection(keys, parts, bad),
        distinct_colours=bad,
    )
