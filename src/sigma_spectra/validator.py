"""Deciding whether a colouring satisfies the per-edge colour window.

An edge shape fixes which classes participate and how many vertices come
from each.  Within one class, picking ``a`` vertices can touch a colour set
``S`` iff ``|S| <= a <= sum of S's multiplicities``; only which colours are
touched matters, never how the count splits beyond feasibility.  The solver
walks the classes once, tracking only the part of the running colour union
that future classes can still see, and gives both range ends in one pass;
``find_violation`` reads its pick off the same solver.  A shape's colours
are named 0, 1, ... by first appearance in one place (:func:`_named`): the
names are the solver's mask bits, and shapes equal up to colour names, pair
for pair, share one entry of the bounded range cache.  The validator caches
each class's key.  The engine checks its shapes without the solver.

Bounds over whole classes prove most valid colourings valid before any
class tuple is visited (:func:`_certified`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

from .core import (
    ClassProfile, Colouring, HypergraphSpec, ProfileKey, _check_spec, _profile_key,
    _touch_sets,
    edge_shapes,
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


def _named(keys: Sequence[ProfileKey]) -> tuple[list[int], tuple[ProfileKey, ...]]:
    """The colours of profile ``keys`` in order of first appearance, slot by
    slot, and the keys with each colour renamed to its place in that order
    (the solver's dense colours)."""
    names: dict[int, int] = {}
    named = tuple([tuple([(names.setdefault(c, len(names)), m) for c, m in key])
                   for key in keys])
    return list(names), named


@lru_cache(maxsize=4096)
def _range_of(keys: tuple[ProfileKey, ...], parts: tuple[int, ...]
              ) -> tuple[int, int]:
    """The cached solve behind :func:`range_of_keys`, of a named shape."""
    return _solver(keys, parts)[0](0, 0)


def range_of_keys(keys: Sequence[ProfileKey], parts: tuple[int, ...]
                  ) -> tuple[int, int]:
    """The (fewest, most) distinct colours over picks of ``parts[j]``
    vertices from the class with profile key ``keys[j]``, (colour, mult)
    pairs in any order; no validation.  :func:`_named` renames the colours,
    so shapes equal up to colour names, pair for pair, share one solve."""
    return _range_of(_named(keys)[1], parts)


def edge_colour_range(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
) -> tuple[int, int]:
    """Minimum and maximum distinct colours over all vertex selections.

    ``parts[j]`` vertices are drawn from the class described by
    ``profiles[j]``; the range covers every simultaneous choice.  A part
    that is not an int >= 1 (a bool included), or a profile that is not a
    :class:`ClassProfile`, raises ``ValueError``.
    """
    if len(profiles) != len(parts) or not parts:
        raise ValueError("profiles and parts must align and be non-empty")
    for prof, a in zip(profiles, parts):
        if not isinstance(prof, ClassProfile):
            raise ValueError(f"profiles must be ClassProfiles, got {prof!r}")
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
    colours, keys = _named(keys)
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
    _check_spec(spec)
    if not isinstance(colouring, Colouring):
        raise ValueError(f"colouring must be a Colouring, got {colouring!r}")
    if colouring.n != spec.n or colouring.q != spec.q:
        raise DimensionMismatchError(
            f"colouring is {colouring.n}x{colouring.q}, spec needs {spec.n}x{spec.q}"
        )


# the profile key of a sorted class, cached: walk steps and probes repeat classes
_class_key = lru_cache(maxsize=4096)(_profile_key)


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

    Each class's profile key comes from :func:`_class_key`, once per
    distinct class.  A colouring :func:`_certified` proves valid visits no
    shape; any other walks :func:`edge_shapes` through :func:`range_of_keys`,
    so verdicts and witnesses are the scan's.  A spec's shapes never ask for
    more vertices than a class holds: :func:`edge_colour_range`'s checks
    are skipped.
    """
    _check_dimensions(spec, colouring)
    keys = [_class_key(cls) for cls in colouring.classes]
    if _certified(spec, keys):
        return None
    alpha, beta = spec.alpha, spec.beta
    for class_tuple, parts in edge_shapes(spec):
        shape = tuple([keys[i] for i in class_tuple])
        lo, hi = range_of_keys(shape, parts)
        if lo < alpha or hi > beta:
            return class_tuple, parts, lo if lo < alpha else hi, shape
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
