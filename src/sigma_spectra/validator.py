"""Deciding whether a colouring satisfies the per-edge colour window.

An edge shape fixes which classes participate and how many vertices come
from each.  Within one class, picking ``a`` vertices can touch a colour set
``S`` iff ``|S| <= a <= sum of S's multiplicities``; only which colours are
touched matters, never how the count splits beyond feasibility.  The solver
walks the classes once, tracking only the part of the running colour union
that future classes can still see, so results memoise well across the many
shapes sharing profile data.  One pass gives both range ends, and
``selection_achieving`` reads its pick off the same solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

from .core import ClassProfile, Colouring, HypergraphSpec, edge_shapes, profile_of
from .errors import DimensionMismatchError, InfeasibleShapeError

__all__ = [
    "EdgeWitness",
    "edge_colour_range",
    "is_valid",
    "find_violation",
    "selection_achieving",
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


def _normalise(
    profiles: tuple[tuple[tuple[int, int], ...], ...],
    parts: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Cache key: order shape slots deterministically, rename colours densely.

    The answer is invariant under permuting (profile, part) slots together
    and under any global colour renaming, so both are quotiented away before
    the cache lookup.
    """
    slots = sorted(zip(parts, profiles))
    rename: dict[int, int] = {}
    norm_profiles = []
    for _part, prof in slots:
        row = []
        for colour, mult in prof:
            if colour not in rename:
                rename[colour] = len(rename)
            row.append((rename[colour], mult))
        norm_profiles.append(tuple(sorted(row)))
    return tuple(norm_profiles), tuple(p for p, _ in slots)


def _feasible_new_subsets(
    counts: dict[int, int],
    part: int,
    union: frozenset[int],
) -> list[tuple[frozenset[int], int]]:
    """All sets of not-yet-seen colours a ``part``-vertex pick can introduce.

    Returns (new colours, how many) pairs; a candidate is kept when some
    completion with already-seen colours reaches ``part`` vertices without
    exceeding ``part`` distinct colours.
    """
    news = sorted(c for c in counts if c not in union)
    old_mults = sorted((counts[c] for c in counts if c in union), reverse=True)
    old_prefix = [0]
    for m in old_mults:
        old_prefix.append(old_prefix[-1] + m)

    out = []
    for size in range(0, min(part, len(news)) + 1):
        for combo in itertools.combinations(news, size):
            have = sum(counts[c] for c in combo)
            room = min(len(old_mults), part - size)
            if size == 0 and room == 0:
                continue
            if have + old_prefix[room] >= part:
                out.append((frozenset(combo), size))
    return out


def _solver(
    counts_per_class: list[dict[int, int]],
    parts: tuple[int, ...],
) -> tuple[Callable[[int, frozenset[int]], tuple[int, int]], list[frozenset[int]]]:
    """One DP for both range ends: ``solve(j, seen)`` is the (fewest, most)
    colours classes ``j..`` add beyond ``seen``.  ``future[j]`` holds the
    colours of classes ``j..``; ``seen`` keeps only those a later class sees.
    """
    s = len(parts)
    future = [frozenset().union(*counts_per_class[j:]) for j in range(s + 1)]

    @cache
    def solve(j: int, seen: frozenset[int]) -> tuple[int, int]:
        if j == s:
            return 0, 0
        lows, highs = [], []
        for new, added in _feasible_new_subsets(counts_per_class[j], parts[j], seen):
            lo, hi = solve(j + 1, (seen | new) & future[j + 1])
            lows.append(added + lo)
            highs.append(added + hi)
        return min(lows), max(highs)

    return solve, future


@lru_cache(maxsize=None)
def _range_of(
    norm_profiles: tuple[tuple[tuple[int, int], ...], ...],
    parts: tuple[int, ...],
) -> tuple[int, int]:
    return _solver([dict(p) for p in norm_profiles], parts)[0](0, frozenset())


def range_of_keys(
    profile_keys: tuple[tuple[tuple[int, int], ...], ...],
    parts: tuple[int, ...],
) -> tuple[int, int]:
    """Range over raw profile keys ((colour, mult) tuples); no validation.

    Shared fast path for the validator and the engine; one pass, both ends.
    """
    return _range_of(*_normalise(profile_keys, parts))


def _check_shape(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
) -> None:
    if len(profiles) != len(parts) or not parts:
        raise ValueError("profiles and parts must align and be non-empty")
    for prof, a in zip(profiles, parts):
        if a < 1:
            raise ValueError(f"part sizes must be >= 1, got {a}")
        if a > prof.total:
            raise InfeasibleShapeError(
                f"part {a} exceeds class size {prof.total}"
            )


def edge_colour_range(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
) -> tuple[int, int]:
    """Minimum and maximum distinct colours over all vertex selections.

    ``parts[j]`` vertices are drawn from the class described by
    ``profiles[j]``; the range covers every simultaneous choice.
    """
    _check_shape(profiles, parts)
    return range_of_keys(tuple(p.key() for p in profiles), tuple(parts))


def _pick(counts: dict[int, int], new: frozenset[int], part: int,
          seen: frozenset[int]) -> dict[int, int]:
    """A ``part``-vertex pick touching ``new`` plus enough seen colours:
    one vertex per chosen colour, then padding within the chosen colours."""
    base = set(new)
    need = part - sum(counts[c] for c in base)
    for c in sorted((c for c in counts if c in seen), key=lambda c: -counts[c]):
        if (need > 0 or not base) and len(base) < part:
            base.add(c)
            need -= counts[c]
    chosen = frozenset(base)
    pick = {c: 1 for c in chosen}
    short = part - len(chosen)
    for c in sorted(chosen):
        extra = min(counts[c] - 1, short)
        pick[c] += extra
        short -= extra
    return pick


def selection_achieving(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
    target: int,
) -> tuple[dict[int, int], ...]:
    """A concrete per-class pick whose colour union has exactly ``target``
    distinct colours, or raise ``ValueError`` when none exists.

    Read off the range solver run on the real colour identifiers; used to
    materialise witnesses once a violating range is known.
    """
    _check_shape(profiles, parts)
    counts_per_class = [dict(p.counts) for p in profiles]
    solve, future = _solver(counts_per_class, tuple(parts))
    # Swapping one picked vertex moves the union by at most one colour, so
    # every count between a state's two ends is reachable: each class takes
    # the first new-colour set after which the rest can still reach target.
    picks = []
    seen: frozenset[int] = frozenset()
    left = target
    for j, (counts, part) in enumerate(zip(counts_per_class, parts)):
        for new, added in _feasible_new_subsets(counts, part, seen):
            after = (seen | new) & future[j + 1]
            lo, hi = solve(j + 1, after)
            if lo <= left - added <= hi:
                break
        else:
            raise ValueError(f"no selection reaches exactly {target} distinct colours")
        picks.append(_pick(counts, new, part, seen))
        seen, left = after, left - added
    return tuple(picks)


def _check_dimensions(spec: HypergraphSpec, colouring: Colouring) -> None:
    if colouring.n != spec.n or colouring.q != spec.q:
        raise DimensionMismatchError(
            f"colouring is {colouring.n}x{colouring.q}, spec needs {spec.n}x{spec.q}"
        )


def _first_violation(spec: HypergraphSpec, colouring: Colouring
                     ) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """The first shape, in shape order, whose colour range leaves the window:
    (class tuple, parts, the offending distinct-colour count), or None.

    Each class's profile key is built once; the shapes of a spec never ask
    for more vertices than a class holds, so the checks of
    :func:`edge_colour_range` are skipped.
    """
    _check_dimensions(spec, colouring)
    keys = [profile_of(colouring, i).key() for i in range(spec.n)]
    for class_tuple, parts in edge_shapes(spec):
        lo, hi = range_of_keys(tuple(keys[i] for i in class_tuple), parts)
        if lo < spec.alpha:
            return class_tuple, parts, lo
        if hi > spec.beta:
            return class_tuple, parts, hi
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
    class_tuple, parts, bad = found
    choice = selection_achieving(
        [profile_of(colouring, i) for i in class_tuple], parts, bad
    )
    return EdgeWitness(
        class_tuple=class_tuple,
        part_assignment=tuple(parts),
        per_class_choice=choice,
        distinct_colours=bad,
    )
