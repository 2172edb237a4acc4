"""Deciding whether a colouring satisfies the per-edge colour window.

An edge shape fixes which classes participate and how many vertices come
from each.  Within one class, picking ``a`` vertices can touch a colour set
``S`` iff ``|S| <= a <= sum of S's multiplicities``; only which colours are
touched matters, never how the count splits beyond feasibility.  The solver
walks the classes once, tracking only the part of the running colour union
that future classes can still see, so results memoise well across the many
shapes sharing profile data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _range_of(
    norm_profiles: tuple[tuple[tuple[int, int], ...], ...],
    parts: tuple[int, ...],
) -> tuple[int, int]:
    s = len(parts)
    counts_per_class = [dict(p) for p in norm_profiles]
    future_colours: list[frozenset[int]] = [frozenset()] * (s + 1)
    for j in range(s - 1, -1, -1):
        future_colours[j] = future_colours[j + 1] | frozenset(counts_per_class[j])

    cache: dict[tuple[int, frozenset[int], bool], int] = {}

    def solve(j: int, seen: frozenset[int], want_max: bool) -> int:
        if j == s:
            return 0
        key = (j, seen, want_max)
        if key in cache:
            return cache[key]
        best: int | None = None
        for new, added in _feasible_new_subsets(counts_per_class[j], parts[j], seen):
            rest = solve(j + 1, (seen | new) & future_colours[j + 1], want_max)
            value = added + rest
            if best is None or (value > best if want_max else value < best):
                best = value
        assert best is not None, "profiles admit at least one selection"
        cache[key] = best
        return best

    return solve(0, frozenset(), False), solve(0, frozenset(), True)


def range_of_keys(
    profile_keys: tuple[tuple[tuple[int, int], ...], ...],
    parts: tuple[int, ...],
) -> tuple[int, int]:
    """Range over raw profile keys ((colour, mult) tuples); no validation.

    Shared fast path for the validator and the search engine.
    """
    return _range_of(*_normalise(profile_keys, parts))


def edge_colour_range(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
) -> tuple[int, int]:
    """Minimum and maximum distinct colours over all vertex selections.

    ``parts[j]`` vertices are drawn from the class described by
    ``profiles[j]``; the range covers every simultaneous choice.
    """
    if len(profiles) != len(parts) or not parts:
        raise ValueError("profiles and parts must align and be non-empty")
    for prof, a in zip(profiles, parts):
        if a < 1:
            raise ValueError(f"part sizes must be >= 1, got {a}")
        if a > prof.total:
            raise InfeasibleShapeError(
                f"part {a} exceeds class size {prof.total}"
            )
    return range_of_keys(tuple(p.key() for p in profiles), tuple(parts))


def selection_achieving(
    profiles: list[ClassProfile] | tuple[ClassProfile, ...],
    parts: list[int] | tuple[int, ...],
    target: int,
) -> tuple[dict[int, int], ...]:
    """A concrete per-class pick whose colour union has exactly ``target``
    distinct colours, or raise ``ValueError`` when none exists.

    Direct search on the real colour identifiers (no normalisation), used
    to materialise witnesses once a violating range is known.
    """
    s = len(parts)
    counts_per_class = [dict(p.counts) for p in profiles]

    def build_choice(counts: dict[int, int], chosen: frozenset[int], part: int
                     ) -> dict[int, int]:
        # one vertex per chosen colour, then pad within the chosen colours
        pick = {c: 1 for c in chosen}
        short = part - len(chosen)
        for c in sorted(chosen):
            if short == 0:
                break
            extra = min(counts[c] - 1, short)
            pick[c] += extra
            short -= extra
        return pick

    def search(j: int, union: frozenset[int], picks: list[frozenset[int]]
               ) -> tuple[dict[int, int], ...] | None:
        if j == s:
            if len(union) != target:
                return None
            return tuple(
                build_choice(counts_per_class[i], picks[i], parts[i])
                for i in range(s)
            )
        counts = counts_per_class[j]
        olds = [c for c in counts if c in union]
        for new, _added in _feasible_new_subsets(counts, parts[j], union):
            base = set(new)
            need = parts[j] - sum(counts[c] for c in base)
            room = parts[j] - len(base)
            for c in sorted(olds, key=lambda c: -counts[c]):
                if (need > 0 or len(base) == 0) and room > 0:
                    base.add(c)
                    need -= counts[c]
                    room -= 1
            chosen = frozenset(base)
            result = search(j + 1, union | chosen, picks + [chosen])
            if result is not None:
                return result
        return None

    result = search(0, frozenset(), [])
    if result is None:
        raise ValueError(f"no selection reaches exactly {target} distinct colours")
    return result


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
