"""Constructive colourings and recolouring walks.

Each public function either builds a colouring with a promised property or
transforms one valid colouring into another, so that every constructive
feasibility claim made by the closed forms is realised by executable code.
Walk steps are validated as they are produced; a step that breaks validity
is a :class:`TheoremViolationError`, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

# canonical_colouring is unused here; bench/tracing.py wraps it by this name
from .core import Colouring, HypergraphSpec, _check_spec, canonical_colouring  # noqa: F401
from .engine import k_colourable
from .errors import InfeasibleError, NotApplicableError, TheoremViolationError
from .formulas import (MonoDistribution, _check_window_around_s, max_sum_capped_head,
                       mono_zone)
from .validator import is_valid

__all__ = [
    "RecolourStep",
    "WalkStep",
    "mono_distribution",
    "mono_colouring",
    "layered_colouring",
    "beta_colouring",
    "recolour_whole_class",
    "split_to_fixed",
    "spectrum_walk",
    "spectrum_walk_steps",
]


@dataclass(frozen=True)
class RecolourStep:
    """One local recolouring move.

    ``class_index`` is None only for ``engine-fallback`` entries, where the
    next colouring came from the search engine rather than a local move.
    """

    class_index: int | None
    kind: str  # whole-class-to-new | split-to-fixed | engine-fallback


@dataclass(frozen=True)
class WalkStep:
    """One walk step and the in-place snapshot it produced: the previous
    snapshot with only class ``step.class_index`` replaced, or the engine's
    witness for an ``engine-fallback`` step.  ``colour_count`` is derived:
    it reads the snapshot's colour count."""

    step: RecolourStep
    colouring: Colouring

    @property
    def colour_count(self) -> int:
        return self.colouring.colour_count


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def mono_distribution(spec: HypergraphSpec, k: int) -> MonoDistribution:
    """Class counts per colour for a valid all-monochromatic k-colouring.

    Deterministic: every colour covers one class, then colours in order fill
    up to ``unit = floor((s-1)/(alpha-1))`` classes each; what is still left
    (never more than the head slack allows) goes one class each to the
    leading colours.
    """
    zone = mono_zone(spec)
    if zone is None or k not in zone:
        raise InfeasibleError(f"k={k} is not in the monochromatic zone {zone}")
    unit = (spec.sigma.s - 1) // (spec.alpha - 1) if spec.has_edges else spec.n
    counts, left = [], spec.n - k
    for _ in range(k):
        take = min(unit - 1, left)
        counts.append(1 + take)
        left -= take
    return MonoDistribution(counts=tuple(c + (i < left) for i, c in enumerate(counts)))


def mono_colouring(spec: HypergraphSpec, k: int) -> Colouring:
    """A valid colouring with exactly ``k`` colours, every class solid.

    Colour i covers ``counts[i]`` consecutive classes, lowest indices first;
    the counts never increase, so this layout is the canonical form.
    """
    dist = mono_distribution(spec, k)
    classes = []
    for colour, count in enumerate(dist.counts):
        classes.extend([(colour,) * spec.q] * count)
    return Colouring(classes=tuple(classes))


def layered_colouring(spec: HypergraphSpec, k_target: int) -> Colouring:
    """Distinct per-class palettes of ``floor(beta/s)`` colours, plus up to
    ``min(n, beta - s*floor(beta/s))`` fresh singleton vertices, one per
    class, hitting ``k_target`` colours.

    Valid whenever ``alpha <= s <= beta``: an edge meets at least one colour
    per class (palettes are disjoint, so at least s >= alpha) and at most
    ``k`` per class plus every fresh singleton (at most k*s + (beta - k*s)).

    Canonical as built: classes without a singleton first, each class
    numbering its colours on from the last, larger multiplicity first; a
    singleton takes one vertex from a most-repeated colour.
    """
    _check_spec(spec)
    s = spec.sigma.s
    _check_window_around_s(spec.alpha, s, spec.beta)
    k = spec.beta // s
    base_total = spec.n * k
    extras = k_target - base_total
    max_extras = min(spec.n, spec.beta - k * s)
    if extras < 0 or extras > max_extras:
        raise InfeasibleError(
            f"k_target={k_target} outside [{base_total}, "
            f"{base_total + max_extras}]"
        )
    if spec.q < k:
        raise InfeasibleError(f"q={spec.q} cannot hold {k} distinct colours")
    if extras > 0 and spec.q == k:
        raise InfeasibleError("no colour is repeated, cannot free a vertex")

    base, rem = divmod(spec.q, k)
    plain = [base + 1] * rem + [base] * (k - rem)
    single = sorted(plain[1:] + [plain[0] - 1, 1], reverse=True)
    classes, colour = [], 0
    for mults in [plain] * (spec.n - extras) + [single] * extras:
        classes.append(tuple(colour + j for j, m in enumerate(mults)
                             for _ in range(m)))
        colour += len(mults)
    return Colouring(classes=tuple(classes))


def beta_colouring(spec: HypergraphSpec) -> Colouring:
    """The balanced beta-colouring of a gap-recipe class size.

    Every class carries the same ``beta`` colours; within a class,
    ``(Delta-1) - (alpha-1)*floor((Delta-1)/(alpha-1))`` colours repeat one
    extra time, so any ``alpha - 1`` colours cover at most ``Delta - 1``
    vertices and no edge can drop below ``alpha`` colours.  Needs
    ``Delta >= alpha`` and the recipe's exact class size
    ``q = max_sum_capped_head(alpha, beta, Delta)``.
    Canonical as built: every class reads ``0..beta-1``, heavy colours first.
    """
    _check_spec(spec)
    delta = spec.sigma.delta_max
    if delta < spec.alpha:
        raise NotApplicableError(
            f"needs largest part >= alpha, got {delta} < {spec.alpha}"
        )
    q_expected = max_sum_capped_head(spec.alpha, spec.beta, delta)
    if spec.q != q_expected:
        raise InfeasibleError(
            f"q={spec.q} does not match the balanced construction ({q_expected})"
        )
    unit, heavy = divmod(delta - 1, spec.alpha - 1)
    cls: list[int] = []
    for colour in range(spec.beta):
        cls.extend([colour] * (unit + 1 if colour < heavy else unit))
    return Colouring(classes=(tuple(cls),) * spec.n)


# ---------------------------------------------------------------------------
# recolouring moves
# ---------------------------------------------------------------------------


def _replace_class(colouring: Colouring, index: int,
                   new_class: tuple[int, ...]) -> Colouring:
    classes = list(colouring.classes)
    classes[index] = new_class
    return Colouring(classes=tuple(classes))


def recolour_whole_class(colouring: Colouring, class_index: int) -> Colouring:
    """Repaint one whole class with a colour used nowhere else.

    Keeps validity for any window with ``s >= 2`` and smallest part at least
    ``r - beta + 1``.  Only class ``class_index`` changes; the result is not
    canonicalised.  An index outside ``0..n-1`` raises
    :class:`InfeasibleError`.
    """
    if not 0 <= class_index < colouring.n:
        raise InfeasibleError(f"class {class_index} outside 0..{colouring.n - 1}")
    fresh = max(colouring.colours_used()) + 1
    return _replace_class(colouring, class_index, (fresh,) * colouring.q)


def split_to_fixed(
    colouring: Colouring, class_index: int, source: int, target: int
) -> Colouring:
    """Fold one private colour of a class into another of its private
    colours (the class's fixed colour in a layered descent).

    Both colours must be confined to the class; for a window with alpha = 2
    the result stays valid because other classes still contribute a second
    colour and no edge gains any colour.  Only class ``class_index``
    changes; the result is not canonicalised.
    """
    if source == target:
        raise InfeasibleError("source and target must differ")
    private = _private_map(colouring).get(class_index, [])
    for colour in (source, target):
        if colour not in private:
            raise InfeasibleError(
                f"colour {colour} must appear in class {class_index} and nowhere else"
            )
    new_class = tuple(
        target if c == source else c for c in colouring.classes[class_index]
    )
    return _replace_class(colouring, class_index, new_class)


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def _check_walk_spec(spec: HypergraphSpec) -> None:
    s = spec.sigma.s
    if spec.alpha != 2:
        raise NotApplicableError("walks are defined for alpha = 2")
    if not 2 <= s <= spec.beta:
        raise NotApplicableError(f"needs 2 <= s <= beta, got s={s}, beta={spec.beta}")
    if spec.sigma.delta_min < spec.r - spec.beta + 1:
        raise NotApplicableError(
            f"needs smallest part >= r - beta + 1 ="
            f" {spec.r - spec.beta + 1}, got {spec.sigma.delta_min}"
        )


def _private_map(colouring: Colouring) -> dict[int, list[int]]:
    """Class index -> sorted colours appearing in that class and nowhere else."""
    owner: dict[int, int | None] = {}  # None once a second class holds it
    for i, cls in enumerate(colouring.classes):
        for c in cls:
            if owner.setdefault(c, i) != i:
                owner[c] = None
    out: dict[int, list[int]] = {i: [] for i in range(colouring.n)}
    for c in sorted(owner):
        if owner[c] is not None:
            out[owner[c]].append(c)
    return out


def spectrum_walk_steps(
    spec: HypergraphSpec,
    start: Colouring,
    direction: str,
    node_budget: int | None = None,
) -> list[WalkStep]:
    """Full step trace of a recolouring walk, keep-count moves included.

    Walking ``down`` reaches n+1 colours; walking ``up`` reaches one colour
    below the monochromatic zone.  Greedy local moves are tried first; when
    none applies, which only happens walking down, the engine supplies a
    colouring with one colour fewer, recorded as ``engine-fallback``.  Each
    step keeps the in-place snapshot its move produced (see :class:`WalkStep`);
    ``Colouring.canonical()`` gives its canonical form on request.
    """
    _check_spec(spec)
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    _check_walk_spec(spec)
    if not is_valid(spec, start):
        raise InfeasibleError("start colouring is not valid for this window")

    target = spec.n + 1 if direction == "down" else mono_zone(spec).lo - 1
    current = start
    steps: list[WalkStep] = []
    # the private-colour counts (2 meaning two or more) a walk looks for,
    # in order of preference
    wanted = (2, 1) if direction == "down" else (0, 1)
    while (current.colour_count > target if direction == "down"
           else current.colour_count < target):
        if len(steps) >= 4 * spec.n * spec.num_vertices:
            raise TheoremViolationError("walk failed to make progress")
        privates = _private_map(current)
        first_with: dict[int, int] = {}
        for i, cls in enumerate(current.classes):
            if len(set(cls)) > 1:
                first_with.setdefault(min(len(privates[i]), 2), i)
        i = next((first_with[p] for p in wanted if p in first_with), None)
        if i is None:
            # Only a downward walk gets here.  Walking up (α = 2, with edges),
            # every class would be solid or hold 2+ private colours.  No colour
            # lies on s solid classes (their edge would see one colour), so the
            # solid classes S take ⌈|S|/(s−1)⌉+ colours, and if |S| < s the
            # others alone take 2(n − s + 1)+: either way L − 1 or more, with L
            # = max(2, ⌈n/(s−1)⌉) the zone's low end, so the loop has stopped.
            k = current.colour_count - 1
            kind, after = "engine-fallback", k_colourable(spec, k, node_budget)
            if after is None:
                raise TheoremViolationError(
                    f"walk stuck at {k + 1} colours and k={k} is infeasible; "
                    "contradicts the no-gap law")
        elif len(privates[i]) < 2:
            kind, after = "whole-class-to-new", recolour_whole_class(current, i)
        else:
            kind, after = "split-to-fixed", split_to_fixed(
                current, i, privates[i][-1], privates[i][0])
        if not is_valid(spec, after):
            raise TheoremViolationError(
                f"{kind} on class {i} produced an invalid colouring; the no-gap "
                f"analysis rules this out for {spec}")
        steps.append(WalkStep(step=RecolourStep(class_index=i, kind=kind),
                              colouring=after))
        current = after
    return steps


def spectrum_walk(
    spec: HypergraphSpec,
    start: Colouring,
    direction: str,
    node_budget: int | None = None,
) -> list[Colouring]:
    """In-place snapshots of a walk at each new colour count, ``start``
    included as given.

    Consecutive entries differ by exactly one in colour count.
    """
    steps = spectrum_walk_steps(spec, start, direction, node_budget)
    out = [start]
    count = start.colour_count
    for ws in steps:
        if ws.colour_count != count:
            out.append(ws.colouring)
            count = ws.colour_count
    return out
