"""Closed-form bounds, zone formulas and threshold predicates.

Everything here is a pure integer formula; the exhaustive cross-checks that
justify each formula live in :mod:`sigma_spectra.verification` and the test
suite.  The two partition bounds below are the workhorses: the other
results reduce to "how many non-increasing positive parts can sum to what,
when the largest ``a - 1`` parts are capped", and the thresholds here and
the builders in :mod:`sigma_spectra.constructions` call the two bounds
rather than re-deriving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .core import HypergraphSpec, Sigma
from .errors import DomainError, NotApplicableError

__all__ = [
    "IntInterval",
    "MonoDistribution",
    "max_sum_capped_head",
    "min_parts_capped_head",
    "min_parts_formula",
    "min_parts_attainable",
    "mono_zone",
    "mono_zone_lower_bound",
    "extended_interval",
    "zone_only_condition",
    "no_mono_zone_above",
    "uncolourable_condition",
    "gap_instance_params",
]


@dataclass(frozen=True)
class IntInterval:
    """Closed integer interval [lo, hi]; empty when lo > hi.

    Empty intervals are normalised to (0, -1) so equality works.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", -1)

    @classmethod
    def empty(cls) -> "IntInterval":
        return cls(0, -1)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, k: object) -> bool:
        return isinstance(k, int) and self.lo <= k <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def to_json(self) -> list[int] | None:
        return None if self.is_empty else [self.lo, self.hi]


@dataclass(frozen=True)
class MonoDistribution:
    """How many classes each colour covers in an all-monochromatic colouring.

    ``counts`` is non-increasing; its length is the number of colours used.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts or any(c < 1 for c in self.counts):
            raise ValueError("counts must be positive")
        if any(a < b for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-increasing")

    @property
    def num_colours(self) -> int:
        return len(self.counts)


def _check_cap_domain(a: int, d: int) -> None:
    if not 2 <= a <= d:
        raise DomainError(f"need 2 <= a <= d, got a={a}, d={d}")


def _check_window_around_s(alpha: int, s: int, beta: int) -> None:
    if not alpha <= s <= beta:
        raise NotApplicableError(f"needs alpha <= s <= beta, got ({alpha},{s},{beta})")


def max_sum_capped_head(a: int, b: int, d: int) -> int:
    """Largest sum of ``b`` non-increasing positive integers whose largest
    ``a - 1`` entries sum to at most ``d - 1``.

    Equals ``(b - a + 1) * floor((d-1)/(a-1)) + d - 1``.
    """
    _check_cap_domain(a, d)
    if b < a:
        raise DomainError(f"need b >= a, got a={a}, b={b}")
    return (b - a + 1) * ((d - 1) // (a - 1)) + d - 1


def min_parts_formula(a: int, d: int, n: int) -> int:
    """Raw ceiling formula for the least number of parts summing to ``n``.

    For small ``n`` the value can drop below ``a``, where no vector of the
    required length exists; see :func:`min_parts_capped_head`.
    """
    _check_cap_domain(a, d)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    unit, slack = divmod(d - 1, a - 1)
    return -((n - slack) // -unit)


def min_parts_attainable(a: int, d: int, n: int) -> bool:
    """Whether any vector in the domain of :func:`min_parts_capped_head`
    exists at all: at least ``a`` positive parts must sum to ``n``."""
    _check_cap_domain(a, d)
    return n >= a


def min_parts_capped_head(a: int, d: int, n: int) -> int:
    """Least ``b >= a`` such that ``b`` non-increasing positive integers with
    the largest ``a - 1`` summing to at most ``d - 1`` can sum to exactly
    ``n``; the raw formula clamped up to ``a``.

    Only meaningful when :func:`min_parts_attainable` holds (``n >= a``);
    for smaller ``n`` the clamped value is still returned so callers can
    report it, but no witness vector exists.
    """
    return max(a, min_parts_formula(a, d, n))


def mono_zone_lower_bound(spec: HypergraphSpec) -> int:
    """Fewest colours admitting an all-monochromatic colouring, assuming
    ``alpha <= s <= beta`` and that edges exist."""
    s = spec.sigma.s
    if not spec.alpha <= s:
        raise NotApplicableError(f"needs alpha <= s, got alpha={spec.alpha}, s={s}")
    return min_parts_capped_head(spec.alpha, s, spec.n)


def mono_zone(spec: HypergraphSpec) -> IntInterval | None:
    """The interval of k admitting a valid all-monochromatic k-colouring.

    * no edges: every monochromatic colouring is vacuously valid -> [1, n];
    * alpha <= s <= beta: [lower bound from the partition formula, n];
    * s < alpha: empty (an edge meets at most s < alpha colours);
    * s > beta with n at or past the :func:`no_mono_zone_above` threshold:
      empty;
    * s > beta below that threshold: ``None`` (not determined here).
    """
    s = spec.sigma.s
    if not spec.has_edges:
        return IntInterval(1, spec.n)
    if s < spec.alpha:
        return IntInterval.empty()
    if s <= spec.beta:
        return IntInterval(mono_zone_lower_bound(spec), spec.n)
    if no_mono_zone_above(spec):
        return IntInterval.empty()
    return None


def no_mono_zone_above(spec: HypergraphSpec) -> bool:
    """True when ``s > beta`` and ``n`` is large enough that no
    all-monochromatic colouring can stay within ``beta`` colours per edge.

    False for edgeless instances: with nothing to violate, every
    monochromatic colouring is vacuously valid.
    """
    s = spec.sigma.s
    if not spec.has_edges or s <= spec.beta:
        return False
    return spec.n > max_sum_capped_head(spec.alpha, spec.beta, s)


def extended_interval(spec: HypergraphSpec) -> IntInterval:
    """Interval of k guaranteed feasible when ``alpha <= s <= beta``.

    Write ``beta = s*k + t`` with ``k >= 1``; per-class palettes of ``k``
    fresh colours plus up to ``beta - k*s`` extra singletons stretch the
    all-monochromatic range up to ``min(n*q, n*k + beta - k*s)``.
    """
    s = spec.sigma.s
    _check_window_around_s(spec.alpha, s, spec.beta)
    k = spec.beta // s
    upper = min(spec.n * spec.q, spec.n * k + spec.beta - k * s)
    return IntInterval(mono_zone_lower_bound(spec), upper)


def zone_only_condition(spec: HypergraphSpec) -> bool:
    """Threshold under which the spectrum collapses to the monochromatic
    zone: ``Delta >= 2``, ``2 <= alpha <= s = beta``, ``n >= s**2`` and
    ``q >= (Delta-1)*beta + 1``."""
    s = spec.sigma.s
    delta_max = spec.sigma.delta_max
    return (
        delta_max >= 2
        and 2 <= spec.alpha <= s
        and s == spec.beta
        and spec.n >= s * s
        and spec.q >= (delta_max - 1) * spec.beta + 1
    )


def uncolourable_condition(spec: HypergraphSpec) -> bool:
    """Threshold past which no (alpha,beta)-colouring exists at all.

    Two regimes, both needing ``q >= beta*(Delta-1) + 1``:

    * ``1 <= s < alpha <= beta < r`` with ``n >= 2s - 1``;
    * ``1 < alpha <= beta < s < r`` with
      ``n >= floor((s-1)/(alpha-1))*(s-alpha) + 2s - 1``.
    """
    s = spec.sigma.s
    r = spec.r
    delta_max = spec.sigma.delta_max
    if spec.q < spec.beta * (delta_max - 1) + 1:
        return False
    if s < spec.alpha <= spec.beta < r:
        return spec.n >= 2 * s - 1
    if 1 < spec.alpha <= spec.beta < s < r:
        return spec.n >= max_sum_capped_head(spec.alpha, s - 1, s) + s
    return False


def gap_instance_params(alpha: int, beta: int, sigma: Sigma) -> tuple[int, int]:
    """Class size ``q`` and least class count ``n_min`` for which the
    (alpha,beta)-spectrum is guaranteed to contain a gap.

    Needs ``Delta >= alpha``, ``delta <= r - beta`` and
    ``alpha <= s <= beta``.  Returns ``q = max_sum_capped_head(alpha, beta,
    Delta)`` and ``n_min = C(beta+1, alpha-1)*(s-1) + s``.
    """
    if sigma.delta_max < alpha:
        raise NotApplicableError(
            f"needs largest part >= alpha, got {sigma.delta_max} < {alpha}"
        )
    if sigma.delta_min > sigma.r - beta:
        raise NotApplicableError(
            f"needs smallest part <= r - beta, got {sigma.delta_min} > {sigma.r - beta}"
        )
    _check_window_around_s(alpha, sigma.s, beta)
    q = max_sum_capped_head(alpha, beta, sigma.delta_max)
    n_min = comb(beta + 1, alpha - 1) * (sigma.s - 1) + sigma.s
    return q, n_min
