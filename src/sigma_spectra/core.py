"""Instance model for sigma-class hypergraphs and their colourings.

A hypergraph ``H(n, r, q | sigma)`` has ``n`` classes of ``q`` vertices each.
``sigma`` is a partition of ``r``; an r-subset of the vertices is an edge
exactly when its non-zero class-intersection sizes, sorted, equal ``sigma``.

Edges are never materialized here.  Everything downstream works on *edge
shapes* (which classes participate, and which part size lands on which
class) together with per-class colour profiles: whether an edge can violate
a colour-count constraint depends only on those two pieces of data.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from operator import itemgetter
from typing import Any, Iterator, Mapping, Sequence

from .errors import DimensionMismatchError, InvalidPartitionError

__all__ = [
    "Sigma",
    "HypergraphSpec",
    "ClassProfile",
    "Colouring",
    "build_sigma",
    "profile_of",
    "edge_shapes",
    "part_arrangements",
    "count_edges",
    "canonical_colouring",
    "colouring_to_dict",
    "colouring_to_json",
    "colouring_from_json",
]


@dataclass(frozen=True)
class Sigma:
    """A partition of ``r``, built from its part sizes alone.

    ``parts`` is the only argument.  It is stored sorted non-increasing, and
    the rest is derived from it at construction: ``r`` the sum of the parts,
    ``s`` their number, ``delta_max`` the largest and ``delta_min`` the
    smallest.  Raises :class:`InvalidPartitionError` on an empty list or a
    part that is not an integer >= 1 (bools included).
    """

    parts: tuple[int, ...]
    r: int = field(init=False)
    s: int = field(init=False)
    delta_max: int = field(init=False)
    delta_min: int = field(init=False)

    def __post_init__(self) -> None:
        parts = self.parts
        if not parts:
            raise InvalidPartitionError("partition must have at least one part")
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
            raise InvalidPartitionError(f"parts must be positive integers: {parts!r}")
        ordered = tuple(sorted(parts, reverse=True))
        for name, value in (("parts", ordered), ("r", sum(ordered)), ("s", len(ordered)),
                            ("delta_max", ordered[0]), ("delta_min", ordered[-1])):
            object.__setattr__(self, name, value)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    @cached_property
    def arrangements(self) -> tuple[tuple[int, ...], ...]:
        """:func:`part_arrangements` of this partition, built on first use."""
        return part_arrangements(self)


def build_sigma(parts: Sequence[int]) -> Sigma:
    """The :class:`Sigma` of ``parts`` in any order; it checks the parts and
    derives ``r``, ``s``, ``delta_max`` and ``delta_min``."""
    return Sigma(tuple(parts))


@dataclass(frozen=True)
class HypergraphSpec:
    """An instance ``H(n, r, q | sigma)`` together with the colour window.

    ``alpha`` and ``beta`` bound the number of distinct colours every edge
    must carry: ``alpha <= |colours(edge)| <= beta``.
    """

    n: int
    q: int
    sigma: Sigma
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        for name in ("n", "q", "alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.sigma, Sigma):
            raise ValueError(f"sigma must be a Sigma, got {self.sigma!r}")
        if self.n < 1 or self.q < 1:
            raise ValueError(f"need n >= 1 and q >= 1, got n={self.n}, q={self.q}")
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        if self.beta < self.alpha:
            raise ValueError(f"beta must be >= alpha, got ({self.alpha},{self.beta})")

    @property
    def r(self) -> int:
        return self.sigma.r

    @property
    def num_vertices(self) -> int:
        return self.n * self.q

    @property
    def has_edges(self) -> bool:
        """Edges exist iff every part fits in a class and enough classes exist."""
        return self.q >= self.sigma.delta_max and self.n >= self.sigma.s

    def __str__(self) -> str:
        return (
            f"H(n={self.n},r={self.r},q={self.q}|sigma={self.sigma}),"
            f"alpha={self.alpha},beta={self.beta}"
        )


# a class's profile key: its (colour, multiplicity) pairs, sorted by colour
ProfileKey = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ClassProfile:
    """Colour multiplicities within one class: the sufficient statistic.

    ``counts`` maps each colour present in the class to its multiplicity
    (>= 1); ``total`` is the class size ``q``.
    """

    counts: Mapping[int, int]
    total: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", dict(self.counts))
        if any(m < 1 for m in self.counts.values()):
            raise ValueError("profile multiplicities must be >= 1")
        if sum(self.counts.values()) != self.total:
            raise ValueError("profile multiplicities must sum to the class size")

    def key(self) -> ProfileKey:
        """Hashable form: (colour, multiplicity) pairs sorted by colour."""
        return tuple(sorted(self.counts.items()))


@dataclass(frozen=True)
class Colouring:
    """An assignment of colours to all vertices, one tuple per class.

    Vertices within a class are interchangeable, so each class is stored
    sorted by colour.  Colours are small non-negative integers.  Any
    malformed ``classes`` raises ``ValueError``.
    """

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        classes = self.classes
        if not classes:
            raise ValueError("a colouring needs at least one class")
        try:
            q = len(classes[0])
            sizes = set(map(len, classes))
        except (TypeError, LookupError):
            raise ValueError("classes must be a sequence of colour sequences, got "
                             f"{reprlib.repr(classes)}") from None
        if q == 0 or len(sizes) != 1:
            raise ValueError("all classes must hold the same positive vertex count")
        # bool cannot be subclassed, so the set of colour types decides the
        # test; the sort then finds each class's least colour
        types = set(map(type, itertools.chain.from_iterable(classes)))
        if bool in types or not all(issubclass(t, int) for t in types):
            raise ValueError("colours must be non-negative integers")
        ordered = tuple(map(tuple, map(sorted, classes)))
        if min(map(itemgetter(0), ordered)) < 0:
            raise ValueError("colours must be non-negative integers")
        object.__setattr__(self, "classes", ordered)

    @property
    def n(self) -> int:
        return len(self.classes)

    @property
    def q(self) -> int:
        return len(self.classes[0])

    @property
    def colour_count(self) -> int:
        return len(self.colours_used())

    def colours_used(self) -> frozenset[int]:
        return frozenset(c for cls in self.classes for c in cls)

    def canonical(self) -> "Colouring":
        return canonical_colouring(self)


def _profile_key(cls: tuple[int, ...]) -> ProfileKey:
    """The profile key of a sorted class: each colour's vertices are one
    run, so a pair per run."""
    return tuple([(c, len(list(run))) for c, run in itertools.groupby(cls)])


@lru_cache(maxsize=4096)
def _touch_sets(key: ProfileKey, part: int) -> tuple[int, ...]:
    """The colour sets, as bit masks, that a ``part``-vertex pick from a
    class with profile ``key`` can touch: at most ``part`` colours holding
    at least ``part`` vertices.  Cached, 4096 at most: keys of dense colours repeat."""
    return tuple(
        sum(1 << c for c, _ in combo)
        for size in range(1, min(part, len(key)) + 1)
        for combo in itertools.combinations(key, size)
        if sum(m for _, m in combo) >= part
    )


def profile_of(colouring: Colouring, class_index: int) -> ClassProfile:
    """Colour multiplicities of one class of ``colouring``."""
    if not 0 <= class_index < colouring.n:
        raise IndexError(f"class index {class_index} out of range 0..{colouring.n - 1}")
    return ClassProfile(counts=dict(_profile_key(colouring.classes[class_index])),
                        total=colouring.q)


def part_arrangements(sigma: Sigma) -> tuple[tuple[int, ...], ...]:
    """Distinct orderings of sigma's parts (equal parts collapse to one), in
    lexicographically decreasing order.

    Each position takes every distinct value still left, largest first, so
    the cost follows the distinct orderings, not the s! permutations.
    """
    def orders(left: Counter[int]) -> Iterator[tuple[int, ...]]:
        if not left:
            yield ()
        for value in sorted(left, reverse=True):
            for rest in orders(left - Counter([value])):
                yield (value, *rest)

    return tuple(orders(Counter(sigma.parts)))


def _check_spec(spec: object) -> None:
    """Raise ``ValueError`` for a ``spec`` that is not a
    :class:`HypergraphSpec`; every public function taking a spec calls it
    first, or through the first function it calls."""
    if not isinstance(spec, HypergraphSpec):
        raise ValueError(f"spec must be a HypergraphSpec, got {spec!r}")


def edge_shapes(
    spec: HypergraphSpec,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every edge shape of ``spec``, lazily: (class tuple, aligned part sizes).

    A shape is an unordered choice of ``s`` distinct classes plus one
    inequivalent way of assigning sigma's part sizes to them; arrangements
    that only permute equal part sizes appear once.  Empty when the
    hypergraph has no edges.  A bad ``spec`` raises here, not when the
    shapes are first iterated.
    """
    _check_spec(spec)
    if not spec.has_edges:
        return iter(())
    arrangements = spec.sigma.arrangements
    return ((class_tuple, parts)
            for class_tuple in itertools.combinations(range(spec.n), spec.sigma.s)
            for parts in arrangements)


def count_edges(spec: HypergraphSpec) -> int:
    """Number of distinct edges, summed shape by shape as binomial products."""
    total = 0
    for _classes, parts in edge_shapes(spec):
        prod = 1
        for a in parts:
            prod *= comb(spec.q, a)
        total += prod
    return total


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------
#
# The symmetry group is: permute classes, permute colours, permute vertices
# within a class.  The canonical representative is the lexicographically
# least image: colours renamed by any bijection, each class written as its
# sorted tuple, classes in any order, and the tuple of class tuples least.
#
# Classes are placed one at a time.  Lex order fixes each class tuple before
# the next, so every colour map that gives the least prefix is kept, as an
# ordered list of colour cells: cell i holds the colours that take the next
# |cell i| identifiers, in an order not fixed yet.  Placing a class refines
# the cells.  Inside each cell, and then among the colours in no cell, the
# class's colours take the lowest identifiers, larger multiplicity first;
# that makes its sorted tuple least, and colours tied on cell and
# multiplicity stay together as one new cell.  Every map consistent with
# the refined cells gives the same tuple, so no colour order is ever chosen.
# The only branching is over which class comes next among those with the
# least tuple; classes with equal content give equal branches.  Classes
# meet when they share a colour, and each component is canonicalised on its
# own.  A class holding a placed colour gets an identifier below every
# unplaced colour's, so its tuple is less than any class of fresh colours,
# and only such classes are tried past the first.
# A half-placed component has a remaining class that shares a placed
# colour, so the least image places each component whole, then the least
# image of the rest, shifted.  So the forms go in increasing order, but a
# form goes before its proper prefixes: its next class holds a placed
# colour, while the prefix's successor starts on fresh colours.


def _place(
    counts: Mapping[int, int], cells: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The least sorted tuple of a class with colour multiplicities
    ``counts`` under the ordered colour ``cells``, and the refined cells."""
    fresh = tuple(counts.keys() - set().union(*cells))
    key: list[int] = []
    refined: list[tuple[int, ...]] = []
    ident = 0
    for cell in (*cells, fresh) if fresh else cells:
        if counts.keys().isdisjoint(cell):  # the class leaves it as it is
            refined.append(cell)
            ident += len(cell)
            continue
        by_mult: dict[int, list[int]] = {}
        for c in cell:
            by_mult.setdefault(counts.get(c, 0), []).append(c)
        for mult in sorted(by_mult, reverse=True):
            for _ in by_mult[mult]:
                key += [ident] * mult
                ident += 1
            refined.append(tuple(by_mult[mult]))
    return tuple(key), tuple(refined)


def canonical_colouring(colouring: Colouring) -> Colouring:
    """Canonical representative of ``colouring`` under all three symmetries:
    its lexicographically least image, with colours renumbered 0..k-1.

    Idempotent, and equal for any two colourings that differ only by a
    colour permutation, a class permutation, or within-class reordering.
    The search keeps its branches on a stack, so it has no class-count limit.
    """
    link: dict[int, int] = {}  # colour -> a colour of its component

    def root(c: int) -> int:
        while link.setdefault(c, c) != c:
            link[c] = c = link[link[c]]
        return c

    for cls in colouring.classes:
        for c in cls:
            link[root(c)] = root(cls[0])
    components: dict[int, list[tuple[int, ...]]] = {}
    for cls in colouring.classes:
        components.setdefault(root(cls[0]), []).append(cls)
    if len(components) > 1:
        sentinel = (colouring.n * colouring.q,)  # after every class tuple
        forms = (canonical_colouring(Colouring(tuple(part))) for part in components.values())
        merged, shift = [], 0  # shift: the colours of the forms before
        for form in sorted(forms, key=lambda form: form.classes + (sentinel,)):
            merged += (tuple(c + shift for c in cls) for cls in form.classes)
            shift += form.colour_count
        return Colouring(classes=tuple(merged))
    counts = {cls: dict(_profile_key(cls)) for cls in colouring.classes}
    best: tuple[tuple[int, ...], ...] = ()
    stack = [(Counter(colouring.classes), (), ())]  # classes left, cells, placed
    while stack:
        left, cells, placed = stack.pop()
        if not left:
            best = min(best, placed) if best else placed
            continue
        seen = set().union(*cells)
        options = {cls: _place(counts[cls], cells)
                   for cls in left if not cells or not seen.isdisjoint(cls)}
        least = min(key for key, _ in options.values())
        stack += [(left - Counter((cls,)), refined, placed + (key,))
                  for cls, (key, refined) in options.items() if key == least]
    return Colouring(classes=best)


# ---------------------------------------------------------------------------
# JSON colouring format
# ---------------------------------------------------------------------------
#
# {"n": <int>, "q": <int>, "classes": [[colour, ...], ...]}
# The writer emits classes sorted within class, keys in the order above,
# no whitespace variance: writing what the reader produced is bit-exact.


def colouring_to_dict(colouring: Colouring) -> dict[str, Any]:
    """The JSON payload of a colouring, as written by the colouring file
    and embedded in the CLI reports."""
    return {
        "n": colouring.n,
        "q": colouring.q,
        "classes": [list(cls) for cls in colouring.classes],
    }


def colouring_to_json(colouring: Colouring) -> str:
    return json.dumps(colouring_to_dict(colouring), separators=(", ", ": "))


def colouring_from_json(text: str) -> Colouring:
    data = json.loads(text)
    # no other field, as schemas/colouring.schema.json has it
    if not isinstance(data, dict) or set(data) != {"n", "q", "classes"}:
        raise DimensionMismatchError("colouring JSON needs exactly the fields n, q, classes")
    if type(data["n"]) is not int or type(data["q"]) is not int:
        raise DimensionMismatchError("fields 'n' and 'q' must be integers")
    classes = data["classes"]
    if not isinstance(classes, list) or len(classes) != data["n"]:
        raise DimensionMismatchError("field 'classes' must list n classes")
    if any(not isinstance(cls, list) or len(cls) != data["q"] for cls in classes):
        raise DimensionMismatchError("every class must list q colours")
    return Colouring(classes=tuple(tuple(cls) for cls in classes))
