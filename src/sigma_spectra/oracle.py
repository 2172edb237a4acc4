"""Literal brute-force oracle for small instances.

Everything here deliberately ignores the profile machinery: vertices are
materialised, edges are enumerated as explicit vertex subsets, and
colourings are enumerated as canonical colour sequences (first vertex gets
colour 0, each later vertex an already-used colour or the next fresh one).
That enumeration covers every surjection onto k colours exactly once up to
colour renaming.  A branch is abandoned as soon as a fully-assigned edge
violates the window or a partially-assigned edge already exceeds beta;
distinct counts only grow as assignments extend, so the pruning loses
nothing.
"""

from __future__ import annotations

import itertools

from .core import HypergraphSpec, _check_spec
from .errors import InstanceTooLargeError

__all__ = ["enumerate_edges", "brute_oracle", "brute_spectrum", "SIZE_CAP"]

SIZE_CAP = 12


def enumerate_edges(spec: HypergraphSpec) -> tuple[tuple[int, ...], ...]:
    """Every edge as a sorted tuple of vertex indices.

    Vertex ``v`` lives in class ``v // q``; an r-subset is an edge iff its
    sorted non-zero class-intersection sizes equal sigma.
    """
    _check_spec(spec)
    signature = spec.sigma.parts
    r = spec.r
    edges = []
    for combo in itertools.combinations(range(spec.num_vertices), r):
        counts: dict[int, int] = {}
        for v in combo:
            cls = v // spec.q
            counts[cls] = counts.get(cls, 0) + 1
        if tuple(sorted(counts.values(), reverse=True)) == signature:
            edges.append(combo)
    return tuple(edges)


def brute_oracle(spec: HypergraphSpec, k: int) -> bool:
    """Literal answer to "is there a valid colouring with exactly k colours".

    Only for instances with at most :data:`SIZE_CAP` vertices.
    """
    _check_spec(spec)
    nv = spec.num_vertices
    if nv > SIZE_CAP:
        raise InstanceTooLargeError(f"{nv} vertices exceeds oracle cap {SIZE_CAP}")
    if not 1 <= k <= nv:
        raise ValueError(f"k={k} outside [1, {nv}]")
    edges = enumerate_edges(spec)
    if not edges:
        return True

    ending_at: list[list[tuple[int, ...]]] = [[] for _ in range(nv)]
    touching: list[list[tuple[int, ...]]] = [[] for _ in range(nv)]
    for e in edges:
        ending_at[e[-1]].append(e)
        for v in e:
            if v != e[-1]:
                touching[v].append(e)

    assign = [-1] * nv

    def ok_after(v: int) -> bool:
        for e in ending_at[v]:
            d = len({assign[u] for u in e})
            if d < spec.alpha or d > spec.beta:
                return False
        for e in touching[v]:
            seen = {assign[u] for u in e if assign[u] != -1}
            if len(seen) > spec.beta:
                return False
        return True

    def place(v: int, used: int) -> bool:
        if v == nv:
            return used == k
        if used + (nv - v) < k:
            return False
        for c in range(min(used + 1, k)):
            assign[v] = c
            if ok_after(v) and place(v + 1, max(used, c + 1)):
                return True
        assign[v] = -1
        return False

    return place(0, 0)


def brute_spectrum(spec: HypergraphSpec) -> tuple[int, ...]:
    """All feasible k by literal enumeration."""
    _check_spec(spec)
    return tuple(
        k for k in range(1, spec.num_vertices + 1) if brute_oracle(spec, k)
    )
