"""Literal oracle: edge materialisation and frozen verdicts."""

import json
from pathlib import Path

import pytest

from sigma_spectra import (
    InstanceTooLargeError,
    brute_oracle,
    brute_spectrum,
    count_edges,
    decide_k,
    enumerate_edges,
)
from sigma_spectra.oracle import SIZE_CAP
from sigma_spectra.verification import nogap_grid
from support import spec_of


class TestEnumerateEdges:
    def test_counts_match_shape_formula(self):
        for args in [(3, 2, [2, 1]), (4, 3, [1, 1, 1]), (3, 4, [2, 2]),
                     (2, 6, [6, 6]), (4, 2, [2, 1, 1])]:
            spec = spec_of(*args, alpha=2, beta=sum(args[2]))
            assert len(enumerate_edges(spec)) == count_edges(spec)

    def test_edges_have_the_right_profile(self):
        spec = spec_of(3, 2, [2, 1], 2, 3)
        for edge in enumerate_edges(spec):
            counts = {}
            for v in edge:
                counts[v // spec.q] = counts.get(v // spec.q, 0) + 1
            assert tuple(sorted(counts.values(), reverse=True)) == (2, 1)


class TestBruteOracle:
    def test_complete_tripartite_needs_three_colours(self):
        # pairwise cross edges, window (2,2): classes must be colour classes
        spec = spec_of(3, 2, [1, 1], 2, 2)
        assert not brute_oracle(spec, 2)
        assert brute_oracle(spec, 3)
        assert brute_spectrum(spec) == (3, 4, 5, 6)

    def test_single_whole_edge_limits(self):
        spec = spec_of(2, 2, [2, 2], 2, 2)
        assert not brute_oracle(spec, 1)  # monochromatic edge
        assert not brute_oracle(spec, 4)  # rainbow edge
        assert brute_oracle(spec, 2)

    def test_point_spectrum_fixture(self):
        assert brute_spectrum(spec_of(5, 2, [2, 2], 3, 3)) == (6,)

    def test_gap_fixture(self):
        assert brute_spectrum(spec_of(5, 2, [2, 2], 2, 2)) == (2, 5)

    def test_size_cap(self):
        with pytest.raises(InstanceTooLargeError):
            brute_oracle(spec_of(7, 2, [1, 1], 2, 2), 2)

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            brute_oracle(spec_of(2, 2, [1, 1], 2, 2), 0)

    def test_edgeless_instances_accept_anything(self):
        spec = spec_of(2, 1, [2, 1], 2, 2)
        assert brute_spectrum(spec) == (1, 2)


def test_witnesses_past_the_oracle_cap_pass_every_literal_edge():
    """Every engine witness of the no-gap grid above the oracle's vertex cap
    gives each enumerated edge between alpha and beta colours.  This checks
    only feasible verdicts: an infeasible one above the cap still rests on
    the theorem suites alone."""
    golden = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "golden.json")
        .read_text(encoding="utf-8")
    )["nogap-sweep"]
    specs = [spec for spec in nogap_grid()
             if SIZE_CAP < spec.num_vertices <= 24]
    assert len(specs) == 36
    for spec in specs:
        edges = enumerate_edges(spec)
        for k in golden[str(spec)]["feasible_k"]:
            decision = decide_k(spec, k)
            assert decision.verdict == "feasible", (spec, k)
            colours = [c for cls in decision.witness.classes for c in cls]
            assert len(set(colours)) == k
            for edge in edges:
                assert spec.alpha <= len({colours[v] for v in edge}) <= spec.beta, \
                    (spec, k, edge)
