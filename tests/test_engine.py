"""Search engine: exact k decisions, spectra, gaps, budgets, determinism."""

import json
from collections import Counter
from pathlib import Path

import pytest

from sigma_spectra import (
    BudgetExceededError,
    HypergraphSpec,
    IntInterval,
    build_sigma,
    brute_oracle,
    decide_k,
    extended_interval,
    is_valid,
    k_colourable,
    mono_zone,
    spectrum,
    verify_interval,
)
from sigma_spectra.formulas import gap_instance_params
from sigma_spectra.verification import gap_cells, nogap_grid


def spec_of(n, q, parts, alpha, beta):
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)


A2 = spec_of(5, 2, [2, 2], 3, 3)
GAP22 = spec_of(5, 2, [2, 2], 2, 2)


def assert_search_layout(w):
    """The search places class partitions (sorted colour multiplicities)
    lexicographically non-increasing in class order."""
    partitions = [sorted(Counter(cls).values(), reverse=True)
                  for cls in w.classes]
    assert partitions == sorted(partitions, reverse=True), w


class TestKColourable:
    def test_a2_feasible_only_at_six(self):
        assert k_colourable(A2, 6) is not None
        assert k_colourable(A2, 5) is None

    def test_witness_is_valid_exact_in_search_layout(self):
        w = k_colourable(A2, 6)
        assert is_valid(A2, w)
        assert w.colour_count == 6
        assert_search_layout(w)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            k_colourable(A2, 0)
        with pytest.raises(ValueError):
            k_colourable(A2, 11)

    def test_budget_raises_not_misreports(self):
        big = spec_of(7, 6, [6, 6], 3, 3)
        with pytest.raises(BudgetExceededError):
            k_colourable(big, 4, node_budget=50)

    def test_unknown_verdict_distinct_from_infeasible(self):
        big = spec_of(7, 6, [6, 6], 3, 3)
        d = decide_k(big, 4, node_budget=50)
        assert d.verdict == "unknown"
        assert d.witness is None


class TestSpectrum:
    def test_a2_point_spectrum(self):
        res = spectrum(A2)
        assert res.feasible_k == (6,)
        assert res.chi == res.chi_bar == 6
        assert res.gaps == ()
        assert res.colourable and res.complete

    def test_gap_instance(self):
        res = spectrum(GAP22)
        assert res.feasible_k == (2, 5)
        assert res.gaps == (IntInterval(3, 4),)
        assert res.chi == 2 and res.chi_bar == 5

    def test_no_edges_every_k_feasible(self):
        spec = spec_of(3, 1, [2, 1], 2, 2)  # q < largest part
        res = spectrum(spec)
        assert res.feasible_k == tuple(range(1, 4))
        for k, w in res.witnesses.items():
            assert w.colour_count == k
            assert w.canonical() == w

    def test_k_max_caps_the_range(self):
        res = spectrum(GAP22, k_max=3)
        assert res.k_max == 3
        assert res.feasible_k == (2,)

    def test_budget_marks_incomplete(self):
        big = spec_of(7, 6, [6, 6], 3, 3)
        res = spectrum(big, k_max=4, node_budget=100)
        assert not res.complete
        assert 4 in res.unknown_k

    def test_unknown_k_never_reported_as_gap(self):
        # 3 and 8 decide quickly; 4..7 trip a small budget, so no run in
        # between is proven and no gap may be claimed
        big = spec_of(7, 6, [6, 6], 3, 3)
        res = spectrum(big, k_max=8, node_budget=2_000)
        assert 3 in res.feasible_k and 8 in res.feasible_k
        assert set(res.unknown_k) >= {5, 6, 7}
        for gap in res.gaps:
            for k in gap:
                assert k not in res.unknown_k

    def test_deterministic_across_runs(self):
        a = spectrum(GAP22)
        b = spectrum(GAP22)
        assert a == b
        assert a.witnesses == b.witnesses

    @pytest.mark.parametrize("node_budget", [None, 200])
    def test_shared_search_matches_lone_decisions(self, node_budget):
        # a budget of 200 trips inside many k, so any state a tripped k
        # left in the shared search would show in the k after it
        specs = [*nogap_grid(), GAP22, A2]
        for spec in specs:
            res = spectrum(spec, node_budget=node_budget)
            for k in range(1, spec.num_vertices + 1):
                d = decide_k(spec, k, node_budget)
                assert (k in res.feasible_k) == (d.verdict == "feasible"), (spec, k)
                assert (k in res.unknown_k) == (d.verdict == "unknown"), (spec, k)
                assert res.witnesses.get(k) == d.witness, (spec, k)
                assert res.nodes_explored[k] == d.nodes, (spec, k)

    def test_nodes_recorded_per_k(self):
        res = spectrum(GAP22)
        assert set(res.nodes_explored) == set(range(1, 11))

    def test_k_max_below_one_rejected(self):
        with pytest.raises(ValueError):
            spectrum(GAP22, k_max=0)


class TestVerifyInterval:
    def test_empty_interval_vacuous(self):
        assert verify_interval(A2, IntInterval.empty())

    def test_full_spectrum_interval(self):
        spec = spec_of(4, 3, [2, 2], 2, 3)
        res = spectrum(spec)
        assert verify_interval(
            spec, IntInterval(res.chi, res.chi_bar)
        )

    def test_interval_with_gap_fails(self):
        assert not verify_interval(GAP22, IntInterval(2, 5))


class TestStructuralLaws:
    """Formula intervals are honoured by the search on a small grid."""

    GRID = [
        spec_of(4, 2, [1, 1], 2, 2),
        spec_of(5, 2, [2, 1], 2, 3),
        spec_of(4, 3, [2, 2], 2, 3),
        spec_of(6, 2, [1, 1, 1], 2, 3),
        spec_of(4, 2, [2, 1, 1], 2, 4),
        spec_of(5, 2, [2, 2], 2, 2),
        spec_of(4, 4, [3, 1], 2, 3),
    ]

    @pytest.mark.parametrize("spec", GRID, ids=str)
    def test_mono_zone_contained_in_spectrum(self, spec):
        zone = mono_zone(spec)
        assert zone is not None
        feasible = set(spectrum(spec).feasible_k)
        assert set(zone) <= feasible

    @pytest.mark.parametrize("spec", GRID, ids=str)
    def test_extended_interval_contained_in_spectrum(self, spec):
        iv = extended_interval(spec)
        feasible = set(spectrum(spec).feasible_k)
        assert set(iv) <= feasible


class TestOracleAgreementSpot:
    @pytest.mark.parametrize("n,q,parts,alpha,beta", [
        (3, 2, [1, 1], 2, 2),
        (2, 2, [2, 2], 2, 2),
        (4, 3, [2, 1], 2, 3),
        (3, 4, [2, 2], 3, 3),
        (2, 4, [3, 1], 2, 4),
    ])
    def test_every_k_agrees(self, n, q, parts, alpha, beta):
        spec = spec_of(n, q, parts, alpha, beta)
        for k in range(1, spec.num_vertices + 1):
            assert (k_colourable(spec, k) is not None) == brute_oracle(spec, k)


class TestGoldenNodeCounts:
    """The search visits exactly the nodes the benchmark's golden file pins
    (read here, never written), so a change that moves them shows in the
    tests and not only in a benchmark run."""

    GOLDEN = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "golden.json")
        .read_text(encoding="utf-8")
    )
    APPENDIX = spec_of(7, 6, [6, 6], 3, 3)

    def test_small_nogap_spectra(self):
        golden = self.GOLDEN["nogap-sweep"]
        specs = [spec for spec in nogap_grid() if spec.num_vertices <= 12]
        assert len(specs) == 72
        for spec in specs:
            res = spectrum(spec)
            assert {
                "feasible_k": list(res.feasible_k),
                "unknown_k": list(res.unknown_k),
                "gaps": [[g.lo, g.hi] for g in res.gaps],
                "nodes": {str(k): n for k, n in sorted(res.nodes_explored.items())},
            } == golden[str(spec)], spec
            for w in res.witnesses.values():
                assert_search_layout(w)

    def test_gap_recipe_decisions(self):
        golden = {key: record for key, record in self.GOLDEN["gap-proof"].items()
                  if not key.startswith(f"{self.APPENDIX}|")}
        seen = {}
        for alpha, beta, parts in gap_cells():
            sigma = build_sigma(parts)
            q, n = gap_instance_params(alpha, beta, sigma)
            spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
            for k in range(1, beta + 2):
                d = decide_k(spec, k)
                seen[f"{spec}|k={k}"] = {"verdict": d.verdict, "nodes": d.nodes}
        assert seen == golden
