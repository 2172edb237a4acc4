"""Search engine: exact k decisions, spectra, gaps, budgets, determinism."""

import gc
import hashlib
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sigma_spectra import (
    BudgetExceededError,
    InstanceTooLargeError,
    IntInterval,
    SpectrumResult,
    WITNESS_VERTEX_LIMIT,
    build_sigma,
    brute_oracle,
    decide_k,
    extended_interval,
    is_valid,
    k_colourable,
    mono_zone,
    spectrum,
)
from sigma_spectra import engine, validator
from sigma_spectra.engine import _Search, _partitions
from sigma_spectra.validator import range_of_keys
from sigma_spectra.verification import nogap_grid
from support import APPENDIX, load_search_digest, spec_of


A2 = spec_of(5, 2, [2, 2], 3, 3)
GAP22 = spec_of(5, 2, [2, 2], 2, 2)


SEARCH_DIGEST = load_search_digest()
# the decisions= and nodes= fields of its nogap-sweep and gap-proof lines,
# pinned: a change that claims to move no verdict or raw witness keeps the
# first, one that claims to move no node count the second too (range-solver
# counts are left out, as a speed-up may move them)
NOGAP_SWEEP_FIELDS = (
    "6eedbdd9a55edaecc8622ce3cdf15ea8426ae973d64b2d3ef28ee413e8f0b0ae",
    "723910:e5b4e4c5446fd5c2d91bceeae6a5fafd7c43b7cffed464e68d50dd66ebba927e",
)
GAP_PROOF_FIELDS = (
    "80d612f8761edb6aad886238e70d3b5862b363bb2df8d87f27ad19fc3d3b4084",
    "515056:5b20fa86a14211aeb7555f7213b563c3476f65e78c932d4d6374f89143d362aa",
)
# its validator line's sha256 over each set's witnesses, pinned: a change to
# the validator keeps every verdict and violation witness
VALIDATOR_NOGAP_SHA256 = "903b80e82ff8c9cf73f644da8c552223aa1465fc0ba912e9eebf5f7425054296"
VALIDATOR_GAP_SHA256 = "15028f2836f7879bfbb8d3b221739ca7c6fab8d1038d21419cdd23206bd1bd97"


def family_search(spec):
    """A fresh search context of ``spec``'s family H(., q | sigma), alpha, beta."""
    return _Search(spec.q, spec.sigma, spec.alpha, spec.beta)


def group_ids(group):
    """The sorted profile ids of a shape group as the search keys it: when
    sigma has two parts a group is its one id, not a 1-tuple."""
    return (group,) if type(group) is int else group


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
        with pytest.raises(BudgetExceededError):
            k_colourable(APPENDIX, 4, node_budget=50)

    def test_unknown_verdict_distinct_from_infeasible(self):
        d = decide_k(APPENDIX, 4, node_budget=50)
        assert d.verdict == "unknown"
        assert d.witness is None

    def test_classes_past_the_search_depth_too_large(self):
        # the search recurses once per class; past Python's recursion
        # limit that is a too-large instance, not a RecursionError
        deep = spec_of(1000, 2, [2], 2, 2)
        with pytest.raises(InstanceTooLargeError, match="n=1000"):
            k_colourable(deep, 2)
        with pytest.raises(InstanceTooLargeError, match="n=1000"):
            spectrum(deep, k_max=2)

    def test_search_state_is_not_sized_by_the_vertices(self):
        # two million vertices: the search holds shape groups and profiles,
        # never a per-vertex table, on its way to the recursion limit
        spec = spec_of(10**6, 2, [2, 2], 2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLargeError):
                spectrum(spec, k_max=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_edgeless_witness_past_the_vertex_limit_too_large(self):
        # no edges (q < delta_max), so every k is feasible without a search,
        # but a witness has all n*q vertices: built up to the limit, past it
        # the instance is too large, in a lone decision as in a spectrum
        at = spec_of(WITNESS_VERTEX_LIMIT // 4, 4, [5, 5], 2, 2)
        assert decide_k(at, 3).witness.colour_count == 3
        past = spec_of(WITNESS_VERTEX_LIMIT // 4 + 1, 4, [5, 5], 2, 2)
        with pytest.raises(InstanceTooLargeError, match="vertex limit"):
            decide_k(past, 3)
        with pytest.raises(InstanceTooLargeError, match="vertex limit"):
            spectrum(past, k_max=3)

    def test_edgeless_spectrum_past_the_total_vertex_limit_too_large(self, monkeypatch):
        # a spectrum keeps one n*q-vertex witness per k, so at 10**5
        # vertices (each witness within its own limit) all n*q of them would
        # hold 10**10 vertices: refused before the first one is built
        spec = spec_of(WITNESS_VERTEX_LIMIT // 4, 4, [5, 5], 2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLargeError, match="edgeless spectrum"):
                spectrum(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the limit counts every witness vertex of the k asked for
        assert len(spectrum(spec, k_max=3).witnesses) == 3
        small = spec_of(6, 3, [5, 5], 2, 2)  # 18 vertices, 18 witnesses
        monkeypatch.setattr(engine, "SPECTRUM_WITNESS_VERTEX_LIMIT", 18 * 18)
        assert spectrum(small).feasible_k == tuple(range(1, 19))
        monkeypatch.setattr(engine, "SPECTRUM_WITNESS_VERTEX_LIMIT", 18 * 18 - 1)
        with pytest.raises(InstanceTooLargeError):
            spectrum(small)

    def test_deep_entries_are_not_sized_by_the_colours_used(self):
        # k = 2n: every class takes two fresh colours, so the used count
        # climbs to 2n - 2 down the search; an entry holds one end mask per
        # final count from its low end to its top, at most q + 2, whatever
        # the colours already used
        spec = spec_of(300, 2, [2], 2, 2)
        search = family_search(spec)
        tracemalloc.start()
        try:
            assert search.decide(spec.n, 2 * spec.n, None).verdict == "feasible"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(search._windows) == spec.n
        for (_, used, hi), (held, _, ends_from, _) in search._windows.items():
            assert len(ends_from) == hi - held + 2 <= spec.q + 2
        assert peak < 2**19

    def test_900_classes_still_decided(self):
        spec = spec_of(900, 2, [2], 2, 2)
        w = k_colourable(spec, 2)
        assert w is not None and len(w.classes) == 900
        assert w.colour_count == 2 and is_valid(spec, w)


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

    def test_many_parts_without_edges_return_at_once(self):
        # 14 parts, one class: no edges, and no pass over 14! permutations
        start = time.perf_counter()
        res = spectrum(spec_of(1, 1, [1] * 14, 2, 2))
        assert time.perf_counter() - start < 1.0
        assert res.feasible_k == (1,)

    def test_k_max_caps_the_range(self):
        res = spectrum(GAP22, k_max=3)
        assert res.k_max == 3
        assert res.feasible_k == (2,)

    def test_budget_marks_incomplete(self):
        res = spectrum(APPENDIX, k_max=4, node_budget=100)
        assert not res.complete
        assert 4 in res.unknown_k

    def test_unknown_k_never_reported_as_gap(self):
        # 3 and 8 decide quickly; 4..7 trip a small budget, so no run in
        # between is proven and no gap may be claimed
        res = spectrum(APPENDIX, k_max=8, node_budget=2_000)
        assert 3 in res.feasible_k and 8 in res.feasible_k
        assert set(res.unknown_k) >= {5, 6, 7}
        for gap in res.gaps:
            for k in gap:
                assert k not in res.unknown_k

    def test_gaps_from_scripted_verdicts(self, monkeypatch):
        # runs close at a feasible k, at an unknown k and just below chi_bar
        from sigma_spectra import KDecision, engine
        script = ("infeasible", "feasible", "infeasible", "unknown", "infeasible",
                  "infeasible", "feasible", "infeasible", "feasible", "infeasible")
        monkeypatch.setattr(engine, "decide_k", lambda spec, k, *a, **kw: KDecision(
            k=k, verdict=script[k - 1], witness=None, nodes=0))
        res = spectrum(GAP22)  # 10 vertices, so k runs over 1..10
        assert res.chi == 2 and res.chi_bar == 9
        assert res.unknown_k == (4,)
        assert res.gaps == (IntInterval(3, 3), IntInterval(5, 6), IntInterval(8, 8))

    def test_a_result_derives_its_endpoints_and_gaps(self):
        # only the decided data is given; chi, chi_bar, gaps, colourable and
        # complete are read off it, so they cannot disagree with it
        with pytest.raises(TypeError):
            SpectrumResult(feasible_k=(2,), unknown_k=(), k_max=3, chi=1, chi_bar=2,
                           gaps=(), colourable=True, complete=True, witnesses={},
                           nodes_explored={})
        res = SpectrumResult(feasible_k=(2, 7, 9), unknown_k=(4,), k_max=10,
                             witnesses={}, nodes_explored={})
        assert (res.chi, res.chi_bar, res.colourable, res.complete) == (2, 9, True, False)
        assert res.gaps == (IntInterval(3, 3), IntInterval(5, 6), IntInterval(8, 8))
        none = SpectrumResult(feasible_k=(), unknown_k=(), k_max=3, witnesses={},
                              nodes_explored={})
        assert (none.chi, none.chi_bar, none.gaps, none.colourable, none.complete) == \
            (None, None, (), False, True)

    def test_deterministic_across_runs(self):
        a = spectrum(GAP22)
        b = spectrum(GAP22)
        assert a == b
        assert a.witnesses == b.witnesses

    @pytest.mark.parametrize("node_budget", [None, 200])
    def test_shared_search_matches_lone_decisions(self, node_budget):
        # a budget of 200 trips inside many k, so any state a tripped k
        # left in the shared search would show in the k after it.  One
        # search per family also decides every (n, k) of it, n ascending (the
        # grid's order), so any state kept for one n would show at the next.
        # The grid's family sigma=(2,2,2), q=2, beta=5 starts at n=3; n=1 and
        # 2 go first, edgeless.  sigma=(3,1), q=2 is edgeless at every n
        # (q < delta_max).  Unbudgeted, the grid's spectra are those of the
        # nogap-sweep digest
        grid = nogap_grid()
        specs = [spec_of(1, 2, [2, 2, 2], 2, 5), spec_of(2, 2, [2, 2, 2], 2, 5),
                 *grid, GAP22, A2,
                 *(spec_of(n, 2, [3, 1], 2, 3) for n in range(1, 4))]
        families, last_n = {}, {}
        digest, checked = SEARCH_DIGEST.EngineDigest(), hashlib.sha256()
        for spec in specs:
            res = spectrum(spec, node_budget=node_budget)
            if spec in grid:
                for decision in SEARCH_DIGEST.spectrum_decisions(spec, res):
                    digest.update(*decision)
                    witness = decision[-1]
                    if node_budget is None and witness is not None:
                        for line in SEARCH_DIGEST.validator_records(spec, witness):
                            checked.update(line)
            key = (spec.q, spec.sigma, spec.alpha, spec.beta)
            family = families.setdefault(key, family_search(spec))
            assert spec.n > last_n.get(key, 0), spec
            last_n[key] = spec.n
            for k in range(1, spec.num_vertices + 1):
                d = decide_k(spec, k, node_budget)
                assert (k in res.feasible_k) == (d.verdict == "feasible"), (spec, k)
                assert (k in res.unknown_k) == (d.verdict == "unknown"), (spec, k)
                assert res.witnesses.get(k) == d.witness, (spec, k)
                assert res.nodes_explored[k] == d.nodes, (spec, k)
                shared = decide_k(spec, k, node_budget, _search=family)
                assert (shared.verdict, shared.witness, shared.nodes) == (
                    d.verdict, d.witness, d.nodes), (spec, k)
        assert len(families) == 24 + 3
        if node_budget is None:
            assert digest.fields() == NOGAP_SWEEP_FIELDS
            assert checked.hexdigest() == VALIDATOR_NOGAP_SHA256

    def test_edgeless_decisions_build_no_arrangements(self):
        # sigma's part arrangements are built on first use, so a family's
        # edgeless n (here n < s, with 9! orderings of sigma's distinct
        # parts) are decided without them, as a lone decide_k always was
        spec = spec_of(2, 9, list(range(1, 10)), 2, 3)
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            assert decide_k(spec, k, _search=search).verdict == "feasible"
        assert "arrangements" not in vars(spec.sigma)

    def test_shape_groups_stored_sorted(self):
        # a group kept in placement order gives the same verdicts and
        # nodes, but builds its tests again under each of its orders
        spec = spec_of(4, 3, [2, 2, 2], 2, 5)
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            decide_k(spec, k, _search=search)
        assert search._groups
        for group, (_tests, shape_keys, _base, _table) in search._groups.items():
            assert list(group) == sorted(group)
            # slot j holds the j-th profile key in key order
            assert shape_keys == tuple(sorted(search._keys[i] for i in group))

    def test_search_state_is_keyed_on_profile_ids(self):
        # each profile key is interned once per family, with its colour masks
        # by least multiplicity; the shape groups, like the placed profiles,
        # are keyed on its id, never the key: when sigma has two parts a
        # group is the id itself, else a sorted id tuple, in _groups and in
        # every window's mask rows alike.  At alpha <= 2 no group keeps a
        # verdict table; at alpha >= 3 each group holds the one table of its
        # sorted colour columns and, in a list up to its largest colour, an
        # offset per colour: (rank of its column among those sorted columns
        # + 1) times q + 1, else 0
        for spec in (spec_of(4, 3, [2, 2, 2], 2, 5), spec_of(4, 3, [2, 2], 2, 3), GAP22,
                     spec_of(4, 3, [2, 2, 2], 3, 5), spec_of(4, 4, [2, 2], 3, 4),
                     spec_of(4, 4, [3, 2, 1], 3, 5)):
            self.assert_search_state_keyed_on_profile_ids(spec)

    def assert_search_state_keyed_on_profile_ids(self, spec):
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            decide_k(spec, k, _search=search)
        assert search._groups
        rows = [group for *_, masks in search._windows.values() for group in masks]
        assert rows
        for group in [*search._groups, *rows]:
            if spec.sigma.s == 2:
                assert type(group) is int, group
            else:
                assert type(group) is tuple and len(group) == spec.sigma.s - 1
                assert all(type(i) is int for i in group)
                assert list(group) == sorted(group)
        assert len(set(search._keys)) == len(search._keys)
        assert search._ids == {key: i for i, key in enumerate(search._keys)}
        assert search._heavy == [
            tuple(sum(1 << c for c, m in key if m >= a)
                  for a in range(spec.sigma.delta_max + 1))
            for key in search._keys]
        if spec.alpha <= 2:
            assert not search._verdicts
            assert all(entry[2:] == (None, None) for entry in search._groups.values())
            return
        assert search._verdicts
        tables = set()
        offsets = {}  # table id -> column -> offset, over every group sharing it
        for group, (_tests, shape_keys, base, table) in search._groups.items():
            columns = {}
            for slot, key in enumerate(shape_keys):
                for c, m in key:
                    columns.setdefault(c, []).extend((slot, m))
            cols = {c: tuple(column) for c, column in columns.items()}
            ranked = tuple(sorted(cols.values()))
            assert table is search._verdicts[ranked]
            tables.add(id(table))
            assert base == [
                (ranked.index(cols[c]) + 1) * (spec.q + 1) if c in cols else 0
                for c in range(max(cols, default=-1) + 1)]
            seen = offsets.setdefault(id(table), {})
            for c, column in cols.items():
                assert seen.setdefault(column, base[c]) == base[c], (group, c)
        # no table is orphaned: each belongs to some group
        assert tables == set(map(id, search._verdicts.values()))
        # within a table the offsets are injective in the column, and none
        # is the 0 of a colour the group lacks
        for seen in offsets.values():
            assert len(set(seen.values())) == len(seen)
            assert all(v > 0 and v % (spec.q + 1) == 0 for v in seen.values())

    @pytest.mark.parametrize("node_budget", [None, 200])
    def test_descending_search_matches_lone_decisions(self, node_budget):
        # one context per grid family decides its n in descending order, and
        # each n's k in descending order.  The low ends a node asks for then
        # fall across decisions, so entries are rebuilt lower, and nodes at
        # higher low ends read sub-windows of them, counting their nodes by
        # popcount; an ascending spectrum rarely takes either path
        families = {}
        for spec in nogap_grid():
            families.setdefault((spec.q, spec.sigma, spec.alpha, spec.beta), []).append(spec)
        rebuilt = 0
        for family, specs in families.items():
            search = _Search(*family)
            build = search._window

            def counted(window, lo):
                nonlocal rebuilt
                rebuilt += window in search._windows
                return build(window, lo)

            with mock.patch.object(search, "_window", counted):
                for spec in sorted(specs, key=lambda spec: spec.n, reverse=True):
                    for k in range(spec.num_vertices, 0, -1):
                        shared = decide_k(spec, k, node_budget, _search=search)
                        lone = decide_k(spec, k, node_budget)
                        assert (shared.verdict, shared.witness, shared.nodes) == (
                            lone.verdict, lone.witness, lone.nodes), (spec, k)
        assert rebuilt > 0

    def test_nodes_recorded_per_k(self):
        res = spectrum(GAP22)
        assert set(res.nodes_explored) == set(range(1, 11))

    def test_k_max_below_one_rejected(self):
        with pytest.raises(ValueError):
            spectrum(GAP22, k_max=0)

    def test_malformed_integer_arguments_rejected(self):
        # unchecked, a negative budget reads as "unknown" after a negative
        # node count and a bool or float k reaches the search; each raises
        # a ValueError that names the argument, as HypergraphSpec does
        calls = [
            (lambda: decide_k(GAP22, 2, node_budget=-5), "node_budget"),
            (lambda: spectrum(GAP22, node_budget=-3), "node_budget"),
            (lambda: k_colourable(GAP22, 2, -1), "node_budget"),
            (lambda: decide_k(GAP22, 2, node_budget=True), "node_budget"),
            (lambda: decide_k(GAP22, True), "k"),
            (lambda: decide_k(GAP22, 2.0), "k"),
            (lambda: spectrum(GAP22, k_max=True), "k_max"),
            (lambda: spectrum(GAP22, k_max=2.5), "k_max"),
        ]
        for call, name in calls:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                call()
        # a budget of 0 is still a budget: the first node trips it
        assert decide_k(GAP22, 2, node_budget=0).nodes == 1


def all_bindings(partition, used):
    """Every canonical binding of ``partition`` after ``used`` colours, as
    (profile key, new used count), in the search's generation order: old
    colours before fresh ones, larger part sizes first."""
    groups = [(size, len(list(grp))) for size, grp in itertools.groupby(partition)]
    out = []

    def assign(gi, available, fresh, pairs):
        if gi == len(groups):
            out.append((tuple(sorted(pairs)), used + fresh))
            return
        size, count = groups[gi]
        for t in range(min(count, len(available)), -1, -1):
            new = tuple((used + fresh + j, size) for j in range(count - t))
            for olds in itertools.combinations(available, t):
                rest = tuple(c for c in available if c not in olds)
                assign(gi + 1, rest, fresh + count - t,
                       pairs + tuple((c, size) for c in olds) + new)

    assign(0, tuple(range(used)), 0, ())
    return out


def reference_partitions(q, cap):
    """The partitions of ``q`` into at most ``cap`` parts, found by brute
    force over non-increasing tuples and sorted lexicographically
    decreasing."""
    found = [c for parts in range(1, cap + 1)
             for c in itertools.combinations_with_replacement(range(q, 0, -1), parts)
             if sum(c) == q]
    return sorted(found, reverse=True)


def assert_reads_capped(read, q, cap):
    """``read`` is a list of partitions and their lengths, aligned, whose
    partitions of at most ``cap`` parts are ``_partitions(q, cap)`` in
    order."""
    partitions, lengths = read
    assert lengths == tuple(map(len, partitions)), (q, cap)
    assert tuple(p for p in partitions if len(p) <= cap) == _partitions(q, cap), (q, cap)


class TestPartitions:
    def test_capped_partitions_match_reference_in_order(self):
        for q in range(1, 11):
            for cap in range(1, q + 2):
                assert list(_partitions(q, cap)) == reference_partitions(q, cap), (q, cap)

    def test_rising_caps_widen_to_every_partition(self):
        # each k caps the parts per class at min(q, k) and reads the
        # partitions of q into at most that many parts, with their lengths,
        # in the one list a spectrum's search keeps; by the last k that list
        # holds every partition of q
        spec = spec_of(2, 8, [1, 1], 2, 2)
        search = family_search(spec)
        reads = []

        def capped(cap, read=search._capped_partitions):
            reads.append(read(cap))
            return reads[-1]
        search._capped_partitions = capped
        for k in range(1, spec.num_vertices + 1):
            search.decide(spec.n, k, 100)
            assert_reads_capped(reads.pop(), 8, min(8, k))
        assert search._partitions == _partitions(8, 8)

    def test_any_cap_order_reads_the_capped_partitions(self):
        # a larger cap relists the held list at up to twice the held cap,
        # never past q or twice the largest cap asked; a smaller one reads
        # it in place; the lengths come with the partitions
        rng = random.Random(0)
        for q in range(1, 16):
            search = _Search(q, build_sigma([1, 1]), 2, 2)
            caps = [cap for cap in range(1, q + 1) for _ in range(2)]
            rng.shuffle(caps)
            for i, cap in enumerate(caps):
                assert_reads_capped(search._capped_partitions(cap), q, cap)
                assert search._partitions_cap <= min(q, 2 * max(caps[:i + 1])), (q, cap)
            assert search._partitions_cap == q

    def test_a_lone_decision_lists_its_cap(self):
        search = family_search(spec_of(2, 60, [1, 1], 2, 2))
        search.decide(2, 5, 100)
        assert search._partitions == _partitions(60, 5)

    def test_a_smaller_cap_reads_the_held_list_itself(self):
        # widened to cap 36 by k=36, the context hands k=3's cap of 3 parts
        # its one list, not a filtered copy of it
        search = _Search(36, build_sigma([1, 1]), 2, 2)
        search.decide(2, 36, 100)
        partitions, lengths = search._capped_partitions(3)
        assert partitions is search._partitions and lengths is search._lengths

    def test_rising_caps_hold_one_list(self):
        # q=36 has 17,977 partitions; one list per cap 1..36 held 467,135
        spec = spec_of(2, 36, [1, 1], 2, 2)
        tracemalloc.start()
        try:
            res = spectrum(spec, k_max=36, node_budget=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.feasible_k == tuple(range(2, 37)) and res.complete
        assert peak < 8 * 2**20

    def test_wide_classes_list_only_the_partitions_they_can_use(self):
        # with at most two colours per class, 31 of the 966,467 partitions
        # of 60 can occur: in a lone decision at k=2, and at every k when
        # delta_max > beta clamps each class to beta = 2 colours
        lone = family_search(spec_of(2, 60, [1, 1], 2, 2))
        assert lone.decide(2, 2, 100).verdict == "feasible"
        clamped = family_search(spec_of(2, 60, [3, 3], 2, 2))
        for k in range(1, 121):
            clamped.decide(2, k, 100)
        for search in (lone, clamped):
            assert len(search._partitions) == 31


class TestBindingWindow:
    """A node builds only the bindings that end inside the colour counts it
    can still complete to, never all of them."""

    def test_window_filters_the_full_list_in_order(self):
        # bit p of ends_from[e - lo] is set exactly when binding p ends with
        # at least e colours; and a fresh context interns the window's keys
        # in the order they first appear, since a node sorts its placed ids
        # and so walks its shape groups in id order
        search = family_search(A2)
        for q in range(1, 7):
            for partition in _partitions(q, q):
                for used in range(5):
                    full = all_bindings(partition, used)
                    top = used + len(partition)
                    for lo in range(-1, top + 2):
                        for hi in range(lo - 1, top + 2):
                            where = (partition, used, lo, hi)
                            wanted = tuple(b for b in full if lo <= b[1] <= hi)
                            _, window, ends_from, _ = search._window(
                                (partition, used, hi), lo)
                            assert tuple(
                                (search._keys[i], new_used) for i, new_used in window
                            ) == wanted, where
                            for e in range(lo, hi + 1):
                                assert ends_from[e - lo] == sum(
                                    1 << p for p, (_, ends) in enumerate(wanted)
                                    if ends >= e), (where, e)
                            fresh = family_search(A2)
                            fresh._window((partition, used, hi), lo)
                            assert fresh._keys == list(
                                dict.fromkeys(key for key, _ in wanted)), where

    def test_cached_bindings_stay_below_the_nodes(self):
        # a class of 10 singleton parts has tens of thousands of bindings
        # after up to 10 used colours, and the search ticks 40 of them
        spec = spec_of(2, 10, [1, 1], 2, 2)
        search = family_search(spec)
        nodes = sum(search.decide(spec.n, k, 100).nodes
                    for k in range(1, spec.num_vertices + 1))
        bindings = [entry[1] for entry in search._windows.values()]
        assert sum(map(len, bindings)) <= nodes
        # a partition too short to reach the window is skipped before it
        # gets a bindings call
        assert all(bindings)

    def test_wide_classes_spectrum_is_quick(self):
        # 48 nodes; the count above cannot see bindings built and then
        # dropped below the window's low end, which cost seconds here
        spec = spec_of(2, 12, [1, 1], 2, 2)
        t0 = time.perf_counter()
        res = spectrum(spec, node_budget=100)
        assert time.perf_counter() - t0 < 0.5
        assert res.feasible_k == tuple(range(2, 25)) and res.complete


class TestBudgetAccounting:
    """A node steps over the bindings that fail its shape groups in one go,
    yet counts each of them, once per window visit: a failing visit adds its
    whole window after its children, a witness's visit the bindings up to
    the witness's own.  The count is checked against the budget when a class
    is entered, where it lags by the visits still open, and when the
    decision ends, where it is whole: a budget trips exactly when the whole
    count passes it, and a tripped count reads ``budget + 1``."""

    def assert_budgets(self, spec, k, budgets, nodes=None):
        """``budgets`` maps the unbudgeted node count, ``nodes`` when given,
        to the budgets tried."""
        whole = decide_k(spec, k)
        assert nodes in (None, whole.nodes), (k, whole.nodes)
        for budget in budgets(whole.nodes):
            d = decide_k(spec, k, budget)
            assert d.nodes == min(whole.nodes, budget + 1), (k, budget)
            assert (d.verdict == "unknown") == (whole.nodes > budget), (k, budget)
            if d.verdict != "unknown":
                assert (d.verdict, d.witness) == (whole.verdict, whole.witness)

    def test_gap22_every_budget_at_every_k(self):
        for k in range(1, GAP22.num_vertices + 1):
            self.assert_budgets(GAP22, k, lambda total: range(total + 2))

    def test_appendix_k4_budgets(self):
        self.assert_budgets(APPENDIX, 4, lambda total: [
            0, 1, 2, 5, 17, 123, 1_001, 9_999, 77_777, total - 1, total], 507_599)

    def test_s3_infeasible_budgets(self):
        # the failure memo keyed by sorted tuples of ids
        self.assert_budgets(spec_of(5, 4, [2, 2, 2], 2, 5), 12, lambda total: [
            0, 1, 2, 5, 17, 123, 1_001, total - 1, total], 18_982)

    def test_a_tripped_search_stops_near_its_budget(self):
        # the count is compared as each class is entered, so a search past
        # its budget stops there rather than run its proof out, though the
        # visits still open on the stack have not been counted yet: 25 of
        # the appendix k=4 proof's 261 (group, window) mask rows at a budget
        # of 50
        def mask_rows(budget):
            search = family_search(APPENDIX)
            search.decide(APPENDIX.n, 4, budget)
            return sum(len(entry[3]) for entry in search._windows.values())
        assert mask_rows(50) * 4 < mask_rows(None)

    # a witness's visits count the bindings up to its own on the way back,
    # after every entry check, so the check when the decision ends trips a
    # budget crossed on the witness's path; the pinned totals count only
    # the bindings up to the witness's in each of its windows
    @pytest.mark.parametrize("spec,k,nodes,budgets", [
        (APPENDIX, 3, 23, lambda total: range(total + 2)),
        (APPENDIX, 8, 44, lambda total: range(total + 2)),
        (spec_of(6, 6, [3, 2], 2, 3), 3, 921, lambda total: [
            0, 1, 2, 5, 17, 123, total - 2, total - 1, total]),
        (spec_of(5, 4, [2, 2, 2], 2, 5), 11, 157, lambda total: range(total + 2)),
    ], ids=["appendix-k3", "appendix-k8", "n6-q6-s32-k3", "n5-q4-s222-k11"])
    def test_feasible_budgets(self, spec, k, nodes, budgets):
        self.assert_budgets(spec, k, budgets, nodes)


class TestDecisionLifetime:
    """What belongs to one decision, its failure memo above all, is freed by
    reference counting when the decision returns, not left in reference
    cycles for the collector."""

    def test_a_decision_leaves_nothing_for_the_collector(self):
        # the first proof fills the process-wide range-solver cache; the
        # second, with the collector off, leaves its memo of 27,403 states and
        # its context to the collector if any cycle holds them
        decide_k(APPENDIX, 4)
        gc.collect()
        gc.disable()
        try:
            tracemalloc.start()
            try:
                d = decide_k(APPENDIX, 4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            found = gc.collect()
        finally:
            gc.enable()
        assert d.verdict == "infeasible" and d.nodes == 507_599
        assert found < 100
        # the memo holds, per class, a dict used as a set of the placed ids
        # its children were given, as bits at s = 2: 1.92 MiB traced, against
        # 3.05 MiB keyed by the sorted placed tuples, 3.28 MiB with those in
        # a set per class, 4.05 MiB with a set per (class, partition), 4.10
        # MiB as flat (class, partition, used) + placed tuples in one dict
        # and 6.0 MiB as 4-tuples holding the placed ids in a set
        assert peak < 2.5 * 2**20

    def test_shape_checks_leave_nothing_for_the_collector(self):
        # with k=1..12 decided in the same context, the s=3 proof at k=13
        # builds the tests of the groups it meets first; all it builds is
        # freed by reference counting (a range solve that kept itself in a
        # cycle once left 42,414 objects for the collector)
        spec = spec_of(6, 4, [2, 2, 2], 2, 5)
        search = family_search(spec)
        for k in range(1, 13):
            decide_k(spec, k, _search=search)
        groups = len(search._groups)
        gc.collect()
        gc.disable()
        try:
            d = decide_k(spec, 13, _search=search)
            found = gc.collect()
        finally:
            gc.enable()
        assert d.verdict == "infeasible"
        assert len(search._groups) > groups
        assert found < 100

    def test_a_spectrum_calls_no_range_solver(self):
        # the shape tests read colour masks alone, so the process-wide range
        # cache neither grows nor is read, at alpha = 2 or above
        for spec in (spec_of(5, 4, [2, 2, 2], 2, 5), spec_of(4, 4, [3, 2, 1], 3, 5)):
            before = validator._range_of.cache_info()
            res = spectrum(spec)
            assert res.colourable
            assert validator._range_of.cache_info() == before


class TestFailureMemoKey:
    """The failure memo keys a failure on (class index, placed ids) alone.
    The used-colour count is a function of the placed ids, because each
    binding after ``used`` colours that ends with ``ends`` holds only
    colours below ``ends`` and every fresh one; the last partition is the
    least placed one, as class partitions are non-increasing
    (:func:`assert_search_layout`)."""

    @pytest.mark.parametrize("spec", [
        GAP22, A2, spec_of(6, 6, [3, 2], 2, 3),
        spec_of(4, 3, [2, 2, 2], 2, 5), spec_of(4, 4, [2, 1, 1], 2, 4),
    ], ids=["s2-gap22", "s2-a2", "s2-q6", "s3-q3", "s3-q4"])
    def test_a_binding_uses_exactly_the_colours_below_its_end(self, spec):
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            decide_k(spec, k, 20_000, _search=search)
        assert search._windows
        for (_, used, _), (_, bindings, _, _) in search._windows.items():
            for key, ends in bindings:
                colours = {c for c, _ in search._keys[key]}
                assert colours <= set(range(ends)), (used, key, ends)
                assert set(range(used, ends)) <= colours, (used, key, ends)


def direct_verdict(spec, shape_keys):
    """Whether every edge over classes with these profile keys sees alpha..beta
    colours, from ``range_of_keys`` over every ordering of sigma's parts;
    ``spec`` is anything with ``sigma``, ``alpha`` and ``beta``, a search
    context too."""
    return all(
        spec.alpha <= lo and hi <= spec.beta
        for lo, hi in (range_of_keys(tuple(shape_keys), parts)
                       for parts in set(itertools.permutations(spec.sigma.parts))))


class TestPassMasks:
    """The pass masks a search keeps hold only verdicts it checked, each one
    the direct verdict of its shape, and grow with the instance only."""

    @pytest.mark.parametrize("spec,node_budget", [
        (GAP22, None), (A2, None), (spec_of(4, 3, [2, 2, 2], 2, 5), None),
        (spec_of(4, 3, [2, 2, 2], 2, 5), 40),
    ])
    def test_masks_agree_with_the_shape_verdicts(self, spec, node_budget):
        search = family_search(spec)
        # an entry rebuilt at a lower low end starts with empty masks; the
        # one it replaces is kept here and checked with the rest
        build = search._window
        replaced = []

        def kept(window, lo):
            if window in search._windows:
                replaced.append((window, search._windows[window]))
            return build(window, lo)

        with mock.patch.object(search, "_window", kept):
            for k in range(1, spec.num_vertices + 1):
                decide_k(spec, k, node_budget, _search=search)
        assert search._windows
        entries = [*search._windows.items(), *replaced]
        keys = search._keys
        groups = set()
        rows = 0
        for window, (held, bindings, ends_from, masks) in entries:
            partition, used, hi = window
            assert bindings == search._window(window, held)[1]
            full = (1 << len(bindings)) - 1
            # one mask per end count held..hi, and the empty one past hi
            assert len(ends_from) == hi - held + 2
            for e in range(held, hi + 2):
                assert ends_from[e - held] == sum(
                    1 << pos for pos, (_, ends) in enumerate(bindings) if ends >= e)
            for group, (known, ok) in masks.items():
                assert ok & ~known == 0 and known & ~full == 0, (window, group)
                for pos, (key, _) in enumerate(bindings):
                    if known >> pos & 1:
                        shape = [keys[i] for i in group_ids(group)] + [keys[key]]
                        assert direct_verdict(spec, shape) == bool(ok >> pos & 1), (
                            window, group, key)
            groups |= set(masks)
            rows += len(masks)
        assert groups == set(search._groups)
        assert rows <= len(entries) * len(groups)


def engine_verdict(search, group_keys, new_key):
    """The search's verdict on the shape of ``group_keys`` plus ``new_key``,
    read through ``_passing`` as a node's mask fill reads it, with the group
    keyed as the search keys it (see :func:`group_ids`)."""
    for key in (*group_keys, new_key):
        if key not in search._ids:
            search._intern(key)
    ids = tuple(sorted(search._ids[key] for key in group_keys))
    group = ids[0] if len(ids) == 1 else ids
    return search._passing(group, ((search._ids[new_key], 0),), 1) == 1


def small_profiles(q, colours):
    """Every profile key of a q-vertex class over colours 0..colours-1."""
    return sorted({tuple(sorted(Counter(cls).items()))
                   for cls in itertools.product(range(colours), repeat=q)})


def profiles_of(q, colours):
    """A strategy for the profile key of a q-vertex class over colours
    0..colours-1."""
    return st.lists(st.integers(0, colours - 1), min_size=q, max_size=q).map(
        lambda cls: tuple(sorted(Counter(cls).items())))


class TestVerdictKey:
    """Every shape gets its direct verdict.  When alpha >= 3 the low end's
    verdict is cached per family under the group's sorted colour columns and
    the new profile's relation to them: two shapes with equal keys must have
    equal direct verdicts, whichever the search met first."""

    def assert_shapes_get_direct_verdicts(self, spec, shapes):
        search = family_search(spec)
        for group_keys, new_key in shapes:
            direct = direct_verdict(spec, group_keys + (new_key,))
            assert engine_verdict(search, group_keys, new_key) == direct, (
                group_keys, new_key)
        return search

    def assert_pair_told_apart(self, spec, first, second):
        assert (direct_verdict(spec, first[0] + (first[1],))
                != direct_verdict(spec, second[0] + (second[1],)))
        self.assert_shapes_get_direct_verdicts(spec, [first, second])
        self.assert_shapes_get_direct_verdicts(spec, [second, first])

    def test_multiplicity_is_in_the_key(self):
        # the new profiles hold colours 0 and 1 each, in the same group
        # columns, with their multiplicities swapped: ranges [2, 2] and [1, 2]
        spec = spec_of(3, 3, [2, 2], 2, 2)
        group = (((0, 1), (1, 2)),)
        self.assert_pair_told_apart(
            spec, (group, ((0, 2), (1, 1))), (group, ((0, 1), (1, 2))))

    def test_group_columns_are_in_the_key(self):
        # the new profile is one fresh colour in both, so the relations are
        # equal and only the group columns differ: ranges [2, 2] and [2, 3]
        spec = spec_of(3, 3, [2, 1], 2, 2)
        self.assert_pair_told_apart(
            spec, ((((0, 3),),), ((1, 3),)), ((((0, 1), (1, 2)),), ((2, 3),)))

    @pytest.mark.parametrize("parts,q,alpha,beta", [
        ([2, 2], 3, 2, 2), ([2, 1], 3, 2, 2), ([2, 2, 2], 3, 2, 3),
        ([3, 2], 3, 2, 3), ([2, 2, 1], 3, 3, 4),
    ])
    def test_every_small_shape_gets_its_direct_verdict(self, parts, q, alpha, beta):
        # every group and new profile over four colours, through one search:
        # a shape whose key an earlier one shares gets the cached verdict
        spec = spec_of(3, q, parts, alpha, beta)
        profiles = small_profiles(q, 4)
        shapes = list(itertools.product(itertools.combinations_with_replacement(
            profiles, spec.sigma.s - 1), profiles))
        search = self.assert_shapes_get_direct_verdicts(spec, shapes)
        if alpha <= 2:
            # the bit tests decide every shape; nothing is tabled
            assert not search._verdicts
        else:
            # most shapes were answered from the cache, not solved
            assert sum(map(len, search._verdicts.values())) * 4 < len(shapes)

    @pytest.mark.parametrize("parts,q,alpha,beta", [
        ([2, 2], 3, 2, 2), ([2, 1], 3, 2, 2), ([2, 2], 4, 2, 3),
        ([2, 2, 2], 4, 2, 3), ([3, 2, 1], 4, 3, 4),
    ])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shapes_sharing_a_key_share_the_direct_verdict(
            self, parts, q, alpha, beta, data):
        # every pairing of a few groups with a few new profiles, over five
        # colours, in any order, through one search
        spec = spec_of(3, q, parts, alpha, beta)
        profile = profiles_of(q, 5)
        group = st.lists(profile, min_size=len(parts) - 1,
                         max_size=len(parts) - 1).map(tuple)
        shapes = data.draw(st.permutations(list(itertools.product(
            data.draw(st.lists(group, min_size=1, max_size=4)),
            data.draw(st.lists(profile, min_size=1, max_size=6))))))
        self.assert_shapes_get_direct_verdicts(spec, shapes)


class TestShapeTests:
    """The bit tests against the range solver, which stays their independent
    oracle."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_engine_verdict_is_the_direct_verdict(self, data):
        # alpha from 2, the least a spec takes, as every context is built
        # from a spec's fields; (1, 1, 1, 1) takes Hall's bound over 8 subsets
        parts = data.draw(st.sampled_from(
            [(2, 2), (2, 1), (3, 2, 1), (2, 1, 1), (1, 1, 1, 1)]))
        alpha = data.draw(st.integers(2, 4))
        beta = data.draw(st.integers(alpha, sum(parts) + 1))
        q = data.draw(st.integers(max(parts), 5))
        search = _Search(q, build_sigma(parts), alpha, beta)
        profile = profiles_of(q, 6)
        for _ in range(3):
            group = tuple(data.draw(profile) for _ in parts[1:])
            new = data.draw(profile)
            assert engine_verdict(search, group, new) == direct_verdict(
                search, group + (new,)), (group, new)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_hall_minimum_is_the_most_colours(self, data):
        q = data.draw(st.integers(1, 5))
        count = data.draw(st.integers(1, 4))
        keys = tuple(data.draw(profiles_of(q, 7)) for _ in range(count))
        parts = tuple(data.draw(st.integers(1, q)) for _ in range(count))
        masks = [sum(1 << c for c, _ in key) for key in keys]
        hall = min(A + M.bit_count() for A, M in engine._hall_terms(masks, parts))
        assert hall == range_of_keys(keys, parts)[1]


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
        # with the appendix decisions ahead of them, in the order of the
        # gap-proof digest, which counts the same shape checks
        digest, checked = SEARCH_DIGEST.EngineDigest(), hashlib.sha256()
        golden = {key: record for key, record in self.GOLDEN["gap-proof"].items()
                  if not key.startswith(f"{APPENDIX}|")}
        seen = {}
        with SEARCH_DIGEST.check_counter() as counter:
            for spec, k in SEARCH_DIGEST.gap_proof_pairs():
                d = decide_k(spec, k)
                if spec != APPENDIX:
                    seen[f"{spec}|k={k}"] = {"verdict": d.verdict, "nodes": d.nodes}
                digest.update(spec, k, d.verdict, d.nodes, d.witness)
                if d.witness is not None:
                    for line in SEARCH_DIGEST.validator_records(spec, d.witness):
                        checked.update(line)
        assert seen == golden
        assert digest.fields() == GAP_PROOF_FIELDS
        assert checked.hexdigest() == VALIDATOR_GAP_SHA256
        # a group checked twice, or in another order, moves the count
        assert counter.checks == 3970

    @pytest.mark.parametrize("n,q,parts,alpha,beta,nodes,checks", [
        (6, 4, [2, 2, 2], 2, 5, 364_002, 116_413),  # groups of two ids
        (6, 3, [1, 1, 1, 1], 3, 4, 3_529, 2_811),  # groups of three ids
        # three distinct parts, low end by the alpha = 3 verdict table
        (5, 4, [3, 2, 1], 3, 5, 27_635, 8_514),
    ])
    def test_wider_sigma_shape_checks(self, n, q, parts, alpha, beta, nodes, checks):
        # s >= 3: each visit walks the s - 1-element combinations of the
        # placed ids, repeats included; a repeat checked again, or the groups
        # walked in another order, moves the count
        with SEARCH_DIGEST.check_counter() as counter:
            res = spectrum(spec_of(n, q, parts, alpha, beta))
        assert sum(res.nodes_explored.values()) == nodes
        assert counter.checks == checks
