"""Search engine: exact k decisions, spectra, gaps, budgets, determinism."""

import gc
import hashlib
import importlib.util
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sigma_spectra import (
    BudgetExceededError,
    HypergraphSpec,
    InstanceTooLargeError,
    IntInterval,
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
from sigma_spectra.engine import _Search, _partitions
from sigma_spectra.formulas import gap_instance_params
from sigma_spectra.validator import range_of_keys
from sigma_spectra.verification import gap_cells, nogap_grid


def spec_of(n, q, parts, alpha, beta):
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)


A2 = spec_of(5, 2, [2, 2], 3, 3)
GAP22 = spec_of(5, 2, [2, 2], 2, 2)


def load_search_digest():
    """``tools/search_digest.py``, whose lines compare two checkouts."""
    path = Path(__file__).resolve().parents[1] / "tools" / "search_digest.py"
    spec = importlib.util.spec_from_file_location("search_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SEARCH_DIGEST = load_search_digest()
# its nogap-sweep and gap-proof sha256, pinned: a change that claims to move
# no verdict, node count or raw witness keeps them (range-solver counts are
# left out, as a speed-up may move them)
NOGAP_SWEEP_SHA256 = "2866c58b545932b4d626963d525c5738b91d7e2d3785a7903da73282b69ad56d"
GAP_PROOF_SHA256 = "c9d61c2aae1c9f69f4e5568c3217e9134b3c91b3c714108494ab688be9f70dc9"


def family_search(spec):
    """A fresh search context of ``spec``'s family H(., q | sigma), alpha, beta."""
    return _Search(spec.q, spec.sigma, spec.alpha, spec.beta)


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
        digest = hashlib.sha256()
        for spec in specs:
            res = spectrum(spec, node_budget=node_budget)
            if spec in grid:
                for decision in SEARCH_DIGEST.spectrum_decisions(spec, res):
                    digest.update(SEARCH_DIGEST.record(*decision))
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
            assert digest.hexdigest() == NOGAP_SWEEP_SHA256

    def test_edgeless_decisions_build_no_arrangements(self):
        # a family's part arrangements are built on first use, so its
        # edgeless n (here n < s, with 9! orderings of sigma's distinct
        # parts) are decided without them, as a lone decide_k always was
        spec = spec_of(2, 9, list(range(1, 10)), 2, 3)
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            assert decide_k(spec, k, _search=search).verdict == "feasible"
        assert "arrangements" not in vars(search)

    def test_shape_groups_stored_sorted(self):
        # a group kept in placement order gives the same verdicts and
        # nodes, but builds its columns again under each of its orders
        spec = spec_of(4, 3, [2, 2, 2], 2, 5)
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            decide_k(spec, k, _search=search)
        assert search._groups
        for group, (shape_keys, _base, _table) in search._groups.items():
            assert list(group) == sorted(group)
            # slot j holds the j-th profile key in key order
            assert shape_keys == tuple(sorted(search._keys[i] for i in group))

    def test_search_state_is_keyed_on_profile_ids(self):
        # each profile key is interned once per family; the shape groups, like
        # the placed profiles, are keyed on its id, never the key, and each
        # group holds the one verdict table of its sorted colour columns and,
        # in a list up to its largest colour, an offset per colour: (rank of
        # its column among those sorted columns + 1) times q + 1, else 0
        spec = spec_of(4, 3, [2, 2, 2], 2, 5)
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            decide_k(spec, k, _search=search)
        assert search._groups
        tables = set()
        offsets = {}  # table id -> column -> offset, over every group sharing it
        for group, (shape_keys, base, table) in search._groups.items():
            assert type(group) is tuple and all(type(i) is int for i in group)
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
        assert len(set(search._keys)) == len(search._keys)
        assert search._ids == {key: i for i, key in enumerate(search._keys)}

    def test_nodes_recorded_per_k(self):
        res = spectrum(GAP22)
        assert set(res.nodes_explored) == set(range(1, 11))

    def test_k_max_below_one_rejected(self):
        with pytest.raises(ValueError):
            spectrum(GAP22, k_max=0)


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


class TestPartitions:
    def test_capped_partitions_match_reference_in_order(self):
        for q in range(1, 11):
            for cap in range(1, q + 2):
                assert list(_partitions(q, cap)) == reference_partitions(q, cap), (q, cap)

    def test_rising_caps_widen_to_every_partition(self):
        # each k caps the parts per class at min(q, k); after each k the one
        # list a spectrum's search keeps holds the partitions of q into at
        # most that many parts, and by the last k every partition of q
        spec = spec_of(2, 8, [1, 1], 2, 2)
        search = family_search(spec)
        for k in range(1, spec.num_vertices + 1):
            search.decide(spec.n, k, 100)
            cap = min(8, k)
            assert (search._partitions_cap, search._partitions) == (
                cap, _partitions(8, cap)), k

    def test_any_cap_order_reads_the_capped_partitions(self):
        # a larger cap widens the held list, a smaller one is read off it
        rng = random.Random(0)
        for q in range(1, 16):
            search = _Search(q, build_sigma([1, 1]), 2, 2)
            caps = [cap for cap in range(1, q + 1) for _ in range(2)]
            rng.shuffle(caps)
            for cap in caps:
                assert search._capped_partitions(cap) == _partitions(q, cap), (q, cap)
            assert search._partitions_cap == q

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
        search = family_search(A2)
        for q in range(1, 7):
            for partition in _partitions(q, q):
                for used in range(5):
                    full = all_bindings(partition, used)
                    top = used + len(partition)
                    for lo in range(-1, top + 2):
                        for hi in range(lo - 1, top + 2):
                            window = search._bindings(partition, used, lo, hi)
                            assert tuple(
                                (search._keys[i], new_used) for i, new_used in window
                            ) == tuple(
                                b for b in full if lo <= b[1] <= hi
                            ), (partition, used, lo, hi)

    def test_cached_bindings_stay_below_the_nodes(self):
        # a class of 10 singleton parts has tens of thousands of bindings
        # after up to 10 used colours, and the search ticks 40 of them
        spec = spec_of(2, 10, [1, 1], 2, 2)
        search = family_search(spec)
        nodes = sum(search.decide(spec.n, k, 100).nodes
                    for k in range(1, spec.num_vertices + 1))
        bindings = [entry[0] for entry in search._windows.values()]
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
    yet counts each of them, and the count is checked against the budget
    when a class is entered and when the decision ends: a budget trips
    exactly when the whole count passes it, and a tripped count reads
    ``budget + 1``."""

    APPENDIX = spec_of(7, 6, [6, 6], 3, 3)

    def assert_budgets(self, spec, k, budgets):
        """``budgets`` maps the unbudgeted node count to the budgets tried."""
        whole = decide_k(spec, k)
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
        self.assert_budgets(self.APPENDIX, 4, lambda total: [
            0, 1, 2, 5, 17, 123, 1_001, 9_999, 77_777, total - 1, total])

    def test_a_tripped_search_stops_near_its_budget(self):
        # the count is compared as each class is entered, so a search past
        # its budget stops there rather than run its proof out: 25 of the
        # appendix k=4 proof's 336 (group, window) mask rows at a budget of 50
        def mask_rows(budget):
            search = family_search(self.APPENDIX)
            search.decide(self.APPENDIX.n, 4, budget)
            return sum(len(masks) for _, masks in search._windows.values())
        assert mask_rows(50) * 4 < mask_rows(None)

    # a witness returns through the call past the last class, whose entry
    # check trips a budget crossed on the witness's own binding
    @pytest.mark.parametrize("spec,k,budgets", [
        (APPENDIX, 3, lambda total: range(total + 2)),  # 23 nodes
        (APPENDIX, 8, lambda total: range(total + 2)),  # 44 nodes
        (spec_of(6, 6, [3, 2], 2, 3), 3, lambda total: [  # 921 nodes
            0, 1, 2, 5, 17, 123, total - 2, total - 1, total]),
    ], ids=["appendix-k3", "appendix-k8", "n6-q6-s32-k3"])
    def test_feasible_budgets(self, spec, k, budgets):
        self.assert_budgets(spec, k, budgets)


class TestDecisionLifetime:
    """What belongs to one decision, its failure memo above all, is freed by
    reference counting when the decision returns, not left in reference
    cycles for the collector."""

    APPENDIX = spec_of(7, 6, [6, 6], 3, 3)

    def test_a_decision_leaves_nothing_for_the_collector(self):
        # the first proof fills the process-wide range-solver cache; the
        # second, with the collector off, leaves its memo of 27,403 states and
        # its context to the collector if any cycle holds them
        decide_k(self.APPENDIX, 4)
        gc.collect()
        gc.disable()
        try:
            tracemalloc.start()
            try:
                d = decide_k(self.APPENDIX, 4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            found = gc.collect()
        finally:
            gc.enable()
        assert d.verdict == "infeasible" and d.nodes == 507_599
        assert found < 100
        # memo states are flat tuples in a dict: 4.1 MB traced, against 6.0
        # MB as 4-tuples holding the placed ids in a set
        assert peak < 5.25 * 2**20


def direct_verdict(spec, shape_keys):
    """Whether every edge over classes with these profile keys sees alpha..beta
    colours, from ``range_of_keys`` over every ordering of sigma's parts."""
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
        for k in range(1, spec.num_vertices + 1):
            decide_k(spec, k, node_budget, _search=search)
        assert search._windows
        keys = search._keys
        groups = set()
        rows = 0
        for window, (bindings, masks) in search._windows.items():
            assert bindings == search._bindings(*window)
            full = (1 << len(bindings)) - 1
            for group, (known, ok) in masks.items():
                assert ok & ~known == 0 and known & ~full == 0, (window, group)
                for pos, (key, _) in enumerate(bindings):
                    if known >> pos & 1:
                        shape = [keys[i] for i in group] + [keys[key]]
                        assert direct_verdict(spec, shape) == bool(ok >> pos & 1), (
                            window, group, key)
            groups |= set(masks)
            rows += len(masks)
        assert groups == set(search._groups)
        assert rows <= len(search._windows) * len(groups)


def engine_verdict(search, group_keys, new_key):
    """The search's verdict on the shape of ``group_keys`` plus ``new_key``,
    read through its verdict cache as a node's mask fill reads it."""
    for key in (*group_keys, new_key):
        if key not in search._ids:
            search._ids[key] = len(search._keys)
            search._keys.append(key)
    group = tuple(sorted(search._ids[key] for key in group_keys))
    return search._passing(group, ((search._ids[new_key], 0),), 1) == 1


def small_profiles(q, colours):
    """Every profile key of a q-vertex class over colours 0..colours-1."""
    return sorted({tuple(sorted(Counter(cls).items()))
                   for cls in itertools.product(range(colours), repeat=q)})


class TestVerdictKey:
    """A shape verdict is cached per family under the group's sorted colour
    columns and the new profile's relation to them: two shapes with equal keys
    must have equal direct verdicts, whichever the search met first."""

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
        ([3, 2], 3, 2, 3),
    ])
    def test_every_small_shape_gets_its_direct_verdict(self, parts, q, alpha, beta):
        # every group and new profile over four colours, through one search:
        # a shape whose key an earlier one shares gets the cached verdict
        spec = spec_of(3, q, parts, alpha, beta)
        profiles = small_profiles(q, 4)
        shapes = list(itertools.product(itertools.combinations_with_replacement(
            profiles, spec.sigma.s - 1), profiles))
        search = self.assert_shapes_get_direct_verdicts(spec, shapes)
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
        profile = st.lists(st.integers(0, 4), min_size=q, max_size=q).map(
            lambda cls: tuple(sorted(Counter(cls).items())))
        group = st.lists(profile, min_size=len(parts) - 1,
                         max_size=len(parts) - 1).map(tuple)
        shapes = data.draw(st.permutations(list(itertools.product(
            data.draw(st.lists(group, min_size=1, max_size=4)),
            data.draw(st.lists(profile, min_size=1, max_size=6))))))
        self.assert_shapes_get_direct_verdicts(spec, shapes)


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
        # with the appendix decisions ahead of them, in the order of the
        # gap-proof digest
        digest = hashlib.sha256()
        for k in (3, 4, 8):
            d = decide_k(self.APPENDIX, k)
            digest.update(SEARCH_DIGEST.record(self.APPENDIX, k, d.verdict, d.nodes,
                                               d.witness))
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
                digest.update(SEARCH_DIGEST.record(spec, k, d.verdict, d.nodes, d.witness))
        assert seen == golden
        assert digest.hexdigest() == GAP_PROOF_SHA256
