"""Edge colour ranges, validity decisions and violation witnesses."""

import functools
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sigma_spectra import (
    ClassProfile,
    Colouring,
    DimensionMismatchError,
    HypergraphSpec,
    InfeasibleShapeError,
    beta_colouring,
    build_sigma,
    edge_colour_range,
    edge_shapes,
    enumerate_edges,
    find_violation,
    gap_instance_params,
    is_valid,
    mono_colouring,
    mono_zone,
    profile_of,
)
from sigma_spectra import validator
from sigma_spectra.core import _profile_key
from sigma_spectra.engine import _partitions
from sigma_spectra.verification import gap_cells
from sigma_spectra.validator import (
    _certified,
    _class_key,
    _first_violation,
    _range_of,
    _selection,
    range_of_keys,
)
from support import APPENDIX, load_bench_workloads


def prof(counts):
    return ClassProfile(counts=counts, total=sum(counts.values()))


def literal_range(profiles, parts):
    """Independent oracle: enumerate every vertex pick per class."""
    per_class = []
    for p, a in zip(profiles, parts):
        vertices = [c for c, m in sorted(p.counts.items()) for _ in range(m)]
        sets = {
            frozenset(vertices[i] for i in pick)
            for pick in itertools.combinations(range(len(vertices)), a)
        }
        per_class.append(sets)
    unions = [
        len(frozenset().union(*choice))
        for choice in itertools.product(*per_class)
    ]
    return min(unions), max(unions)


# the one shape-taking entry point checks its arguments before any solve
SHAPE_FUNCTIONS = [pytest.param(edge_colour_range, id="edge_colour_range")]


def selection(profiles, parts, target):
    """The pick ``find_violation`` reads off the solver, on the profiles'
    keys."""
    return _selection([p.key() for p in profiles], tuple(parts), target)


class TestEdgeColourRange:
    def test_both_classes_monochromatic(self):
        assert edge_colour_range([prof({1: 6}), prof({1: 6})], [6, 6]) == (1, 1)

    def test_three_colours_twice_each(self):
        p = prof({1: 2, 2: 2, 3: 2})
        assert edge_colour_range([p, p], [6, 6]) == (3, 3)

    def test_shared_plus_private(self):
        a, b = prof({1: 1, 2: 1}), prof({1: 1, 3: 1})
        assert edge_colour_range([a, b], [2, 2]) == (3, 3)

    def test_partial_selection_range(self):
        # frozen from the literal oracle: picks are {1},{1,2} x {2},{2,3}
        a, b = prof({1: 3, 2: 1}), prof({2: 3, 3: 1})
        assert edge_colour_range([a, b], [2, 2]) == (2, 3)
        assert literal_range([a, b], [2, 2]) == (2, 3)

    @pytest.mark.parametrize("solve", SHAPE_FUNCTIONS)
    def test_part_exceeding_class_size(self, solve):
        with pytest.raises(InfeasibleShapeError):
            solve([prof({0: 2})], [3])

    @pytest.mark.parametrize("solve", SHAPE_FUNCTIONS)
    def test_misaligned_or_empty_arguments(self, solve):
        with pytest.raises(ValueError):
            solve([prof({0: 2})], [1, 1])
        with pytest.raises(ValueError):
            solve([], [])
        with pytest.raises(ValueError):
            solve([prof({0: 2})], [0])

    @pytest.mark.parametrize("part", [1.5, True], ids=["float", "bool"])
    def test_a_part_that_is_not_an_int_is_a_value_error(self, part):
        # as decide_k's k: a float leaked a TypeError from the solver, and a
        # bool was read as the int 1
        p = prof({0: 2, 1: 1})
        with pytest.raises(ValueError, match="part sizes must be ints >= 1"):
            edge_colour_range([p, p], [part, 1])

    @pytest.mark.parametrize("profile", [(0,), {0: 1}, None],
                             ids=["tuple", "dict", "None"])
    def test_a_profile_that_is_not_a_class_profile_is_a_value_error(self, profile):
        # an AttributeError on .total leaked before
        with pytest.raises(ValueError, match="must be ClassProfiles"):
            edge_colour_range([profile], [1])

    def test_single_class_shape(self):
        assert edge_colour_range([prof({0: 2, 1: 1, 2: 1})], [3]) == (2, 3)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_literal_oracle(self, data):
        s = data.draw(st.integers(1, 3))
        profiles, parts = [], []
        for _ in range(s):
            ncol = data.draw(st.integers(1, 4))
            colours = data.draw(
                st.lists(st.integers(0, 6), min_size=ncol, max_size=ncol,
                         unique=True)
            )
            mults = data.draw(
                st.lists(st.integers(1, 3), min_size=ncol, max_size=ncol)
            )
            p = prof(dict(zip(colours, mults)))
            profiles.append(p)
            parts.append(data.draw(st.integers(1, p.total)))
        lo, hi = edge_colour_range(profiles, parts)
        assert (lo, hi) == literal_range(profiles, parts)
        # the pick descends on every count in between being reachable
        for target in range(lo - 1, hi + 2):
            if not lo <= target <= hi:
                with pytest.raises(ValueError):
                    selection(profiles, parts, target)
                continue
            choice = selection(profiles, parts, target)
            for c_map, p, a in zip(choice, profiles, parts):
                assert sum(c_map.values()) == a
                assert all(1 <= m <= p.counts[c] for c, m in c_map.items())
            assert len(set().union(*choice)) == target

    def test_permutation_invariance(self):
        profiles = [prof({0: 2, 1: 1}), prof({1: 2}), prof({2: 1, 3: 2})]
        parts = [2, 1, 3]
        base = edge_colour_range(profiles, parts)
        for order in itertools.permutations(range(3)):
            shuffled = edge_colour_range(
                [profiles[i] for i in order], [parts[i] for i in order]
            )
            assert shuffled == base

    def test_whole_class_parts_pin_the_union(self):
        a, b = prof({0: 2, 1: 2}), prof({1: 3, 2: 1})
        lo, hi = edge_colour_range([a, b], [4, 4])
        union = len(set(a.counts) | set(b.counts))
        assert lo == hi == union

    def test_bounds_sandwich(self):
        a, b = prof({0: 3, 1: 1}), prof({0: 1, 2: 2, 3: 1})
        lo, hi = edge_colour_range([a, b], [2, 3])
        assert 1 <= lo <= hi <= 5


@st.composite
def raw_shapes(draw):
    """A shape as ``range_of_keys`` takes it: up to three profile keys over
    colours 0..5 with their parts."""
    keys, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        counts = draw(st.dictionaries(st.integers(0, 5), st.integers(1, 3),
                                      min_size=1, max_size=4))
        keys.append(tuple(sorted(counts.items())))
        parts.append(draw(st.integers(1, sum(counts.values()))))
    return tuple(keys), tuple(parts)


def renamed(keys, names):
    return tuple(tuple(sorted((names[c], m) for c, m in key)) for key in keys)


class TestRangeCacheKey:
    """The range cache keys a shape by its profile keys with the colours
    renamed by first appearance, and its parts; the range itself never
    depends on the colour names or the slot order."""

    def test_the_same_raw_shape_solves_once(self):
        _range_of.cache_clear()
        keys = (((0, 3),), ((0, 2), (1, 1)))
        copy = tuple(tuple(list(key)) for key in keys)  # equal, not identical
        assert range_of_keys(keys, (1, 1)) == range_of_keys(copy, (1, 1)) == (1, 2)
        assert _range_of.cache_info().misses == 1

    def test_the_cache_is_bounded(self):
        # 5,000 shapes distinct up to colour names (the first class's
        # multiplicity grows) are 5,000 keys; the LRU drops the oldest once
        # it holds its bound, however many the process meets
        assert _range_of.cache_info().maxsize == 4096
        _range_of.cache_clear()
        for c in range(5000):
            assert range_of_keys((((0, c + 2),), ((0, 1), (1, 1))), (1, 1)) == (1, 2)
        info = _range_of.cache_info()
        assert info.misses == 5000 and info.currsize == 4096

    def test_direct_callers_share_entries_up_to_colour_names(self):
        # edge_colour_range keys its shape as the validator's scan does
        first = [prof({0: 2, 1: 1}), prof({1: 2, 2: 1})]
        second = [prof({5: 2, 7: 1}), prof({7: 2, 9: 1})]
        _range_of.cache_clear()
        assert edge_colour_range(first, [2, 2]) == edge_colour_range(second, [2, 2])
        info = _range_of.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_huge_colours_solve_as_their_dense_copy(self):
        # a miss renames the colours densely before they become mask bits:
        # a bit per raw colour would need integers of 10**9 bits here
        huge = (((10**9, 2), (10**9 + 7, 1)), ((10**9 + 7, 2), (10**9 + 9, 1)))
        dense = (((0, 2), (1, 1)), ((1, 2), (2, 1)))
        _range_of.cache_clear()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            got = range_of_keys(huge, (2, 2))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == range_of_keys(dense, (2, 2)) == (2, 3)
        assert peak < 100_000
        assert elapsed < 0.5

    @given(raw_shapes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_renaming_and_slot_order_keep_the_range(self, shape, data):
        keys, parts = shape
        base = range_of_keys(keys, parts)
        colours = sorted({c for key in keys for c, _ in key})
        names = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(colours),
                                   max_size=len(colours), unique=True))
        monotone = renamed(keys, dict(zip(colours, sorted(names))))
        assert range_of_keys(monotone, parts) == base
        any_names = renamed(keys, dict(zip(colours, names)))
        assert range_of_keys(any_names, parts) == base
        order = data.draw(st.permutations(range(len(parts))))
        assert range_of_keys(tuple(any_names[i] for i in order),
                             tuple(parts[i] for i in order)) == base


class TestSelectionAchieving:
    """``_selection``: a per-class pick whose union has a given number of
    colours, the witness of a violating range."""

    def test_realises_min_and_max(self):
        profiles = [prof({1: 3, 2: 1}), prof({2: 3, 3: 1})]
        parts = (2, 2)
        for target in (2, 3):
            choice = selection(profiles, parts, target)
            distinct = set()
            for c_map, p, a in zip(choice, profiles, parts):
                assert sum(c_map.values()) == a
                for colour, m in c_map.items():
                    assert 1 <= m <= p.counts[colour]
                distinct |= set(c_map)
            assert len(distinct) == target

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            selection([prof({0: 2})], (2,), 5)

    def test_sparse_and_negative_colours(self):
        # the solver packs colours into bit masks, renamed densely first
        profiles = [prof({-3: 2, 10**9: 1}), prof({10**9: 2, 7: 1})]
        parts = (2, 2)
        lo, hi = edge_colour_range(profiles, parts)
        assert (lo, hi) == literal_range(profiles, parts) == (2, 3)
        for target in range(lo, hi + 1):
            choice = selection(profiles, parts, target)
            for c_map, p, a in zip(choice, profiles, parts):
                assert sum(c_map.values()) == a
                assert all(1 <= m <= p.counts[c] for c, m in c_map.items())
            assert len(set().union(*choice)) == target


def a2_colouring(n):
    """Every class gets a shared colour 0 plus its own colour."""
    return Colouring(classes=tuple((0, j + 1) for j in range(n)))


class TestIsValid:
    def test_balanced_three_colour_classes(self):
        cls = (0, 0, 1, 1, 2, 2)
        assert is_valid(APPENDIX, Colouring(classes=(cls,) * 7))

    def test_shared_plus_private_pattern(self):
        spec = HypergraphSpec(n=5, q=2, sigma=build_sigma([2, 2]), alpha=3, beta=3)
        assert is_valid(spec, a2_colouring(5))

    def test_monochromatic_everything_fails(self):
        spec = HypergraphSpec(n=2, q=2, sigma=build_sigma([2, 2]), alpha=2, beta=3)
        assert not is_valid(spec, Colouring(classes=((0, 0), (0, 0))))

    def test_vacuous_without_edges(self):
        spec = HypergraphSpec(n=1, q=2, sigma=build_sigma([2, 2]), alpha=2, beta=2)
        assert is_valid(spec, Colouring(classes=((0, 0),)))

    def test_dimension_mismatch(self):
        spec = HypergraphSpec(n=2, q=2, sigma=build_sigma([1, 1]), alpha=2, beta=2)
        with pytest.raises(DimensionMismatchError):
            is_valid(spec, Colouring(classes=((0, 0, 1), (1, 1, 0))))

    @pytest.mark.parametrize("check", [is_valid, find_violation])
    @pytest.mark.parametrize("colouring", ["x", None, ((0, 1), (1, 0))],
                             ids=["str", "None", "tuple-of-tuples"])
    def test_a_colouring_that_is_not_a_colouring_is_a_value_error(self, check, colouring):
        spec = HypergraphSpec(n=2, q=2, sigma=build_sigma([1, 1]), alpha=2, beta=2)
        with pytest.raises(ValueError, match="must be a Colouring"):
            check(spec, colouring)


    @pytest.mark.parametrize("check", [is_valid, find_violation])
    @pytest.mark.parametrize("spec", ["x", None, (2, 2, (1, 1), 2, 2)],
                             ids=["str", "None", "tuple"])
    def test_a_spec_that_is_not_a_spec_is_a_value_error(self, check, spec):
        # an AttributeError on .n leaked before
        colouring = Colouring(classes=((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="must be a HypergraphSpec"):
            check(spec, colouring)

class TestFindViolation:
    def test_monochromatic_witness(self):
        spec = HypergraphSpec(n=2, q=2, sigma=build_sigma([2, 2]), alpha=2, beta=3)
        w = find_violation(spec, Colouring(classes=((0, 0), (0, 0))))
        assert w is not None
        assert w.distinct_colours == 1
        assert w.class_tuple == (0, 1)
        assert all(sum(c.values()) == p for c, p in
                   zip(w.per_class_choice, w.part_assignment))

    def test_too_many_colours_witness(self):
        classes = ((0, 1, 2, 3, 3, 3),) + ((4, 4, 4, 4, 4, 4),) * 6
        w = find_violation(APPENDIX, Colouring(classes=classes))
        assert w is not None
        assert w.distinct_colours >= 4

    def test_none_for_valid(self):
        spec = HypergraphSpec(n=5, q=2, sigma=build_sigma([2, 2]), alpha=3, beta=3)
        assert find_violation(spec, a2_colouring(5)) is None

    def test_witness_choice_is_realisable(self):
        spec = HypergraphSpec(n=3, q=3, sigma=build_sigma([2, 1]), alpha=2, beta=2)
        colouring = Colouring(classes=((0, 1, 2), (0, 1, 2), (0, 0, 0)))
        w = find_violation(spec, colouring)
        assert w is not None
        from sigma_spectra import profile_of
        for cls_idx, part, chosen in zip(
            w.class_tuple, w.part_assignment, w.per_class_choice
        ):
            p = profile_of(colouring, cls_idx)
            assert sum(chosen.values()) == part
            for colour, m in chosen.items():
                assert m <= p.counts[colour]
        union = set()
        for chosen in w.per_class_choice:
            union |= set(chosen)
        assert len(union) == w.distinct_colours
        assert (w.distinct_colours < spec.alpha
                or w.distinct_colours > spec.beta)


def literal_is_valid(spec, colouring):
    """Independent validity check via materialised edges."""
    flat = [c for cls in colouring.classes for c in cls]
    for combo in itertools.combinations(range(spec.n * spec.q), spec.r):
        counts = {}
        for v in combo:
            counts[v // spec.q] = counts.get(v // spec.q, 0) + 1
        if tuple(sorted(counts.values(), reverse=True)) != spec.sigma.parts:
            continue
        distinct = len({flat[v] for v in combo})
        if distinct < spec.alpha or distinct > spec.beta:
            return False
    return True


class TestOracleEquivalence:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_literal_edge_enumeration(self, data):
        parts = data.draw(st.sampled_from(
            [(1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (3,)]
        ))
        sigma = build_sigma(list(parts))
        n = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(1, 3))
        if n * q > 12:
            q = 12 // n
        if q < 1:
            q = 1
        alpha = data.draw(st.integers(2, 3))
        beta = data.draw(st.integers(alpha, max(alpha, sigma.r)))
        spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
        classes = tuple(
            tuple(data.draw(st.integers(0, 3)) for _ in range(q))
            for _ in range(n)
        )
        colouring = Colouring(classes=classes)
        assert is_valid(spec, colouring) == literal_is_valid(spec, colouring)


def per_shape_first_violation(spec, colouring):
    """The plain rule: every shape through ``range_of_keys``, in shape order."""
    keys = [profile_of(colouring, i).key() for i in range(spec.n)]
    for class_tuple, parts in edge_shapes(spec):
        shape = tuple(keys[i] for i in class_tuple)
        lo, hi = range_of_keys(shape, parts)
        if lo < spec.alpha:
            return class_tuple, parts, lo, shape
        if hi > spec.beta:
            return class_tuple, parts, hi, shape
    return None


@st.composite
def palette_colourings(draw):
    """A spec, edgeless ones included, and a colouring whose classes draw
    from private palettes (far apart, so large colours occur), from one
    shared palette, or a mix of the two."""
    parts = draw(st.sampled_from(
        [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (3, 2)]))
    sigma = build_sigma(list(parts))
    n, q = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    alpha = draw(st.integers(2, 4))
    beta = draw(st.integers(alpha, alpha + 3))
    spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
    mode = draw(st.sampled_from(["private", "shared", "mixed"]))
    classes = []
    for i in range(n):
        private = mode == "private" or (mode == "mixed" and draw(st.booleans()))
        base = (i + 1) * 10**9 if private else 0
        classes.append(tuple(base + draw(st.integers(0, 3)) for _ in range(q)))
    return spec, Colouring(classes=tuple(classes))


class TestWitnessFromKeys:
    """``find_violation`` reads its witness off the profile keys the
    validity check built, never through ``ClassProfile``."""

    def test_builds_no_class_profile(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a ClassProfile was built")

        monkeypatch.setattr(ClassProfile, "__post_init__", refuse)
        spec = HypergraphSpec(n=3, q=3, sigma=build_sigma([2, 1]), alpha=2, beta=2)
        colouring = Colouring(classes=((0, 1, 2), (0, 1, 2), (0, 0, 0)))
        w = find_violation(spec, colouring)
        assert w is not None and w.distinct_colours == 3

    @given(palette_colourings())
    @settings(max_examples=300, deadline=None)
    def test_matches_selection_achieving_on_profile_of(self, case):
        spec, colouring = case
        for i, cls in enumerate(colouring.classes):
            assert profile_of(colouring, i).key() == _profile_key(cls)
        w = find_violation(spec, colouring)
        if w is not None:
            profiles = [profile_of(colouring, i) for i in w.class_tuple]
            assert w.per_class_choice == selection(
                profiles, w.part_assignment, w.distinct_colours)


def certified(spec, colouring):
    """Whether the whole-class bounds prove ``colouring`` valid, read off
    the class keys ``_first_violation`` builds."""
    return _certified(spec, [_class_key(cls) for cls in colouring.classes])


def first_appearance(keys):
    """``keys`` with each colour renamed to its place in order of first
    appearance, slot by slot; a key's pairs keep their order."""
    names = {}
    return tuple(tuple((names.setdefault(c, len(names)), m) for c, m in key)
                 for key in keys)


class TestRenamedShapeKeys:
    """The validator asks the range cache for every shape with its colours
    renamed by first appearance, so shapes equal up to colour names share
    one entry and one solve."""

    # at alpha = 3 the whole-class bounds prove nothing, so the shape is scanned
    SPEC = HypergraphSpec(n=2, q=2, sigma=build_sigma([2, 2]), alpha=3, beta=3)

    def test_shapes_equal_up_to_colour_names_solve_once(self):
        # both colourings have one shape, whole classes sharing one colour,
        # and one arrangement; their raw keys differ only by colour names
        first = Colouring(classes=((0, 1), (1, 2)))
        second = Colouring(classes=((5, 7), (7, 9)))
        _range_of.cache_clear()
        assert is_valid(self.SPEC, first) and is_valid(self.SPEC, second)
        info = _range_of.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_disjoint_shapes_equal_up_to_colour_names_solve_once(self):
        # a layered colouring: every class has its own two colours; at
        # alpha = 3 the whole-class bounds prove nothing, so all C(5, 2)
        # shapes are scanned, each the same shape up to colour names
        spec = HypergraphSpec(n=5, q=2, sigma=build_sigma([2, 2]), alpha=3, beta=4)
        colouring = Colouring(classes=tuple((2 * i, 2 * i + 1) for i in range(5)))
        assert not certified(spec, colouring)
        _range_of.cache_clear()
        assert is_valid(spec, colouring)
        info = _range_of.cache_info()
        assert (info.hits + info.misses, info.misses) == (10, 1)

    def test_witnesses_name_the_real_colours(self):
        spec = HypergraphSpec(n=2, q=2, sigma=build_sigma([2, 2]), alpha=2, beta=2)
        w = find_violation(spec, Colouring(classes=((5, 7), (7, 9))))
        assert w.distinct_colours == 3
        assert w.per_class_choice == ({5: 1, 7: 1}, {7: 1, 9: 1})

    @given(raw_shapes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_renamed_shape_keeps_the_range(self, shape, data):
        keys, parts = shape
        order = data.draw(st.permutations(range(len(parts))))
        keys = tuple(keys[i] for i in order)
        parts = tuple(parts[i] for i in order)
        assert range_of_keys(first_appearance(keys), parts) == range_of_keys(keys, parts)

    @given(palette_colourings())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_shape_solver(self, case):
        spec, colouring = case
        found = _first_violation(spec, colouring)
        assert found == per_shape_first_violation(spec, colouring)
        assert is_valid(spec, colouring) == (found is None)

    def test_huge_colours_cost_no_memory(self):
        # colours are renamed densely before they become mask bits: a bit
        # per raw colour would need a 10**12-bit integer here
        spec = HypergraphSpec(n=4, q=3, sigma=build_sigma([2, 1]), alpha=2, beta=3)
        colouring = Colouring(classes=((10**12, 10**12, 2**70), (0, 0, 1),
                                       (10**12, 5, 5), (7, 7, 7)))
        tracemalloc.start()
        try:
            found = _first_violation(spec, colouring)
            witness = find_violation(spec, colouring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert found == per_shape_first_violation(spec, colouring)
        assert (witness is None) == is_valid(spec, colouring)


def picked_range(mults, a):
    """Independent oracle: the fewest and most colours over every
    ``a``-vertex pick from a class with colour multiplicities ``mults``."""
    vertices = [c for c, m in enumerate(mults) for _ in range(m)]
    counts = {len(set(pick)) for pick in itertools.combinations(vertices, a)}
    return min(counts), max(counts)


class TestClassRows:
    """One class's range for each part size, as the validator asks
    :func:`range_of_keys` for it, matches every pick."""

    @pytest.mark.parametrize("q", range(1, 9))
    def test_rows_match_the_ranges_and_every_pick(self, q):
        for mults in _partitions(q, q):
            key = tuple(enumerate(mults))
            for a in range(1, q + 1):
                assert range_of_keys((key,), (a,)) == picked_range(mults, a), (mults, a)


class TestClassData:
    """Each distinct class's profile key comes from a bounded cache keyed
    by the class's content."""

    def test_the_cache_is_bounded(self):
        assert _class_key.cache_info().maxsize == 4096
        _class_key.cache_clear()
        spec = HypergraphSpec(n=3, q=2, sigma=build_sigma([1, 1]), alpha=2, beta=2)
        for c in range(0, 6 * 1500, 6):  # 4,500 distinct classes, no shared colour
            assert is_valid(spec, Colouring(classes=((c, c + 1), (c + 2, c + 3),
                                                     (c + 4, c + 5))))
        info = _class_key.cache_info()
        assert info.misses == 4500 and info.currsize == info.maxsize

    def test_equal_classes_of_two_colourings_hit(self):
        spec = HypergraphSpec(n=3, q=3, sigma=build_sigma([2, 1]), alpha=2, beta=3)
        classes = ((0, 0, 1), (1, 2, 2), (3, 3, 3))
        first = Colouring(classes=classes)
        second = Colouring(classes=tuple(tuple(list(cls)) for cls in classes))
        _class_key.cache_clear()
        assert is_valid(spec, first) == is_valid(spec, second)
        info = _class_key.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        assert _class_key((0, 0, 1)) == ((0, 2), (1, 1))


@functools.cache
def spec_edges(n, q, parts):
    """The oracle's edges of H(n, q | parts), listed once per instance."""
    return enumerate_edges(HypergraphSpec(n=n, q=q, sigma=build_sigma(parts),
                                          alpha=2, beta=2))


@st.composite
def small_instances(draw):
    """A spec with edges, n*q <= 12 and s <= 3, and a colouring of solid
    classes, of per-class palettes (overlapping or private, their sizes
    drawn per class) or of free colours, so that valid colourings, and
    classes of unequal colour counts, are common."""
    parts = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                  (4, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2),
                                  (3, 1, 1), (3, 2, 1)]))
    q = draw(st.integers(parts[0], 12 // len(parts)))
    n = draw(st.integers(len(parts), 12 // q))
    # the certificate proves only alpha = 2, so draw it most often
    alpha = draw(st.sampled_from([2, 2, 3, 4]))
    # an edge has at most r colours, so a larger beta bounds nothing
    beta = draw(st.integers(alpha, max(alpha, sum(parts))))
    spec = HypergraphSpec(n=n, q=q, sigma=build_sigma(list(parts)), alpha=alpha, beta=beta)
    mode = draw(st.sampled_from(["solid", "overlapping", "private", "free"]))
    classes = []
    for i in range(n):
        if mode == "solid":
            classes.append((draw(st.integers(0, n - 1)),) * q)
            continue
        # class i draws from colours base..base+top
        base = {"overlapping": 2 * i, "private": 10 * i, "free": 0}[mode]
        top = 5 if mode == "free" else draw(st.integers(0, 3))
        classes.append(tuple(base + draw(st.integers(0, top)) for _ in range(q)))
    return spec, Colouring(classes=tuple(classes))


class TestCertificate:
    """Bounds over whole classes accept most valid colourings before the
    shape scan; they never accept an invalid one, and what they refuse is
    scanned as before."""

    @given(small_instances())
    @settings(max_examples=400, deadline=None)
    def test_an_accepted_colouring_is_valid_on_every_edge(self, case):
        spec, colouring = case
        flat = [c for cls in colouring.classes for c in cls]
        valid = all(spec.alpha <= len({flat[v] for v in edge}) <= spec.beta
                    for edge in spec_edges(spec.n, spec.q, spec.sigma.parts))
        if certified(spec, colouring):
            assert valid
        assert is_valid(spec, colouring) == valid

    def test_mono_zone_colourings_need_no_range_solve(self):
        # each colour fills at most two classes, so no edge of three classes
        # is monochromatic, and an edge sees at most three colours <= beta;
        # the scan would solve every shape holding two classes of one colour
        spec = HypergraphSpec(n=60, q=4, sigma=build_sigma([2, 2, 2]), alpha=2, beta=5)
        zone = mono_zone(spec)
        assert (zone.lo, zone.hi) == (30, 60)
        before = _range_of.cache_info()
        assert all(is_valid(spec, mono_colouring(spec, k)) for k in zone)
        assert _range_of.cache_info() == before

    @pytest.mark.parametrize("alpha, beta, parts", gap_cells())
    def test_gap_recipe_beta_colourings_need_no_scan(self, alpha, beta, parts):
        # every class holds all beta colours, so the per-class sum exceeds
        # beta and only the colours used bound the high end
        sigma = build_sigma(list(parts))
        q, n = gap_instance_params(alpha, beta, sigma)
        spec = HypergraphSpec(n=n, q=q, sigma=sigma, alpha=alpha, beta=beta)
        colouring = beta_colouring(spec)
        assert sum(map(min, parts, [beta] * len(parts))) > beta
        assert certified(spec, colouring)

    def test_a_monochromatic_edge_is_refused_and_scanned(self):
        # colours per class 2, 2, 1 pair with parts (2, 1) to at most 3 <=
        # beta, and class 0 is solid, so only the alpha = 2 test is left:
        # colour 0 holds 2 vertices of class 0 and 1 of class 1, an edge
        spec = HypergraphSpec(n=3, q=2, sigma=build_sigma([2, 1]), alpha=2, beta=3)
        colouring = Colouring(classes=((0, 0), (0, 1), (1, 2)))
        assert not certified(spec, colouring)
        assert find_violation(spec, colouring) == validator.EdgeWitness(
            class_tuple=(0, 1), part_assignment=(2, 1),
            per_class_choice=({0: 2}, {0: 1}), distinct_colours=1)
