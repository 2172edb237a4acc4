"""Instance model: partitions, profiles, edge shapes, canonical form, JSON."""

import itertools
import json
import re
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from sigma_spectra import (
    ClassProfile,
    Colouring,
    HypergraphSpec,
    InvalidPartitionError,
    Sigma,
    build_sigma,
    canonical_colouring,
    colouring_from_json,
    colouring_to_json,
    count_edges,
    edge_shapes,
    layered_colouring,
    part_arrangements,
    profile_of,
    spectrum,
)
from sigma_spectra import core
from support import load_search_digest, spec_of


class TestSigma:
    def test_appendix_partition(self):
        s = build_sigma([6, 6])
        assert (s.r, s.s, s.delta_max, s.delta_min) == (12, 2, 6, 6)

    def test_two_two(self):
        s = build_sigma([2, 2])
        assert (s.r, s.s, s.delta_max, s.delta_min) == (4, 2, 2, 2)

    def test_singleton(self):
        s = build_sigma([1])
        assert (s.r, s.s, s.delta_max, s.delta_min) == (1, 1, 1, 1)

    def test_sorts_parts(self):
        assert build_sigma([1, 3, 2]).parts == (3, 2, 1)

    # a bool is an int to Python, but (2,True) is no partition
    @pytest.mark.parametrize("bad", [[], [0], [2, -1], [1.5, 2], [2, True]])
    def test_rejects_bad_parts(self, bad):
        with pytest.raises(InvalidPartitionError):
            build_sigma(bad)

    def test_takes_only_its_parts_and_derives_the_rest(self):
        # r, s and the extreme parts are read off the parts, so a hand-built
        # Sigma cannot disagree with them (an s of 3 for (2,2) once gave the
        # spectrum (4,5,6,7) in place of (5,))
        with pytest.raises(TypeError):
            Sigma(parts=(2, 2), r=4, s=3, delta_max=2, delta_min=2)
        s = Sigma((1, 3))
        assert (s.parts, s.r, s.s, s.delta_max, s.delta_min) == ((3, 1), 4, 2, 3, 1)
        for bad in [(), (2, True)]:
            with pytest.raises(InvalidPartitionError):
                Sigma(bad)
        by_hand = spectrum(HypergraphSpec(n=5, q=3, sigma=Sigma((2, 2)), alpha=2, beta=2))
        assert by_hand.feasible_k == (5,)
        assert by_hand == spectrum(spec_of(5, 3, [2, 2]))


class TestProfiles:
    def test_direct_count(self):
        c = Colouring(classes=((1, 1, 2, 2, 3, 3),))
        assert profile_of(c, 0).counts == {1: 2, 2: 2, 3: 2}
        assert profile_of(c, 0).total == 6

    def test_monochromatic(self):
        c = Colouring(classes=((0, 0, 0, 0),))
        assert profile_of(c, 0).counts == {0: 4}

    def test_mixed(self):
        c = Colouring(classes=((5, 7, 5, 9),))
        assert profile_of(c, 0).counts == {5: 2, 7: 1, 9: 1}

    def test_index_out_of_range(self):
        c = Colouring(classes=((0, 0),))
        with pytest.raises(IndexError):
            profile_of(c, 1)

    @pytest.mark.parametrize("counts, total, message", [
        ({0: 2, 1: 0}, 2, "must be >= 1"),
        ({0: 2, 1: 1}, 4, "must sum to the class size"),
    ])
    def test_rejects_bad_multiplicities(self, counts, total, message):
        with pytest.raises(ValueError, match=message):
            ClassProfile(counts=counts, total=total)


class TestEdgeShapes:
    def test_unequal_parts_double_the_pairs(self):
        shapes = list(edge_shapes(spec_of(3, 2, [2, 1])))
        assert len(shapes) == 6

    def test_equal_parts_collapse(self):
        shapes = list(edge_shapes(spec_of(2, 6, [6, 6], alpha=3, beta=3)))
        assert shapes == [((0, 1), (6, 6))]

    def test_too_few_classes(self):
        assert list(edge_shapes(spec_of(2, 3, [3, 3, 1], alpha=2, beta=3))) == []

    def test_small_q_means_no_edges(self):
        assert list(edge_shapes(spec_of(4, 1, [2, 1]))) == []

    def test_arrangements_cover_each_choice_once(self):
        shapes = list(edge_shapes(spec_of(4, 3, [2, 1, 1], alpha=2, beta=3)))
        # 4 class triples, 3 inequivalent placements of the 2-part
        assert len(shapes) == 12
        assert len(set(shapes)) == 12

    def test_arrangements_are_the_distinct_permutations_in_decreasing_order(self):
        # every pattern of equal and unequal parts up to seven parts: a cut
        # between neighbours raises the value
        for s in range(1, 8):
            for cuts in range(1 << (s - 1)):
                parts = [1 + (cuts & ((1 << i) - 1)).bit_count() for i in range(s)]
                sigma = build_sigma(parts)
                expected = tuple(sorted(set(itertools.permutations(sigma.parts)),
                                        reverse=True))
                assert part_arrangements(sigma) == expected

    def test_many_equal_parts_arrange_in_few_ways(self):
        # 14! permutations, 14 distinct orderings
        arrangements = part_arrangements(build_sigma([2] + [1] * 13))
        assert len(arrangements) == 14
        assert arrangements[0] == (2,) + (1,) * 13
        assert arrangements[-1] == (1,) * 13 + (2,)


class TestTouchSets:
    def test_the_cache_is_bounded(self):
        # keys equal up to colour names are distinct entries; the LRU drops
        # the oldest once it holds its bound, however many the process meets
        assert core._touch_sets.cache_info().maxsize == 4096
        core._touch_sets.cache_clear()
        for c in range(5000):
            assert core._touch_sets(((c, 2), (c + 1, 1)), 2) == (1 << c, 3 << c)
        info = core._touch_sets.cache_info()
        assert info.misses == 5000 and info.currsize == 4096


def literal_edge_count(spec):
    """Independent count: enumerate r-subsets, filter by class profile."""
    total = 0
    for combo in itertools.combinations(range(spec.n * spec.q), spec.r):
        counts = {}
        for v in combo:
            counts[v // spec.q] = counts.get(v // spec.q, 0) + 1
        if tuple(sorted(counts.values(), reverse=True)) == spec.sigma.parts:
            total += 1
    return total


class TestEdgeCount:
    @pytest.mark.parametrize("n,q,parts", [
        (3, 2, [2, 1]),
        (3, 4, [2, 2]),
        (4, 3, [1, 1, 1]),
        (2, 6, [6, 6]),
        (4, 2, [2, 1, 1]),
        (3, 4, [3]),
        (5, 2, [1, 1]),
    ])
    def test_shape_sum_matches_literal_enumeration(self, n, q, parts):
        spec = spec_of(n, q, parts, alpha=2, beta=max(2, sum(parts)))
        assert count_edges(spec) == literal_edge_count(spec)

    def test_no_edges_cases(self):
        assert count_edges(spec_of(1, 4, [2, 2])) == 0
        assert count_edges(spec_of(4, 1, [2, 1])) == 0


small_colourings = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda q: st.lists(
            st.lists(st.integers(0, 5), min_size=q, max_size=q),
            min_size=n, max_size=n,
        )
    )
)

# up to seven copies of at most three classes: classes repeat, and a class
# whose colours no other base class holds is private to its copies
copied_colourings = st.integers(1, 4).flatmap(
    lambda q: st.lists(st.lists(st.integers(0, 5), min_size=q, max_size=q),
                       min_size=1, max_size=3)
).flatmap(lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=7))

# disjoint unions of up to three small colourings, the i-th over colours
# 3i..3i+2, so each part's classes meet only each other
disjoint_unions = st.integers(1, 3).flatmap(
    lambda q: st.lists(st.lists(st.lists(st.integers(0, 2), min_size=q, max_size=q),
                                min_size=1, max_size=3),
                       min_size=1, max_size=3)
).map(lambda parts: [[c + 3 * i for c in cls] for i, part in enumerate(parts)
                     for cls in part])


# the canonical line of tools/search_digest.py, pinned: a change to the
# canonical form that claims to move no form keeps it
CANONICAL_SHA256 = "7737336e1e638b907dc181131e5a5da2b90702d359d7f37d67fabc8dc26f7398"


def test_canonical_digest_is_pinned():
    module = load_search_digest()
    assert module.sha256_of(module.canonical_records()) == CANONICAL_SHA256


class TestCanonicalForm:
    @given(small_colourings)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, classes):
        c = Colouring(classes=tuple(tuple(cls) for cls in classes))
        can = canonical_colouring(c)
        assert canonical_colouring(can) == can

    @given(st.one_of(small_colourings, copied_colourings, disjoint_unions),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_symmetries(self, classes, rng):
        c = Colouring(classes=tuple(tuple(cls) for cls in classes))
        base = canonical_colouring(c)

        order = list(range(len(classes)))
        rng.shuffle(order)
        permuted = Colouring(classes=tuple(tuple(classes[i]) for i in order))
        assert canonical_colouring(permuted) == base

        colours = sorted({x for cls in classes for x in cls})
        image = colours[:]
        rng.shuffle(image)
        mapping = dict(zip(colours, image))
        recoloured = Colouring(
            classes=tuple(tuple(mapping[x] for x in cls) for cls in classes)
        )
        assert canonical_colouring(recoloured) == base

    def test_colour_count_preserved(self):
        c = Colouring(classes=((3, 1, 3), (2, 2, 9)))
        assert canonical_colouring(c).colour_count == c.colour_count

    def test_dense_renumbering(self):
        can = canonical_colouring(Colouring(classes=((7, 7), (9, 4))))
        used = sorted({x for cls in can.classes for x in cls})
        assert used == list(range(len(used)))

    @given(st.integers(1, 4).flatmap(
        lambda n: st.integers(1, 3).flatmap(
            lambda q: st.lists(
                st.lists(st.integers(0, 4), min_size=q, max_size=q),
                min_size=n, max_size=n,
            )
        )
    ))
    @settings(max_examples=120, deadline=None)
    def test_canonical_form_stays_in_the_orbit(self, classes):
        """The canonical form is the least symmetry image of its input, so
        two inputs share a canonical form exactly when they are equivalent."""
        c = Colouring(classes=tuple(tuple(cls) for cls in classes))
        can = canonical_colouring(c)
        colours = sorted({x for cls in c.classes for x in cls})
        orbit = set()
        for class_order in itertools.permutations(range(c.n)):
            for image in itertools.permutations(range(len(colours))):
                mapping = dict(zip(colours, image))
                orbit.add(tuple(
                    tuple(sorted(mapping[x] for x in c.classes[i]))
                    for i in class_order
                ))
        assert can.classes == min(orbit)

    # Tie patterns past brute force: disjoint palettes with interchangeable
    # classes (n! class orders), palettes shared in pairs, and many
    # identical solid classes.  The expected forms come from an earlier,
    # independent implementation that enumerated every order of tied colours.
    @pytest.mark.parametrize("classes,expected", [
        (  # layered, disjoint 2-colour palettes, n = 7
            ((0, 0, 0, 5, 5), (10, 10, 10, 15, 15), (3, 3, 3, 8, 8),
             (13, 13, 13, 1, 1), (6, 6, 6, 11, 11), (16, 16, 16, 4, 4),
             (9, 9, 9, 14, 14)),
            ((0, 0, 0, 1, 1), (2, 2, 2, 3, 3), (4, 4, 4, 5, 5), (6, 6, 6, 7, 7),
             (8, 8, 8, 9, 9), (10, 10, 10, 11, 11), (12, 12, 12, 13, 13)),
        ),
        (  # layered, two classes with a fresh singleton
            ((0, 0, 0, 5, 5), (2, 10, 10, 15, 15), (3, 3, 3, 8, 8),
             (13, 13, 13, 1, 1), (6, 6, 6, 11, 11), (7, 16, 16, 4, 4),
             (9, 9, 9, 14, 14)),
            ((0, 0, 0, 1, 1), (2, 2, 2, 3, 3), (4, 4, 4, 5, 5), (6, 6, 6, 7, 7),
             (8, 8, 8, 9, 9), (10, 10, 11, 11, 12), (13, 13, 14, 14, 15)),
        ),
        (  # paired palettes
            ((3, 3, 10, 6), (3, 10, 10, 6), (2, 2, 9, 5), (2, 2, 9, 5),
             (1, 1, 8, 4), (1, 8, 8, 4)),
            ((0, 0, 1, 2), (0, 0, 1, 2), (3, 3, 4, 5), (3, 4, 4, 5),
             (6, 6, 7, 8), (6, 7, 7, 8)),
        ),
        (  # mono, many identical solid classes
            ((5, 5, 5),) * 4 + ((2, 2, 2),) * 3 + ((9, 9, 9),) * 2
            + ((8, 8, 2), (4, 4, 4)),
            ((0, 0, 0),) * 4 + ((1, 1, 1),) * 3
            + ((1, 2, 2), (3, 3, 3), (3, 3, 3), (4, 4, 4)),
        ),
        (  # private copies: two of one class, three of another
            ((0,), (0,), (1,), (1,), (1,)),
            ((0,), (0,), (0,), (1,), (1,)),
        ),
    ], ids=["layered", "layered-singletons", "paired", "mono", "copies"])
    def test_structured_canonical_forms(self, classes, expected):
        assert canonical_colouring(Colouring(classes=classes)).classes == expected

    def test_private_classes_are_not_branched_in_every_order(self):
        # every form is canonical; tying the interchangeable classes (or
        # pairs of classes) in every order of them took seconds
        for classes in (
            # nine classes, each with its own two colours
            layered_colouring(spec_of(9, 4, [1, 1], beta=4), 18).classes,
            # eight pairs of equal classes, each pair over its own two colours
            tuple(tuple((i // 2) * 2 + j // 2 for j in range(4)) for i in range(16)),
            # six pairs (a,a,a,b), (a,b,b,b), each pair over its own two colours
            tuple(cls for a in range(0, 12, 2)
                  for cls in ((a, a, a, a + 1), (a, a + 1, a + 1, a + 1))),
            # 300 classes, each with its own two colours
            layered_colouring(spec_of(300, 4, [1, 1], beta=4), 600).classes,
        ):
            scrambled = Colouring(classes=tuple(
                tuple(1000 - c for c in cls) for cls in reversed(classes)))
            start = time.perf_counter()
            assert canonical_colouring(scrambled).classes == classes
            assert time.perf_counter() - start < 0.5

    def test_a_chain_tries_only_classes_that_share_a_placed_colour(self, monkeypatch):
        # classes (i, i + 1): past the first class only the two classes next
        # to the placed run share a placed colour; trying every class left
        # took 59,398 places
        calls = []
        place = core._place
        monkeypatch.setattr(core, "_place", lambda *args: calls.append(1) or place(*args))
        chain = tuple((i, i + 1) for i in range(40))
        form = canonical_colouring(Colouring(classes=chain))
        assert len(calls) < 10_000
        renamed = Colouring(classes=tuple((1000 - b, 1000 - a) for a, b in reversed(chain)))
        assert canonical_colouring(renamed) == form == canonical_colouring(form)

    def test_many_classes_need_no_deep_recursion(self):
        # the search once recursed once per class
        copies = Colouring(classes=((0, 0),) * 1500)
        assert copies.canonical() == copies


class TestColouringJson:
    def test_round_trip_is_bit_exact(self):
        c = Colouring(classes=((0, 1, 1), (2, 0, 0)))
        text = colouring_to_json(c)
        again = colouring_from_json(text)
        assert again == c
        assert colouring_to_json(again) == text

    def test_loader_checks_dimensions(self):
        with pytest.raises(Exception):
            colouring_from_json(json.dumps({"n": 2, "q": 2, "classes": [[0, 0]]}))

    @pytest.mark.parametrize("payload", [
        '[]',
        '{"n": 1, "q": 1}',
        '{"n": 1, "q": 2, "classes": [[0, "x"]]}',
        '{"n": 1, "q": 2, "classes": [[0, -3]]}',
        '{"n": 1, "q": 2, "classes": [[0, true]]}',
        '{"n": 1, "q": 2, "classes": "nope"}',
        '{"n": "1", "q": 2, "classes": [[0, 0]]}',
    ])
    def test_loader_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            colouring_from_json(payload)

    @pytest.mark.parametrize("extra", [{"extra": 1}, {"k": 2, "n ": 3}, {"a\nb": None}])
    def test_loader_rejects_fields_the_schema_forbids(self, extra):
        # the schema sets additionalProperties false
        payload = {"n": 1, "q": 2, "classes": [[0, 1]]}
        assert colouring_from_json(json.dumps(payload)).classes == ((0, 1),)
        with pytest.raises(ValueError, match="exactly the fields n, q, classes"):
            colouring_from_json(json.dumps({**payload, **extra}))

    def test_within_class_order_is_normalised(self):
        c = colouring_from_json('{"n": 1, "q": 3, "classes": [[2, 0, 1]]}')
        assert c.classes == ((0, 1, 2),)


class TestColouringValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Colouring(classes=())

    def test_rejects_ragged_classes(self):
        with pytest.raises(ValueError):
            Colouring(classes=((0, 1), (0,)))

    def test_rejects_negative_colours(self):
        with pytest.raises(ValueError):
            Colouring(classes=((0, -1),))

    @pytest.mark.parametrize("bad", [5, ((0, 1), 5), (None,), ((0, 1), None), {1: (0,)}])
    def test_rejects_classes_that_are_not_sequences(self, bad):
        # these once failed inside len() or an index with a bare TypeError,
        # or, for a mapping without key 0, a bare KeyError
        with pytest.raises(ValueError, match="classes must be a sequence of colour "
                                             "sequences, got "):
            Colouring(classes=bad)

    def test_spec_rejects_bad_window(self):
        sigma = build_sigma([1, 1])
        with pytest.raises(ValueError):
            HypergraphSpec(n=2, q=2, sigma=sigma, alpha=1, beta=2)
        with pytest.raises(ValueError):
            HypergraphSpec(n=2, q=2, sigma=sigma, alpha=3, beta=2)
        with pytest.raises(ValueError):
            HypergraphSpec(n=0, q=2, sigma=sigma, alpha=2, beta=2)

    @pytest.mark.parametrize("field", ["n", "q", "alpha", "beta"])
    @pytest.mark.parametrize("bad", [3.5, 3.0, True, "3"])
    def test_spec_rejects_non_integers(self, field, bad):
        # a float n would otherwise reach spectrum and fail inside range()
        fields = dict(n=3, q=3, sigma=build_sigma([1, 1]), alpha=2, beta=3)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            HypergraphSpec(**{**fields, field: bad})

    @pytest.mark.parametrize("bad", [(1, 1), [1, 1], None, 2])
    def test_spec_rejects_a_sigma_that_is_not_a_sigma(self, bad):
        # a tuple sigma would otherwise reach spectrum and fail there with
        # AttributeError on sigma.delta_max
        with pytest.raises(ValueError, match="sigma must be a Sigma"):
            HypergraphSpec(n=3, q=3, sigma=bad, alpha=2, beta=2)


class Shade(IntEnum):
    LIGHT = 1
    DARK = 3


NEGATIVE = "colours must be non-negative integers"
RAGGED = "all classes must hold the same positive vertex count"
LONG = 10**5 - 1  # colours ahead of the one bad colour of a long class


class TestColouringInputContract:
    """The colour test reads the set of colour types, not each colour: a
    bad colour anywhere, even last in a long class, is refused with the
    contract's message, and int subclasses other than bool are accepted."""

    @pytest.mark.parametrize("classes, message", [
        (((True, 2),), NEGATIVE),
        (((-1, 2),), NEGATIVE),
        (((1.0, 2),), NEGATIVE),
        ((("a", "b"),), NEGATIVE),
        (((0, 1), (1, True)), NEGATIVE),
        (((0, 1), (2, -3)), NEGATIVE),
        (((0, 1), (0,)), RAGGED),
        (((), ()), RAGGED),
        ((), "a colouring needs at least one class"),
        (((*range(LONG), -1),), NEGATIVE),
        (((*range(LONG), True),), NEGATIVE),
        (((*range(LONG), 1.0),), NEGATIVE),
        (((*range(LONG), "a"),), NEGATIVE),
        (((*range(LONG), None),), NEGATIVE),
    ])
    def test_rejects(self, classes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Colouring(classes=classes)

    def test_accepts_int_enum_colours(self):
        c = Colouring(classes=((Shade.DARK, 0, Shade.LIGHT), (2, 2, Shade.LIGHT)))
        assert c.classes == ((0, 1, 3), (1, 2, 2))
        assert c.classes[0][2] is Shade.DARK

    def test_stores_lists_as_sorted_tuples(self):
        c = Colouring(classes=[[2, 0, 1], [1, 1, 0]])
        assert c.classes == ((0, 1, 2), (0, 1, 1))
        assert type(c.classes) is tuple
        assert all(type(cls) is tuple for cls in c.classes)

    def test_accepts_a_long_class_of_plain_ints(self):
        c = Colouring(classes=((*range(LONG, -1, -1),),))
        assert c.classes == (tuple(range(LONG + 1)),)
