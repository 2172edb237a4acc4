"""Closed forms: frozen oracle values, domains, zones, thresholds."""

import pytest

from sigma_spectra import (
    DomainError,
    IntInterval,
    MonoDistribution,
    NotApplicableError,
    build_sigma,
    extended_interval,
    gap_instance_params,
    max_sum_capped_head,
    min_parts_attainable,
    min_parts_capped_head,
    min_parts_formula,
    mono_zone,
    mono_zone_lower_bound,
    no_mono_zone_above,
    uncolourable_condition,
    zone_only_condition,
)
from sigma_spectra.verification import exhaustive_max_sum, exhaustive_min_parts
from support import APPENDIX, load_search_digest, spec_of


# the closed-forms line of tools/search_digest.py, pinned: a change to the
# closed forms or the builders that claims to move no value keeps it
CLOSED_FORMS_SHA256 = "73aefc6fc2c8caaa49a070d1fb40ce869f6fd9c32b9bcba8c58eabd6a2338b54"


def test_closed_forms_digest_is_pinned():
    module = load_search_digest()
    assert module.sha256_of(module.closed_form_records()) == CLOSED_FORMS_SHA256


class TestIntInterval:
    def test_empty_normalisation(self):
        assert IntInterval(5, 3) == IntInterval.empty()
        assert IntInterval(5, 3).is_empty

    def test_membership_and_iteration(self):
        iv = IntInterval(3, 6)
        assert 3 in iv and 6 in iv and 2 not in iv and 7 not in iv
        assert list(iv) == [3, 4, 5, 6]
        assert len(iv) == 4
        assert len(IntInterval.empty()) == 0

    def test_json_form(self):
        assert IntInterval(1, 2).to_json() == [1, 2]
        assert IntInterval.empty().to_json() is None


class TestMaxSum:
    # values frozen from the exhaustive enumeration over non-increasing
    # positive vectors with capped head sum
    @pytest.mark.parametrize("a,b,d,expect", [
        (2, 3, 4, 9),
        (3, 4, 5, 8),
        (2, 2, 2, 2),
        (2, 5, 2, 5),
        (2, 8, 7, 48),
        (4, 6, 7, 12),
    ])
    def test_frozen_values(self, a, b, d, expect):
        assert max_sum_capped_head(a, b, d) == expect
        assert exhaustive_max_sum(a, b, d) == expect

    def test_all_parts_forced_to_one(self):
        for b in range(2, 9):
            assert max_sum_capped_head(2, b, 2) == b

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            max_sum_capped_head(1, 3, 4)
        with pytest.raises(DomainError):
            max_sum_capped_head(3, 3, 2)
        with pytest.raises(DomainError):
            max_sum_capped_head(3, 2, 4)

    def test_monotone_in_b_and_d(self):
        for a in range(2, 6):
            for d in range(a, 7):
                values = [max_sum_capped_head(a, b, d) for b in range(a, 9)]
                assert values == sorted(values)
            for b in range(a, 9):
                values = [max_sum_capped_head(a, b, d) for d in range(a, 7)]
                assert values == sorted(values)


class TestMinParts:
    @pytest.mark.parametrize("a,d,n,expect", [
        (2, 2, 5, 5),
        (2, 3, 7, 4),
        (3, 5, 9, 5),
        (2, 7, 11, 2),
        (4, 4, 17, 17),
    ])
    def test_frozen_values(self, a, d, n, expect):
        assert min_parts_capped_head(a, d, n) == expect
        assert exhaustive_min_parts(a, d, n) == expect

    def test_small_n_is_unattainable(self):
        # below a parts no vector exists; the formula value is still reported
        assert not min_parts_attainable(3, 5, 2)
        assert exhaustive_min_parts(3, 5, 2) is None
        assert min_parts_capped_head(3, 5, 2) == 3  # clamped to a

    def test_clamp_kicks_in_only_below_a(self):
        assert min_parts_formula(2, 7, 1) == 1
        assert min_parts_capped_head(2, 7, 1) == 2

    def test_monotone_in_n(self):
        for a in range(2, 6):
            for d in range(a, 7):
                values = [min_parts_capped_head(a, d, n) for n in range(a, 41)]
                assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            min_parts_capped_head(1, 2, 5)
        with pytest.raises(DomainError):
            min_parts_capped_head(3, 2, 5)
        with pytest.raises(DomainError):
            min_parts_formula(2, 2, 0)


class TestMonoZone:
    def test_three_singleton_parts(self):
        spec = spec_of(6, 3, [1, 1, 1], 2, 3)
        assert mono_zone(spec) == IntInterval(3, 6)
        # alpha = 2 closed form: ceil(n / (s - 1))
        assert mono_zone_lower_bound(spec) == -(-spec.n // (spec.sigma.s - 1))

    def test_s_below_alpha_is_empty(self):
        assert mono_zone(APPENDIX) == IntInterval.empty()

    def test_lower_bound_needs_s_at_least_alpha(self):
        with pytest.raises(NotApplicableError):
            mono_zone_lower_bound(APPENDIX)

    @pytest.mark.parametrize("counts, message", [
        ((), "must be positive"),
        ((2, 3), "must be non-increasing"),
    ])
    def test_distribution_rejects_empty_or_increasing_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            MonoDistribution(counts=counts)

    def test_tight_zone(self):
        assert mono_zone(spec_of(5, 2, [2, 2], 2, 2)) == IntInterval(5, 5)

    def test_no_edges_means_every_k_up_to_n(self):
        assert mono_zone(spec_of(4, 1, [2, 1], 2, 2)) == IntInterval(1, 4)

    def test_s_above_beta_past_threshold_is_empty(self):
        # s=3 > beta=2, n >= (beta-alpha+1)*floor((s-1)/(alpha-1)) + s = 5
        spec = spec_of(5, 1, [1, 1, 1], 2, 2)
        assert no_mono_zone_above(spec)
        assert mono_zone(spec) == IntInterval.empty()

    def test_s_above_beta_below_threshold_is_undetermined(self):
        spec = spec_of(4, 1, [1, 1, 1], 2, 2)
        assert not no_mono_zone_above(spec)
        assert mono_zone(spec) is None


class TestExtendedInterval:
    def test_beta_multiple_of_s(self):
        assert extended_interval(spec_of(6, 3, [1, 1, 1], 2, 3)) == IntInterval(3, 6)

    def test_with_remainder(self):
        assert extended_interval(spec_of(6, 4, [1, 1, 1], 2, 7)) == IntInterval(3, 13)

    def test_no_stretch_when_beta_equals_s(self):
        assert extended_interval(spec_of(5, 2, [2, 2], 2, 2)) == IntInterval(5, 5)

    def test_capped_by_vertex_count(self):
        iv = extended_interval(spec_of(2, 2, [1, 1], 2, 5))
        assert iv.hi <= 4

    def test_not_applicable_outside_window(self):
        with pytest.raises(NotApplicableError):
            extended_interval(APPENDIX)


class TestZoneOnlyCondition:
    def test_holds_at_threshold(self):
        assert zone_only_condition(spec_of(4, 3, [2, 1], 2, 2))

    def test_small_n_fails(self):
        assert not zone_only_condition(spec_of(3, 3, [2, 1], 2, 2))

    def test_needs_s_equal_beta(self):
        assert not zone_only_condition(spec_of(9, 4, [2, 1], 2, 3))

    def test_needs_delta_at_least_two(self):
        assert not zone_only_condition(spec_of(9, 4, [1, 1], 2, 2))


class TestUncolourableCondition:
    def test_beta_must_be_below_r(self):
        assert not uncolourable_condition(spec_of(3, 7, [2, 1], 3, 3))

    def test_s_below_alpha_regime(self):
        assert uncolourable_condition(spec_of(3, 13, [3, 1], 3, 3))
        assert uncolourable_condition(spec_of(3, 7, [3, 1], 3, 3))

    def test_n_too_small(self):
        assert not uncolourable_condition(spec_of(11, 9, [1, 1, 1, 1], 2, 2))

    def test_beta_above_s_regime(self):
        assert uncolourable_condition(spec_of(7, 3, [2, 1, 1], 2, 2))
        assert not uncolourable_condition(spec_of(6, 3, [2, 1, 1], 2, 2))

    def test_q_threshold(self):
        assert not uncolourable_condition(spec_of(3, 6, [3, 1], 3, 3))


class TestGapInstanceParams:
    @pytest.mark.parametrize("alpha,beta,parts,q,n_min", [
        (2, 2, [2, 2], 2, 5),
        (2, 3, [3, 2], 6, 6),
        (2, 2, [3, 1], 4, 5),
        (2, 3, [2, 1, 1], 3, 11),
    ])
    def test_frozen_values(self, alpha, beta, parts, q, n_min):
        assert gap_instance_params(alpha, beta, build_sigma(parts)) == (q, n_min)

    def test_requires_small_enough_smallest_part(self):
        with pytest.raises(NotApplicableError):
            gap_instance_params(2, 3, build_sigma([2, 2]))  # delta > r - beta

    def test_requires_large_enough_largest_part(self):
        with pytest.raises(NotApplicableError):
            gap_instance_params(3, 3, build_sigma([2, 2]))  # delta_max < alpha

    def test_requires_s_in_window(self):
        # the arithmetic would give q=3, n_min=8, but s=2 sits below alpha
        with pytest.raises(NotApplicableError):
            gap_instance_params(3, 3, build_sigma([3, 1]))

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_alpha_below_two_is_a_domain_error(self, alpha):
        # the class size is max_sum_capped_head(alpha, beta, Delta), whose
        # domain needs alpha >= 2: no division by alpha - 1 = 0 and no
        # math.comb ValueError on a negative count
        with pytest.raises(DomainError):
            gap_instance_params(alpha, 2, build_sigma([2, 2]))

    def test_large_window_binomial_is_exact(self):
        # C(31, 2) = 465 exactly; no floating point anywhere
        sigma = build_sigma([6] * 6)
        q, n_min = gap_instance_params(3, 30, sigma)
        assert q == 28 * 2 + 5
        assert n_min == 465 * 5 + 6
