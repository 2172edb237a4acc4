"""The package namespace: each public name declared once, none dropped."""

import sigma_spectra
from sigma_spectra import constructions, core, engine, errors, formulas, oracle, validator

MODULES = (core, formulas, validator, engine, oracle, constructions, errors)

# every name the package exported before it re-exported its modules' __all__
EXPORTED = {
    "BudgetExceededError", "ClassProfile", "Colouring", "DimensionMismatchError",
    "DomainError", "EdgeWitness", "HypergraphSpec", "InfeasibleError",
    "InfeasibleShapeError", "InstanceTooLargeError", "IntInterval",
    "InvalidPartitionError", "KDecision", "MonoDistribution", "NotApplicableError",
    "RecolourStep", "Sigma", "SigmaSpectraError", "SpectrumResult",
    "TheoremViolationError", "WalkStep", "beta_colouring", "brute_oracle",
    "brute_spectrum", "build_sigma", "canonical_colouring", "colouring_from_json",
    "colouring_to_json", "count_edges", "decide_k", "edge_colour_range",
    "edge_shapes", "enumerate_edges", "extended_interval", "find_violation",
    "gap_instance_params", "is_valid", "k_colourable", "layered_colouring",
    "max_sum_capped_head", "min_parts_attainable", "min_parts_capped_head",
    "min_parts_formula", "mono_colouring", "mono_distribution", "mono_zone",
    "mono_zone_lower_bound", "no_mono_zone_above", "part_arrangements", "profile_of",
    "recolour_merge_two_unique", "recolour_whole_class", "selection_achieving",
    "spectrum", "spectrum_walk", "spectrum_walk_steps", "split_to_fixed",
    "uncolourable_condition", "verify_interval", "zone_only_condition",
}
# earlier exports deleted on purpose: verify_interval had no caller in the
# library, the CLI, the demos or the benchmark; recolour_merge_two_unique
# had no library caller and is split_to_fixed up to renaming its target
# to a fresh colour
DROPPED = {"verify_interval", "recolour_merge_two_unique"}


def test_all_is_the_modules_all_in_order():
    assert sigma_spectra.__all__ == [n for m in MODULES for n in m.__all__]


def test_all_has_no_duplicates():
    assert len(set(sigma_spectra.__all__)) == len(sigma_spectra.__all__)


def test_every_exported_name_resolves():
    for name in sigma_spectra.__all__:
        assert getattr(sigma_spectra, name) is getattr(
            next(m for m in MODULES if name in m.__all__), name)


def test_no_earlier_export_is_dropped():
    assert len(EXPORTED) == 60
    assert EXPORTED - DROPPED <= set(sigma_spectra.__all__)
    assert not DROPPED & set(sigma_spectra.__all__)
    assert not any(hasattr(m, name) for m in MODULES for name in DROPPED)
    assert {"colouring_to_dict", "SIZE_CAP"} <= set(sigma_spectra.__all__)


def test_errors_all_lists_every_exception_class():
    classes = {n for n, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, Exception)}
    assert set(errors.__all__) == classes and len(classes) == 10
