"""The package's public names: ``varaux.__all__`` is derived from the
names ``varaux/__init__.py`` imports, and this pins the result."""

from __future__ import annotations

import types

import varaux

EXPORTED = [
    "AuxKnowledge", "BUILTIN_EXAMPLE_DELTAS", "BUILTIN_EXAMPLE_DESIGN",
    "BUILTIN_EXAMPLE_NOTES", "BUILTIN_EXAMPLE_POPULATION_SIZE", "CHUNK_SIZE",
    "COMBINED", "COMBINED_TWO_PHASE", "CORRECTIONS", "Correction",
    "DegeneratePopulationError", "DegenerateSampleError", "DeltaTable", "DesignSizes",
    "EXP_PRODUCT", "EXP_PRODUCT_TWO_PHASE", "EXP_RATIO", "EXP_RATIO_TWO_PHASE",
    "EstimatorKind", "EstimatorSummary", "Family", "ISAKI_RATIO", "InvalidDesignError",
    "InvalidInputError", "InvalidSpecError", "MAX_MOMENT_ORDER", "Marginal",
    "NoUniqueOptimumError", "Population", "PopulationFormatError", "PopulationSpec",
    "REPORTED_PRE_SINGLE_PHASE", "REPORTED_PRE_TWO_PHASE", "SINGLE_PHASE_KINDS",
    "SimulationConfig", "SimulationError", "SimulationReport", "TWO_PHASE_KINDS",
    "TheoryResult", "UNBIASED", "VarauxError", "WeightPolicy",
    "alpha_opt", "central_moment", "delta", "delta_table",
    "draw_srswor", "draw_two_phase", "estimate_single_phase", "estimate_two_phase",
    "generate_population", "load_delta_table", "load_population_csv",
    "load_population_spec", "min_mse_combined", "pre", "realized_correlations",
    "run_simulation", "sample_variance", "save_population_csv",
    "single_phase_value", "theory_for_kind", "two_phase_value",
]


def test_all_is_exactly_the_exported_names_in_order():
    assert varaux.__all__ == EXPORTED


def test_no_submodule_or_private_name_is_exported():
    for name in varaux.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(varaux, name), types.ModuleType)


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from varaux import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED
