"""The package's public names: ``varaux.__all__`` is derived from the
names ``varaux/__init__.py`` imports, and this pins the result."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import varaux

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "varaux"
#: Aim 2's goal for ``wc -l src/varaux/*.py``, held by ROADMAP Direction 10.
LINE_BUDGET = 3441

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
    "single_phase_value", "theory_for_kind", "theory_table", "two_phase_value",
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


def test_source_stays_within_the_line_budget():
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in SOURCE_DIR.glob("*.py"))
    assert lines < LINE_BUDGET, (
        f"src/varaux/*.py has {lines} lines, at or above the budget of {LINE_BUDGET} "
        "that ROADMAP Direction 10 holds"
    )


def test_bool_is_refused_only_by_the_shared_checks():
    """An integer or number argument is checked by ``errors._integer`` or
    ``errors._finite``; no other module spells the not-a-bool rule out."""
    spelled = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(isinstance(name, ast.Name) and name.id == "bool" for name in ast.walk(node))
            ):
                spelled.append(f"{path.name}:{node.lineno}")
    assert spelled == [], f"isinstance(..., bool) outside errors.py's shared checks: {spelled}"
