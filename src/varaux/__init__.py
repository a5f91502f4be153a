"""Design-based estimation of a finite-population variance with two
auxiliary variables.

The package covers the full workflow: moment computation
(:mod:`varaux.moments`), point estimation with exponential
ratio/product/combined estimators in single-phase and two-phase designs
(:mod:`varaux.estimators`), corrected first-order bias/MSE/efficiency
theory (:mod:`varaux.theory`), a deterministic replicated-sampling
engine (:mod:`varaux.montecarlo`), and synthetic population generation
(:mod:`varaux.popgen`).  The ``varaux`` command exposes all of it.
"""

import types as _types

from .errors import (
    DegeneratePopulationError,
    DegenerateSampleError,
    InvalidDesignError,
    InvalidInputError,
    InvalidSpecError,
    NoUniqueOptimumError,
    PopulationFormatError,
    SimulationError,
    VarauxError,
)
from .estimators import (
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_PRODUCT,
    EXP_PRODUCT_TWO_PHASE,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    ISAKI_RATIO,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    AuxKnowledge,
    EstimatorKind,
    Family,
    alpha_opt,
    estimate_single_phase,
    estimate_two_phase,
    single_phase_value,
    two_phase_value,
)
from .moments import (
    MAX_MOMENT_ORDER,
    DeltaTable,
    Population,
    central_moment,
    delta,
    delta_table,
    load_delta_table,
    load_population_csv,
    sample_variance,
    save_population_csv,
)
from .montecarlo import (
    CHUNK_SIZE,
    EstimatorSummary,
    SimulationConfig,
    SimulationReport,
    WeightPolicy,
    draw_srswor,
    draw_two_phase,
    run_simulation,
)
from .popgen import (
    Marginal,
    PopulationSpec,
    generate_population,
    load_population_spec,
    realized_correlations,
)
from .theory import (
    BUILTIN_EXAMPLE_DELTAS,
    BUILTIN_EXAMPLE_DESIGN,
    BUILTIN_EXAMPLE_NOTES,
    BUILTIN_EXAMPLE_POPULATION_SIZE,
    CORRECTIONS,
    Correction,
    DesignSizes,
    REPORTED_PRE_SINGLE_PHASE,
    REPORTED_PRE_TWO_PHASE,
    TheoryResult,
    pre,
    theory_for_kind,
    theory_table,
)

__version__ = "0.1.0"

#: Every name imported above, but not the submodules that the imports
#: bind here too.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
