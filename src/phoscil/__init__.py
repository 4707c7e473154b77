"""Fast-slow analysis of the two-variable urea-urease pH oscillator.

The package models a vesicle that exchanges substrate (urea) and acid
with its surroundings while the enzyme reaction inside consumes both.
In dimensionless form the state is (s, h) -- substrate and proton
fractions -- and the dynamics is a stiff fast-slow system whose
relaxation oscillations alternate between an acidic and a basic phase.

Layout:

- :mod:`phoscil.params`     physical rate constants and the dimensionless groups
- :mod:`phoscil.model`      rate law, right-hand sides, charts, coordinate maps
- :mod:`phoscil.integrator` implicit Radau IIA stepping with event localization
- :mod:`phoscil.gspt`       critical manifolds, folds, stability scans, scaling laws
- :mod:`phoscil.cycle`      limit-cycle detection and analytic timescale accounting
- :mod:`phoscil.cli`        reproducible command-line front end

All analyses are deterministic and single-threaded: no randomness and
no wall-clock state, so identical inputs give identical output bytes.
"""
from __future__ import annotations

from .errors import (
    BudgetError,
    DerivativeConsistencyError,
    DomainError,
    EventBracketError,
    FoldSingularityError,
    MalformedCycleError,
    NoPositiveEquilibriumError,
    ParameterFileError,
    PhoscilError,
    PreconditionError,
    SectionNoHitError,
    StiffnessError,
)
from .params import (
    UREASE_VESICLE,
    DimlessParams,
    EpsSplit,
    PhysicalParams,
    derive_dimensionless,
    derive_eps_split,
    load_physical,
    split_dimless,
)
from .model import (
    ChartAState,
    ChartBState,
    LogState,
    State,
    from_chart_A,
    from_chart_B,
    from_log,
    make_field,
    make_field_chart_A,
    make_field_chart_B,
    make_field_reference,
    q_func,
    q_tilde_eps,
    rate_r,
    rate_r_hat,
    rhs,
    rhs_chart_A,
    rhs_chart_B,
    rhs_jacobian,
    rhs_reference,
    to_chart_A,
    to_chart_B,
    to_log,
)
from .integrator import (
    EventHit,
    EventHitResult,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    export_trajectory,
    integrate,
    integrate_until_event,
)
from .gspt import (
    DEFAULT_EPS_A,
    DEFAULT_EPS_B,
    FixedPoint,
    FoldReport,
    FoldScaling,
    RegionReport,
    StabilityMap,
    fixed_point,
    fold_location_A,
    fold_location_B,
    fold_passage_offset,
    invariant_region_check,
    manifold_A,
    manifold_B,
    nullclines,
    return_map_contraction,
    stability_scan,
    verify_generic_fold,
)
from .cycle import (
    AnalyticTimescales,
    CompareRow,
    CompareTable,
    CycleReport,
    OscillationVerdict,
    analytic_timescales,
    compare,
    find_limit_cycle,
    oscillation_condition,
    physical_timescales,
    segment_times,
    winding_number,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PhoscilError", "DomainError", "ParameterFileError", "StiffnessError",
    "BudgetError", "EventBracketError", "NoPositiveEquilibriumError",
    "FoldSingularityError", "DerivativeConsistencyError", "SectionNoHitError",
    "PreconditionError", "MalformedCycleError",
    # params
    "PhysicalParams", "DimlessParams", "EpsSplit", "UREASE_VESICLE",
    "derive_dimensionless", "derive_eps_split", "split_dimless", "load_physical",
    # model
    "State", "ChartAState", "ChartBState", "LogState",
    "rate_r", "rate_r_hat", "q_func", "q_tilde_eps",
    "rhs", "rhs_jacobian", "rhs_chart_A", "rhs_chart_B", "rhs_reference",
    "to_chart_A", "from_chart_A", "to_chart_B", "from_chart_B", "to_log", "from_log",
    "make_field", "make_field_chart_A", "make_field_chart_B", "make_field_reference",
    # integrator
    "IntegratorConfig", "EventSpec", "EventHit", "EventHitResult", "Trajectory",
    "integrate", "integrate_until_event", "export_trajectory",
    # gspt
    "FixedPoint", "FoldReport", "FoldScaling", "StabilityMap", "RegionReport",
    "DEFAULT_EPS_A", "DEFAULT_EPS_B",
    "fixed_point", "nullclines", "stability_scan",
    "manifold_A", "manifold_B", "fold_location_A", "fold_location_B",
    "verify_generic_fold", "fold_passage_offset",
    "invariant_region_check", "return_map_contraction",
    # cycle
    "AnalyticTimescales", "CycleReport", "CompareRow", "CompareTable",
    "OscillationVerdict",
    "find_limit_cycle", "segment_times", "analytic_timescales",
    "physical_timescales", "compare", "oscillation_condition", "winding_number",
]
