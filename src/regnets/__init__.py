"""Regularization nets for singular data: mollifiers, square roots of
measures, flux-form Crank-Nicolson evolution, and asymptotic verdicts."""

from .asymptotics import (
    EpsGrid,
    EpsNet,
    AsymptoticFit,
    classify_moderate,
    check_log_type,
    loglog_fit,
)
from .errors import (
    RegnetsError,
    GridError,
    ResolutionError,
    UnsupportedOrderError,
    PositivityError,
    BoxTooSmallError,
    SolverError,
    ReferenceError_,
    ConfigError,
)
from .free import (
    free_evolve,
    sqrt_delta_data,
    ProbabilityDensitySnapshot,
    mass_check,
    dispersive_bound_check,
    vague_convergence_check,
    cross_validate_cn,
)
from .grid import (
    SpatialGrid,
    GridFunction,
    TestFunction,
    bump,
    oscillatory_bump,
    linear_bump,
    norm_l2,
    norm_linf,
    norm_hk,
    norm_h_minus1,
    derivative,
    pair,
)
from .lab import (
    coherence_experiment,
    association_of_solution,
    mollify_gridfunction,
)
from .measures import (
    Density,
    Measure,
    CutoffFamily,
    mollify_measure,
    sqrt_root,
    cutoff_sqrt,
    lower_bound_check,
    lower_bound_sweep,
    association_check,
)
from .mollifiers import (
    MollifierSpec,
    cauchy_power_normalization,
    scaled_mollifier,
    sampled_mass,
)
from .solver import (
    Coefficient,
    CoefficientNet,
    CauchyProblem,
    SolveResult,
    FluxFormOperator,
    constant_coefficient,
    spatial_coefficient,
    log_time_coefficient,
    power_time_coefficient,
    mollified_jump_coefficient,
    build_operator,
    solve,
    energy_audit,
    solution_sup_h1_net,
    uniqueness_probe,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
