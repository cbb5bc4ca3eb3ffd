"""Within-cell ssRNA replication dynamics: equilibria, noise-robustness
criteria, and deterministic/stochastic simulation with ensemble statistics."""

from .errors import EnsembleError, Error, IntegrationError, KernelError, ParameterError, StabilityDomainError
from .linearization import LinearizationReport, det_closed_form, linearize, matrix_invariants
from .model_core import (
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    State,
    basic_reproduction_number,
    divergence,
    mixed_sign_equilibrium,
    origin_equilibrium,
    positive_equilibrium,
    validate_params,
    vector_field,
)
from .montecarlo import (
    EnsembleConfig,
    EnsembleStats,
    SweepRow,
    displaced_initial,
    estimate_stability_in_probability,
    run_ensemble,
    sweep,
    wilson_interval,
)
from .simulator import (
    Scheme,
    SimConfig,
    Trajectory,
    brownian_increments,
    centralized_rhs,
    default_dt,
    integrate_ode,
    integrate_sde,
)
from .stability import (
    LyapunovMatrix,
    NoiseSpec,
    StabilityClassification,
    StabilityVerdict,
    check_mean_square_stability,
    classify_equilibria_stability,
    e0_gamma_bounds,
    gamma_bounds,
    generator_coefficients,
    lyapunov_matrix,
    q_interval,
    representative_q,
)

__version__ = "0.1.0"
