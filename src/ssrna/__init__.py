"""Within-cell ssRNA replication dynamics: equilibria, noise-robustness
criteria, and deterministic/stochastic simulation with ensemble statistics.

The package is lazy (PEP 562): `import ssrna` loads none of its modules, and
each public name or submodule is imported on its first use, so a process
pays only for the modules it calls.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "errors": ("EnsembleError", "Error", "IntegrationError", "KernelError", "ParameterError",
               "StabilityDomainError"),
    "linearization": ("LinearizationReport", "det_closed_form", "linearize", "matrix_invariants"),
    "model_core": ("Equilibrium", "EquilibriumKind", "ModelParams", "NoiseSpec", "Scheme", "State",
                   "basic_reproduction_number", "displaced_initial", "divergence", "mixed_sign_equilibrium",
                   "origin_equilibrium", "positive_equilibrium", "validate_params", "vector_field"),
    "montecarlo": ("EnsembleConfig", "EnsembleStats", "SweepRow", "estimate_stability_in_probability",
                   "run_ensemble", "sweep", "wilson_interval"),
    "simulator": ("SimConfig", "Trajectory", "brownian_increments", "default_dt", "integrate_ode", "integrate_sde"),
    "stability": ("LyapunovMatrix", "StabilityClassification", "StabilityVerdict", "check_mean_square_stability",
                  "classify_equilibria_stability", "e0_gamma_bounds", "gamma_bounds", "generator_coefficients",
                  "lyapunov_matrix", "q_interval", "representative_q"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_em", "cli", "errors", "linearization", "model_core", "montecarlo", "serialize", "simulator",
               "stability")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
