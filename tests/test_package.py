"""The lazy `ssrna` namespace (PEP 562): every public name, imported on first use."""

import subprocess
import sys

import pytest

import ssrna

# The public names of the package: each is importable as `from ssrna import name`.
PUBLIC = {
    "EnsembleConfig", "EnsembleError", "EnsembleStats", "Equilibrium", "EquilibriumKind", "Error",
    "IntegrationError", "KernelError", "LinearizationReport", "LyapunovMatrix", "ModelParams", "NoiseSpec",
    "ParameterError", "Scheme", "SimConfig", "StabilityClassification", "StabilityDomainError",
    "StabilityVerdict", "State", "SweepRow", "Trajectory", "basic_reproduction_number", "brownian_increments",
    "centralized_rhs", "check_mean_square_stability", "classify_equilibria_stability", "default_dt",
    "det_closed_form", "displaced_initial", "divergence", "e0_gamma_bounds", "estimate_stability_in_probability",
    "gamma_bounds", "generator_coefficients", "integrate_ode", "integrate_sde", "linearize", "lyapunov_matrix",
    "matrix_invariants", "mixed_sign_equilibrium", "origin_equilibrium", "positive_equilibrium", "q_interval",
    "representative_q", "run_ensemble", "sweep", "validate_params", "vector_field", "wilson_interval",
}
SUBMODULES = ("cli", "errors", "linearization", "model_core", "montecarlo", "serialize", "simulator", "stability")


def python(code: str) -> str:
    """The stdout of code, run in a new interpreter, which fails the test if the code does."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_all_lists_every_public_name():
    assert set(ssrna.__all__) == PUBLIC
    assert set(ssrna.__all__) | set(SUBMODULES) <= set(dir(ssrna))


def test_public_names_are_the_objects_their_modules_define():
    values = {name: getattr(ssrna, name) for name in PUBLIC}
    assert [name for name, value in values.items()
            if getattr(sys.modules[value.__module__], name, None) is not value] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ssrna import *", namespace)
    assert all(namespace[name] is getattr(ssrna, name) for name in PUBLIC)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'ssrna' has no attribute 'no_such_name'"):
        ssrna.no_such_name
    assert not hasattr(ssrna, "Montecarlo")


def test_bare_import_loads_no_module_of_the_package_and_no_ctypes():
    loaded = python("import sys; before = set(sys.modules); import ssrna; print(*set(sys.modules) - before)").split()
    assert "ssrna" in loaded
    assert not [m for m in loaded if m == "ctypes" or m.startswith("ssrna.")]


@pytest.mark.parametrize("submodule", SUBMODULES)
def test_submodule_is_an_attribute_after_a_bare_import(submodule):
    python(f"import sys, ssrna; assert ssrna.{submodule} is sys.modules['ssrna.{submodule}']")


def test_every_module_lists_only_the_names_it_defines():
    # a name has one import path: the module that defines it, whichever others import it
    listed = {}
    for submodule in SUBMODULES:
        module = getattr(ssrna, submodule)
        for name in getattr(module, "__all__", ()):
            listed.setdefault(name, []).append(submodule)
            assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, name
    assert {name: homes for name, homes in listed.items() if len(homes) > 1} == {}


def test_no_module_loads_the_dataclass_machinery():
    # the records share one small base (serialize.Record); dataclasses, and the inspect it loads, cost
    # every command about 35 ms of start-up
    modules = ", ".join(f"ssrna.{name}" for name in SUBMODULES)
    loaded = python(f"import sys; before = set(sys.modules); import {modules}; print(*set(sys.modules) - before)")
    assert {"ssrna.cli", "ssrna.montecarlo"} <= set(loaded.split())
    assert not {"dataclasses", "inspect"} & set(loaded.split())
