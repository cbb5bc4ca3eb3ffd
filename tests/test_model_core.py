import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssrna import (
    EnsembleConfig,
    EquilibriumKind,
    NoiseSpec,
    ParameterError,
    SimConfig,
    StabilityDomainError,
    State,
    basic_reproduction_number,
    divergence,
    mixed_sign_equilibrium,
    origin_equilibrium,
    positive_equilibrium,
    validate_params,
    vector_field,
)

from conftest import random_params


# ---------------------------------------------------------------------------
# validate_params

def test_validate_tumv(tumv):
    assert tumv.b == pytest.approx(2.1304e-8, rel=1e-4)
    assert tumv.b == 1.0 / tumv.K  # derived, never set independently


def test_validate_rejects_alpha_zero():
    with pytest.raises(ParameterError, match="alpha"):
        validate_params(r=1, alpha=0, delta=1, sigma=1, K=1)


def test_validate_identity_capacity():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    assert p.b == 1.0


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("r", dict(r=0, alpha=0.5, delta=1, sigma=1, K=1)),
        ("r", dict(r=-1, alpha=0.5, delta=1, sigma=1, K=1)),
        ("delta", dict(r=1, alpha=0.5, delta=0, sigma=1, K=1)),
        ("sigma", dict(r=1, alpha=0.5, delta=1, sigma=-2, K=1)),
        ("K", dict(r=1, alpha=0.5, delta=1, sigma=1, K=0)),
        ("alpha", dict(r=1, alpha=1.5, delta=1, sigma=1, K=1)),
        ("alpha", dict(r=1, alpha=-0.1, delta=1, sigma=1, K=1)),
        ("r", dict(r=math.nan, alpha=0.5, delta=1, sigma=1, K=1)),
        ("K", dict(r=1, alpha=0.5, delta=1, sigma=1, K=math.inf)),
        ("r", dict(r=10**400, alpha=0.5, delta=1, sigma=1, K=1)),  # float() raises OverflowError
        ("alpha", dict(r=1, alpha=10**400, delta=1, sigma=1, K=1)),
    ],
)
def test_validate_names_offending_field(field, kwargs):
    with pytest.raises(ParameterError, match=field):
        validate_params(**kwargs)


def _ensemble(epsilon1):
    sim = SimConfig(dt=0.5, t_end=1.0, initial=State(1.0, 1.0))
    return EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0.1, 0.1), anchor=origin_equilibrium(),
                          epsilon1=epsilon1, master_seed=0)


# One check of "a finite real number" (model_core.finite_real) in every record's validator: a
# string or a bool is refused, and a numpy float32 is taken, as a float, without a numpy warning.
@pytest.mark.parametrize("make, field", [
    (lambda: validate_params(r="0.1", alpha=0.5, delta=1, sigma=1, K=1), "r"),
    (lambda: validate_params(r=1, alpha=True, delta=1, sigma=1, K=1), "alpha"),
    (lambda: validate_params(r=1, alpha=0.5, delta=1, sigma=np.float32(np.inf), K=1), "sigma"),
    (lambda: NoiseSpec(0.1, "0.1"), "omega2"),
    (lambda: NoiseSpec(np.float32(np.inf), 0.1), "omega1"),
    (lambda: SimConfig(dt=True, t_end=1.0, initial=State(0, 0)), "dt"),
    (lambda: SimConfig(dt=np.float32(0.5), t_end=1e39, initial=State(0, 0)), "t_end / dt"),
    (lambda: _ensemble("1.0"), "epsilon1"),
    (lambda: _ensemble(np.float32(np.nan)), "epsilon1"),
], ids=["r-string", "alpha-bool", "sigma-float32-inf", "omega-string", "omega-float32-inf", "dt-bool",
        "t_end-over-float32-dt", "epsilon1-string", "epsilon1-float32-nan"])
def test_records_refuse_what_is_not_a_finite_real_number(make, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ParameterError, StabilityDomainError), match=re.escape(field)):
            make()


@pytest.mark.parametrize("make, values", [
    (lambda: validate_params(r=np.float32(0.5), alpha=np.float32(0.25), delta=1, sigma=np.int64(1), K=10**3),
     lambda p: (p.r, p.alpha, p.sigma, p.K)),
    (lambda: NoiseSpec(np.float32(0.1), 0.1), lambda n: (n.omega1, n.gamma1)),
    (lambda: SimConfig(dt=np.float32(0.5), t_end=np.float32(2.0), initial=State(0, 0)), lambda c: (c.dt, c.t_end)),
    (lambda: _ensemble(np.float32(1e30)), lambda e: (e.epsilon1,)),
], ids=["params", "noise", "sim", "ensemble"])
def test_records_take_numpy_scalars_as_floats(make, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = make()
    assert all(type(v) is float for v in values(record))


@pytest.mark.parametrize("kwargs", [
    dict(r=1, alpha=1, delta=5e-324, sigma=0.5, K=1),    # delta*sigma underflows to 0
    dict(r=1, alpha=1, delta=1e-160, sigma=1e-160, K=1),  # alpha/(delta*sigma) overflows
    dict(r=5e-324, alpha=0.25, delta=1, sigma=1, K=1),    # R0 underflows to 0
    dict(r=1, alpha=1, delta=1, sigma=1, K=5e-324),       # 1/K overflows
    dict(r=1e300, alpha=0.5, delta=1, sigma=1, K=1),      # alpha r^2 overflows in det at the origin
    dict(r=1e10, alpha=0.5, delta=1, sigma=1, K=1e-300),  # b r overflows, and b r m is NaN at m = 0
    # alpha r^2 is finite at the origin, but a11^2 overflows in A1 at the coexistence equilibrium
    dict(r=1e156, alpha=1e-10, delta=1e10, sigma=1e-10, K=1),
])
def test_validate_rejects_rates_out_of_float_range(kwargs):
    with pytest.raises(ParameterError, match="floating-point range"):
        validate_params(**kwargs)


@given(
    r=st.floats(0.001, 100.0),
    alpha=st.floats(0.001, 1.0),
    delta=st.floats(0.001, 100.0),
    sigma=st.floats(0.001, 100.0),
    K=st.floats(0.001, 1e12),
)
def test_validate_accepts_any_positive_rates(r, alpha, delta, sigma, K):
    p = validate_params(r=r, alpha=alpha, delta=delta, sigma=sigma, K=K)
    assert p.b == 1.0 / K


# ---------------------------------------------------------------------------
# basic_reproduction_number

def test_r0_tumv(tumv):
    assert basic_reproduction_number(tumv) == pytest.approx(4.287, abs=1e-3)


def test_r0_trivial_square_root():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    assert basic_reproduction_number(p) == 2.0


def test_r0_hand_substitution():
    p = validate_params(r=3, alpha=0.25, delta=0.5, sigma=0.5, K=1)
    assert basic_reproduction_number(p) == pytest.approx(3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# positive_equilibrium

def test_positive_equilibrium_tumv(tumv):
    eq = positive_equilibrium(tumv)
    assert eq.kind is EquilibriumKind.POSITIVE
    assert eq.exists
    assert eq.p_star == pytest.approx(30670385.0, abs=1.0)
    assert eq.m_star == pytest.approx(5320090.0, abs=1.0)


def test_positive_equilibrium_merges_at_r0_one():
    p = validate_params(r=1, alpha=1, delta=1, sigma=1, K=1)
    assert basic_reproduction_number(p) == 1.0
    eq = positive_equilibrium(p)
    assert not eq.exists
    assert eq.p_star == 0.0 and eq.m_star == 0.0


def test_positive_equilibrium_hand_case():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    eq = positive_equilibrium(p)
    assert eq.exists
    assert eq.p_star == pytest.approx(0.25, rel=1e-14)
    assert eq.m_star == pytest.approx(0.25, rel=1e-14)
    assert p.sigma * eq.m_star**2 == pytest.approx(p.alpha * p.delta * eq.p_star**2, rel=1e-12)


def test_positive_equilibrium_negative_coordinates_below_threshold():
    p = validate_params(r=0.5, alpha=1, delta=1, sigma=1, K=10)
    assert basic_reproduction_number(p) < 1
    eq = positive_equilibrium(p)
    assert not eq.exists
    assert eq.p_star < 0 and eq.m_star < 0  # formal coordinates still reported


def test_positive_equilibrium_properties():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = random_params(rng, r0_min=1.0 + 1e-6)
        r0 = basic_reproduction_number(p)
        eq = positive_equilibrium(p)
        assert eq.exists == (r0 > 1.0)
        assert eq.p_star > 0 and eq.m_star > 0
        # antigenomic/genomic balance at the fixed point
        lhs = p.sigma * eq.m_star**2
        rhs = p.alpha * p.delta * eq.p_star**2
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)
        # total occupancy below capacity
        total = eq.p_star + eq.m_star
        expected = p.K * (r0 - 1.0) / r0
        assert abs(total - expected) <= 1e-10 * expected
        assert total < p.K


# ---------------------------------------------------------------------------
# mixed_sign_equilibrium

def test_mixed_sign_singular_at_r_over_delta():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    assert basic_reproduction_number(p) == p.r / p.delta
    eq = mixed_sign_equilibrium(p)
    assert eq.kind is EquilibriumKind.MIXED_SIGN
    assert not eq.exists
    assert math.isinf(eq.p_star) and math.isinf(eq.m_star)


def test_mixed_sign_below_singularity():
    p = validate_params(r=2, alpha=1, delta=1, sigma=4, K=1)
    assert basic_reproduction_number(p) < p.r / p.delta
    eq = mixed_sign_equilibrium(p)
    assert eq.exists
    assert eq.p_star > 0 > eq.m_star


def test_mixed_sign_above_singularity():
    singular = validate_params(r=1, alpha=1, delta=0.25, sigma=0.25, K=1)
    assert basic_reproduction_number(singular) == singular.r / singular.delta
    assert not mixed_sign_equilibrium(singular).exists
    p = validate_params(r=1, alpha=1, delta=0.25, sigma=0.16, K=1)
    assert basic_reproduction_number(p) > p.r / p.delta
    eq = mixed_sign_equilibrium(p)
    assert eq.exists
    assert eq.p_star < 0 < eq.m_star
    assert eq.p_star == pytest.approx(-4.8, rel=1e-12)
    assert eq.m_star == pytest.approx(6.0, rel=1e-12)


def test_mixed_sign_is_a_fixed_point_when_it_exists():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_params(rng)
        eq = mixed_sign_equilibrium(p)
        if not eq.exists:
            continue
        dp, dm = vector_field(p, State(eq.p_star, eq.m_star))
        scale = max(abs(eq.p_star), abs(eq.m_star), 1.0)
        assert abs(dp) <= 1e-7 * scale * (p.r + p.delta)
        assert abs(dm) <= 1e-7 * scale * (p.r + p.sigma)


# ---------------------------------------------------------------------------
# vector_field / divergence

def test_vector_field_origin_is_equilibrium(tumv):
    assert vector_field(tumv, State(0.0, 0.0)) == (0.0, 0.0)


def test_vector_field_vanishes_at_positive_equilibrium():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_params(rng, r0_min=1.0 + 1e-3)
        eq = positive_equilibrium(p)
        dp, dm = vector_field(p, State(eq.p_star, eq.m_star))
        assert max(abs(dp), abs(dm)) < 1e-8 * max(p.K, 1.0)


def test_vector_field_hand_arithmetic():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    assert vector_field(p, State(0.5, 0.0)) == (-0.5, 0.5)


def test_divergence_origin(tumv):
    assert divergence(tumv, State(0.0, 0.0)) == -(tumv.delta + tumv.sigma)
    assert divergence(tumv, State(0.0, 0.0)) == pytest.approx(-0.0170, abs=1e-10)


def test_divergence_hand_arithmetic():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    assert divergence(p, State(1.0, 1.0)) == -6.0


def test_divergence_negative_on_quadrant():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = random_params(rng)
        s = State(rng.uniform(0, 2 * p.K), rng.uniform(0, 2 * p.K))
        assert divergence(p, s) < 0.0


def test_origin_equilibrium_shape():
    eq = origin_equilibrium()
    assert eq.kind is EquilibriumKind.ORIGIN
    assert eq.p_star == 0.0 and eq.m_star == 0.0 and eq.exists
