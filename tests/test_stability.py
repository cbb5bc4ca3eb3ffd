import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrna import (
    NoiseSpec,
    StabilityDomainError,
    basic_reproduction_number,
    check_mean_square_stability,
    classify_equilibria_stability,
    e0_gamma_bounds,
    gamma_bounds,
    generator_coefficients,
    linearize,
    lyapunov_matrix,
    origin_equilibrium,
    positive_equilibrium,
    q_interval,
    representative_q,
    validate_params,
)

from conftest import as_matrix, random_params, random_stable_matrix, report_from_entries


@pytest.fixture
def tumv_rep(tumv):
    return linearize(tumv, positive_equilibrium(tumv))


@pytest.fixture
def hand_rep():
    # trace -3, det 2, A1 = A2 = 4.25
    return report_from_entries(-1.5, 0.5, 0.5, -1.5)


# ---------------------------------------------------------------------------
# NoiseSpec

def test_noise_spec_gamma_derivation():
    n = NoiseSpec(0.3, 0.5)
    assert n.gamma1 == 0.5 * 0.3 * 0.3
    assert n.gamma2 == 0.5 * 0.5 * 0.5


def test_noise_spec_rejects_negative():
    with pytest.raises(StabilityDomainError):
        NoiseSpec(-0.1, 0.0)
    # a bool is not an intensity: NoiseSpec(True, 0.0) would have gamma1 0.5
    with pytest.raises(StabilityDomainError, match="omega1"):
        NoiseSpec(True, 0.0)
    with pytest.raises(StabilityDomainError, match="omega2"):
        NoiseSpec(0.0, False)
    # an int beyond float range is refused, not an OverflowError from math.isfinite
    with pytest.raises(StabilityDomainError, match="omega1"):
        NoiseSpec(10**400, 0)
    with pytest.raises(StabilityDomainError, match="omega2"):
        NoiseSpec(0, -10**400)


def test_noise_spec_from_gammas_round_trip():
    n = NoiseSpec.from_gammas(0.01, 0.02)
    assert n.gamma1 == pytest.approx(0.01, rel=1e-15)
    assert n.gamma2 == pytest.approx(0.02, rel=1e-15)


@pytest.mark.parametrize("gamma1, gamma2, name", [
    ("a", 0.1, "gamma1"), (None, 0.1, "gamma1"), (0.1, "a", "gamma2"), (0.1, None, "gamma2"),
    (True, 0.1, "gamma1"), (0.1, -1e-300, "gamma2"), (10**400, 0.1, "gamma1"),
], ids=["str-gamma1", "none-gamma1", "str-gamma2", "none-gamma2", "bool-gamma1", "negative-gamma2",
        "huge-int-gamma1"])
def test_noise_spec_from_gammas_refuses_what_is_not_a_nonnegative_number(gamma1, gamma2, name):
    # a domain error naming the value, not a TypeError or an OverflowError from the arithmetic
    with pytest.raises(StabilityDomainError, match=f"{name} must be a finite nonnegative number"):
        NoiseSpec.from_gammas(gamma1, gamma2)


# ---------------------------------------------------------------------------
# gamma_bounds

def test_gamma_bounds_tumv_reference(tumv_rep):
    bound1, _ = gamma_bounds(tumv_rep, 0.0)
    assert bound1 == pytest.approx(0.02000961, abs=1e-8)
    # the two constants of the gamma2 bound as a function of gamma1
    abs_tr = -tumv_rep.trace
    assert tumv_rep.A2 / abs_tr == pytest.approx(0.01947893, abs=1e-8)
    assert tumv_rep.A1 / abs_tr == pytest.approx(0.02012510, abs=1e-8)
    # the printed functional form agrees with the implementation
    g1 = 0.013
    _, bound2 = gamma_bounds(tumv_rep, g1)
    printed = (tumv_rep.A2 / abs_tr) * (bound1 - g1) / (tumv_rep.A1 / abs_tr - g1)
    assert bound2 == pytest.approx(printed, rel=1e-12)


def test_gamma_bounds_zero_gamma1(hand_rep):
    bound1, bound2 = gamma_bounds(hand_rep, 0.0)
    assert bound1 == pytest.approx(6.0 / 4.25, rel=1e-15)
    assert bound2 == pytest.approx(6.0 / 4.25, rel=1e-15)  # |Tr| det / A1, here equal


def test_gamma_bounds_requires_stable_matrix():
    unstable = report_from_entries(1.0, 0.0, 0.0, 0.5)
    with pytest.raises(StabilityDomainError, match="trace"):
        gamma_bounds(unstable, 0.0)
    saddle = report_from_entries(-2.0, 0.0, 0.0, 1.0)
    with pytest.raises(StabilityDomainError, match="determinant"):
        gamma_bounds(saddle, 0.0)


def test_gamma_bounds_rejects_gamma1_at_bound(hand_rep):
    bound1, _ = gamma_bounds(hand_rep, 0.0)
    with pytest.raises(StabilityDomainError, match="gamma1"):
        gamma_bounds(hand_rep, bound1)


def test_gamma2_bound_denominator_positive():
    # whenever gamma1 < |Tr| det / A2 it is also < A1/|Tr|
    rng = np.random.default_rng(41)
    for _ in range(500):
        a = random_stable_matrix(rng)
        rep = report_from_entries(*a)
        bound1, _ = gamma_bounds(rep, 0.0)
        g1 = bound1 * rng.uniform(0.0, 0.999)
        assert g1 < rep.A1 / (-rep.trace)
        _, bound2 = gamma_bounds(rep, g1)
        assert bound2 > 0.0


# ---------------------------------------------------------------------------
# check_mean_square_stability

def test_check_tumv_zero_noise_met(tumv_rep):
    v = check_mean_square_stability(tumv_rep, NoiseSpec(0.0, 0.0))
    assert v.conditions_met
    assert v.trace_ok and v.det_ok
    assert v.q_interval is not None


def test_check_tumv_gamma1_above_bound(tumv_rep):
    v = check_mean_square_stability(tumv_rep, NoiseSpec.from_gammas(0.03, 0.0))
    assert not v.conditions_met
    assert v.gamma2_bound is None  # undefined once gamma1 fails
    assert v.q_interval is None


def test_check_tumv_both_gammas_inside(tumv_rep):
    v = check_mean_square_stability(tumv_rep, NoiseSpec.from_gammas(0.01, 0.01))
    assert v.conditions_met
    assert not v.marginal
    assert v.gamma1_bound == pytest.approx(0.02000961, abs=1e-8)
    assert 0.01 < v.gamma2_bound


def test_check_marginal_flag(tumv_rep):
    bound1, _ = gamma_bounds(tumv_rep, 0.0)
    v = check_mean_square_stability(tumv_rep, NoiseSpec.from_gammas(bound1 * (1 - 1e-14), 0.0))
    assert v.marginal


def test_check_failed_matrix_is_verdict_not_error():
    saddle = report_from_entries(-1.0, 0.0, 0.0, 1.0)
    v = check_mean_square_stability(saddle, NoiseSpec(0.0, 0.0))
    assert not v.conditions_met
    assert not v.det_ok
    assert v.gamma1_bound is None


def characteristic_coefficients(m):
    """(c2, c1, c0) with det(lambda I - m) = lambda^3 + c2 lambda^2 + c1 lambda + c0, for a 3x3 m."""
    c2 = -(m[0][0] + m[1][1] + m[2][2])
    c1 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    c0 = -(m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return c2, c1, c0


drift_entries = st.builds(Fraction, st.integers(-256, 256), st.integers(1, 64))
intensities = st.builds(Fraction, st.integers(0, 128), st.integers(1, 64))


@settings(max_examples=500)
@given(st.tuples(drift_entries, drift_entries, drift_entries, drift_entries), intensities, intensities)
def test_conditions_met_exactly_when_the_second_moments_decay(entries, gamma1, gamma2):
    # The paper's conditions are sharp for the linearization dx = A x dt +
    # diag(omega1 x1, omega2 x2) dW: its second moments (M11, M12, M22) obey
    # dM/dt = L M, and the conditions hold exactly when L is Hurwitz, which
    # Routh-Hurwitz decides here in exact arithmetic on the floats the code sees.
    floats = [float(a) for a in entries]
    verdict = check_mean_square_stability(report_from_entries(*floats),
                                          NoiseSpec.from_gammas(float(gamma1), float(gamma2)))
    if verdict.marginal:  # within rounding of a bound: the float verdict may go either way
        return
    a11, a12, a21, a22 = map(Fraction, floats)
    g1, g2 = Fraction(verdict.gamma1), Fraction(verdict.gamma2)
    moments = [[2 * a11 + 2 * g1, 2 * a12, 0],
               [a21, a11 + a22, a12],
               [0, 2 * a21, 2 * a22 + 2 * g2]]
    c2, c1, c0 = characteristic_coefficients(moments)
    assert verdict.conditions_met == (c2 > 0 and c0 > 0 and c2 * c1 > c0)


# ---------------------------------------------------------------------------
# q_interval

def test_q_interval_hand_case(hand_rep):
    noise = NoiseSpec.from_gammas(0.5, 0.5)
    lo, hi = q_interval(hand_rep, noise)
    assert lo == pytest.approx(0.125 / 3.875, rel=1e-12)
    assert hi == pytest.approx(3.875 / 0.125, rel=1e-12)


def test_q_interval_zero_gamma1(hand_rep):
    noise = NoiseSpec.from_gammas(0.0, 0.1)
    lo, hi = q_interval(hand_rep, noise)
    assert lo == 0.0
    expected_hi = (6.0 - 4.25 * 0.1) / (0.25 * 0.1)
    assert hi == pytest.approx(expected_hi, rel=1e-12)


def test_q_interval_zero_gamma2_unbounded(hand_rep):
    lo, hi = q_interval(hand_rep, NoiseSpec.from_gammas(0.25, 0.0))
    assert lo > 0.0
    assert math.isinf(hi)


def test_q_interval_brute_force_scan(tumv_rep):
    # log-grid scan: generator coefficients negative inside, not outside
    noise = NoiseSpec.from_gammas(0.015, 0.012)
    lo, hi = q_interval(tumv_rep, noise)
    for q in np.geomspace(lo * 1.01, hi * 0.99, 17):
        c1, c2 = generator_coefficients(tumv_rep, noise, q)
        assert c1 < 0 and c2 < 0
    for q in (lo * 0.5, lo * 0.99, hi * 1.01, hi * 2.0):
        c1, c2 = generator_coefficients(tumv_rep, noise, q)
        assert c1 >= 0 or c2 >= 0


def test_q_interval_equivalence_property():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        a = random_stable_matrix(rng)
        rep = report_from_entries(*a)
        bound1, _ = gamma_bounds(rep, 0.0)
        g1 = bound1 * 10 ** rng.uniform(-2, 0.3)
        g2 = 10 ** rng.uniform(-4, 1)
        conditions = g1 < bound1
        if conditions:
            _, bound2 = gamma_bounds(rep, g1)
            conditions = g2 < bound2
        interval = q_interval(rep, NoiseSpec.from_gammas(g1, g2))
        assert (interval is not None) == conditions


def test_representative_q_inside_interval(tumv_rep):
    noise = NoiseSpec.from_gammas(0.015, 0.012)
    interval = q_interval(tumv_rep, noise)
    q = representative_q(interval)
    assert interval[0] < q < interval[1]
    assert representative_q((0.0, math.inf)) == 1.0
    assert representative_q((0.0, 8.0)) == pytest.approx(0.8)
    assert representative_q((3.0, math.inf)) == 30.0


# ---------------------------------------------------------------------------
# lyapunov_matrix / generator_coefficients

def test_lyapunov_matrix_hand_case(hand_rep):
    mat = lyapunov_matrix(hand_rep, 1.0)
    assert mat.p11 == pytest.approx(0.375, rel=1e-15)
    assert mat.p22 == pytest.approx(0.375, rel=1e-15)
    # off-diagonal solves a12*p11 + trace*p12 + a21*p22 = 0
    assert mat.p12 == pytest.approx(0.125, rel=1e-15)
    residual = hand_rep.a12 * mat.p11 + hand_rep.trace * mat.p12 + hand_rep.a21 * mat.p22
    assert abs(residual) < 1e-15


def test_lyapunov_matrix_diagonal_case():
    rep = report_from_entries(-2.0, 0.0, 0.0, -5.0)
    mat = lyapunov_matrix(rep, 1.0)
    assert mat.p11 == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert mat.p22 == pytest.approx(1.0 / 10.0, rel=1e-15)
    assert mat.p12 == 0.0


def test_lyapunov_residual_tumv(tumv_rep):
    mat = lyapunov_matrix(tumv_rep, 1.0)
    P = np.array([[mat.p11, mat.p12], [mat.p12, mat.p22]])
    A = as_matrix(tumv_rep)
    residual = P @ A + A.T @ P + np.diag([1.0, 1.0])
    scale = max(np.abs(P).max(), 1.0)
    assert np.abs(residual).max() <= 1e-10 * scale


def test_lyapunov_residual_and_definiteness_property():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        a = random_stable_matrix(rng)
        rep = report_from_entries(*a)
        q = 10 ** rng.uniform(-3, 3)
        mat = lyapunov_matrix(rep, q)
        assert mat.p11 > 0.0
        assert mat.p11 * mat.p22 - mat.p12 * mat.p12 > 0.0
        P = np.array([[mat.p11, mat.p12], [mat.p12, mat.p22]])
        A = as_matrix(rep)
        residual = P @ A + A.T @ P + np.diag([q, 1.0])
        scale = max(np.abs(P).max(), q, 1.0)
        assert np.abs(residual).max() <= 1e-10 * scale


def test_lyapunov_matrix_preconditions(hand_rep):
    with pytest.raises(StabilityDomainError, match="q"):
        lyapunov_matrix(hand_rep, 0.0)
    with pytest.raises(StabilityDomainError):
        lyapunov_matrix(report_from_entries(1.0, 0.0, 0.0, 1.0), 1.0)


def test_generator_coefficients_zero_noise(hand_rep):
    assert generator_coefficients(hand_rep, NoiseSpec(0.0, 0.0), 2.5) == (-2.5, -1.0)


def test_generator_coefficients_hand_case(hand_rep):
    noise = NoiseSpec.from_gammas(0.5, 0.5)
    c1, c2 = generator_coefficients(hand_rep, noise, 1.0)
    assert c1 == pytest.approx(-0.625, rel=1e-12)
    assert c2 == pytest.approx(-0.625, rel=1e-12)


def test_generator_coefficient_sign_at_interval_edges(hand_rep):
    noise = NoiseSpec.from_gammas(0.5, 0.5)
    lo, hi = q_interval(hand_rep, noise)
    c1, _ = generator_coefficients(hand_rep, noise, lo * (1 - 1e-3))
    assert c1 >= 0.0
    _, c2 = generator_coefficients(hand_rep, noise, hi * (1 + 1e-3))
    assert c2 >= 0.0


def test_generator_sign_equivalence_property():
    rng = np.random.default_rng(53)
    for _ in range(300):
        a = random_stable_matrix(rng)
        rep = report_from_entries(*a)
        bound1, _ = gamma_bounds(rep, 0.0)
        g1 = bound1 * rng.uniform(0.05, 0.95)
        _, bound2 = gamma_bounds(rep, g1)
        g2 = bound2 * rng.uniform(0.05, 0.95)
        noise = NoiseSpec.from_gammas(g1, g2)
        lo, hi = q_interval(rep, noise)
        for q in np.geomspace(max(lo, 1e-300) * 1.001, hi * 0.999, 20) if math.isfinite(hi) else np.geomspace(lo + 1e-6, lo * 100 + 1, 20):
            c1, c2 = generator_coefficients(rep, noise, float(q))
            assert c1 < 0 and c2 < 0


# ---------------------------------------------------------------------------
# e0_gamma_bounds / classify_equilibria_stability

def test_e0_bounds_match_generic_machinery():
    rng = np.random.default_rng(59)
    for _ in range(300):
        p = random_params(rng, r0_max=0.9)
        rep = linearize(p, origin_equilibrium())
        explicit1, explicit2 = e0_gamma_bounds(p, 0.0)
        generic1, generic2 = gamma_bounds(rep, 0.0)
        assert abs(explicit1 - generic1) <= 1e-12 * generic1
        assert abs(explicit2 - generic2) <= 1e-12 * generic2
        g1 = 0.5 * generic1
        explicit2 = e0_gamma_bounds(p, g1)[1]
        generic2 = gamma_bounds(rep, g1)[1]
        assert abs(explicit2 - generic2) <= 1e-12 * generic2


def test_e0_bounds_printed_form():
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1e6)
    r0 = basic_reproduction_number(p)
    shrink = 1.0 - r0 * r0
    bound1, _ = e0_gamma_bounds(p, 0.0)
    assert bound1 == pytest.approx(
        p.delta * (p.delta + p.sigma) * shrink / (p.sigma + p.delta * shrink), rel=1e-15
    )


def test_e0_bounds_require_subthreshold():
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    with pytest.raises(StabilityDomainError, match="R0"):
        e0_gamma_bounds(p, 0.0)


def test_classify_tumv(tumv):
    cls = classify_equilibria_stability(tumv, NoiseSpec.from_gammas(0.01, 0.01))
    assert cls.r0 == pytest.approx(4.287, abs=1e-3)
    assert cls.positive.verdict.conditions_met
    assert "stable in probability" in cls.positive.summary
    assert cls.positive.certificate is not None
    assert cls.positive.certificate.c1 < 0 and cls.positive.certificate.c2 < 0
    # origin loses the determinant condition once R0 > 1
    assert not cls.origin.verdict.det_ok
    assert not cls.origin.verdict.conditions_met
    assert "inapplicable" in cls.origin.summary


def test_classify_subthreshold_zero_noise():
    p = validate_params(r=0.5, alpha=1, delta=1, sigma=1, K=100)
    cls = classify_equilibria_stability(p, NoiseSpec(0.0, 0.0))
    assert cls.origin.verdict.conditions_met
    assert "stable in probability" in cls.origin.summary
    assert not cls.positive.equilibrium.exists
    assert cls.positive.verdict is None
    assert "not admissible" in cls.positive.summary


def test_classify_conditions_not_met_wording(tumv):
    cls = classify_equilibria_stability(tumv, NoiseSpec.from_gammas(0.03, 0.0))
    assert not cls.positive.verdict.conditions_met
    assert "not met" in cls.positive.summary
    assert "unstable" not in cls.positive.summary  # criteria are only sufficient
