"""Noise-robustness criteria for the perturbed replication model.

Each equilibrium of the deterministic model is also a solution of the
noise-perturbed system, because the perturbation is proportional to the
deviation from that equilibrium.  A quadratic Lyapunov function V(y) = y'Py
for the linearized system yields *sufficient* conditions on the half squared
noise intensities gamma_i = omega_i^2/2 under which the equilibrium is
stable in probability.  The criteria are one-directional: when they fail the
verdict is "conditions not met", never "unstable".
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Optional

from .errors import StabilityDomainError
from .linearization import LinearizationReport, _invariants, linearize
from .model_core import (
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    basic_reproduction_number,
    origin_equilibrium,
    positive_equilibrium,
)
from .serialize import Record

if TYPE_CHECKING:
    from .model_core import NoiseSpec

__all__ = [
    "LyapunovMatrix",
    "StabilityVerdict",
    "StabilityCertificate",
    "EquilibriumAssessment",
    "StabilityClassification",
    "gamma_bounds",
    "q_interval",
    "representative_q",
    "lyapunov_matrix",
    "generator_coefficients",
    "check_mean_square_stability",
    "e0_gamma_bounds",
    "classify_equilibria_stability",
]

# Strict inequalities are evaluated as plain float comparisons; a value this
# close (relatively) to its bound is additionally flagged as marginal.
BOUNDARY_RTOL = 1e-12

# A drift matrix whose largest entry is in [2^-_SAFE_EXPONENT, 2^_SAFE_EXPONENT) is used as it is, any
# other scaled into that range by a power of two (see _scaled).
_SAFE_EXPONENT = 320


class LyapunovMatrix(Record):
    """Symmetric positive definite P with P A + A' P = -diag(q, 1)."""

    p11: float
    p12: float
    p22: float
    q: float


class StabilityVerdict(Record):
    """Outcome of the sufficient mean-square stability test at one equilibrium.

    gamma1_bound is reported whenever the drift matrix passes the trace and
    determinant requirements; gamma2_bound only when additionally
    gamma1 < gamma1_bound (its denominator is positive exactly then).
    """

    equilibrium_kind: EquilibriumKind
    gamma1: float
    gamma2: float
    trace_ok: bool
    det_ok: bool
    gamma1_bound: Optional[float]
    gamma2_bound: Optional[float]
    conditions_met: bool
    q_interval: Optional[tuple[float, float]]
    marginal: bool


class StabilityCertificate(Record):
    """A concrete admissible weight q with its Lyapunov data.

    p11, p12, p22 are the entries of the Lyapunov matrix P for this q.
    c1 and c2 are the diagonal coefficients of the noise generator applied
    to V(y) = y'Py; both are negative for any q inside the admissible
    interval, which is what certifies the verdict.
    """

    q: float
    p11: float
    p12: float
    p22: float
    c1: float
    c2: float


class EquilibriumAssessment(Record):
    """One equilibrium with its linearization, verdict and certificate."""

    equilibrium: Equilibrium
    linearization: Optional[LinearizationReport]
    verdict: Optional[StabilityVerdict]
    certificate: Optional[StabilityCertificate]
    summary: str


class StabilityClassification(Record):
    """Verdicts for the virus-free and coexistence equilibria."""

    r0: float
    origin: EquilibriumAssessment
    positive: EquilibriumAssessment


def _require_hurwitz(rep: LinearizationReport) -> None:
    if not rep.trace < 0.0:
        raise StabilityDomainError(
            f"drift-matrix trace must be negative (got {rep.trace!r}); criteria inapplicable"
        )
    if not rep.det > 0.0:
        raise StabilityDomainError(
            f"drift-matrix determinant must be positive (got {rep.det!r}); criteria inapplicable"
        )


def _near(value: float, bound: float) -> bool:
    if not (math.isfinite(value) and math.isfinite(bound)):
        return False
    return abs(value - bound) <= BOUNDARY_RTOL * max(abs(value), abs(bound))


def _normal(x: float) -> bool:
    """Whether x is finite, and neither zero nor subnormal."""
    return sys.float_info.min <= abs(x) < math.inf


def _scaled(rep: LinearizationReport) -> tuple[LinearizationReport, int]:
    """(the report of the drift matrix 2^-k A, k), with k the k of least magnitude that brings the largest
    entry into [2^-_SAFE_EXPONENT, 2^_SAFE_EXPONENT), where a product of three, such as |Tr| det, neither
    overflows nor, unless the entries differ widely in size, underflows; but k = 0 where A's own |Tr| det
    is a normal number and scaling loses an entry's bits or leaves |Tr| det not a normal number.

    Every quantity here is homogeneous under A -> cA, gamma -> c gamma: the gamma bounds scale by c, the
    q interval does not change and P scales by 1/c.  The scaled report's trace, det, A1 and A2 are worked
    out from its entries, so a det that underflowed in the report is found again.  Scaling by c = 2^-k
    and back is exact but where a number under- or overflows, and k = 0 for every matrix whose largest
    entry is in [2^-320, 2^320), or whose entries differ so widely in size that scaling would push a small
    one below the normal numbers (E0 with delta near 1e150 and sigma near 1e-298).
    """
    entries = (rep.a11, rep.a12, rep.a21, rep.a22)
    exponent = math.frexp(max(map(abs, entries)))[1]
    k = max(0, exponent - _SAFE_EXPONENT) + min(0, exponent + _SAFE_EXPONENT - 1)
    if k:
        scaled_entries = [math.ldexp(x, -k) for x in entries]
        scaled = LinearizationReport(*scaled_entries, *_invariants(*scaled_entries), rep.equilibrium)
        lossless = all(math.ldexp(x, k) == a for x, a in zip(scaled_entries, entries))
        if (lossless and _normal(scaled.trace * scaled.det)) or not _normal(rep.trace * rep.det):
            return scaled, k
    return rep, 0


def _noise_bounds(rep: LinearizationReport, gamma1: float) -> tuple[float, Optional[float]]:
    """(gamma1 bound, gamma2 bound at gamma1) of a drift matrix with Tr < 0 < det.

    The gamma2 bound is None unless gamma1 is below the gamma1 bound, where
    its denominator is positive.
    """
    rep, k = _scaled(rep)  # the bounds of the scaled matrix and noise, scaled back
    gamma1, back = math.ldexp(gamma1, -k), 2.0 ** k
    abs_tr = -rep.trace
    d = abs_tr * rep.det
    gamma1_max = d / rep.A2
    if not gamma1 < gamma1_max:
        return gamma1_max * back, None
    return gamma1_max * back, (d - rep.A2 * gamma1) / (rep.A1 - abs_tr * gamma1) * back


def gamma_bounds(rep: LinearizationReport, gamma1: float) -> tuple[float, float]:
    """Noise tolerances certifying mean-square stability of the linear part.

    Returns (gamma1_max, gamma2_max): gamma1 must stay below
    |Tr| det / A2, and, for the supplied gamma1, gamma2 below
    (|Tr| det - A2 gamma1) / (A1 - |Tr| gamma1).  The second bound is only
    defined for gamma1 < gamma1_max, where its denominator is provably
    positive.
    """
    _require_hurwitz(rep)
    gamma1_max, gamma2_max = _noise_bounds(rep, gamma1)
    if gamma2_max is None:
        raise StabilityDomainError(
            f"gamma1={gamma1!r} is not below the admissible bound {gamma1_max!r}; "
            "the gamma2 bound is undefined"
        )
    return gamma1_max, gamma2_max


def q_interval(rep: LinearizationReport, noise: NoiseSpec) -> Optional[tuple[float, float]]:
    """Open interval of weights q for which the Lyapunov test certifies stability.

    Returns None when the interval is empty, which happens exactly when the
    gamma bounds fail.  gamma2 = 0 (and likewise a12 = 0 with a feasible
    gamma2) leaves the interval unbounded above.
    """
    _require_hurwitz(rep)
    rep, k = _scaled(rep)  # the interval is that of the scaled matrix and noise
    g1, g2 = math.ldexp(noise.gamma1, -k), math.ldexp(noise.gamma2, -k)
    abs_tr = -rep.trace
    d = abs_tr * rep.det
    den1 = d - rep.A2 * g1
    if den1 <= 0.0:
        return None
    q_lo = rep.a21 * rep.a21 * g1 / den1
    if g2 == 0.0:
        q_hi = math.inf
    else:
        num2 = d - rep.A1 * g2
        slope = rep.a12 * rep.a12 * g2
        if slope == 0.0:
            if num2 <= 0.0:
                return None
            q_hi = math.inf
        else:
            q_hi = num2 / slope
    if not q_lo < q_hi:
        return None
    return q_lo, q_hi


def representative_q(interval: tuple[float, float]) -> float:
    """Scale-free pick strictly inside an open admissible interval.

    Uses the geometric mean (midpoint of the log-interval), from the ends'
    roots where their product under- or overflows; intervals touching zero
    or unbounded above need the degenerate fallbacks.
    """
    q_lo, q_hi = interval
    if q_lo <= 0.0:
        return 1.0 if math.isinf(q_hi) else 0.1 * q_hi
    if math.isinf(q_hi):
        return 10.0 * q_lo
    product = q_lo * q_hi
    return math.sqrt(product) if _normal(product) else math.sqrt(q_lo) * math.sqrt(q_hi)


def lyapunov_matrix(rep: LinearizationReport, q: float) -> LyapunovMatrix:
    """Positive definite solution P of P A + A' P = -diag(q, 1), in closed form.

    Valid whenever the trace is negative, the determinant positive and q > 0.
    """
    _require_hurwitz(rep)
    if not q > 0.0:
        raise StabilityDomainError(f"q must be positive, got {q!r}")
    rep, k = _scaled(rep)  # P of the scaled matrix, scaled back
    scale = 2.0 * (-rep.trace) * rep.det
    p11 = (rep.A2 * q + rep.a21 * rep.a21) / scale
    p22 = (rep.A1 + rep.a12 * rep.a12 * q) / scale
    # sign fixed by the off-diagonal equation a12*p11 + trace*p12 + a21*p22 = 0
    p12 = -(rep.a12 * rep.a22 * q + rep.a21 * rep.a11) / scale
    return LyapunovMatrix(math.ldexp(p11, -k), math.ldexp(p12, -k), math.ldexp(p22, -k), q)


def generator_coefficients(rep: LinearizationReport, noise: NoiseSpec, q: float) -> tuple[float, float]:
    """Diagonal coefficients of the noise generator applied to V(y) = y'Py.

    Both are negative exactly when q lies in the admissible interval; V then
    certifies asymptotic mean-square stability of the linear part.
    """
    mat = lyapunov_matrix(rep, q)
    c1 = -q + 2.0 * mat.p11 * noise.gamma1
    c2 = -1.0 + 2.0 * mat.p22 * noise.gamma2
    return c1, c2


def check_mean_square_stability(rep: LinearizationReport, noise: NoiseSpec) -> StabilityVerdict:
    """Evaluate the sufficient stability conditions; failures are verdicts, not errors."""
    g1, g2 = noise.gamma1, noise.gamma2
    trace_ok = rep.trace < 0.0
    det_ok = rep.det > 0.0
    gamma1_bound: Optional[float] = None
    gamma2_bound: Optional[float] = None
    interval: Optional[tuple[float, float]] = None
    met = False
    marginal = False
    if trace_ok and det_ok:
        gamma1_bound, gamma2_bound = _noise_bounds(rep, g1)
        marginal = _near(g1, gamma1_bound)
        if gamma2_bound is not None:
            marginal = marginal or _near(g2, gamma2_bound)
            met = g2 < gamma2_bound
        interval = q_interval(rep, noise)
    else:
        scale = max(abs(rep.a11), abs(rep.a12), abs(rep.a21), abs(rep.a22))
        marginal = abs(rep.trace) <= BOUNDARY_RTOL * scale or abs(rep.det) <= BOUNDARY_RTOL * scale * scale
    return StabilityVerdict(
        equilibrium_kind=rep.equilibrium.kind,
        gamma1=g1,
        gamma2=g2,
        trace_ok=trace_ok,
        det_ok=det_ok,
        gamma1_bound=gamma1_bound,
        gamma2_bound=gamma2_bound,
        conditions_met=met,
        q_interval=interval,
        marginal=marginal,
    )


def e0_gamma_bounds(params: ModelParams, gamma1: float) -> tuple[float, float]:
    """Virus-free-equilibrium noise bounds written directly in the model rates.

    Algebraically identical to gamma_bounds() evaluated at the origin
    linearization; requires R0 < 1 (otherwise the origin fails the
    determinant condition and no bound exists).
    """
    r0 = basic_reproduction_number(params)
    if not r0 < 1.0:
        raise StabilityDomainError(f"origin bounds require R0 < 1, got R0={r0!r}")
    de, si = params.delta, params.sigma
    shrink = 1.0 - r0 * r0
    bound1 = de * (de + si) * shrink / (si + de * shrink)
    if not gamma1 < bound1:
        raise StabilityDomainError(
            f"gamma1={gamma1!r} is not below the admissible bound {bound1!r}"
        )
    bound2 = (
        si * (de * (de + si) * shrink - (si + de * shrink) * gamma1)
        / (de * (de + si * shrink) - (de + si) * gamma1)
    )
    return bound1, bound2


def _assess(eq: Equilibrium, rep: LinearizationReport, noise: NoiseSpec) -> EquilibriumAssessment:
    verdict = check_mean_square_stability(rep, noise)
    certificate = None
    if verdict.conditions_met and verdict.q_interval is not None:
        q = representative_q(verdict.q_interval)
        mat = lyapunov_matrix(rep, q)
        c1, c2 = generator_coefficients(rep, noise, q)
        certificate = StabilityCertificate(q, mat.p11, mat.p12, mat.p22, c1, c2)
        summary = "stable in probability (sufficient conditions met)"
    elif not (verdict.trace_ok and verdict.det_ok):
        summary = "sufficient conditions inapplicable (drift matrix fails trace/determinant requirements); inconclusive"
    else:
        summary = "sufficient conditions not met; inconclusive"
    return EquilibriumAssessment(eq, rep, verdict, certificate, summary)


def classify_equilibria_stability(params: ModelParams, noise: NoiseSpec) -> StabilityClassification:
    """Assess the virus-free and coexistence equilibria under the given noise.

    The coexistence point is only assessed when it exists (R0 > 1); the
    origin is always assessed, though for R0 > 1 its drift determinant is
    negative and the criteria cannot apply there.
    """
    r0 = basic_reproduction_number(params)
    origin = origin_equilibrium()
    origin_assessment = _assess(origin, linearize(params, origin), noise)
    e_plus = positive_equilibrium(params)
    if e_plus.exists:
        positive_assessment = _assess(e_plus, linearize(params, e_plus), noise)
    else:
        positive_assessment = EquilibriumAssessment(
            e_plus, None, None, None, "not admissible for these parameters (R0 <= 1)"
        )
    return StabilityClassification(r0=r0, origin=origin_assessment, positive=positive_assessment)
