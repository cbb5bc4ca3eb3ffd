"""Deterministic two-strand replication model: parameters, equilibria, diagnostics.

The state is a pair (p, m) of genomic and antigenomic RNA concentrations.
Antigenomic templates amplify genomic strands at rate r, genomic strands
amplify antigenomic ones at rate alpha*r, both throttled by the shared
cellular carrying capacity K; each strand degrades linearly (delta, sigma).
alpha interpolates between stamping-machine-like replication (alpha -> 0)
and purely geometric replication (alpha = 1).

Units are consistent but unnamed: rates are 1/time, K is a molecule count.

The validated config that every command reads lives here too: the noise
intensities (NoiseSpec), the integration schemes, the seed bound, and the
anchors and displaced starts of a run.  Reading a config therefore loads no
integrator and no stability machinery.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from numbers import Real
from typing import Any, NamedTuple

from .errors import ParameterError, StabilityDomainError, brief
from .serialize import Record

__all__ = [
    "State",
    "ModelParams",
    "EquilibriumKind",
    "Equilibrium",
    "NoiseSpec",
    "Scheme",
    "MAX_SEED",
    "finite_real",
    "validate_params",
    "basic_reproduction_number",
    "origin_equilibrium",
    "positive_equilibrium",
    "mixed_sign_equilibrium",
    "resolve_anchor",
    "anchor_scale",
    "displaced_initial",
    "field",
    "vector_field",
    "divergence",
]

# Relative tolerance below which the mixed-sign equilibrium is treated as
# singular (its coordinates diverge when R0 approaches r/delta).
SINGULARITY_RTOL = 1e-12

# Seeds key the Philox streams as one 64-bit word.
MAX_SEED = 2**64


class State(NamedTuple):
    """Instantaneous strand concentrations."""

    p: float  # genomic
    m: float  # antigenomic


class ModelParams(Record):
    """Replication rates and capacity of the within-cell model.

    Use :func:`validate_params` to construct checked instances.  The inverse
    capacity ``b`` is always derived from K and can never be set on its own.
    """

    r: float      # genomic amplification rate (1/time)
    alpha: float  # antigenomic rate fraction, in (0, 1]
    delta: float  # genomic degradation rate (1/time)
    sigma: float  # antigenomic degradation rate (1/time)
    K: float      # cellular carrying capacity (molecules)

    @property
    def b(self) -> float:
        """Inverse carrying capacity 1/K."""
        return 1.0 / self.K


class EquilibriumKind(Enum):
    ORIGIN = "origin"
    POSITIVE = "positive"
    MIXED_SIGN = "mixed_sign"


class Equilibrium(Record):
    """A classified fixed point of the deterministic model.

    ``exists`` records admissibility: the coexistence point requires R0 > 1,
    the mixed-sign point is singular at R0 = r/delta.  Inadmissible points
    still carry their formal coordinates, which are useful for understanding
    the global phase portrait.
    """

    kind: EquilibriumKind
    p_star: float
    m_star: float
    exists: bool

    @property
    def state(self) -> State:
        return State(self.p_star, self.m_star)


class NoiseSpec(Record):
    """White-noise intensities applied to the deviation from an equilibrium."""

    omega1: float
    omega2: float

    def __post_init__(self):
        for name, w in (("omega1", self.omega1), ("omega2", self.omega2)):
            if not (finite_real(w) and w >= 0):
                raise StabilityDomainError(f"{name} must be a finite nonnegative number, got {brief(w)}")
            object.__setattr__(self, name, float(w))  # so that no gamma is taken in a narrower type

    @property
    def gamma1(self) -> float:
        """Half squared intensity of the genomic-coordinate noise."""
        return 0.5 * self.omega1 * self.omega1

    @property
    def gamma2(self) -> float:
        return 0.5 * self.omega2 * self.omega2

    @classmethod
    def from_gammas(cls, gamma1: float, gamma2: float) -> "NoiseSpec":
        for name, g in (("gamma1", gamma1), ("gamma2", gamma2)):
            if not (finite_real(g) and g >= 0):
                raise StabilityDomainError(f"{name} must be a finite nonnegative number, got {brief(g)}")
        return cls(math.sqrt(2.0 * gamma1), math.sqrt(2.0 * gamma2))


class Scheme(Enum):
    """How a single path is integrated: deterministic RK4, or Euler-Maruyama under NoiseSpec's noise."""

    RK4 = "rk4"
    EULER_MARUYAMA = "euler-maruyama"


def finite_real(x: Any) -> bool:
    """Whether x is a real number in floating-point range: an int, a float or a numpy scalar of
    either, but not a bool, a string, a NaN or an infinity.

    The records' validators all ask this.  A numpy float32 is compared as a Python float, so
    asking raises no numpy warning.
    """
    if not isinstance(x, Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond floating-point range
        return False


def _positive_finite(name: str, value: float) -> float:
    if not (finite_real(value) and value > 0):
        raise ParameterError(f"{name} must be a positive finite number, got {brief(value)}")
    return float(value)


def validate_params(r: float, alpha: float, delta: float, sigma: float, K: float) -> ModelParams:
    """Check the five raw rates and return a ModelParams with b derived as 1/K.

    Raises ParameterError naming the offending field, or every rate when
    only a quantity derived from them overflows or underflows: delta*sigma,
    R0, 1/K, or an entry or invariant (trace, det, A1, A2) of the drift
    matrix at the origin E0, or at the coexistence equilibrium E+ when
    R0 > 1.
    """
    from .linearization import linearize  # which imports this module

    r = _positive_finite("r", r)
    delta = _positive_finite("delta", delta)
    sigma = _positive_finite("sigma", sigma)
    K = _positive_finite("K", K)
    if not (finite_real(alpha) and 0 < alpha <= 1):
        raise ParameterError(f"alpha must lie in (0, 1], got {brief(alpha)}")
    a = float(alpha)
    params = ModelParams(r=r, alpha=a, delta=delta, sigma=sigma, K=K)
    # each rate is in range on its own; what is derived from them must be too
    rates = f"(r={r!r}, alpha={a!r}, delta={delta!r}, sigma={sigma!r}, K={K!r})"
    if not (0.0 < delta * sigma < math.inf and 0.0 < (r0 := basic_reproduction_number(params)) < math.inf
            and params.b < math.inf):
        raise ParameterError(f"rates out of floating-point range: delta*sigma, R0 and 1/K must be positive "
                             f"and finite {rates}")
    points = {"E0": origin_equilibrium()}
    if r0 > 1.0:
        points["E+"] = positive_equilibrium(params)
    for name, eq in points.items():
        rep = linearize(params, eq)
        if not all(map(math.isfinite, (rep.a11, rep.a12, rep.a21, rep.a22, rep.trace, rep.det, rep.A1, rep.A2))):
            raise ParameterError(f"rates out of floating-point range: the drift matrix at {name} and its trace, "
                                 f"det, A1 and A2 must be finite {rates}")
    return params


def basic_reproduction_number(params: ModelParams) -> float:
    """Average number of RNA copies produced per RNA while p + m << K.

    Computed as r*sqrt(alpha/(delta*sigma)); the virus persists within the
    cell only when this exceeds one.
    """
    return params.r * math.sqrt(params.alpha / (params.delta * params.sigma))


def origin_equilibrium() -> Equilibrium:
    """The virus-free fixed point at (0, 0); always present."""
    return Equilibrium(EquilibriumKind.ORIGIN, 0.0, 0.0, True)


def positive_equilibrium(params: ModelParams) -> Equilibrium:
    """Coexistence fixed point; admissible (exists=True) iff R0 > 1.

    For R0 <= 1 the formal coordinates are still reported: both vanish at
    R0 = 1, where this point merges with the origin in a saddle-node, and
    turn negative below it.  At an admissible point p* + m* = K*(R0-1)/R0.
    """
    r0 = basic_reproduction_number(params)
    ratio = params.delta / params.r
    den = params.b * (1.0 + ratio * r0)
    p_star = (1.0 - 1.0 / r0) / den
    m_star = ratio * (r0 - 1.0) / den
    return Equilibrium(EquilibriumKind.POSITIVE, p_star, m_star, exists=r0 > 1.0)


def mixed_sign_equilibrium(params: ModelParams) -> Equilibrium:
    """Opposite-sign fixed point; never biologically relevant.

    The coordinates diverge as R0 approaches r/delta; within SINGULARITY_RTOL
    of that point the equilibrium is reported with exists=False and the
    limiting infinite coordinates.  Otherwise p and m have opposite signs:
    p > 0 > m for R0 < r/delta and p < 0 < m for R0 > r/delta.
    """
    r0 = basic_reproduction_number(params)
    ratio = params.delta / params.r
    gap = 1.0 - ratio * r0
    if abs(gap) <= SINGULARITY_RTOL * (ratio * r0):
        sign = 1.0 if gap >= 0.0 else -1.0
        return Equilibrium(EquilibriumKind.MIXED_SIGN, sign * math.inf, -sign * math.inf, False)
    den = params.b * gap
    p = (1.0 + 1.0 / r0) / den
    m = -ratio * (r0 + 1.0) / den
    return Equilibrium(EquilibriumKind.MIXED_SIGN, p, m, True)


def resolve_anchor(params: ModelParams, kind: EquilibriumKind) -> Equilibrium:
    """The origin or the coexistence equilibrium of params; the latter must exist."""
    if kind is EquilibriumKind.ORIGIN:
        return origin_equilibrium()
    if kind is EquilibriumKind.POSITIVE:
        eq = positive_equilibrium(params)
        if not eq.exists:
            raise ParameterError("coexistence anchor does not exist for these parameters (R0 <= 1)")
        return eq
    raise ParameterError(f"unsupported anchor kind {kind!r}")


def anchor_scale(anchor: Equilibrium, K: float) -> float:
    """Magnitude used for relative displacements and radii at an anchor."""
    scale = math.hypot(anchor.p_star, anchor.m_star)
    return scale if scale > 0.0 else K


def displaced_initial(anchor: Equilibrium, fraction: float, K: float) -> State:
    """Initial state at distance fraction*scale from the anchor.

    Nonzero anchors are displaced radially (each coordinate scaled by
    1 + fraction); from the origin the offset goes up the diagonal.
    """
    if anchor.p_star == 0.0 and anchor.m_star == 0.0:
        d = fraction * K / math.sqrt(2.0)
        return State(d, d)
    return State((1.0 + fraction) * anchor.p_star, (1.0 + fraction) * anchor.m_star)


def field(params: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """The vector field of params as a function (p, m) -> (dp/dt, dm/dt), with the rates bound once."""
    r, alpha, delta, sigma, K = params.r, params.alpha, params.delta, params.sigma, params.K

    def at(p: float, m: float) -> tuple[float, float]:
        unfilled = 1.0 - (p + m) / K  # shared capacity throttle
        return r * m * unfilled - delta * p, alpha * r * p * unfilled - sigma * m

    return at


def vector_field(params: ModelParams, s: State) -> tuple[float, float]:
    """Time derivative (dp/dt, dm/dt) of the replication system at state s."""
    return field(params)(*s)


def divergence(params: ModelParams, s: State) -> float:
    """Divergence of the vector field; strictly negative wherever p, m >= 0.

    Its negativity rules out closed orbits in the phase-space triangle.
    """
    p, m = s
    return -(params.r / params.K) * (m + params.alpha * p) - params.delta - params.sigma
