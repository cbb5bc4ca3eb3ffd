"""Fixed-step trajectory integration for the replication model.

Deterministic paths use classical fourth-order Runge-Kutta.  Noise-perturbed
paths use the Euler-Maruyama scheme in the Ito interpretation, with diagonal
multiplicative noise proportional to the deviation from an anchor
equilibrium.  Both integrators use a fixed step so that ensemble statistics
stay unbiased across replicates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import IntegrationError, ParameterError
from .linearization import linearize
from .model_core import Equilibrium, ModelParams, State, vector_field
from .serialize import write_csv
from .stability import NoiseSpec

__all__ = [
    "Scheme",
    "SimConfig",
    "Trajectory",
    "step_count",
    "recorded_steps",
    "default_dt",
    "brownian_increments",
    "integrate_ode",
    "integrate_sde",
    "centralized_rhs",
    "write_trajectory_csv",
]

# A state farther outside the phase-space triangle than this (relative to K)
# counts as having left it; smaller excursions are integration round-off.
OMEGA_EXIT_RTOL = 1e-9

# Residual tolerance (relative to max(K, 1)) for a point claimed to be an
# equilibrium anchor of the noise terms.
ANCHOR_RTOL = 1e-8

# Seeds key the Philox streams as one 64-bit word.
MAX_SEED = 2**64

# A recorded path row: t, p and m as float64.
_PATH_ROW_BYTES = 3 * 8


class Scheme(Enum):
    RK4 = "rk4"
    EULER_MARUYAMA = "euler-maruyama"


@dataclass(frozen=True)
class SimConfig:
    """One trajectory's numerical setup."""

    dt: float
    t_end: float
    initial: State
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ParameterError(f"t_end must be at least dt, got {self.t_end!r}")
        if not math.isfinite(self.t_end / self.dt):
            raise ParameterError(f"t_end / dt = {self.t_end!r} / {self.dt!r} is more steps than a float counts")
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise ParameterError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < MAX_SEED):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (math.isfinite(self.initial[0]) and math.isfinite(self.initial[1])):
            raise ParameterError(f"initial state must be finite, got {self.initial!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run.

    exited_omega is the first recorded time the state left the triangle
    {p, m >= 0, p + m <= K} by more than the round-off allowance; expected
    to stay None for deterministic runs (step size permitting), while noisy
    paths may legitimately leave.
    """

    times: np.ndarray
    states: np.ndarray
    exited_omega: Optional[float]
    scheme: Scheme

    @property
    def final_state(self) -> State:
        return State(float(self.states[-1, 0]), float(self.states[-1, 1]))

    def deviations_sq(self, anchor: Equilibrium) -> np.ndarray:
        """Squared Euclidean deviation from an anchor at each sample."""
        dp = self.states[:, 0] - anchor.p_star
        dm = self.states[:, 1] - anchor.m_star
        return dp * dp + dm * dm


def step_count(cfg: SimConfig) -> int:
    """Number of fixed steps covering [0, t_end] (last step may overshoot)."""
    return max(1, math.ceil(cfg.t_end / cfg.dt - 1e-9))


def recorded_steps(n_steps: int, stride: int) -> list[int]:
    """Step indices kept in a trajectory: every stride-th plus the final step."""
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _check_recorded_bytes(rows: int, row_bytes: int) -> None:
    """Refuse a run whose recorded results (rows x row_bytes) exceed physical memory.

    Runs before anything is sized from the step or replicate count, so a
    run that cannot fit is invalid input that states its size, not an
    OverflowError or MemoryError from inside an allocation.
    """
    if not hasattr(os, "sysconf"):
        return
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    size = rows * row_bytes
    if size > memory:
        from decimal import Decimal  # formats an int of any size; imported only for this message

        raise ParameterError(
            f"the run would record {Decimal(size):.3g} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def _recording(cfg: SimConfig, row_bytes: int) -> tuple[int, list[int]]:
    """Step count and recorded steps of cfg, once its recorded rows are known to fit."""
    n = step_count(cfg)
    rows = -(-n // cfg.record_stride) + 1  # len(recorded_steps(...)), without building the list
    _check_recorded_bytes(rows, row_bytes)
    return n, recorded_steps(n, cfg.record_stride)


def default_dt(params: ModelParams, eq: Optional[Equilibrium] = None) -> float:
    """Step size keeping dt * max(|a11|, |a22|, delta + sigma) at 0.01.

    The drift entries are taken at `eq` when given, else at the origin.
    """
    if eq is not None:
        rep = linearize(params, eq)
        fastest = max(abs(rep.a11), abs(rep.a22), params.delta + params.sigma)
    else:
        fastest = max(params.delta, params.sigma, params.delta + params.sigma)
    return 0.01 / fastest


def _wiener_stream(master_seed: int, replicate: int, coordinate: int) -> np.random.Generator:
    """Counter-based Philox generator keyed (master_seed, replicate, coordinate)."""
    key = np.array([master_seed, 2 * replicate + coordinate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def brownian_increments(master_seed: int, replicate: int, coordinate: int, n_steps: int, dt: float) -> np.ndarray:
    """Wiener increments for one coordinate of one replicate.

    Streams are keyed by (master_seed, replicate, coordinate) through the
    counter-based Philox generator, so any replicate's increments can be
    regenerated in isolation and never depend on execution order.
    """
    if coordinate not in (0, 1):
        raise ParameterError(f"coordinate must be 0 or 1, got {coordinate!r}")
    return _wiener_stream(master_seed, replicate, coordinate).standard_normal(n_steps) * math.sqrt(dt)


def _omega_exit(p: float, m: float, K: float) -> bool:
    tol = OMEGA_EXIT_RTOL * K
    return p < -tol or m < -tol or p + m > K + tol


def check_anchor(params: ModelParams, eq: Equilibrium) -> None:
    """Reject anchors that are not (numerically) fixed points of the model."""
    if not (math.isfinite(eq.p_star) and math.isfinite(eq.m_star)):
        raise ParameterError(f"anchor coordinates must be finite, got {eq!r}")
    dp, dm = vector_field(params, eq.state)
    if max(abs(dp), abs(dm)) > ANCHOR_RTOL * max(params.K, 1.0):
        raise ParameterError(
            f"anchor ({eq.p_star!r}, {eq.m_star!r}) is not an equilibrium "
            f"(field residual {max(abs(dp), abs(dm)):.3g})"
        )


class _Drift(NamedTuple):
    """Coefficients of the centred drift: floats for one path, (cells, 1) columns for a batch."""

    a11: float
    a12: float
    a21: float
    a22: float
    br: float   # b r, the quadratic coupling of the genomic coordinate
    abr: float  # alpha b r, that of the structural coordinate


def _drift_coefficients(params: ModelParams, eq: Equilibrium) -> _Drift:
    rep = linearize(params, eq)
    br = params.b * params.r
    return _Drift(rep.a11, rep.a12, rep.a21, rep.a22, br, params.alpha * br)


def _drift(c: _Drift, x1, x2):
    """Centred drift at deviations (x1, x2), for floats or broadcasting arrays.

    The drift-matrix part plus a single quadratic coupling.  The ensemble
    kernel and centralized_rhs call it; integrate_sde's scalar loop writes
    the same arithmetic out, and the tests hold them to the same bits.
    """
    a11, a12, a21, a22, br, abr = c
    s = x1 + x2
    return a11 * x1 + a12 * x2 - br * s * x2, a21 * x1 + a22 * x2 - abr * s * x1


def centralized_rhs(params: ModelParams, eq: Equilibrium, x: tuple[float, float]) -> tuple[float, float]:
    """Drift of the dynamics rewritten in deviations x = state - eq.

    Splits into the linear drift-matrix part plus a single quadratic
    coupling; algebraically identical to vector_field(params, eq + x)
    whenever eq is a true equilibrium (which is checked).
    """
    check_anchor(params, eq)
    return _drift(_drift_coefficients(params, eq), x[0], x[1])


def integrate_ode(params: ModelParams, cfg: SimConfig) -> Trajectory:
    """Classical fourth-order Runge-Kutta path of the deterministic model.

    The phase-space triangle is invariant for the exact flow, so a recorded
    exit means the step size is too large for these parameters.  Raises
    IntegrationError if the state becomes non-finite.
    """
    r, alpha, delta, sigma, K = params.r, params.alpha, params.delta, params.sigma, params.K
    dt = cfg.dt
    n, rec = _recording(cfg, _PATH_ROW_BYTES)
    rec_iter = iter(rec)
    next_rec = next(rec_iter)

    p, m = float(cfg.initial[0]), float(cfg.initial[1])
    times: list[float] = []
    states: list[tuple[float, float]] = []
    exited: Optional[float] = None

    def field(pp: float, mm: float) -> tuple[float, float]:
        unfilled = 1.0 - (pp + mm) / K
        return r * mm * unfilled - delta * pp, alpha * r * pp * unfilled - sigma * mm

    if exited is None and _omega_exit(p, m, K):
        exited = 0.0
    if next_rec == 0:
        times.append(0.0)
        states.append((p, m))
        next_rec = next(rec_iter, None)

    sixth = dt / 6.0
    half = 0.5 * dt
    for i in range(n):
        k1p, k1m = field(p, m)
        k2p, k2m = field(p + half * k1p, m + half * k1m)
        k3p, k3m = field(p + half * k2p, m + half * k2m)
        k4p, k4m = field(p + dt * k3p, m + dt * k3m)
        p = p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        m = m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m)
        t = (i + 1) * dt
        if not (math.isfinite(p) and math.isfinite(m)):
            raise IntegrationError(f"state became non-finite at t={t:.6g} (step size too large?)", t)
        if exited is None and _omega_exit(p, m, K):
            exited = t
        if next_rec == i + 1:
            times.append(t)
            states.append((p, m))
            next_rec = next(rec_iter, None)

    return Trajectory(np.asarray(times), np.asarray(states), exited, Scheme.RK4)


def integrate_sde(
    params: ModelParams,
    noise: NoiseSpec,
    anchor: Equilibrium,
    cfg: SimConfig,
    replicate: int = 0,
    dW: Optional[np.ndarray] = None,
) -> Trajectory:
    """Euler-Maruyama path of the noise-perturbed model (Ito interpretation).

    Per step, with deviations x = (p - p*, m - m*) from the anchor:

        x1 <- x1 + drift1(x) dt + omega1 x1 dW1
        x2 <- x2 + drift2(x) dt + omega2 x2 dW2

    The drift is evaluated in the centered form, so the anchor is an exact
    fixed point of the discrete scheme: started there, both drift and noise
    vanish to the last bit for any noise level.  Increments come from the
    counter-based stream keyed (cfg.seed, replicate, coordinate); pass dW
    (shape (n_steps, 2)) to impose a specific realization instead.

    Paths are not clamped to the phase-space triangle: noise can push them
    out (recorded via exited_omega) or below zero.  Raises IntegrationError
    when the state becomes non-finite.

    The loop stays scalar rather than being a one-replicate call of the
    batched ensemble kernel, and it runs on Python floats: the increments
    become lists (ndarray.tolist) once, since an element read from the array
    is an np.float64 that would turn x1 and x2 into numpy scalars.  Recording
    every step of a 111752-step TuMV path (2-CPU x86 VM, Python 3.11, numpy
    2.4.6), a step costs about 1.8 us on Python floats, 4.7 us on numpy
    scalars and 27 us as the kernel's numpy step over one-element arrays,
    almost all of it per-call ufunc overhead.  Both kinds of float round
    alike, so the path is the same to the bit.  The drift is _drift's
    arithmetic written out in the loop; the tests hold the two to the same
    bits.
    """
    check_anchor(params, anchor)
    a11, a12, a21, a22, br, abr = _drift_coefficients(params, anchor)
    w1, w2 = noise.omega1, noise.omega2
    ps, ms = anchor.p_star, anchor.m_star
    K = params.K
    dt = cfg.dt
    n, rec = _recording(cfg, _PATH_ROW_BYTES)

    if dW is None:
        dW1, dW2 = (brownian_increments(cfg.seed, replicate, c, n, dt).tolist() for c in (0, 1))
    elif dW.shape != (n, 2):
        raise ParameterError(f"dW must have shape ({n}, 2), got {dW.shape}")
    else:
        dW1, dW2 = dW[:, 0].tolist(), dW[:, 1].tolist()

    rec_iter = iter(rec)
    next_rec = next(rec_iter)

    x1 = float(cfg.initial[0]) - ps
    x2 = float(cfg.initial[1]) - ms
    times: list[float] = []
    states: list[tuple[float, float]] = []
    exited: Optional[float] = None

    if _omega_exit(ps + x1, ms + x2, K):
        exited = 0.0
    if next_rec == 0:
        times.append(0.0)
        states.append((ps + x1, ms + x2))
        next_rec = next(rec_iter, None)

    for i, (d1, d2) in enumerate(zip(dW1, dW2)):
        # _drift written out: calling it would add 6-10% to the whole loop
        s = x1 + x2
        g1 = a11 * x1 + a12 * x2 - br * s * x2
        g2 = a21 * x1 + a22 * x2 - abr * s * x1
        x1 = x1 + g1 * dt + w1 * x1 * d1
        x2 = x2 + g2 * dt + w2 * x2 * d2
        t = (i + 1) * dt
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise IntegrationError(f"state became non-finite at t={t:.6g} (noise or step too large?)", t)
        p = ps + x1
        m = ms + x2
        if exited is None and _omega_exit(p, m, K):
            exited = t
        if next_rec == i + 1:
            times.append(t)
            states.append((p, m))
            next_rec = next(rec_iter, None)

    return Trajectory(np.asarray(times), np.asarray(states), exited, Scheme.EULER_MARUYAMA)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,p,m` rows with full double precision (17 significant digits)."""
    write_csv(path, "t,p,m", (traj.times, traj.states[:, 0], traj.states[:, 1]))
