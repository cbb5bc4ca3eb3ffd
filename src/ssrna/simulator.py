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

from . import _em
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

# The compiled library counts steps in a signed 64-bit integer.
MAX_STEPS = 2**63 - 1

# A recorded path row: t, p and m as float64.
_PATH_ROW_BYTES = 3 * 8

# What an ensemble or sweep holds, whatever its replicate count: per cell
# and recorded row, a float64 sum of |x|^2 and an int64 count of first
# exceedances, shared by its processes; and in each process one slice
# buffer of _em.BLOCK replicates, each with two Philox streams of 11 words
# (_em.c's stream_t) and per cell a float64 |x|^2 per recorded row, five
# float64 state values and its first exceedance (8 B), negative and
# nonfinite (1 B each) results.
_SUM_ROW_BYTES = 16
_STREAM_WORDS = 11
_SLICE_REPLICATE_BYTES = 2 * _STREAM_WORDS * 8
_SLICE_CELL_BYTES = 5 * 8 + 10


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
        if not (math.isfinite(self.t_end / self.dt) and step_count(self) <= MAX_STEPS):
            raise ParameterError(
                f"t_end / dt = {self.t_end!r} / {self.dt!r} is more steps than a 64-bit step counter holds"
            )
        if not (type(self.record_stride) is int and self.record_stride >= 1):
            raise ParameterError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if not (type(self.seed) is int and 0 <= self.seed < MAX_SEED):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (math.isfinite(self.initial[0]) and math.isfinite(self.initial[1])):
            raise ParameterError(f"initial state must be finite, got {self.initial!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run.

    exited_omega is the time of the first step, recorded or not, whose state
    left the triangle {p, m >= 0, p + m <= K} by more than the round-off
    allowance (OMEGA_EXIT_RTOL * K); expected to stay None for
    deterministic runs (step size permitting), while noisy paths may
    legitimately leave.
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


def _check_recorded_bytes(rows: int, row_bytes: int, other_bytes: int = 0) -> None:
    """Refuse a run whose recorded results (rows x row_bytes, plus other_bytes) exceed physical memory.

    Runs before anything is sized from the step count, so a run that
    cannot fit is invalid input that states its size, not an OverflowError
    or MemoryError from inside an allocation.
    """
    if not hasattr(os, "sysconf"):
        return
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    size = rows * row_bytes + other_bytes
    if size > memory:
        from decimal import Decimal  # formats an int of any size; imported only for this message

        raise ParameterError(
            f"the run would record {Decimal(size):.3g} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def _ensemble_bytes(cells: int, workers: int) -> tuple[int, int]:
    """(bytes per recorded row, other bytes) of an ensemble or sweep of `cells` cells in `workers` processes."""
    slices = workers * _em.BLOCK
    return (cells * (_SUM_ROW_BYTES + slices * 8),
            slices * (_SLICE_REPLICATE_BYTES + cells * _SLICE_CELL_BYTES))


def _recording(cfg: SimConfig, row_bytes: int, other_bytes: int = 0) -> int:
    """Step count of cfg, once its recorded rows are known to fit."""
    n = step_count(cfg)
    rows = -(-n // cfg.record_stride) + 1  # len(recorded_steps(...)), without building the list
    _check_recorded_bytes(rows, row_bytes, other_bytes)
    return n


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


def brownian_increments(master_seed: int, replicate: int, coordinate: int, n_steps: int, dt: float) -> np.ndarray:
    """Wiener increments for one coordinate of one replicate.

    Streams are keyed by (master_seed, replicate, coordinate) through the
    counter-based Philox generator, so any replicate's increments can be
    regenerated in isolation and never depend on execution order.  The
    compiled kernel draws the same numbers from the same streams; this is
    their numpy reference.
    """
    if coordinate not in (0, 1):
        raise ParameterError(f"coordinate must be 0 or 1, got {coordinate!r}")
    key = np.array([master_seed, 2 * replicate + coordinate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n_steps) * math.sqrt(dt)


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
    """Coefficients of the centred drift."""

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


class _Cell(NamedTuple):
    """One ensemble of a batch: drift, noise, anchor, start, radius.

    The compiled kernel reads it in this field order, with the drift
    flattened (_em.c's cell words).
    """

    drift: _Drift
    omega1: float
    omega2: float
    p_star: float
    m_star: float
    x1: float  # initial deviation from the anchor
    x2: float
    eps_sq: float


def _drift(c: _Drift, x1, x2):
    """Centred drift at deviations (x1, x2).

    The drift-matrix part plus a single quadratic coupling, in the
    evaluation order that the compiled kernel's step (_em.c) repeats.
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


def _path_recorder(cfg: SimConfig, K: float) -> _em.Recorder:
    """The recorder of a path of cfg, once its recorded rows are known to fit.

    A state farther than OMEGA_EXIT_RTOL * K outside the phase-space
    triangle counts as having left it.
    """
    n = _recording(cfg, _PATH_ROW_BYTES)
    tol = OMEGA_EXIT_RTOL * K
    return _em.Recorder(n, cfg.record_stride, cfg.dt, -tol, K + tol)


def _trajectory(path: _em.Recorder, scheme: Scheme, hint: str) -> Trajectory:
    """The recorded path; IntegrationError, naming the hint, if its state became non-finite."""
    if path.failed >= 0:
        t = path.failed * path.dt
        raise IntegrationError(f"state became non-finite at t={t:.6g} ({hint})", t)
    exited = None if path.exited < 0 else path.exited * path.dt
    return Trajectory(path.times, path.states, exited, scheme)


def integrate_ode(params: ModelParams, cfg: SimConfig) -> Trajectory:
    """Classical fourth-order Runge-Kutta path of the deterministic model.

    The path is stepped and recorded in the compiled library (_em.c), with
    model_core.field's arithmetic in its evaluation order, and holds only
    its recorded rows.  The phase-space triangle is invariant for the exact
    flow, so a recorded exit means the step size is too large for these
    parameters.  Raises IntegrationError if the state becomes non-finite.
    """
    path = _path_recorder(cfg, params.K)
    rates = (params.r, params.alpha, params.delta, params.sigma, params.K)
    _em.rk4(rates, float(cfg.initial[0]), float(cfg.initial[1]), path)
    return _trajectory(path, Scheme.RK4, "step size too large?")


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

    The drift is evaluated in the centered form (_drift's arithmetic), so
    the anchor is an exact fixed point of the discrete scheme: started
    there, both drift and noise vanish to the last bit for any noise level.
    The path is replicate `replicate` of the compiled ensemble kernel (_em),
    stepped and recorded in one call, and holds only its recorded rows.
    Increments come from the counter-based streams keyed (cfg.seed,
    replicate, coordinate); pass dW (shape (n_steps, 2)) to impose a
    specific realization instead.

    Paths are not clamped to the phase-space triangle: noise can push them
    out (recorded via exited_omega) or below zero.  Raises IntegrationError
    when the state becomes non-finite.
    """
    check_anchor(params, anchor)
    # the stream keys 2 * replicate + coordinate are 64-bit words
    if isinstance(replicate, bool) or not (isinstance(replicate, (int, np.integer))
                                           and 0 <= replicate < MAX_SEED // 2):
        raise ParameterError(f"replicate must be an integer in [0, 2**63), got {replicate!r}")
    path = _path_recorder(cfg, params.K)
    if dW is not None:
        if dW.shape != (path.n, 2):
            raise ParameterError(f"dW must have shape ({path.n}, 2), got {dW.shape}")
        dW = np.ascontiguousarray(dW, dtype=float)
    ps, ms = anchor.p_star, anchor.m_star
    x1 = float(cfg.initial[0]) - ps
    x2 = float(cfg.initial[1]) - ms
    cell = _Cell(_drift_coefficients(params, anchor), noise.omega1, noise.omega2, ps, ms, x1, x2, math.inf)
    _em.path(cell, cfg.seed, replicate, path, dW)
    return _trajectory(path, Scheme.EULER_MARUYAMA, "noise or step too large?")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,p,m` rows with full double precision (17 significant digits)."""
    write_csv(path, "t,p,m", (traj.times, traj.states[:, 0], traj.states[:, 1]))
