"""Fixed-step trajectory integration for the replication model.

Deterministic paths use classical fourth-order Runge-Kutta.  Noise-perturbed
paths use the Euler-Maruyama scheme in the Ito interpretation, with diagonal
multiplicative noise proportional to the deviation from an anchor
equilibrium.  Both integrators use a fixed step so that ensemble statistics
stay unbiased across replicates.  A path is its own recorder (PathBlocks),
the one argument of each call of its compiled kernel, a block of rows each.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Iterator
from numbers import Integral
from typing import NamedTuple, Optional

from . import _em
from .errors import IntegrationError, ParameterError, brief
from .linearization import linearize
from .model_core import (
    MAX_SEED,
    Equilibrium,
    ModelParams,
    NoiseSpec,
    Scheme,
    State,
    _positive_finite,
    finite_real,
    origin_equilibrium,
    vector_field,
)
from .serialize import FloatArray, Record, _stored, write_csv

__all__ = [
    "SimConfig",
    "Trajectory",
    "step_count",
    "recorded_steps",
    "default_dt",
    "brownian_increments",
    "integrate_ode",
    "integrate_sde",
    "PathBlocks",
    "ode_blocks",
    "sde_blocks",
    "write_trajectory_csv",
]

# A state farther outside the phase-space triangle than this (relative to K)
# counts as having left it; smaller excursions are integration round-off.
OMEGA_EXIT_RTOL = 1e-9

# Residual tolerance (relative to max(K, 1)) for a point claimed to be an
# equilibrium anchor of the noise terms.
ANCHOR_RTOL = 1e-8

# The compiled library counts steps in a signed 64-bit integer.
MAX_STEPS = 2**63 - 1

# A recorded path row: t, p and m as float64.  A whole path, as integrate_ode
# and integrate_sde give it, holds these 24 B per recorded row, and a block
# of rows besides.  `simulate` holds one block only.
_PATH_ROW_BYTES = 3 * 8


class SimConfig(Record):
    """One trajectory's numerical setup."""

    dt: float
    t_end: float
    initial: State
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        # held as floats, so that no step count is taken in a narrower type
        object.__setattr__(self, "dt", _positive_finite("dt", self.dt))
        if not (finite_real(self.t_end) and float(self.t_end) >= self.dt):
            raise ParameterError(f"t_end must be at least dt = {self.dt!r}, got {brief(self.t_end)}")
        object.__setattr__(self, "t_end", float(self.t_end))
        if not (math.isfinite(self.t_end / self.dt) and step_count(self) <= MAX_STEPS):
            raise ParameterError(
                f"t_end / dt = {self.t_end!r} / {self.dt!r} is more steps than a 64-bit step counter holds"
            )
        if not (type(self.record_stride) is int and self.record_stride >= 1):
            raise ParameterError(f"record_stride must be an integer >= 1, got {brief(self.record_stride)}")
        if not (type(self.seed) is int and 0 <= self.seed < MAX_SEED):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {brief(self.seed)}")
        try:
            p, m = self.initial
        except (TypeError, ValueError):  # not a pair
            p = m = None
        if not (finite_real(p) and finite_real(m)):
            raise ParameterError(f"initial state must be a pair of finite numbers, got {brief(self.initial)}")


class Trajectory(Record):
    """Recorded samples of one integration run.

    exited_omega is the time of the first step, recorded or not, whose state
    left the triangle {p, m >= 0, p + m <= K} by more than the round-off
    allowance (OMEGA_EXIT_RTOL * K); expected to stay None for
    deterministic runs (step size permitting), while noisy paths may
    legitimately leave.  times, p and m are the path's (n,) float64 columns
    (FloatArray fields), and states their (n, 2) rows, built on read.
    lowest is the smallest p or m as the integrators report it, else None.
    """

    times: FloatArray = FloatArray()
    p: FloatArray = FloatArray()
    m: FloatArray = FloatArray()
    exited_omega: Optional[float]
    scheme: Scheme
    lowest: Optional[float] = None

    @property
    def states(self) -> numpy.ndarray:
        import numpy as np

        return np.column_stack((self.p, self.m))

    @property
    def final_state(self) -> State:
        return State(_stored(self, "p")[-1], _stored(self, "m")[-1])

    def columns(self) -> tuple:
        """t, p and m, as the writers read them: the array('d') of each."""
        return tuple(_stored(self, name) for name in ("times", "p", "m"))


def step_count(cfg: SimConfig) -> int:
    """Number of fixed steps covering [0, t_end] (last step may overshoot)."""
    return max(1, math.ceil(cfg.t_end / cfg.dt - 1e-9))


def recorded_steps(n_steps: int, stride: int) -> list[int]:
    """Step indices kept in a trajectory: every stride-th plus the final step."""
    return [*range(0, n_steps, stride), n_steps]


def _check_recorded_bytes(size: int) -> None:
    """Refuse a run whose recorded results and buffers, size bytes, exceed physical memory.

    Runs before anything is sized from the step count, so a run that
    cannot fit is invalid input that states its size, not an OverflowError
    or MemoryError from inside an allocation.  size counts what the run
    holds: a whole path's 24 B per recorded row (_PATH_ROW_BYTES), for the
    library's integrate_ode and integrate_sde, or an ensemble's sums and
    slices, which hold one block of rows each (_em.ensemble_bytes).  A path
    written as it is stepped, as `simulate` writes it, holds one block and
    is not checked.  Writing adds a constant, not a multiple of the rows:
    the writers format one block of 4096 rows at a time
    (serialize._BLOCK_ROWS).
    """
    if not hasattr(os, "sysconf"):
        return
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if size > memory:
        from decimal import Decimal  # formats an int of any size; imported only for this message

        raise ParameterError(
            f"the run would record {Decimal(size):.3g} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def default_dt(params: ModelParams, eq: Optional[Equilibrium] = None) -> float:
    """Step size keeping dt * max(|a11|, |a22|, delta + sigma) at 0.01.

    The drift entries are taken at `eq` when given, else at the origin.
    """
    rep = linearize(params, origin_equilibrium() if eq is None else eq)
    return 0.01 / max(abs(rep.a11), abs(rep.a22), params.delta + params.sigma)


def brownian_increments(master_seed: int, replicate: int, coordinate: int, n_steps: int, dt: float) -> numpy.ndarray:
    """Wiener increments for one coordinate of one replicate.

    Streams are keyed by (master_seed, replicate, coordinate) through the
    counter-based Philox generator, so any replicate's increments can be
    regenerated in isolation and never depend on execution order.  The
    compiled kernel draws the same numbers from the same streams; this is
    their numpy reference.
    """
    import numpy as np

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


def _kernel_cell(params: ModelParams, anchor: Equilibrium, noise: NoiseSpec, initial: State,
                 eps_sq: float) -> _Cell:
    """The kernel cell of params about anchor, started at initial, once the anchor is checked."""
    check_anchor(params, anchor)
    ps, ms = anchor.p_star, anchor.m_star
    return _Cell(_drift_coefficients(params, anchor), noise.omega1, noise.omega2, ps, ms,
                 float(initial[0]) - ps, float(initial[1]) - ms, eps_sq)


class PathBlocks(_em.Recorder):
    """A path of cfg, its own recorder, stepped a block of recorded rows at a time as it is iterated.

    The scheme picks the kernel (see _em.Recorder for its inputs and start).
    Each iteration steps the path once (advance) and yields it: columns()
    gives the block's t, p and m, and the next iteration reuses its buffers,
    so the path holds one block, whatever its horizon.  exited_omega, lowest
    and final_state are those of the rows stepped so far; a state farther
    than OMEGA_EXIT_RTOL * K outside the phase-space triangle has left it.
    Raises IntegrationError, naming the scheme's likely cause, once the
    state becomes non-finite.
    """

    def __init__(self, scheme: Scheme, inputs: array, start: tuple[float, float], cfg: SimConfig, K: float,
                 replicate: int = 0):
        rk4, tol = scheme is Scheme.RK4, OMEGA_EXIT_RTOL * K
        super().__init__("rk4_path" if rk4 else "em_path", inputs, start, step_count(cfg), cfg.record_stride,
                         cfg.dt, -tol, K + tol, cfg.seed, replicate)
        self.scheme, self._hint = scheme, "step size too large?" if rk4 else "noise or step too large?"

    def __iter__(self) -> Iterator[PathBlocks]:
        while self.step < self.n:
            self.advance()
            if self.failed >= 0:
                t = self.failed * self.dt
                raise IntegrationError(f"state became non-finite at t={t:.6g} ({self._hint})", t)
            yield self

    @property
    def exited_omega(self) -> Optional[float]:
        """The time of the first step whose state left the triangle (see Trajectory), or None."""
        return None if self.exited < 0 else self.exited * self.dt

    @property
    def final_state(self) -> State:
        """The last recorded row, which is the final step's once the path has ended."""
        _, p, m = self.columns()
        return State(p[-1], m[-1])

    def trajectory(self) -> Trajectory:
        """The whole path: its blocks joined, in three columns of every recorded row.

        The columns are made once the rows are known to fit in memory, and
        each block is copied into them as it is stepped.
        """
        rows = _em.recorded_rows(self.n, self.stride)
        _check_recorded_bytes(rows * _PATH_ROW_BYTES)
        columns, row = [_em._zeros("d", rows) for _ in range(3)], 0
        for path in self:
            for column, block in zip(columns, path.columns()):
                memoryview(column)[row:row + path.rows] = block
            row += path.rows
        return Trajectory(*columns, self.exited_omega, self.scheme, self.lowest)


def ode_blocks(params: ModelParams, cfg: SimConfig) -> PathBlocks:
    """integrate_ode's path, stepped a block of recorded rows at a time (see _em.Recorder)."""
    rates = array("d", (params.r, params.alpha, params.delta, params.sigma, params.K))
    return PathBlocks(Scheme.RK4, rates, (float(cfg.initial[0]), float(cfg.initial[1])), cfg, params.K)


def sde_blocks(
    params: ModelParams,
    noise: NoiseSpec,
    anchor: Equilibrium,
    cfg: SimConfig,
    replicate: int = 0,
) -> PathBlocks:
    """integrate_sde's path, stepped a block of recorded rows at a time (see _em.Recorder)."""
    cell = _kernel_cell(params, anchor, noise, cfg.initial, math.inf)
    # the stream keys 2 * replicate + coordinate are 64-bit words
    if isinstance(replicate, bool) or not (isinstance(replicate, Integral) and 0 <= replicate < MAX_SEED // 2):
        raise ParameterError(f"replicate must be an integer in [0, 2**63), got {replicate!r}")
    return PathBlocks(Scheme.EULER_MARUYAMA, _em._cell_words([cell]), (cell.x1, cell.x2), cfg, params.K, replicate)


def integrate_ode(params: ModelParams, cfg: SimConfig) -> Trajectory:
    """Classical fourth-order Runge-Kutta path of the deterministic model.

    The path is stepped and recorded in the compiled library (_em.c), with
    model_core.field's arithmetic in its evaluation order, a block of rows
    at a time (ode_blocks), and the blocks are joined into the whole path,
    which holds its rows and one block besides.  The phase-space triangle is
    invariant for the exact flow, so a recorded exit means the step size is
    too large for these parameters.  Raises IntegrationError if the state
    becomes non-finite.
    """
    return ode_blocks(params, cfg).trajectory()


def integrate_sde(
    params: ModelParams,
    noise: NoiseSpec,
    anchor: Equilibrium,
    cfg: SimConfig,
    replicate: int = 0,
) -> Trajectory:
    """Euler-Maruyama path of the noise-perturbed model (Ito interpretation).

    Per step, with deviations x = (p - p*, m - m*) from the anchor:

        x1 <- x1 + drift1(x) dt + omega1 x1 dW1
        x2 <- x2 + drift2(x) dt + omega2 x2 dW2

    The drift is evaluated in the centred form, the drift matrix at the
    anchor plus one quadratic coupling (_em.c's EM_STEP, whose evaluation
    order the tests' reference recursion repeats), so the anchor is an exact
    fixed point of the discrete scheme: started there, both drift and noise
    vanish to the last bit for any noise level.
    The path is stepped and recorded by the compiled kernel's single-path
    entry point (_em.c's em_path), with the step and the normal draw of its
    ensembles, a block of rows at a time (sde_blocks), and the blocks are
    joined into the whole path, which holds its rows and one block besides.
    Increments come from the counter-based streams keyed (cfg.seed,
    replicate, coordinate), as replicate `replicate` of an ensemble draws
    them (brownian_increments gives the same numbers).

    Paths are not clamped to the phase-space triangle: noise can push them
    out (recorded via exited_omega) or below zero.  Raises IntegrationError
    when the state becomes non-finite.
    """
    return sde_blocks(params, noise, anchor, cfg, replicate).trajectory()


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,p,m` rows with full double precision (17 significant digits)."""
    write_csv(path, "t,p,m", [traj.columns()])
