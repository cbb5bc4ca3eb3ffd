"""Ensemble simulation and empirical estimators of stochastic stability.

The two stability notions being probed are asymptotic (expectations as
t -> infinity, suprema over all t >= 0).  The estimators here are finite-
horizon surrogates: the mean squared deviation from the anchor on the
recorded grid, and the fraction of replicates whose deviation ever exceeded
a radius epsilon1 at any integration step up to the horizon.  Replicates
whose state becomes non-finite are excluded from both statistics and
reported, since silently dropping them would bias the estimates.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import threading
import traceback
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import product
from numbers import Real
from typing import Optional, Union

import numpy as np

from .errors import EnsembleError, Error, ParameterError
from .linearization import linearize
from .model_core import (
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    State,
    basic_reproduction_number,
    origin_equilibrium,
    positive_equilibrium,
    validate_params,
)
from .serialize import fmt
from .simulator import (
    SimConfig,
    _drift,
    _Drift,
    _drift_coefficients,
    _wiener_stream,
    brownian_increments,  # re-exported: the one-shot form of the streams drawn here
    check_anchor,
    recorded_steps,
    step_count,
)
from .stability import NoiseSpec, check_mean_square_stability

__all__ = [
    "EnsembleConfig",
    "EnsembleStats",
    "SweepRow",
    "run_ensemble",
    "estimate_stability_in_probability",
    "wilson_interval",
    "sweep",
    "displaced_initial",
    "anchor_scale",
    "write_ensemble_csv",
    "write_sweep_csv",
]

_MAX_SEED = 2**64


@dataclass(frozen=True)
class EnsembleConfig:
    """Replicated-SDE run: how many paths, from where, and what counts as an excursion."""

    replicates: int
    sim: SimConfig
    noise: NoiseSpec
    anchor: Equilibrium
    epsilon1: float
    master_seed: int

    def __post_init__(self):
        if not (isinstance(self.replicates, int) and self.replicates >= 1):
            raise ParameterError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not (math.isfinite(self.epsilon1) and self.epsilon1 > 0.0):
            raise ParameterError(f"epsilon1 must be positive, got {self.epsilon1!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < _MAX_SEED):
            raise ParameterError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")


@dataclass(frozen=True)
class EnsembleStats:
    """Reduced statistics over the included (finite) replicates."""

    times: np.ndarray
    # sample mean of |x(t)|^2 over the included replicates on the recorded
    # grid; at long horizons a few paths carry it, so it does not estimate E|x(t)|^2
    mean_sq_dev: np.ndarray
    exceed_fraction_cum: np.ndarray  # fraction whose sup-deviation exceeded epsilon1 by each time
    exceed_fraction: float
    n_replicates: int
    n_included: int
    n_exceed: int
    n_negative: int
    n_nonfinite: int


def _worker_count(replicates: int) -> int:
    """Processes an ensemble runs in: one per CPU this process may use, at most one per replicate.

    Only a single-threaded process forks: a fork copies just the calling
    thread, so a lock another thread holds would stay locked in the worker.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), replicates)


# Steps of Wiener increments drawn per chunk.  Every standard_normal call
# costs about 2 us whatever its length, so chunks are long enough to make
# that negligible, while the (2, C, replicates) buffer stays bounded
# whatever the horizon.
_CHUNK_STEPS = 512


@dataclass(frozen=True)
class _Cell:
    """Constants of one ensemble in a batch: drift, noise, anchor, start, radius."""

    drift: _Drift
    omega1: float
    omega2: float
    p_star: float
    m_star: float
    x1: float  # initial deviation from the anchor
    x2: float
    eps_sq: float


def _cell(cfg: EnsembleConfig, params: ModelParams) -> _Cell:
    anchor = cfg.anchor
    check_anchor(params, anchor)
    return _Cell(
        drift=_drift_coefficients(params, anchor),
        omega1=cfg.noise.omega1,
        omega2=cfg.noise.omega2,
        p_star=anchor.p_star,
        m_star=anchor.m_star,
        x1=float(cfg.sim.initial[0]) - anchor.p_star,
        x2=float(cfg.sim.initial[1]) - anchor.m_star,
        eps_sq=cfg.epsilon1 * cfg.epsilon1,
    )


@dataclass(frozen=True)
class _Paths:
    """Per-replicate results of a batch; the leading axes are (cells, replicates)."""

    sq: np.ndarray            # (recorded steps, cells, replicates): |x|^2
    first_exceed: np.ndarray  # first recorded step by which |x| exceeded epsilon1, else -1
    negative: np.ndarray      # a population went below zero at some step
    nonfinite: np.ndarray     # the state overflowed; excluded from every statistic


def _euler_maruyama(
    cells: Sequence[_Cell],
    replicates: int,
    master_seed: int,
    dt: float,
    n_steps: int,
    rec: Sequence[int],
) -> _Paths:
    """Euler-Maruyama paths of every cell's replicates, driven by shared increments.

    The replicates are split into one contiguous range per worker
    (_worker_count).  This process integrates the first range; a forked
    worker integrates each other one and writes its slice of the results
    into anonymous shared memory.  Each replicate's numbers depend on its
    own streams only (see _shard), so no result depends on the number of
    workers.  A worker that fails raises RuntimeError here, after every
    worker has been reaped.  Workers are forked rather than spawned: they
    start with the batch already in memory instead of importing numpy and
    this package again (about 0.2 s each).
    """
    workers = _worker_count(replicates)
    shape = (len(cells), replicates)
    empty = np.empty if workers == 1 else _shared_empty
    out = _Paths(empty((len(rec), *shape)), empty(shape, np.int64), empty(shape, bool), empty(shape, bool))
    bounds = [replicates * w // workers for w in range(workers + 1)]
    args = (cells, master_seed, dt, n_steps, rec, out)
    pids = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:  # worker: integrate, then leave without the parent's cleanup
                status = 1
                try:
                    _shard(lo, hi, *args)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            pids.append(pid)
        _shard(bounds[0], bounds[1], *args)
    except BaseException:
        for pid in pids:  # their results would be discarded
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, lo, hi in zip(codes, bounds[1:-1], bounds[2:]):
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"the worker integrating replicates {lo}..{hi - 1} {how}")
    return out


def _shared_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialised array in anonymous shared memory, which forked workers write into."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, count * dtype.itemsize), dtype, count).reshape(shape)


def _shard(
    lo: int,
    hi: int,
    cells: Sequence[_Cell],
    master_seed: int,
    dt: float,
    n_steps: int,
    rec: Sequence[int],
    out: _Paths,
) -> None:
    """Integrate replicates lo..hi-1 of every cell and write their slice of `out`.

    Replicate k of every cell uses the streams keyed (master_seed, k,
    coordinate).  They are drawn C steps at a time into buffers that
    broadcast over the cell axis, so a batch draws its increments once;
    counter-based streams give the same numbers as one brownian_increments
    call over the whole horizon.  Per-element arithmetic is that of
    simulator.integrate_sde, so no result depends on the batch, the chunk
    or the range.

    Only the running maximum of |x|^2 and the running minimum of each
    deviation are kept per step.  Exceedance is resolved at the steps in
    `rec`, which is all the cumulative exceedance curve needs.  A non-finite
    state stays non-finite, so divergence is detected once per chunk.
    """

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float).reshape(-1, 1)

    drift = _Drift(*(column(v) for v in zip(*(c.drift for c in cells))))
    w1 = column([c.omega1 for c in cells])
    w2 = column([c.omega2 for c in cells])
    eps_sq = column([c.eps_sq for c in cells])
    p_star = column([c.p_star for c in cells])
    m_star = column([c.m_star for c in cells])
    shape = (len(cells), hi - lo)
    x1 = np.broadcast_to(column([c.x1 for c in cells]), shape).copy()
    x2 = np.broadcast_to(column([c.x2 for c in cells]), shape).copy()

    dsq = x1 * x1 + x2 * x2
    sup, low1, low2 = dsq.copy(), x1.copy(), x2.copy()
    sq = out.sq[:, :, lo:hi]
    first_exceed = out.first_exceed[:, lo:hi]
    first_exceed[...] = -1
    nonfinite = out.nonfinite[:, lo:hi]
    nonfinite[...] = False
    col = 0

    def observe(step: int) -> None:
        nonlocal col
        sq[col] = dsq
        col += 1
        np.copyto(first_exceed, step, where=(first_exceed < 0) & (sup > eps_sq))

    if rec[0] == 0:
        observe(0)

    chunk = min(_CHUNK_STEPS, n_steps)
    streams = [[_wiener_stream(master_seed, k, c) for k in range(lo, hi)] for c in (0, 1)]
    draw = np.empty(chunk)
    dW = np.empty((2, chunk, hi - lo))
    sqrt_dt = math.sqrt(dt)
    # diverging replicates overflow to inf/nan; that is the detection
    # mechanism, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, chunk):
            m = min(chunk, n_steps - start)
            for c, gens in enumerate(streams):
                for k, gen in enumerate(gens):
                    gen.standard_normal(out=draw[:m])
                    dW[c, :m, k] = draw[:m]
            dW[:, :m] *= sqrt_dt
            for i in range(m):
                g1, g2 = _drift(drift, x1, x2)
                x1 = x1 + g1 * dt + w1 * x1 * dW[0, i]
                x2 = x2 + g2 * dt + w2 * x2 * dW[1, i]
                dsq = x1 * x1 + x2 * x2
                np.maximum(sup, dsq, out=sup)
                np.minimum(low1, x1, out=low1)
                np.minimum(low2, x2, out=low2)
                if col < len(rec) and rec[col] == start + i + 1:
                    observe(start + i + 1)
            died = ~(np.isfinite(x1) & np.isfinite(x2))
            nonfinite |= died
            x1[died] = 0.0  # freeze: keeps NaNs out of later vector ops
            x2[died] = 0.0

    # p* + x1 is monotone in x1, so the running minimum decides negativity
    out.negative[:, lo:hi] = (p_star + low1 < 0.0) | (m_star + low2 < 0.0)


def _reduce(paths: _Paths, cell: int, rec: Sequence[int], dt: float) -> EnsembleStats:
    """Statistics of one cell over its finite replicates, summed in replicate-index order."""
    sq = paths.sq[:, cell]
    nonfinite = paths.nonfinite[cell]
    included = ~nonfinite
    n = len(included)
    n_included = int(included.sum())
    if n_included == 0:
        raise EnsembleError("all replicates became non-finite; no statistics available")

    # replicate-index-order accumulation keeps the reduction bitwise stable
    msd = np.zeros(len(rec))
    for k in np.flatnonzero(included):
        msd += sq[:, k]
    msd /= n_included

    rec_arr = np.asarray(rec, dtype=np.int64)
    fe = paths.first_exceed[cell][included]
    exceeded = fe >= 0
    cum = np.empty(len(rec))
    for j, step in enumerate(rec_arr):
        cum[j] = np.count_nonzero(exceeded & (fe <= step)) / n_included

    n_exceed = int(np.count_nonzero(exceeded))
    return EnsembleStats(
        times=rec_arr * dt,
        mean_sq_dev=msd,
        exceed_fraction_cum=cum,
        exceed_fraction=n_exceed / n_included,
        n_replicates=n,
        n_included=n_included,
        n_exceed=n_exceed,
        n_negative=int(np.count_nonzero(paths.negative[cell] & included)),
        n_nonfinite=int(np.count_nonzero(nonfinite)),
    )


def run_ensemble(cfg: EnsembleConfig, params: ModelParams) -> EnsembleStats:
    """Integrate cfg.replicates independent noise-perturbed paths and reduce.

    Statistics are deterministic given (cfg, master_seed): replicate k's
    Wiener increments come from the stream keyed (master_seed, k, coordinate),
    and the reduction sums replicates in index order.  This is the one-cell
    case of the batched kernel that sweep uses.
    """
    cell = _cell(cfg, params)
    n_steps = step_count(cfg.sim)
    rec = recorded_steps(n_steps, cfg.sim.record_stride)
    paths = _euler_maruyama([cell], cfg.replicates, cfg.master_seed, cfg.sim.dt, n_steps, rec)
    return _reduce(paths, 0, rec, cfg.sim.dt)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ParameterError("Wilson interval needs at least one trial")
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p_hat + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def estimate_stability_in_probability(stats: EnsembleStats) -> tuple[float, tuple[float, float]]:
    """Point estimate and Wilson 95% interval for P{sup |x(t)| > epsilon1}.

    Requires at least 30 included replicates; below that the interval is
    too unreliable to report.
    """
    if stats.n_included < 30:
        raise ParameterError(
            f"need at least 30 included replicates for an interval estimate, have {stats.n_included}"
        )
    return stats.exceed_fraction, wilson_interval(stats.n_exceed, stats.n_included)


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


@dataclass(frozen=True)
class SweepRow:
    """One (parameter, noise) cell of a sweep."""

    r: float
    alpha: float
    delta: float
    sigma: float
    K: float
    omega1: float
    omega2: float
    r0: float
    verdict: str                     # "true" | "false" | "nonexistent" | "error"
    exceed_fraction: float
    final_msd: float
    n_negative: int
    n_nonfinite: int
    error: Optional[str] = None


_MODEL_FIELDS = ("r", "alpha", "delta", "sigma", "K")
_NOISE_FIELDS = ("omega1", "omega2")


def _resolve_anchor(params: ModelParams, kind: EquilibriumKind) -> Equilibrium:
    if kind is EquilibriumKind.ORIGIN:
        return origin_equilibrium()
    if kind is EquilibriumKind.POSITIVE:
        eq = positive_equilibrium(params)
        if not eq.exists:
            raise ParameterError("coexistence anchor does not exist for these parameters (R0 <= 1)")
        return eq
    raise ParameterError(f"unsupported anchor kind {kind!r}")


def _grid_axes(grid, fields: tuple[str, ...], name: str) -> list[tuple[str, list[float]]]:
    """(field, values) per axis in field order, after checking the grid's shape and types."""
    if not isinstance(grid, dict):
        raise ParameterError(f"{name} must map field names to lists of numbers, got {grid!r}")
    for key, values in grid.items():
        if key not in fields:
            raise ParameterError(f"unknown grid field {key!r} (expected one of {fields})")
        is_list = (isinstance(values, np.ndarray) and values.ndim == 1) or (
            isinstance(values, Sequence) and not isinstance(values, (str, bytes))
        )
        if not is_list or not all(isinstance(v, Real) and not isinstance(v, bool) for v in values):
            raise ParameterError(f"{name}.{key} must be a list of numbers, got {values!r}")
    # numpy and other reals become floats; ints are kept, as JSON gives them
    return [(key, [v if type(v) is int else float(v) for v in grid[key]])
            for key in fields if key in grid]


def sweep(
    base_params: ModelParams,
    model_grid: dict[str, Sequence[float]],
    noise_grid: dict[str, Sequence[float]],
    template: EnsembleConfig,
    anchor_kind: EquilibriumKind = EquilibriumKind.POSITIVE,
    displace_fraction: Optional[float] = None,
    epsilon1_fraction: Optional[float] = None,
) -> list[SweepRow]:
    """One ensemble per (model, noise) grid cell, plus the analytic verdict.

    Grids map field names to value lists; absent fields keep their base
    values and the cartesian product is taken in field order.  Every cell
    reuses the template's master_seed, dt and horizon, so compared cells see
    identical Wiener increments (common random numbers); the cells are
    integrated as one batch that draws those increments once.  When given,
    displace_fraction and epsilon1_fraction re-derive each cell's initial
    state and exceedance radius from that cell's anchor; otherwise the
    template's absolute values apply everywhere.  A failed cell produces a
    row with verdict "error" (or "nonexistent") and NaN statistics instead
    of aborting the sweep.
    """
    model_axes = _grid_axes(model_grid, _MODEL_FIELDS, "model_grid")
    noise_axes = _grid_axes(noise_grid, _NOISE_FIELDS, "noise_grid")
    base_model = {name: getattr(base_params, name) for name in _MODEL_FIELDS}
    base_noise = {"omega1": template.noise.omega1, "omega2": template.noise.omega2}

    rows: list[Optional[SweepRow]] = []
    pending: list[tuple[int, dict, _Cell]] = []  # (row index, row fields, cell) still to integrate
    for mvals in product(*(vals for _, vals in model_axes)):
        model_kwargs = dict(base_model, **{name: v for (name, _), v in zip(model_axes, mvals)})
        for nvals in product(*(vals for _, vals in noise_axes)):
            noise_kwargs = dict(base_noise, **{name: v for (name, _), v in zip(noise_axes, nvals)})
            resolved = _sweep_cell(model_kwargs, noise_kwargs, template, anchor_kind,
                                   displace_fraction, epsilon1_fraction)
            if isinstance(resolved, SweepRow):
                rows.append(resolved)
            else:
                pending.append((len(rows), *resolved))
                rows.append(None)

    if pending:
        n_steps = step_count(template.sim)
        final = [n_steps]  # a row holds only the final mean squared deviation
        paths = _euler_maruyama([cell for _, _, cell in pending], template.replicates,
                                template.master_seed, template.sim.dt, n_steps, final)
        for j, (i, base, _) in enumerate(pending):
            try:
                stats = _reduce(paths, j, final, template.sim.dt)
            except EnsembleError as exc:
                rows[i] = SweepRow(**dict(base, verdict="error"), error=str(exc))
                continue
            rows[i] = SweepRow(**dict(
                base,
                exceed_fraction=stats.exceed_fraction,
                final_msd=float(stats.mean_sq_dev[-1]),
                n_negative=stats.n_negative,
                n_nonfinite=stats.n_nonfinite,
            ))
    return rows


def _sweep_cell(
    model_kwargs: dict[str, float],
    noise_kwargs: dict[str, float],
    template: EnsembleConfig,
    anchor_kind: EquilibriumKind,
    displace_fraction: Optional[float],
    epsilon1_fraction: Optional[float],
) -> Union[SweepRow, tuple[dict, _Cell]]:
    """A finished row for a cell that cannot be integrated, else its row fields and batch cell."""
    nan = math.nan
    base = dict(model_kwargs, **noise_kwargs, r0=nan, verdict="error",
                exceed_fraction=nan, final_msd=nan, n_negative=0, n_nonfinite=0)
    try:
        params = validate_params(**model_kwargs)
        noise = NoiseSpec(**noise_kwargs)
        base["r0"] = basic_reproduction_number(params)
    except Error as exc:  # invalid cell: recorded, not raised
        return SweepRow(**base, error=str(exc))
    try:
        anchor = _resolve_anchor(params, anchor_kind)
    except ParameterError as exc:
        base["verdict"] = "nonexistent"
        return SweepRow(**base, error=str(exc))
    try:
        verdict = check_mean_square_stability(linearize(params, anchor), noise)
        base["verdict"] = "true" if verdict.conditions_met else "false"
        scale = anchor_scale(anchor, params.K)
        sim = template.sim
        if displace_fraction is not None:
            sim = replace(sim, initial=displaced_initial(anchor, displace_fraction, params.K))
        epsilon1 = template.epsilon1 if epsilon1_fraction is None else epsilon1_fraction * scale
        cfg = replace(template, sim=sim, noise=noise, anchor=anchor, epsilon1=epsilon1)
        return base, _cell(cfg, params)
    except Error as exc:
        base["verdict"] = "error"
        return SweepRow(**base, error=str(exc))


def write_ensemble_csv(stats: EnsembleStats, path) -> None:
    """Write `t,mean_sq_dev,exceed_fraction_cum` rows at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_sq_dev,exceed_fraction_cum\n")
        for t, msd, cum in zip(stats.times, stats.mean_sq_dev, stats.exceed_fraction_cum):
            fh.write(f"{fmt(float(t))},{fmt(float(msd))},{fmt(float(cum))}\n")


SWEEP_COLUMNS = (
    "r", "alpha", "delta", "sigma", "K", "omega1", "omega2", "R0",
    "verdict", "exceed_fraction", "final_msd", "n_negative", "n_nonfinite",
)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write one named-column row per sweep cell at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    [
                        fmt(row.r), fmt(row.alpha), fmt(row.delta), fmt(row.sigma), fmt(row.K),
                        fmt(row.omega1), fmt(row.omega2), fmt(row.r0),
                        row.verdict,
                        fmt(row.exceed_fraction), fmt(row.final_msd),
                        str(row.n_negative), str(row.n_nonfinite),
                    ]
                )
                + "\n"
            )
