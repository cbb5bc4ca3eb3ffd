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

from . import _em
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
from .serialize import fmt, write_csv
from .simulator import (
    MAX_SEED,
    SimConfig,
    _Cell,
    _drift_coefficients,
    _check_recorded_bytes,
    _ensemble_bytes,
    _recording,
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
    "resolve_anchor",
    "write_ensemble_csv",
    "write_sweep_csv",
]

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
        # replicate k draws from the streams keyed by the 64-bit words 2k and 2k + 1
        if not (type(self.replicates) is int and 1 <= self.replicates <= MAX_SEED // 2):
            raise ParameterError(f"replicates must be an integer from 1 to 2**63, got {self.replicates!r}")
        if not (math.isfinite(self.epsilon1) and self.epsilon1 > 0.0):
            raise ParameterError(f"epsilon1 must be positive, got {self.epsilon1!r}")
        if not (type(self.master_seed) is int and 0 <= self.master_seed < MAX_SEED):
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
    """Processes an ensemble runs in: one per CPU this process may use, at most one per slice.

    _slices cuts at least one slice per worker, so with at most one worker
    per replicate no slice is empty.  Only a single-threaded process forks:
    a fork copies just the calling thread, so a lock another thread holds
    would stay locked in the worker.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), replicates)


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
class _Sums:
    """An ensemble batch's statistics, summed over its finite replicates in index order."""

    sq: np.ndarray      # (cells, recorded steps): sum of |x|^2
    exceed: np.ndarray  # (cells, recorded steps): replicates whose |x| first exceeded epsilon1 there
    counts: np.ndarray  # (cells, 3): included, negative (a population went below zero) and non-finite


# Exit status of a worker that stopped because the ring broke before it: the
# member that broke it reports its own status.
_RING_BROKEN = 75


class _RingBroken(Exception):
    """A member of the ring died, so the token will not come."""


def _slices(replicates: int, workers: int) -> int:
    """How many slices an ensemble is cut into: slices of at most _em.BLOCK replicates, and one per worker at least."""
    return max(workers, -(-replicates // _em.BLOCK))


def _euler_maruyama(
    cells: Sequence[_Cell],
    replicates: int,
    master_seed: int,
    dt: float,
    rec: Sequence[int],
) -> _Sums:
    """Euler-Maruyama ensembles of every cell, driven by shared increments, folded into sums.

    The replicates are cut into S slices (_slices), slice s being
    replicates R*s//S to R*(s+1)//S - 1, and worker w of W (_worker_count;
    this process is worker 0) integrates slices w, w + W, ... into its own
    slice buffer.  Each replicate's numbers depend on its own streams only
    (see _shard), so no result depends on the number of workers.  A token
    passes round a ring of pipes, worker w reading from pipe w and writing
    to pipe w + 1 mod W: once it holds the token after slice s - 1, a
    worker folds slice s into the sums and passes the token on.  So the
    sums add every replicate in index order, and the memory is the sums and
    one slice buffer per process, whatever the replicate count.  Each
    process closes the pipe ends it does not use, so a worker that dies
    breaks the ring: the next member reads end-of-file and stops, and so on
    round the ring.  A worker that fails raises RuntimeError here, after
    every worker has been reaped.  Workers are forked rather than spawned:
    they start with the batch and the compiled kernel, which is built or
    loaded here first, already in memory instead of importing numpy and
    this package again (about 0.2 s each).
    """
    _em.library()
    workers = _worker_count(replicates)
    slices = _slices(replicates, workers)
    shape = (len(cells), len(rec))
    zeros = np.zeros if workers == 1 else _shared_zeros
    sums = _Sums(zeros(shape), zeros(shape, np.int64), zeros((len(cells), 3), np.int64))
    ring, open_fds, pids = [], set(), []

    def member(w: int) -> None:
        """Integrate and fold worker w's slices, holding only its own ends of the ring.

        It also holds the read end of the pipe it writes to, so a write
        never fails: a member learns that the ring broke by reading
        end-of-file, once the member before it is gone.
        """
        ends = {ring[w][0], *ring[(w + 1) % workers]}
        for fd in open_fds - ends:
            os.close(fd)
        open_fds.intersection_update(ends)
        buffer = _em.Slice(cells, master_seed, dt, rec)
        for s in range(w, slices, workers):
            _shard(replicates * s // slices, replicates * (s + 1) // slices, buffer)
            if not os.read(ring[w][0], 1):
                raise _RingBroken
            buffer.fold(sums.sq, sums.exceed, sums.counts)
            if s + 1 < slices:
                os.write(ring[(w + 1) % workers][1], b"t")

    try:
        for _ in range(workers):
            ring.append(os.pipe())
            open_fds.update(ring[-1])
        os.write(ring[0][1], b"t")  # slice 0 waits for nothing
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:  # worker: integrate, then leave without the parent's cleanup
                status = 1
                try:
                    member(w)
                    status = 0
                except _RingBroken:
                    status = _RING_BROKEN
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            pids.append(pid)
        try:
            member(0)
        except _RingBroken:
            pass  # a worker died: its status is reported below
    except BaseException:
        for pid in pids:  # their results would be discarded
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in open_fds:  # so that no worker waits on this process
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    failed = [(code, w) for w, code in enumerate(codes, 1) if code]
    if failed:
        code, w = min(failed, key=lambda failure: failure[0] == _RING_BROKEN)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        spans = [f"{replicates * s // slices}..{replicates * (s + 1) // slices - 1}"
                 for s in range(w, slices, workers)]
        raise RuntimeError(f"the worker integrating replicates {', '.join(spans[:3])}"
                           f"{', ...' if len(spans) > 3 else ''} {how}")
    return sums


def _shared_zeros(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A zeroed array in anonymous shared memory, which forked workers write into."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, count * dtype.itemsize), dtype, count).reshape(shape)


def _shard(lo: int, hi: int, buffer: _em.Slice) -> None:
    """Integrate replicates lo..hi-1 of every cell of the buffer's batch into it.

    One call of the compiled kernel (_em.c) steps the whole horizon.
    Replicate k of every cell draws from the streams keyed (master_seed, k,
    coordinate), once per step for all cells, so a batch draws its
    increments once.  The step is simulator._drift's arithmetic in its
    evaluation order, so no result depends on the batch or the slice.

    Only the running maximum of |x|^2 and the running minimum of each
    deviation are kept per step.  Exceedance is resolved at the recorded
    steps, which is all the cumulative exceedance curve needs, and
    negativity from the minima (p* + x is monotone).  A non-finite state
    stays non-finite, so divergence is detected, and the state frozen at 0,
    at the step where it is first seen.
    """
    buffer.step(lo, hi - lo)


def _reduce(sums: _Sums, cell: int, rec: Sequence[int], dt: float) -> EnsembleStats:
    """Statistics of one cell over its finite replicates, from sums added in replicate-index order."""
    n_included, n_negative, n_nonfinite = (int(count) for count in sums.counts[cell])
    if n_included == 0:
        raise EnsembleError("all replicates became non-finite; no statistics available")
    # replicates that had exceeded by each recorded step
    exceeded = np.cumsum(sums.exceed[cell])
    n_exceed = int(exceeded[-1])
    return EnsembleStats(
        times=np.asarray(rec, dtype=np.int64) * dt,
        mean_sq_dev=sums.sq[cell] / n_included,
        exceed_fraction_cum=exceeded / n_included,
        exceed_fraction=n_exceed / n_included,
        n_replicates=n_included + n_nonfinite,
        n_included=n_included,
        n_exceed=n_exceed,
        n_negative=n_negative,
        n_nonfinite=n_nonfinite,
    )


def run_ensemble(cfg: EnsembleConfig, params: ModelParams) -> EnsembleStats:
    """Integrate cfg.replicates independent noise-perturbed paths and reduce.

    Statistics are deterministic given (cfg, master_seed): replicate k's
    Wiener increments come from the stream keyed (master_seed, k, coordinate),
    and the reduction sums replicates in index order.  This is the one-cell
    case of the batched kernel that sweep uses.
    """
    cell = _cell(cfg, params)
    n_steps = _recording(cfg.sim, *_ensemble_bytes(1, _worker_count(cfg.replicates)))
    rec = recorded_steps(n_steps, cfg.sim.record_stride)
    sums = _euler_maruyama([cell], cfg.replicates, cfg.master_seed, cfg.sim.dt, rec)
    return _reduce(sums, 0, rec, cfg.sim.dt)


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
    R0: float
    verdict: str                     # "true" | "false" | "nonexistent" | "error"
    exceed_fraction: float
    final_msd: float
    n_negative: int
    n_nonfinite: int
    error: Optional[str] = None


_MODEL_FIELDS = ("r", "alpha", "delta", "sigma", "K")
_NOISE_FIELDS = ("omega1", "omega2")


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
        if any(type(v) is int and abs(v) > sys.float_info.max for v in values):  # JSON ints have no bound
            raise ParameterError(f"{name}.{key} holds an integer beyond floating-point range")
    # numpy and other reals become floats; ints are kept, as JSON gives them
    return [(key, [v if type(v) is int else float(v) for v in grid[key]])
            for key in fields if key in grid]


def sweep(
    base_params: ModelParams,
    model_grid: dict[str, Sequence[float]],
    noise_grid: dict[str, Sequence[float]],
    template: EnsembleConfig,
    displace_fraction: Optional[float] = None,
    epsilon1_fraction: Optional[float] = None,
) -> list[SweepRow]:
    """One ensemble per (model, noise) grid cell, plus the analytic verdict.

    Grids map field names to value lists; absent fields keep their base
    values and the cartesian product is taken in field order.  Every cell
    reuses the template's master_seed, dt and horizon, so compared cells see
    identical Wiener increments (common random numbers); the cells are
    integrated as one batch that draws those increments once.  Each cell is
    anchored at its own equilibrium of the template anchor's kind.  When given,
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
            resolved = _sweep_cell(model_kwargs, noise_kwargs, template,
                                   displace_fraction, epsilon1_fraction)
            if isinstance(resolved, SweepRow):
                rows.append(resolved)
            else:
                pending.append((len(rows), *resolved))
                rows.append(None)

    if pending:
        _check_recorded_bytes(1, *_ensemble_bytes(len(pending), _worker_count(template.replicates)))
        final = [step_count(template.sim)]  # a row holds only the final mean squared deviation
        sums = _euler_maruyama([cell for _, _, cell in pending], template.replicates,
                               template.master_seed, template.sim.dt, final)
        for j, (i, base, _) in enumerate(pending):
            try:
                stats = _reduce(sums, j, final, template.sim.dt)
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
    displace_fraction: Optional[float],
    epsilon1_fraction: Optional[float],
) -> Union[SweepRow, tuple[dict, _Cell]]:
    """A finished row for a cell that cannot be integrated, else its row fields and batch cell."""
    nan = math.nan
    base = dict(model_kwargs, **noise_kwargs, R0=nan, verdict="error",
                exceed_fraction=nan, final_msd=nan, n_negative=0, n_nonfinite=0)
    try:
        params = validate_params(**model_kwargs)
        noise = NoiseSpec(**noise_kwargs)
        base["R0"] = basic_reproduction_number(params)
    except Error as exc:  # invalid cell: recorded, not raised
        return SweepRow(**base, error=str(exc))
    try:
        anchor = resolve_anchor(params, template.anchor.kind)
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
    write_csv(path, "t,mean_sq_dev,exceed_fraction_cum",
              (stats.times, stats.mean_sq_dev, stats.exceed_fraction_cum))


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
                        fmt(row.omega1), fmt(row.omega2), fmt(row.R0),
                        row.verdict,
                        fmt(row.exceed_fraction), fmt(row.final_msd),
                        str(row.n_negative), str(row.n_nonfinite),
                    ]
                )
                + "\n"
            )
