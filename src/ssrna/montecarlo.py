"""Ensemble simulation and empirical estimators of stochastic stability.

The two stability notions being probed are asymptotic (expectations as
t -> infinity, suprema over all t >= 0).  The estimators here are finite-
horizon surrogates: the mean squared deviation from the anchor on the
recorded grid, and the fraction of replicates whose deviation ever exceeded
a radius epsilon1 at any integration step up to the horizon.  The mean at
each recorded time is over the replicates whose |x|^2 is finite there: a
state that is not finite stays so, and an |x|^2 may also overflow.  So each
row depends on the steps up to its time only.  The exceedance fraction is
over the replicates whose state is finite at the horizon.  Those whose
state is not are reported, since silently dropping them would bias the
estimates.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import accumulate, chain, product
from numbers import Real
from typing import Optional

from . import _em
from .errors import EnsembleError, Error, ParameterError, brief
from .linearization import linearize
from .model_core import (
    MAX_SEED,
    Equilibrium,
    ModelParams,
    NoiseSpec,
    _positive_finite,
    anchor_scale,
    basic_reproduction_number,
    displaced_initial,
    resolve_anchor,
    validate_params,
)
from .serialize import FloatArray, Record, _stored, fmt, is_ndarray, write_csv
from .simulator import (
    MAX_STEPS,
    SimConfig,
    _Cell,
    _check_recorded_bytes,
    _kernel_cell,
    brownian_increments,  # re-exported: the one-shot form of the streams drawn here
    step_count,
)
from .stability import check_mean_square_stability

__all__ = [
    "EnsembleConfig",
    "EnsembleStats",
    "SweepRow",
    "run_ensemble",
    "estimate_stability_in_probability",
    "wilson_interval",
    "sweep",
    "write_ensemble_csv",
    "write_sweep_csv",
]

class EnsembleConfig(Record):
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
            raise ParameterError(f"replicates must be an integer from 1 to 2**63, got {brief(self.replicates)}")
        object.__setattr__(self, "epsilon1", _positive_finite("epsilon1", self.epsilon1))  # squared in double precision
        if not (type(self.master_seed) is int and 0 <= self.master_seed < MAX_SEED):
            raise ParameterError(f"master_seed must be a 64-bit unsigned integer, got {brief(self.master_seed)}")


class EnsembleStats(Record):
    """Reduced statistics over the included (finite) replicates.

    times, mean_sq_dev and exceed_fraction_cum are float64 numpy arrays
    (FloatArray fields), one number per recorded step.
    """

    times: FloatArray = FloatArray()
    # sample mean of |x(t)|^2 on the recorded grid over the replicates whose |x(t)|^2 is
    # finite; at long horizons a few paths carry it, so it does not estimate E|x(t)|^2
    mean_sq_dev: FloatArray = FloatArray()
    exceed_fraction_cum: FloatArray = FloatArray()  # fraction whose sup-deviation exceeded epsilon1 by each time
    exceed_fraction: float
    n_replicates: int
    n_included: int
    n_exceed: int
    n_negative: int
    n_nonfinite: int


def _worker_count(replicates: int) -> int:
    """Threads an ensemble runs in: one per CPU this process may use, at most one per replicate.

    _em.slice_count cuts at least one slice per worker, so with at most one worker
    per replicate no slice is empty.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), replicates)


def _cell(cfg: EnsembleConfig, params: ModelParams) -> _Cell:
    return _kernel_cell(params, cfg.anchor, cfg.noise, cfg.sim.initial, cfg.epsilon1 * cfg.epsilon1)


def _ensembles(cells: Sequence[_Cell], cfg: EnsembleConfig, stride: int) -> tuple[_em.Sums, array]:
    """Euler-Maruyama ensembles of every cell of cfg, driven by shared increments: their sums, and the
    recorded times, an array('d').

    The horizon's steps are recorded every stride-th and at the last.  The
    size of the run's buffers is checked before anything is sized from its
    step count.  The R replicates are cut into S slices (_em.slice_count),
    slice s being replicates R*s//S to R*(s+1)//S - 1, and thread w of the W
    workers (this thread is thread 0) steps slices w, w + W, ... in its own
    Slice, one block of recorded rows (_em.block_rows) at a time.  Each
    replicate's numbers depend on its own streams only (see em_run in
    _em.c), so no result depends on the number of threads or the blocks.  A
    thread folds block b of slice s into the sums only once slice s - 1 has
    folded block b, so each row adds every replicate in index order, and the
    memory is the sums and one block per thread, whatever the horizon.  A
    fold adds the |x|^2 of a row that are finite there, which no later block
    changes, so every block of every slice is stepped and folded once.  The
    compiled kernel runs without the interpreter lock, so the threads step
    in parallel.  With more than one worker, thread w first moves to CPU w
    mod C of the C this process may use, and is then let run on all of them
    again: where the kernel balances no load between CPUs (a cpuset whose
    sched_load_balance is 0), it never moves a thread, and every thread
    would stay on the CPU this one runs on.  A thread that cannot move stays
    where it is.  The first exception raised in any thread stops the others
    before their next fold, and is raised here once every thread has been
    joined.  The times are made once the sums are, from the steps the kernel
    records (simulator.recorded_steps), one at a time.
    """
    replicates, dt, steps, workers = cfg.replicates, cfg.sim.dt, step_count(cfg.sim), _worker_count(cfg.replicates)
    _check_recorded_bytes(_em.ensemble_bytes(len(cells), steps, stride, workers, replicates))
    _em.library()  # built or loaded before any thread asks for it
    slices = _em.slice_count(replicates, workers)
    cpus = sorted(os.sched_getaffinity(0)) if workers > 1 and hasattr(os, "sched_setaffinity") else []
    sums = _em.Sums(len(cells), _em.recorded_rows(steps, stride))
    turn = threading.Condition()
    folded = Counter()  # per block, the slices folded into the sums so far
    failed = []   # exceptions raised in any thread, in the order raised

    def abort(exc: BaseException) -> None:
        with turn:
            failed.append(exc)
            turn.notify_all()

    def worker(w: int) -> None:
        """Step thread w's slices a block at a time and fold each block in its turn."""
        try:
            if cpus:
                try:  # to CPU w mod C, then all C again: it stays there while no load is balanced
                    os.sched_setaffinity(0, {cpus[w % len(cpus)]})
                    os.sched_setaffinity(0, cpus)
                except OSError:
                    pass  # it stays where it is
            buffer = _em.Slice(cells, cfg.master_seed, dt, steps, stride, replicates)
            for s in range(w, slices, workers):
                lo = replicates * s // slices
                n = replicates * (s + 1) // slices - lo
                b = 0
                while b == 0 or not buffer.done:  # the slice's blocks, from its first to its last
                    buffer.step(lo, n)
                    with turn:
                        turn.wait_for(lambda: folded[b] == s or failed)
                        if failed:
                            return
                        buffer.fold(sums)
                        folded[b] += 1
                        turn.notify_all()
                    b += 1
        except BaseException as exc:
            abort(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=worker, args=(w,))
            thread.start()
            threads.append(thread)
        worker(0)
        for thread in threads:
            thread.join()
    except BaseException as exc:  # a thread that would not start, or an interrupted join
        abort(exc)
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]
    return sums, array("d", (step * dt for step in chain(range(0, steps, stride), [steps])))


def _reduce(sums: _em.Sums, cell: int, times: array) -> EnsembleStats:
    """Statistics of one cell, from sums added in replicate-index order.

    Row k of mean_sq_dev divides by the replicates whose |x|^2 is finite at
    row k, and is NaN where there is none; the exceedance fractions divide
    by those whose state is finite at the end.  The ratios divide by the
    count converted to a float, as numpy divides an array by an int, so
    they equal the numpy reference's to the bit.  Each column is filled as
    an array('d'), one number at a time.
    """
    n_included, n_negative, n_nonfinite = sums.counts[3 * cell:3 * cell + 3]
    if n_included == 0:
        raise EnsembleError("all replicates became non-finite; no statistics available")
    row = slice(cell * len(times), (cell + 1) * len(times))
    exceed = memoryview(sums.exceed)[row]  # replicates whose first exceedance was at each recorded step
    n_exceed = sum(exceed)
    n_replicates, included = n_included + n_nonfinite, float(n_included)
    return EnsembleStats(
        times=times,
        mean_sq_dev=array("d", (sq / float(n_replicates - lost) if lost < n_replicates else math.nan
                                for sq, lost in zip(memoryview(sums.sq)[row], memoryview(sums.lost)[row]))),
        exceed_fraction_cum=array("d", (count / included for count in accumulate(exceed))),
        exceed_fraction=n_exceed / n_included,
        n_replicates=n_replicates,
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
    sums, times = _ensembles([_cell(cfg, params)], cfg, cfg.sim.record_stride)
    return _reduce(sums, 0, times)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Its ends are (2s + z^2 -+ z sqrt(z^2 + 4 s (n - s) / n)) / (2 (n + z^2))
    for s successes, and exactly 0 and 1 where s is 0 and n: in floating
    point the formula's lower end at s = 0, or upper end at s = n, may be
    an ulp off.
    """
    if n <= 0:
        raise ParameterError("Wilson interval needs at least one trial")
    if not 0 <= successes <= n:
        raise ParameterError(f"successes must lie in [0, {n}], got {successes!r}")
    z2 = z * z
    centre = 2.0 * successes + z2
    half = z * math.sqrt(z2 + 4.0 * successes * (n - successes) / n)
    denom = 2.0 * (n + z2)
    lo = 0.0 if successes == 0 else (centre - half) / denom
    hi = 1.0 if successes == n else (centre + half) / denom
    return lo, hi


# Included replicates below which an ensemble's interval estimate is too unreliable to report.
MIN_INTERVAL_REPLICATES = 30


def estimate_stability_in_probability(stats: EnsembleStats) -> tuple[float, tuple[float, float]]:
    """Point estimate and Wilson 95% interval for P{sup |x(t)| > epsilon1}.

    Requires at least MIN_INTERVAL_REPLICATES included replicates; below
    that the interval is too unreliable to report.
    """
    if stats.n_included < MIN_INTERVAL_REPLICATES:
        raise ParameterError(f"need at least {MIN_INTERVAL_REPLICATES} included replicates for an interval "
                             f"estimate, have {stats.n_included}")
    return stats.exceed_fraction, wilson_interval(stats.n_exceed, stats.n_included)


class SweepRow(Record):
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


def _grid_axes(grid, fields: tuple[str, ...], name: str) -> list[tuple[str, list[float]]]:
    """(field, values) per axis in field order, after checking the grid's shape and types."""
    if not isinstance(grid, dict):
        raise ParameterError(f"{name} must map field names to lists of numbers, got {brief(grid)}")
    for key, values in grid.items():
        if key not in fields:
            raise ParameterError(f"unknown grid field {brief(key)} (expected one of {fields})")
        is_list = (is_ndarray(values) and values.ndim == 1) or (
            isinstance(values, Sequence) and not isinstance(values, (str, bytes))
        )
        if not is_list or not all(isinstance(v, Real) and not isinstance(v, bool) for v in values):
            raise ParameterError(f"{name}.{key} must be a list of numbers, got {brief(values)}")
        if len(values) == 0:  # the sweep would run no cell
            raise ParameterError(f"{name}.{key} is empty: a grid axis needs at least one value")
        if any(type(v) is int and abs(v) > sys.float_info.max for v in values):  # JSON ints have no bound
            raise ParameterError(f"{name}.{key} holds an integer beyond floating-point range")
    # every value as the float its cell runs with, so a row holds what ran
    return [(key, [float(v) for v in grid[key]]) for key in fields if key in grid]


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
    cells = [
        _sweep_cell(dict(base_model, **{name: v for (name, _), v in zip(model_axes, mvals)}),
                    dict(base_noise, **{name: v for (name, _), v in zip(noise_axes, nvals)}),
                    template, displace_fraction, epsilon1_fraction)
        for mvals in product(*(vals for _, vals in model_axes))
        for nvals in product(*(vals for _, vals in noise_axes))
    ]
    batch = [cell for _, cell in cells if cell is not None]
    if batch:
        # a stride past every step count records the start and the end: a row reads only the end
        sums, times = _ensembles(batch, template, MAX_STEPS)

    rows = []
    integrated = iter(range(len(batch)))  # each cell's index in the batch, in grid order
    for row, cell in cells:
        if cell is not None:
            try:
                stats = _reduce(sums, next(integrated), times)
                row.update(exceed_fraction=stats.exceed_fraction, final_msd=_stored(stats, "mean_sq_dev")[-1],
                           n_negative=stats.n_negative, n_nonfinite=stats.n_nonfinite)
            except EnsembleError as exc:
                row.update(verdict="error", error=str(exc))
        rows.append(SweepRow(**row))
    return rows


def _sweep_cell(
    model_kwargs: dict[str, float],
    noise_kwargs: dict[str, float],
    template: EnsembleConfig,
    displace_fraction: Optional[float],
    epsilon1_fraction: Optional[float],
) -> tuple[dict, Optional[_Cell]]:
    """A cell's row fields and its batch cell; None, with the fields saying why, if it cannot be integrated."""
    nan = math.nan
    row = dict(model_kwargs, **noise_kwargs, R0=nan, verdict="error",
               exceed_fraction=nan, final_msd=nan, n_negative=0, n_nonfinite=0)
    try:
        params = validate_params(**model_kwargs)
        noise = NoiseSpec(**noise_kwargs)
        row["R0"] = basic_reproduction_number(params)
    except Error as exc:  # invalid cell: recorded, not raised
        return dict(row, error=str(exc)), None
    try:
        anchor = resolve_anchor(params, template.anchor.kind)
    except ParameterError as exc:
        return dict(row, verdict="nonexistent", error=str(exc)), None
    try:
        verdict = check_mean_square_stability(linearize(params, anchor), noise)
        row["verdict"] = "true" if verdict.conditions_met else "false"
        scale = anchor_scale(anchor, params.K)
        sim = template.sim
        if displace_fraction is not None:
            sim = sim.replace(initial=displaced_initial(anchor, displace_fraction, params.K))
        epsilon1 = template.epsilon1 if epsilon1_fraction is None else epsilon1_fraction * scale
        cfg = template.replace(sim=sim, noise=noise, anchor=anchor, epsilon1=epsilon1)
        return row, _cell(cfg, params)
    except Error as exc:
        return dict(row, verdict="error", error=str(exc)), None


def write_ensemble_csv(stats: EnsembleStats, path) -> None:
    """Write `t,mean_sq_dev,exceed_fraction_cum` rows at 17 significant digits."""
    write_csv(path, "t,mean_sq_dev,exceed_fraction_cum",
              [[_stored(stats, name) for name in ("times", "mean_sq_dev", "exceed_fraction_cum")]])


# a row's fields but its error, each with its writer: fmt for a float field,
# even if the grid gave it an int, and str for the verdict and the counts
_SWEEP_WRITERS = (*((name, fmt) for name in ("r", "alpha", "delta", "sigma", "K", "omega1", "omega2", "R0")),
                  ("verdict", str), ("exceed_fraction", fmt), ("final_msd", fmt), ("n_negative", str),
                  ("n_nonfinite", str))
SWEEP_COLUMNS = tuple(name for name, _ in _SWEEP_WRITERS)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write one row of SWEEP_COLUMNS per sweep cell, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(write(getattr(row, name)) for name, write in _SWEEP_WRITERS) + "\n")
