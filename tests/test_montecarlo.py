import functools
import math
import os
import signal
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssrna import (
    EnsembleConfig,
    EnsembleError,
    ModelParams,
    NoiseSpec,
    ParameterError,
    SimConfig,
    State,
    brownian_increments,
    centralized_rhs,
    estimate_stability_in_probability,
    integrate_ode,
    integrate_sde,
    linearize,
    origin_equilibrium,
    positive_equilibrium,
    run_ensemble,
    sweep,
    validate_params,
    wilson_interval,
)
from ssrna import _em, montecarlo, simulator
from ssrna.model_core import anchor_scale, displaced_initial
from ssrna.montecarlo import write_ensemble_csv, write_sweep_csv
from ssrna.simulator import recorded_steps, step_count
from ssrna.stability import gamma_bounds

from conftest import TUMV, use_workers


def tumv_ensemble_cfg(tumv, *, replicates, t_end, gamma_scale=0.5, displace=0.01,
                      eps_fraction=0.10, master_seed=12345, record_stride=8, dt=0.5):
    eq = positive_equilibrium(tumv)
    rep = linearize(tumv, eq)
    bound1, _ = gamma_bounds(rep, 0.0)
    g1 = gamma_scale * bound1
    _, bound2 = gamma_bounds(rep, g1)
    g2 = gamma_scale * bound2
    noise = NoiseSpec.from_gammas(g1, g2)
    scale = anchor_scale(eq, tumv.K)
    sim = SimConfig(dt=dt, t_end=t_end, initial=displaced_initial(eq, displace, tumv.K),
                    record_stride=record_stride)
    return EnsembleConfig(
        replicates=replicates, sim=sim, noise=noise, anchor=eq,
        epsilon1=eps_fraction * scale, master_seed=master_seed,
    ), eq, noise


# ---------------------------------------------------------------------------
# run_ensemble basics

def test_ensemble_at_anchor_is_identically_zero(tumv):
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=20.0, initial=State(eq.p_star, eq.m_star))
    cfg = EnsembleConfig(replicates=8, sim=sim, noise=NoiseSpec(0.3, 0.3), anchor=eq,
                         epsilon1=1.0, master_seed=99)
    stats = run_ensemble(cfg, tumv)
    assert (stats.mean_sq_dev == 0.0).all()
    assert stats.exceed_fraction == 0.0
    assert stats.n_negative == 0 and stats.n_nonfinite == 0


def test_single_replicate_zero_noise_equals_deterministic_path(tumv):
    cfg, eq, _ = tumv_ensemble_cfg(tumv, replicates=1, t_end=100.0)
    cfg = EnsembleConfig(replicates=1, sim=cfg.sim, noise=NoiseSpec(0.0, 0.0),
                         anchor=eq, epsilon1=cfg.epsilon1, master_seed=cfg.master_seed)
    stats = run_ensemble(cfg, tumv)
    traj = integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, cfg.sim, replicate=0)
    dev_sq = traj.deviations_sq(eq)
    assert stats.mean_sq_dev == pytest.approx(dev_sq, rel=1e-12)
    # bit-exact against the deviation-space recursion the scheme actually runs
    rep = linearize(tumv, eq)
    br, abr = tumv.b * tumv.r, tumv.alpha * tumv.b * tumv.r
    x1 = float(cfg.sim.initial[0]) - eq.p_star
    x2 = float(cfg.sim.initial[1]) - eq.m_star
    rows = [x1 * x1 + x2 * x2]
    n = math.ceil(cfg.sim.t_end / cfg.sim.dt - 1e-9)
    for i in range(n):
        g1 = rep.a11 * x1 + rep.a12 * x2 - br * (x1 + x2) * x2
        g2 = rep.a21 * x1 + rep.a22 * x2 - abr * (x1 + x2) * x1
        x1 = x1 + g1 * cfg.sim.dt
        x2 = x2 + g2 * cfg.sim.dt
        if (i + 1) % cfg.sim.record_stride == 0 or i + 1 == n:
            rows.append(x1 * x1 + x2 * x2)
    assert (stats.mean_sq_dev == np.asarray(rows)).all()


def test_zero_noise_deterministic_decay_matches_rk4_reference(tumv):
    cfg, eq, _ = tumv_ensemble_cfg(tumv, replicates=1, t_end=150.0)
    cfg = EnsembleConfig(replicates=1, sim=cfg.sim, noise=NoiseSpec(0.0, 0.0),
                         anchor=eq, epsilon1=cfg.epsilon1, master_seed=1)
    stats = run_ensemble(cfg, tumv)
    # monotone decay toward the equilibrium
    assert (np.diff(stats.mean_sq_dev) <= 1e-12 * stats.mean_sq_dev[0]).all()
    assert stats.mean_sq_dev[-1] < 1e-2 * stats.mean_sq_dev[0]
    # independent higher-order reference path
    ref = integrate_ode(tumv, cfg.sim)
    ref_sq = ref.deviations_sq(eq)
    assert stats.mean_sq_dev == pytest.approx(ref_sq, rel=0.06)


def test_zero_noise_exceedance_matches_deterministic_sup_exactly(tumv):
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=60.0, initial=displaced_initial(eq, 0.01, tumv.K))
    traj = integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, sim, replicate=0)
    sup = float(np.sqrt(traj.deviations_sq(eq).max()))
    for epsilon1, expected in ((sup * 1.0001, 0.0), (sup * 0.9999, 1.0)):
        cfg = EnsembleConfig(replicates=4, sim=sim, noise=NoiseSpec(0.0, 0.0), anchor=eq,
                             epsilon1=epsilon1, master_seed=3)
        stats = run_ensemble(cfg, tumv)
        assert stats.exceed_fraction == expected
        assert stats.exceed_fraction_cum[-1] == expected


def linearized_em_moments(rep, noise, dt, x0, n):
    """E|x|^2 and Var|x|^2 at steps 0..n of Euler-Maruyama on the linearization from x0, exactly.

    The step is x <- B x, B = F + sqrt(dt) diag(omega1 xi1, omega2 xi2) with F = I + dt A and
    independent standard normals xi.  So M = E x x^T follows M <- F M F^T + dt diag(omega1^2 M11,
    omega2^2 M22) (Higham, SIAM J. Numer. Anal. 38, 2000), and the mean of x's fourth Kronecker power
    follows the mean of B's, summed over which of F, xi1 and xi2 each factor takes, with E xi^2 = 1
    and E xi^4 = 3.
    """
    a = np.array([[rep.a11, rep.a12], [rep.a21, rep.a22]])
    f = np.eye(2) + dt * a
    parts = (f, math.sqrt(dt) * np.diag([noise.omega1, 0.0]), math.sqrt(dt) * np.diag([0.0, noise.omega2]))
    gauss = (1.0, 0.0, 1.0, 0.0, 3.0)  # E xi^k
    fourth = sum(gauss[c.count(1)] * gauss[c.count(2)]
                 * np.kron(np.kron(parts[c[0]], parts[c[1]]), np.kron(parts[c[2]], parts[c[3]]))
                 for c in product(range(3), repeat=4))
    m, v = np.outer(x0, x0), np.kron(np.kron(x0, x0), np.kron(x0, x0))
    mean, var = [np.trace(m)], [0.0]
    for _ in range(n):
        m = f @ m @ f.T + dt * np.diag([noise.omega1 ** 2 * m[0, 0], noise.omega2 ** 2 * m[1, 1]])
        v = fourth @ v
        mean.append(np.trace(m))
        var.append(max(0.0, np.einsum("iijj->", v.reshape(2, 2, 2, 2)) - mean[-1] ** 2))
    return np.array(mean), np.array(var)


@pytest.mark.parametrize("gamma_scale, replicates", [(0.0, 1), (0.5, 20000)], ids=["no-noise", "half-bounds"])
def test_mean_sq_dev_follows_the_exact_second_moments(tumv, gamma_scale, replicates):
    # An oracle for the step: started 1e-4 of the anchor's scale away, the quadratic coupling moves
    # |x|^2 by under 1e-4 of it up to t = 50, so mean_sq_dev is E|x|^2 of the linearization's
    # Euler-Maruyama to that, plus the sampling error of a mean of `replicates` paths, allowed 4
    # standard errors.  At half the gamma bounds, 20000 paths make one standard error 0.75% of
    # E|x|^2 at t = 10 and 4.8% at t = 50, where E|x|^2 has fallen to 0.44 of its start against
    # 0.17 without noise.
    cfg, eq, noise = tumv_ensemble_cfg(tumv, replicates=replicates, t_end=50.0, gamma_scale=gamma_scale,
                                       displace=1e-4, record_stride=1)
    x0 = np.array([cfg.sim.initial[0] - eq.p_star, cfg.sim.initial[1] - eq.m_star])
    mean, var = linearized_em_moments(linearize(tumv, eq), noise, cfg.sim.dt, x0, step_count(cfg.sim))
    stats = run_ensemble(cfg, tumv)
    assert np.all(np.abs(stats.mean_sq_dev - mean) <= 1e-4 * mean + 4.0 * np.sqrt(var / replicates))


def test_stochastic_decay_from_displaced_start(tumv):
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=100, t_end=400.0)
    stats = run_ensemble(cfg, tumv)
    assert stats.n_included == 100
    assert stats.mean_sq_dev[-1] < stats.mean_sq_dev[0]
    assert stats.exceed_fraction <= 0.05


@pytest.mark.usefixtures("deadline")
def test_ensemble_determinism_and_worker_independence(monkeypatch):
    # 17 replicates split unevenly over 2 and 3 threads, and one per thread
    # over 17, more than there are CPUs, with the interpreter switching
    # threads as often as it can, on paths with excursions, negative
    # populations and divergence
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=3)
    interval = sys.getswitchinterval()
    for noise, count in ((NoiseSpec(0.8, 0.8), "n_negative"), (NoiseSpec(3.5, 0.5), "n_nonfinite")):
        cfg = EnsembleConfig(replicates=17, sim=sim, noise=noise, anchor=origin_equilibrium(),
                             epsilon1=450.0, master_seed=4242)
        runs = []
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 1, 2, 3, 17):
                use_workers(monkeypatch, workers)
                runs.append(run_ensemble(cfg, p))
        finally:
            sys.setswitchinterval(interval)
        for other in runs[1:]:
            for name in other._fields:
                assert np.array_equal(getattr(runs[0], name), getattr(other, name)), name
        assert 0 < getattr(runs[0], count) < 17


def test_worker_count_follows_cpus_and_replicates(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert montecarlo._worker_count(1) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert montecarlo._worker_count(10**6) == cpus  # a caller's own threads take no CPU away
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert montecarlo._worker_count(10**6) == 1


@pytest.fixture
def deadline():
    """Fail, instead of hanging, if a wait on a thread never returns."""
    def expire(signum, frame):
        raise TimeoutError("no result from the ensemble threads within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Boom(Exception):
    """Raised in place of stepping a slice."""


def fail_step(monkeypatch, fails):
    """Step slices as usual, but raise Boom(first) where fails(first, block, in the main thread) holds.

    first is the first replicate of the slice, and block the index of the block of rows the call
    would step: a slice is stepped, and folded, a block at a time.
    """
    real = _em.Slice.step

    def step(self, first, n, excluded=None):
        block = 0 if self.done else self._next // self.block
        if fails(first, block, threading.current_thread() is threading.main_thread()):
            raise Boom(first)
        real(self, first, n, excluded)

    monkeypatch.setattr(_em.Slice, "step", step)


def use_block_rows(monkeypatch, rows):
    """Step ensembles and sweeps in blocks of `rows` recorded rows, whatever their horizon."""
    monkeypatch.setattr(_em, "block_rows", lambda n, stride: rows)


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("workers, replicates, failing, rows, block", [
    pytest.param(2, 7, 3, None, 0, id="2-7-3"),  # thread 1's first slice: slice 0 waits for nothing
    pytest.param(2, 300, 180, None, 0, id="2-300-180"),  # thread 1's second slice: the main thread waits on it
    pytest.param(3, 400, 228, None, 0, id="3-400-228"),  # thread 1's second slice: so does thread 2
    # the second block of thread 1's second slice, once the main thread has folded the first block of
    # slices 0 and 2: it waits on the second block; and so does thread 2, at 3 workers
    pytest.param(2, 300, 180, 1, 1, id="2-300-180-second-block"),
    pytest.param(3, 400, 228, 1, 1, id="3-400-228-second-block"),
])
def test_failed_thread_raises_its_exception(tumv, monkeypatch, workers, replicates, failing, rows, block):
    # the ensemble records 11 rows and the sweep 2, so that in blocks of one row both fail in their
    # second block
    before = threading.active_count()
    use_workers(monkeypatch, workers)
    if rows is not None:
        use_block_rows(monkeypatch, rows)
    fail_step(monkeypatch, lambda first, b, main: (first, b) == (failing, block) and not main)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=replicates, t_end=40.0)
    with pytest.raises(Boom, match=f"^{failing}$"):
        run_ensemble(cfg, tumv)
    assert threading.active_count() == before
    with pytest.raises(Boom, match=f"^{failing}$"):  # not an error row
        sweep(tumv, {}, {"omega1": [0.0, 0.1]}, small_sweep_template(tumv, replicates=replicates))
    assert threading.active_count() == before


@pytest.mark.usefixtures("deadline")
def test_other_threads_joined_when_main_thread_slice_raises(tumv, monkeypatch):
    before = threading.active_count()
    use_workers(monkeypatch, 3)
    fail_step(monkeypatch, lambda first, block, main: main)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=7, t_end=40.0)
    with pytest.raises(Boom, match="^0$"):
        run_ensemble(cfg, tumv)
    assert threading.active_count() == before


@pytest.mark.usefixtures("deadline")
def test_other_threads_joined_when_main_thread_raises_mid_slice(tumv, monkeypatch):
    # in blocks of one row, the main thread fails in the third block of slice 0, which threads 1
    # and 2 wait on for their third block
    before = threading.active_count()
    use_workers(monkeypatch, 3)
    use_block_rows(monkeypatch, 1)
    fail_step(monkeypatch, lambda first, block, main: main and block == 2)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=7, t_end=40.0)
    with pytest.raises(Boom, match="^0$"):
        run_ensemble(cfg, tumv)
    assert threading.active_count() == before


@pytest.mark.usefixtures("deadline")
def test_thread_that_cannot_start_stops_the_started_ones(tumv, monkeypatch):
    before, starts, real_start = threading.active_count(), [], threading.Thread.start

    def start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    use_workers(monkeypatch, 4)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=7, t_end=40.0)
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        run_ensemble(cfg, tumv)
    assert len(starts) == 2
    assert threading.active_count() == before


def test_ensemble_monotone_under_noise_load(tumv):
    # common random numbers: shared streams make the comparison tight
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=150.0, initial=displaced_initial(eq, 0.01, tumv.K),
                    record_stride=64)
    finals = []
    for lam in np.linspace(0.1, 1.0, 10):
        w = float(lam) * 0.14
        cfg = EnsembleConfig(replicates=100, sim=sim, noise=NoiseSpec(w, w), anchor=eq,
                             epsilon1=anchor_scale(eq, tumv.K), master_seed=31337)
        finals.append(run_ensemble(cfg, tumv).mean_sq_dev[-1])
    increases = np.diff(finals) >= 0.0
    assert increases.sum() >= 9


def test_ensemble_excludes_nonfinite_replicates():
    # noise far above any bound with a coarse step: some replicates overflow
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq = origin_equilibrium()
    sim = SimConfig(dt=1.0, t_end=300.0, initial=State(10.0, 10.0))
    cfg = EnsembleConfig(replicates=20, sim=sim, noise=NoiseSpec(1.4, 1.4), anchor=eq,
                         epsilon1=100.0, master_seed=2718)
    stats = run_ensemble(cfg, p)
    assert 0 < stats.n_nonfinite < 20
    assert stats.n_included == 20 - stats.n_nonfinite
    assert np.isfinite(stats.mean_sq_dev).all()


def test_ensemble_error_when_all_replicates_abort():
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq = origin_equilibrium()
    sim = SimConfig(dt=1.0, t_end=200.0, initial=State(10.0, 10.0))
    cfg = EnsembleConfig(replicates=3, sim=sim, noise=NoiseSpec(3.0, 3.0), anchor=eq,
                         epsilon1=100.0, master_seed=3)
    with pytest.raises(EnsembleError):
        run_ensemble(cfg, p)


def test_ensemble_config_validation(tumv):
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=10.0, initial=State(0.0, 0.0))
    with pytest.raises(ParameterError, match="replicates"):
        EnsembleConfig(replicates=0, sim=sim, noise=NoiseSpec(0, 0), anchor=eq,
                       epsilon1=1.0, master_seed=0)
    with pytest.raises(ParameterError, match="epsilon1"):
        EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0, 0), anchor=eq,
                       epsilon1=0.0, master_seed=0)
    with pytest.raises(ParameterError, match="master_seed"):
        EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0, 0), anchor=eq,
                       epsilon1=1.0, master_seed=-2)
    with pytest.raises(ParameterError, match="replicates"):
        EnsembleConfig(replicates=True, sim=sim, noise=NoiseSpec(0, 0), anchor=eq,
                       epsilon1=1.0, master_seed=0)
    with pytest.raises(ParameterError, match="master_seed"):
        EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0, 0), anchor=eq,
                       epsilon1=1.0, master_seed=False)
    for epsilon1 in (10**400, True, "a"):
        with pytest.raises(ParameterError, match="epsilon1"):
            EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0, 0), anchor=eq,
                           epsilon1=epsilon1, master_seed=0)


def reference_ensemble(params, cfg):
    """Scalar Euler-Maruyama per replicate on one-shot brownian_increments draws.

    Returns (mean_sq_dev, exceed_fraction_cum, n_negative, n_nonfinite) with
    the same exclusion rule and replicate-order summation as run_ensemble.
    """
    n = step_count(cfg.sim)
    rec = recorded_steps(n, cfg.sim.record_stride)
    msd = np.zeros(len(rec))
    first_exceed, n_negative, n_nonfinite = [], 0, 0
    for k in range(cfg.replicates):
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected below
            sq, first, negative = _reference_path(params, cfg, k, n, rec)
        if sq is None:
            n_nonfinite += 1
            continue
        msd += np.asarray(sq)
        first_exceed.append(first)
        n_negative += negative
    n_included = cfg.replicates - n_nonfinite
    cum = [sum(e is not None and e <= step for e in first_exceed) / n_included for step in rec]
    return msd / n_included, np.asarray(cum), n_negative, n_nonfinite


def test_ensemble_stats_hand_library_callers_float64_arrays():
    # the sums are reduced into array('d') buffers; a library caller reads
    # numpy arrays, bit for bit the reference's
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=2)
    cfg = EnsembleConfig(replicates=83, sim=sim, noise=NoiseSpec(0.8, 0.8), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    stats = run_ensemble(cfg, p)
    msd, cum, _, _ = reference_ensemble(p, cfg)
    times = np.asarray(recorded_steps(27, 2), dtype=np.int64) * sim.dt
    for got, want in ((stats.times, times), (stats.mean_sq_dev, msd), (stats.exceed_fraction_cum, cum)):
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (15,)
        assert got.tobytes() == want.tobytes()
    assert 0 < stats.n_exceed < stats.n_included


def _reference_path(params, cfg, k, n, rec):
    """(|x|^2 at the recorded steps, first step |x| > epsilon1, went negative), or Nones if it diverged."""
    eq, sim = cfg.anchor, cfg.sim
    eps_sq = cfg.epsilon1 * cfg.epsilon1
    dW1 = brownian_increments(cfg.master_seed, k, 0, n, sim.dt)
    dW2 = brownian_increments(cfg.master_seed, k, 1, n, sim.dt)
    x1, x2 = sim.initial[0] - eq.p_star, sim.initial[1] - eq.m_star
    sq, exceed_at, negative = [], None, False
    for i in range(n + 1):
        if i > 0:
            g1, g2 = centralized_rhs(params, eq, (x1, x2))
            x1 = x1 + g1 * sim.dt + cfg.noise.omega1 * x1 * dW1[i - 1]
            x2 = x2 + g2 * sim.dt + cfg.noise.omega2 * x2 * dW2[i - 1]
            if not (math.isfinite(x1) and math.isfinite(x2)):
                return None, None, None
        dsq = x1 * x1 + x2 * x2
        if i in rec:
            sq.append(dsq)
        if exceed_at is None and dsq > eps_sq:
            exceed_at = i
        negative = negative or eq.p_star + x1 < 0.0 or eq.m_star + x2 < 0.0
    return sq, exceed_at, negative


def test_slice_draws_the_top_stream_keys():
    # replicate 2**63 - 1 under the largest seed draws from the keys 2**64 - 2 and 2**64 - 1
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=3)
    cfg = EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0.8, 0.8), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=2**64 - 1)
    rec = recorded_steps(27, 3)
    buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, rec, cfg.replicates, len(rec))
    buffer.step(2**63 - 1, 1)
    sq, _, negative = _reference_path(p, cfg, 2**63 - 1, 27, rec)
    assert sq is not None and buffer.nonfinite[0] == 0
    assert buffer.sq[::buffer.stride].tolist() == sq  # rows x one cell x stride: replicate 0 of each row
    assert buffer.negative[0] == negative


@pytest.mark.parametrize("noise", [NoiseSpec(0.8, 0.8), NoiseSpec(3.5, 0.5)], ids=["excursions", "divergence"])
@pytest.mark.parametrize("n_steps", [5, 8, 9, 27])
def test_chunked_ensemble_equals_one_shot_increments(n_steps, noise):
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * n_steps, initial=State(300.0, 300.0), record_stride=3)
    cfg = EnsembleConfig(replicates=16, sim=sim, noise=noise, anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    stats = run_ensemble(cfg, p)
    msd, cum, n_negative, n_nonfinite = reference_ensemble(p, cfg)
    assert np.array_equal(stats.mean_sq_dev, msd)
    assert np.array_equal(stats.exceed_fraction_cum, cum)
    assert stats.exceed_fraction == cum[-1]
    assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite)
    if n_steps == 27:  # the comparison exercises every statistic
        assert 0.0 < stats.exceed_fraction < 1.0
        if noise.omega1 < 1.0:
            assert 0 < stats.n_negative < stats.n_included
        else:
            assert stats.n_nonfinite > 0


_COUPLED = dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)

# The slices' inputs: paths with excursions and negative populations; paths that diverge through
# the quadratic coupling; and, with the coupling rate r = 0 (ModelParams, the test hook), paths
# where only x1 diverges, so that x2 becomes non-finite only through 0 x inf, some in the last step.
slice_cases = pytest.mark.parametrize("p, noise", [
    (validate_params(**_COUPLED), NoiseSpec(0.8, 0.8)),
    (validate_params(**_COUPLED), NoiseSpec(3.5, 0.5)),
    (ModelParams(**dict(_COUPLED, r=0.0)), NoiseSpec(8e11, 0.5)),
], ids=["excursions", "divergence", "decoupled"])


@slice_cases
@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64])
def test_slice_widths_around_the_lane_count_equal_the_reference(scalar_library, n, p, noise):
    # On every CPU em_run widens a slice of n to a multiple of 8 by lanes that start at 0.0 on
    # increments of 0.0, and steps eight replicates per register where the CPU has AVX-512F, else
    # two: the scalar library takes the two on any CPU.  Under the divergence noise replicates 6
    # and 7 diverge, so the first group of 8 mixes finite and non-finite lanes.
    for library in (_em.library(), scalar_library):
        slice_width_equals_the_reference(library, n, p, noise)


def slice_width_equals_the_reference(library, n, p, noise):
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=3)
    cfg = EnsembleConfig(replicates=n, sim=sim, noise=noise, anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    rec = recorded_steps(27, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_em, "_lib", library)
        buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, rec, n, len(rec))
    assert buffer.stride == min(64, -(-n // 8) * 8)
    buffer.step(64, buffer.stride)  # outputs of another slice beyond n, which em_fold must not read
    buffer.step(0, n)
    for j in range(n):
        with np.errstate(over="ignore", invalid="ignore"):
            sq, exceed_at, negative = _reference_path(p, cfg, j, 27, rec)
        assert buffer.nonfinite[j] == (sq is None), j
        if sq is not None:
            assert buffer.sq[j::buffer.stride].tolist() == sq, j  # rows x one cell x stride
            assert buffer.first_exceed[j] == (-1 if exceed_at is None else bisect_left(rec, exceed_at)), j
            assert buffer.negative[j] == negative, j
    included = [j for j in range(n) if not buffer.nonfinite[j]]
    if noise.omega1 > 1.0 and n >= 7:
        assert 0 < sum(j < 8 for j in included) < min(n, 8)
    elif noise.omega1 < 1.0 and n >= 8:
        assert 0 < sum(buffer.negative[:n]) < n

    sums = _em.Sums(1, len(rec))
    buffer.fold(sums)
    sq = np.frombuffer(buffer.sq).reshape(len(rec), buffer.stride)[:, :n]
    assert np.array_equal(np.frombuffer(sums.sq), sum_included(sq, np.frombuffer(buffer.nonfinite, np.bool_)[:n]))
    assert list(sums.exceed) == [sum(buffer.first_exceed[j] == i for j in included) for i in range(len(rec))]
    assert list(sums.counts) == [len(included), sum(buffer.negative[j] for j in included), n - len(included)]


@slice_cases
def test_scalar_fallback_gives_the_same_bytes(monkeypatch, tmp_path, scalar_library, p, noise):
    # the default library refills and steps in AVX-512 lanes where the CPU has AVX-512F; on
    # other CPUs this compares the baseline path with itself
    assert scalar_library.em_refill_lanes() == 1
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=3)
    cfg = EnsembleConfig(replicates=301, sim=sim, noise=noise, anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    rec = recorded_steps(27, 3)
    runs = {}
    for name, lib in (("default", _em.library()), ("scalar", scalar_library)):
        monkeypatch.setattr(_em, "_lib", lib)
        stats = run_ensemble(cfg, p)
        write_ensemble_csv(stats, tmp_path / f"{name}-ensemble.csv")
        write_sweep_csv(sweep(p, {"r": [0.05, 0.1]}, {}, cfg), tmp_path / f"{name}-sweep.csv")
        buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, rec, cfg.replicates, len(rec))
        buffer.step(100, 37)
        runs[name] = (stats.n_negative, stats.n_nonfinite,
                      [(tmp_path / f"{name}-{command}.csv").read_bytes() for command in ("ensemble", "sweep")],
                      [(buffer.sq[j::buffer.stride].tobytes(), buffer.first_exceed[j], buffer.nonfinite[j],
                        buffer.negative[j]) for j in range(37)])
    assert runs["scalar"] == runs["default"]
    n_negative, n_nonfinite = runs["scalar"][:2]
    assert n_negative > 0 and (n_nonfinite > 0) == (noise.omega1 > 1.0)


@st.composite
def slice_batches(draw):
    """A slice of a batch of one or two cells, and the reference's inputs.

    Each cell is coupled, or decoupled (r = 0, where x1 and x2 meet only through 0 x inf), about
    the origin or the coexistence point, with noise from decaying to divergent on each coordinate.
    The slice is `width` replicates from `first` on, up to the top stream keys, of an ensemble of
    `replicates`, which sets the buffer's stride, recorded at strictly ascending steps from 0 to a
    short horizon.
    """
    # 0.8 and 3.5 make excursions and divergence within a few dozen steps; 1e30 overflows in about ten
    noise = st.one_of(st.sampled_from([0.0, 0.8, 3.5]), st.floats(-3.0, 32.0).map(lambda e: 10.0 ** e))
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        rates = dict(r=10.0 ** draw(st.floats(-2.0, 1.0)), alpha=draw(st.floats(0.05, 1.0)),
                     delta=10.0 ** draw(st.floats(-2.0, 0.0)), sigma=10.0 ** draw(st.floats(-2.0, 0.0)),
                     K=10.0 ** draw(st.floats(2.0, 8.0)))
        if draw(st.booleans()):
            params, anchor = ModelParams(**dict(rates, r=0.0)), origin_equilibrium()
        else:
            params, anchor = validate_params(**rates), origin_equilibrium()
            if positive_equilibrium(params).exists and draw(st.booleans()):
                anchor = positive_equilibrium(params)
        scale = anchor_scale(anchor, params.K)
        u, v = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        cells.append((params, anchor, NoiseSpec(draw(noise), draw(noise)),
                      State(anchor.p_star + u * scale, anchor.m_star + v * scale),
                      10.0 ** draw(st.floats(-3.0, 1.0)) * scale))
    n_steps = draw(st.integers(1, 24))
    inner = draw(st.sets(st.integers(1, n_steps - 1))) if n_steps > 1 else set()
    width = draw(st.integers(1, 64))
    replicates = draw(st.integers(width, 80))
    seed = draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    first = draw(st.one_of(st.integers(0, 100), st.just(2**63 - width), st.integers(0, 2**63 - width)))
    dt = draw(st.sampled_from([0.05, 0.25, 0.5, 1.0]))
    return cells, seed, first, width, replicates, dt, [0, *sorted(inner), n_steps]


# Decoupled cells whose one divergent coordinate overflows in step 11, the last: the other is still
# finite there, and becomes NaN only a step later, through 0 x inf.  A replicate is non-finite if
# either coordinate is, whichever the random examples happen to end on.
_DECOUPLED = ModelParams(**dict(_COUPLED, r=0.0))
_LAST_STEP_OVERFLOWS = ([(_DECOUPLED, origin_equilibrium(), NoiseSpec(w1, w2), State(500.0, 500.0), 450.0)
                         for w1, w2 in ((0.05, 1e30), (1e30, 0.05))], 7, 0, 16, 16, 0.25, [0, 5, 11])


@settings(max_examples=30)
@given(batch=slice_batches(), block=st.sampled_from([1, 2, 3, None]))
@example(batch=_LAST_STEP_OVERFLOWS, block=None)
@example(batch=_LAST_STEP_OVERFLOWS, block=2)  # the overflow is in the second block, after a fold
def test_slices_equal_the_reference_by_property(scalar_library, batch, block):
    # Slice.step and Slice.fold equal _reference_path byte for byte, on the default library (eight
    # lanes per register where the CPU has AVX-512F) and on the scalar one, whatever the stride, in
    # blocks of 1, 2 or 3 recorded rows or of every row.  A fold leaves out the replicates that are
    # non-finite by the end of its block; where one that an earlier fold counted ends non-finite
    # (late), the slice is stepped again with the replicates that ended non-finite left out from the start.
    cells, seed, first, width, replicates, dt, rec = batch
    n_steps, k = rec[-1], len(cells)
    cfgs = [EnsembleConfig(replicates=replicates, sim=SimConfig(dt=dt, t_end=n_steps * dt, initial=initial),
                           noise=noise, anchor=anchor, epsilon1=epsilon1, master_seed=seed)
            for _, anchor, noise, initial, epsilon1 in cells]
    with np.errstate(over="ignore", invalid="ignore"):
        paths = [[_reference_path(cell[0], cfg, first + j, n_steps, rec) for j in range(width)]
                 for cell, cfg in zip(cells, cfgs)]
        # the replicates that end non-finite but are finite at the last step of the first block
        block = block or len(rec)
        end = rec[min(block, len(rec)) - 1]
        late = sum(path[0] is None and (end == 0 or _reference_path(cell[0], cfg, first + j, end, [0])[0] is not None)
                   for cell, cfg, cell_paths in zip(cells, cfgs, paths) for j, path in enumerate(cell_paths))
    kernel_cells = [montecarlo._cell(cfg, cell[0]) for cell, cfg in zip(cells, cfgs)]
    for library in (_em.library(), scalar_library):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_em, "_lib", library)
            buffer = _em.Slice(kernel_cells, seed, dt, rec, replicates, block)
        stride = buffer.stride
        assert stride == min(64, -(-replicates // 8) * 8)
        assert buffer.block == block
        buffer.step(2**63 - stride, stride)  # another slice's outputs in every column, which em_fold must not read
        while not buffer.done:
            buffer.step(2**63 - stride, stride)
        sq_rows, excluded = [], None
        for _ in range(2):
            sums = _em.Sums(k, len(rec))
            buffer.step(first, width, excluded)
            while True:
                buffer.fold(sums)
                sq_rows.append(buffer.sq[:buffer.rows * k * stride])
                if buffer.done:
                    break
                buffer.step(first, width)
            assert buffer.late == (0 if excluded else late)
            if not buffer.late:
                break
            excluded, sq_rows = bytes(buffer.nonfinite), []
        sq = array("d", b"".join(rows.tobytes() for rows in sq_rows))  # recorded rows x cells x stride
        for c, cell_paths in enumerate(paths):
            included = [j for j, (sq_j, _, _) in enumerate(cell_paths) if sq_j is not None]
            assert list(buffer.nonfinite[c * stride:c * stride + width]) == [j not in included for j in range(width)]
            rows = [0.0] * len(rec)  # the reference's fold: each row adds the included replicates in index order
            exceed = [0] * len(rec)
            for j in included:
                sq_j, exceed_at, negative = cell_paths[j]
                assert sq[c * stride + j::k * stride].tobytes() == array("d", sq_j).tobytes(), (c, j)
                row = -1 if exceed_at is None else bisect_left(rec, exceed_at)
                assert (buffer.first_exceed[c * stride + j], buffer.negative[c * stride + j]) == (row, negative)
                rows = [acc + x for acc, x in zip(rows, sq_j)]
                if row >= 0:
                    exceed[row] += 1
            part = slice(c * len(rec), (c + 1) * len(rec))
            assert sums.sq[part].tobytes() == array("d", rows).tobytes()
            assert list(sums.exceed[part]) == exceed
            negatives = sum(cell_paths[j][2] for j in included)
            assert list(sums.counts[3 * c:3 * c + 3]) == [len(included), negatives, width - len(included)]


def test_ensemble_memory_does_not_grow_with_horizon(tumv):
    # Each thread holds one block of recorded rows, whatever the horizon.  Recorded at every step, a
    # horizon ten times as long adds to the peak no more than the run keeps per row: its sums (a
    # float64 and an int64), the recorded step and the statistics (t, the mean |x|^2 and the
    # exceedance fraction).  Slices that held every row added 64 columns of |x|^2 per thread.
    eq = positive_equilibrium(tumv)
    peaks = []
    for t_end in (5000.0, 50000.0):
        sim = SimConfig(dt=0.5, t_end=t_end, initial=displaced_initial(eq, 0.01, tumv.K), record_stride=1)
        cfg = EnsembleConfig(replicates=200, sim=sim, noise=NoiseSpec(0.05, 0.05), anchor=eq,
                             epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=5)
        assert _em.block_rows(step_count(sim), 1) == 4097  # at both horizons
        tracemalloc.start()  # it sees every thread's slice
        try:
            run_ensemble(cfg, tumv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    per_row = 2 * 8 + 8 + 3 * 8
    assert peaks[1] - peaks[0] <= (100001 - 10001) * per_row


def few_replicates_cfg(tumv, t_end):
    """Two replicates observed at every step of TuMV's coexistence point, at the CLI's default dt."""
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=simulator.default_dt(tumv, eq), t_end=t_end, initial=displaced_initial(eq, 0.01, tumv.K))
    return EnsembleConfig(replicates=2, sim=sim, noise=NoiseSpec(0.05, 0.05), anchor=eq,
                          epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=0)


def test_few_replicates_hold_few_columns(tumv, monkeypatch):
    # a slice holds columns for min(64, replicates) replicates, rounded up to 8, and one block of
    # rows: two replicates over 186254 recorded rows once held 64 columns of |x|^2 per row and
    # thread, 95 MB each, then 8, 12 MB each.  Now a thread holds 4097 rows of 8 columns, 262 kB,
    # and the run 48 B per row: its sums, the recorded steps and the statistics, 8.9 MB
    cfg = few_replicates_cfg(tumv, 100000.0)
    assert len(recorded_steps(step_count(cfg.sim), 1)) == 186254
    tracemalloc.start()  # it sees every thread's slice
    try:
        run_ensemble(cfg, tumv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # the same statistics as from 64 columns, on a tenth of the horizon
    cfg = few_replicates_cfg(tumv, 10000.0)
    runs = [run_ensemble(cfg, tumv)]
    monkeypatch.setattr(_em, "slice_stride", lambda replicates: _em.BLOCK)
    runs.append(run_ensemble(cfg, tumv))
    eight, sixty_four = ({name: value.tobytes() if isinstance(value, array) else value
                          for name, value in vars(stats).items()} for stats in runs)
    assert eight == sixty_four


# ---------------------------------------------------------------------------
# stability-in-probability estimation

@pytest.mark.parametrize("run", [
    lambda cfg, params: sweep(params, {}, {}, cfg),
    lambda cfg, params: run_ensemble(cfg, params),
], ids=["sweep", "ensemble"])
def test_increment_buffer_counts_against_memory(tumv, monkeypatch, run):
    # there is no increment buffer, and nothing per replicate: each thread
    # holds a slice of at least 8 columns, whose Philox streams take 5 kB,
    # so two workers need more than the 8 KiB this machine is made to have,
    # however few the replicates
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2}
    monkeypatch.setattr(simulator.os, "sysconf", pages.__getitem__)
    use_workers(monkeypatch, 2)

    def allocate(*args, **kwargs):
        pytest.fail("the batch was allocated before its size was checked")

    monkeypatch.setattr(montecarlo, "_euler_maruyama", allocate)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=2, t_end=10.0, record_stride=10**6)
    with pytest.raises(ParameterError, match="bytes"):
        run(cfg, tumv)


def sum_included(sq, nonfinite):
    """Per row of sq (rows, replicates), the sum over replicates not flagged nonfinite.

    The reduction the ensemble kernel once ran over every replicate's |x|^2
    (em_sum_included): it adds in replicate-index order from 0.0.
    """
    out = np.empty(len(sq))
    for i, row in enumerate(sq):
        acc = 0.0
        for x, bad in zip(row.tolist(), nonfinite.tolist()):
            if not bad:
                acc += x
        out[i] = acc
    return out


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_fold_over_many_slices(monkeypatch, workers):
    # 300 replicates make 5 slices: at 2 and 3 threads a thread folds more
    # than one slice, each in its turn, and replicates diverge in the middle slices
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0))
    cfg = EnsembleConfig(replicates=300, sim=sim, noise=NoiseSpec(3.5, 0.5), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    use_workers(monkeypatch, workers)
    stats = run_ensemble(cfg, p)

    msd, cum, n_negative, n_nonfinite = reference_ensemble(p, cfg)
    assert np.array_equal(stats.mean_sq_dev, msd)
    assert np.array_equal(stats.exceed_fraction_cum, cum)
    assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite)

    # every replicate's |x|^2 and flags, one slice at a time, summed as the
    # kernel once did over the whole matrix
    assert _em.slice_count(300, workers) == 5
    rec = recorded_steps(27, 1)
    buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, rec, cfg.replicates, len(rec))
    # numpy views of the slice buffer: rows x cells x stride, and cells x stride
    buffer_sq = np.frombuffer(buffer.sq).reshape(len(rec), 1, buffer.stride)
    buffer_first = np.frombuffer(buffer.first_exceed, np.int64).reshape(1, buffer.stride)
    buffer_nonfinite = np.frombuffer(buffer.nonfinite, np.bool_).reshape(1, buffer.stride)
    buffer_negative = np.frombuffer(buffer.negative, np.bool_).reshape(1, buffer.stride)
    sq, first, nonfinite, negative = [], [], [], []
    for s in range(5):
        lo, hi = 300 * s // 5, 300 * (s + 1) // 5
        buffer.step(lo, hi - lo)
        sq.append(buffer_sq[:, 0, :hi - lo].copy())
        first += buffer_first[0, :hi - lo].tolist()
        nonfinite += buffer_nonfinite[0, :hi - lo].tolist()
        negative += buffer_negative[0, :hi - lo].tolist()
    sq, nonfinite = np.concatenate(sq, axis=1), np.array(nonfinite)
    assert all(0 < nonfinite[60 * s:60 * (s + 1)].sum() < 60 for s in (1, 2, 3))
    n_included = 300 - int(nonfinite.sum())
    assert np.array_equal(stats.mean_sq_dev, sum_included(sq, nonfinite) / n_included)
    # the order shows in the bits: added backwards, some row differs
    assert not np.array_equal(sum_included(sq[:, ::-1], nonfinite[::-1]), sum_included(sq, nonfinite))
    exceeded = [sum(0 <= f <= i for f, bad in zip(first, nonfinite) if not bad) for i in range(len(rec))]
    assert np.array_equal(stats.exceed_fraction_cum, np.array(exceeded) / n_included)
    assert 0 < stats.n_exceed < n_included
    assert stats.n_negative == sum(neg and not bad for neg, bad in zip(negative, nonfinite))
    assert (stats.n_replicates, stats.n_included, stats.n_nonfinite) == (300, n_included, 300 - n_included)


_DIVERGENCE_CFGS = [EnsembleConfig(replicates=300, sim=SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0),
                                                                record_stride=2),
                                   noise=noise, anchor=origin_equilibrium(), epsilon1=450.0, master_seed=4242)
                    for noise in (NoiseSpec(3.5, 0.5), NoiseSpec(0.8, 0.8))]


@functools.cache
def divergence_reference(cell):
    """reference_ensemble of _DIVERGENCE_CFGS[cell]."""
    return reference_ensemble(validate_params(**_COUPLED), _DIVERGENCE_CFGS[cell])


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 3, None], ids=["1-row", "2-rows", "3-rows", "every-row"])
def test_blocks_of_rows_give_the_reference_bytes(monkeypatch, workers, rows):
    # 300 replicates make 5 slices, stepped and folded a block of rows at a time, in ensembles of one
    # cell and of two: under the divergence noise replicates turn non-finite from the first block to
    # the last, so that in blocks of a few rows the ensemble folds its first blocks again
    p = validate_params(**_COUPLED)
    use_workers(monkeypatch, workers)
    if rows is not None:
        use_block_rows(monkeypatch, rows)
    cells = [montecarlo._cell(cfg, p) for cfg in _DIVERGENCE_CFGS]
    for batch in (cells[:1], cells):
        sums, rec = montecarlo._ensembles(batch, _DIVERGENCE_CFGS[0], 2)
        assert rec.tolist() == recorded_steps(27, 2)
        for c in range(len(batch)):
            stats = montecarlo._reduce(sums, c, rec, 0.25)
            msd, cum, n_negative, n_nonfinite = divergence_reference(c)
            assert stats.mean_sq_dev.tobytes() == msd.tobytes()
            assert stats.exceed_fraction_cum.tobytes() == cum.tobytes()
            assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite)
            assert (n_nonfinite > 0) == (c == 0)


@pytest.mark.usefixtures("deadline")
def test_more_threads_than_cpus_fold_every_block_in_turn(monkeypatch):
    # 8 threads on 8 slices, switching as often as the interpreter allows, fold 14 blocks each, and run
    # again: a lost fold turn would add a row out of order, or twice
    p = validate_params(**_COUPLED)
    use_workers(monkeypatch, 8)
    use_block_rows(monkeypatch, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stats = run_ensemble(_DIVERGENCE_CFGS[0], p)
    finally:
        sys.setswitchinterval(interval)
    msd, cum, n_negative, n_nonfinite = divergence_reference(0)
    assert stats.mean_sq_dev.tobytes() == msd.tobytes()
    assert stats.exceed_fraction_cum.tobytes() == cum.tobytes()
    assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite)


def divergence_step(params, cfg, k, n):
    """The step in which replicate k of cfg turns non-finite, or None if it is finite at step n."""
    with np.errstate(over="ignore", invalid="ignore"):
        def finite(m):
            return _reference_path(params, cfg, k, m, [0])[0] is not None

        if finite(n):
            return None
        lo, hi = 0, n  # finite at step lo, non-finite at step hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if finite(mid) else (lo, mid)
        return hi


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("rows", [58, 20], ids=["within-the-first-block", "after-the-first-block"])
def test_a_counted_replicate_that_ends_non_finite_folds_its_blocks_again(monkeypatch, rows):
    # Under the divergence noise, 82 of the 128 replicates turn non-finite, from step 17 to step 57
    # of 60, each recorded.  In blocks of 58 rows every one does so within its first block, which the
    # first fold leaves it out of: 2 slices step through their 2 blocks once.  In blocks of 20 rows
    # most do so after the first fold counted them (late), the last in step 57, in the third block.
    # So the rows of the first two blocks are folded again: each slice steps through them once more,
    # leaving out from the start the replicates that it ended with non-finite.
    p = validate_params(**_COUPLED)
    sim = SimConfig(dt=0.25, t_end=0.25 * 60, initial=State(300.0, 300.0))
    cfg = EnsembleConfig(replicates=128, sim=sim, noise=NoiseSpec(3.5, 0.5), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    use_workers(monkeypatch, 2)
    use_block_rows(monkeypatch, rows)
    calls, real = [], _em.Slice.step

    def step(self, first, n, excluded=None):
        calls.append((first, excluded is not None))
        real(self, first, n, excluded)

    monkeypatch.setattr(_em.Slice, "step", step)
    stats = run_ensemble(cfg, p)
    diverged = [divergence_step(p, cfg, k, 60) for k in range(128)]
    late = [[d for d in diverged[lo:lo + 64] if d is not None and d >= rows] for lo in (0, 64)]
    assert min(d for d in diverged if d is not None) == 17 and max(d for d in diverged if d is not None) == 57
    blocks = -(-61 // rows)
    expected = Counter({(0, False): blocks, (64, False): blocks})
    if rows == 20:
        assert all(late) and max(map(max, late)) // rows == 2
        expected.update({(0, True): 2, (64, True): 2})
    else:
        assert not any(late)
    assert Counter(calls) == expected
    msd, cum, n_negative, n_nonfinite = reference_ensemble(p, cfg)
    assert stats.mean_sq_dev.tobytes() == msd.tobytes()
    assert stats.exceed_fraction_cum.tobytes() == cum.tobytes()
    assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite) and n_nonfinite == 82


def test_wilson_reference_values():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert hi == pytest.approx(0.0038, abs=5e-5)
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0
    lo, hi = wilson_interval(50, 1000)
    assert lo == pytest.approx(0.038, abs=1e-3)
    assert hi == pytest.approx(0.065, abs=1e-3)


@pytest.mark.parametrize("successes, n", [(5, 3), (-1, 10), (1, 0)])
def test_wilson_rejects_impossible_counts(successes, n):
    with pytest.raises(ParameterError):
        wilson_interval(successes, n)


def test_estimate_requires_thirty_replicates(tumv):
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=10, t_end=20.0)
    stats = run_ensemble(cfg, tumv)
    with pytest.raises(ParameterError, match="30"):
        estimate_stability_in_probability(stats)


def test_estimate_wires_counts_through(tumv):
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=40, t_end=20.0)
    stats = run_ensemble(cfg, tumv)
    est, (lo, hi) = estimate_stability_in_probability(stats)
    assert est == stats.exceed_fraction
    assert lo <= est <= hi


# ---------------------------------------------------------------------------
# displacement helpers

def test_displaced_initial_positive_anchor(tumv):
    eq = positive_equilibrium(tumv)
    init = displaced_initial(eq, 0.01, tumv.K)
    assert init.p == pytest.approx(1.01 * eq.p_star, rel=1e-15)
    assert init.m == pytest.approx(1.01 * eq.m_star, rel=1e-15)
    dist = math.hypot(init.p - eq.p_star, init.m - eq.m_star)
    assert dist == pytest.approx(0.01 * anchor_scale(eq, tumv.K), rel=1e-12)


def test_displaced_initial_origin_anchor():
    eq = origin_equilibrium()
    init = displaced_initial(eq, 0.01, 1000.0)
    assert math.hypot(init.p, init.m) == pytest.approx(10.0, rel=1e-12)
    assert anchor_scale(eq, 1000.0) == 1000.0


# ---------------------------------------------------------------------------
# sweep

def small_sweep_template(tumv, replicates=10):
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=40.0, initial=displaced_initial(eq, 0.01, tumv.K),
                    record_stride=8)
    return EnsembleConfig(replicates=replicates, sim=sim, noise=NoiseSpec(0.0, 0.0),
                          anchor=eq, epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=777)


def test_sweep_deterministic_cell(tumv):
    template = small_sweep_template(tumv)
    rows = sweep(tumv, {}, {}, template, displace_fraction=0.01, epsilon1_fraction=0.1)
    assert len(rows) == 1
    row = rows[0]
    assert row.verdict == "true"
    assert row.R0 == pytest.approx(4.287, abs=1e-3)
    assert row.final_msd < (0.01 * anchor_scale(positive_equilibrium(tumv), tumv.K)) ** 2
    assert row.error is None


def test_sweep_verdict_flips_across_gamma1_bound(tumv):
    template = small_sweep_template(tumv)
    omegas = [math.sqrt(2.0 * 0.015), math.sqrt(2.0 * 0.025)]  # straddle 0.02000961
    rows = sweep(tumv, {}, {"omega1": omegas}, template,
                 displace_fraction=0.01, epsilon1_fraction=0.1)
    assert [row.verdict for row in rows] == ["true", "false"]


def test_sweep_grid_reproducible(tumv):
    template = small_sweep_template(tumv, replicates=5)
    grids = ({"r": [0.1211, 0.15, 0.2]}, {"omega1": [0.0, 0.05, 0.1]})
    rows_a = sweep(tumv, *grids, template, displace_fraction=0.01, epsilon1_fraction=0.1)
    rows_b = sweep(tumv, *grids, template, displace_fraction=0.01, epsilon1_fraction=0.1)
    assert len(rows_a) == 9
    assert rows_a == rows_b  # bitwise: all floats compare equal


def test_sweep_records_cell_failures_in_row(tumv):
    template = small_sweep_template(tumv, replicates=5)
    # r low enough that R0 < 1: the coexistence anchor disappears
    rows = sweep(tumv, {"r": [0.1211, 0.01]}, {}, template,
                 displace_fraction=0.01, epsilon1_fraction=0.1)
    assert rows[0].verdict == "true"
    assert rows[1].verdict == "nonexistent"
    assert rows[1].error is not None
    assert math.isnan(rows[1].final_msd)


def test_sweep_rejects_unknown_grid_fields(tumv):
    template = small_sweep_template(tumv)
    with pytest.raises(ParameterError, match="unknown grid field"):
        sweep(tumv, {"bogus": [1.0]}, {}, template)


def test_sweep_accepts_numpy_and_range_grids(tumv):
    template = small_sweep_template(tumv, replicates=3)
    lists = sweep(tumv, {"r": [0.1211, 0.25], "K": [2000.0, 3000.0]}, {"omega1": [0.0, 0.05, 0.1]}, template)
    arrays = sweep(tumv, {"r": np.array([0.1211, 0.25]), "K": range(2000, 3001, 1000)},
                   {"omega1": np.linspace(0.0, 0.1, 3)}, template)
    assert arrays == lists
    assert all(type(row.omega1) is float for row in arrays)
    for bad in (np.array([[0.1]]), np.array([True]), "0.1", b"\x01", {0.1}):
        with pytest.raises(ParameterError, match="noise_grid.omega1"):
            sweep(tumv, {}, {"omega1": bad}, template)


def test_sweep_common_random_numbers(tumv):
    # identical noise cells in different sweeps see identical increments
    template = small_sweep_template(tumv)
    rows_a = sweep(tumv, {}, {"omega1": [0.1]}, template, displace_fraction=0.01,
                   epsilon1_fraction=0.1)
    rows_b = sweep(tumv, {}, {"omega1": [0.1, 0.2]}, template, displace_fraction=0.01,
                   epsilon1_fraction=0.1)
    assert rows_a[0] == rows_b[0]


def test_sweep_rows_equal_standalone_ensembles(tumv):
    # batching cells, sharing their increments and recording only the final
    # step must not change a row
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=150.0, initial=displaced_initial(eq, 0.01, tumv.K),
                    record_stride=8)
    template = EnsembleConfig(replicates=20, sim=sim, noise=NoiseSpec(0.05, 0.05), anchor=eq,
                              epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=2024)
    rows = sweep(tumv, {"r": [0.1211, 0.3, 0.01]}, {"omega1": [0.05, 1.0, 2.0, 3.0]}, template,
                 displace_fraction=0.01, epsilon1_fraction=0.1)
    assert [row.verdict for row in rows] == ["true", "false", "false", "error"] * 2 + ["nonexistent"] * 4
    assert 0.0 < rows[1].exceed_fraction < 1.0
    assert rows[2].n_nonfinite > 0 and rows[2].n_negative > 0
    for row in rows[:8]:
        params = validate_params(**dict(TUMV, r=row.r))
        anchor = positive_equilibrium(params)
        cfg = template.replace(sim=sim.replace(initial=displaced_initial(anchor, 0.01, params.K)),
                               noise=NoiseSpec(row.omega1, row.omega2), anchor=anchor,
                               epsilon1=0.1 * anchor_scale(anchor, params.K))
        if row.verdict == "error":  # every replicate diverged
            with pytest.raises(EnsembleError) as exc:
                run_ensemble(cfg, params)
            assert row.error == str(exc.value)
            assert math.isnan(row.final_msd) and math.isnan(row.exceed_fraction)
            continue
        stats = run_ensemble(cfg, params)
        assert row.final_msd == stats.mean_sq_dev[-1]
        assert row.exceed_fraction == stats.exceed_fraction
        assert (row.n_negative, row.n_nonfinite) == (stats.n_negative, stats.n_nonfinite)
        assert row.error is None


def test_start_outside_epsilon1_has_exceeded_at_step_0(tumv):
    # a sweep records the start and the end of each cell; its row still
    # equals the ensemble that records every stride-th step
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=60.0, initial=displaced_initial(eq, 0.2, tumv.K), record_stride=8)
    template = EnsembleConfig(replicates=20, sim=sim, noise=NoiseSpec(0.05, 0.05), anchor=eq,
                              epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=31)
    rows = sweep(tumv, {}, {"omega1": [0.05, 0.3]}, template)
    for row in rows:
        stats = run_ensemble(template.replace(noise=NoiseSpec(row.omega1, row.omega2)), tumv)
        assert stats.exceed_fraction_cum[0] == 1.0 and stats.n_exceed == stats.n_included == 20
        assert row.final_msd == stats.mean_sq_dev[-1]
        assert row.exceed_fraction == stats.exceed_fraction == 1.0
        assert (row.n_negative, row.n_nonfinite) == (stats.n_negative, stats.n_nonfinite)


def test_sweep_propagates_bugs_instead_of_recording_them(tumv, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(montecarlo, "check_mean_square_stability", broken)
    with pytest.raises(ZeroDivisionError):
        sweep(tumv, {}, {}, small_sweep_template(tumv, replicates=2))


# ---------------------------------------------------------------------------
# file outputs

def test_write_ensemble_csv(tmp_path, tumv):
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=5, t_end=20.0)
    stats = run_ensemble(cfg, tumv)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(stats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean_sq_dev,exceed_fraction_cum"
    assert len(lines) == 1 + len(stats.times)
    t, msd, cum = lines[1].split(",")
    assert float(t) == stats.times[0]
    assert float(msd) == stats.mean_sq_dev[0]
    assert float(cum) == stats.exceed_fraction_cum[0]


def test_write_sweep_csv(tmp_path, tumv):
    template = small_sweep_template(tumv, replicates=3)
    rows = sweep(tumv, {}, {"omega1": [0.0, 0.1]}, template,
                 displace_fraction=0.01, epsilon1_fraction=0.1)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("r,alpha,delta,sigma,K,omega1,omega2,R0,"
                        "verdict,exceed_fraction,final_msd,n_negative,n_nonfinite")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == TUMV["r"]
    assert first[8] in ("true", "false")
