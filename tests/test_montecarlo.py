import atexit
import math
import os
import signal
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from ssrna import (
    EnsembleConfig,
    EnsembleError,
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
from ssrna.montecarlo import anchor_scale, displaced_initial, write_ensemble_csv, write_sweep_csv
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


def test_stochastic_decay_from_displaced_start(tumv):
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=100, t_end=400.0)
    stats = run_ensemble(cfg, tumv)
    assert stats.n_included == 100
    assert stats.mean_sq_dev[-1] < stats.mean_sq_dev[0]
    assert stats.exceed_fraction <= 0.05


def test_ensemble_determinism_and_worker_independence(monkeypatch):
    # 17 replicates split unevenly over 2 and 3 workers, on paths with
    # excursions, negative populations and divergence
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=3)
    for noise, count in ((NoiseSpec(0.8, 0.8), "n_negative"), (NoiseSpec(3.5, 0.5), "n_nonfinite")):
        cfg = EnsembleConfig(replicates=17, sim=sim, noise=noise, anchor=origin_equilibrium(),
                             epsilon1=450.0, master_seed=4242)
        runs = []
        for workers in (1, 1, 2, 3):
            use_workers(monkeypatch, workers)
            runs.append(run_ensemble(cfg, p))
        for other in runs[1:]:
            for f in fields(other):
                assert np.array_equal(getattr(runs[0], f.name), getattr(other, f.name)), f.name
        assert 0 < getattr(runs[0], count) < 17


def test_worker_count_follows_cpus_and_replicates():
    cpus = len(os.sched_getaffinity(0))
    assert montecarlo._worker_count(10**6) == cpus
    assert montecarlo._worker_count(1) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert montecarlo._worker_count(10**6) == 1  # no fork beside another thread
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.fixture
def deadline():
    """Fail, instead of hanging, if a wait on a worker never returns."""
    def expire(signum, frame):
        raise TimeoutError("no result from the ensemble workers within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def fail_shards(monkeypatch, where, failure):
    """Two workers; `failure` runs in place of the shard of the "parent" or of the forked "worker"."""
    use_workers(monkeypatch, 2)
    parent, real = os.getpid(), montecarlo._shard

    def shard(*args):
        here = "parent" if os.getpid() == parent else "worker"
        (failure if here == where else real)(*args)

    monkeypatch.setattr(montecarlo, "_shard", shard)


def interrupted(*args):
    raise KeyboardInterrupt  # what a worker must not hand back to a pytest session


def exits_7(*args):
    os._exit(7)


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("failure, status", [(interrupted, 1), (exits_7, 7)], ids=["raises", "exits"])
def test_failed_worker_raises_with_its_status(tumv, tmp_path, monkeypatch, failure, status):
    carried_on = tmp_path / "carried-on"
    parent = os.getpid()

    def mark_if_forked():  # a worker that returned into pytest would get here on exit
        if os.getpid() != parent:
            carried_on.touch()

    atexit.register(mark_if_forked)
    try:
        fail_shards(monkeypatch, "worker", failure)
        cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=7, t_end=40.0)
        with pytest.raises(RuntimeError, match=f"replicates 3..6 exited with status {status}"):
            run_ensemble(cfg, tumv)
        with pytest.raises(RuntimeError, match=f"exited with status {status}"):  # not an error row
            sweep(tumv, {}, {"omega1": [0.0, 0.1]}, small_sweep_template(tumv, replicates=4))
    finally:
        atexit.unregister(mark_if_forked)
    assert not carried_on.exists()


@pytest.mark.usefixtures("deadline")
def test_workers_reaped_when_parent_shard_raises(tumv, monkeypatch):
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def broken(*args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(os, "fork", recording_fork)
    fail_shards(monkeypatch, "parent", broken)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=7, t_end=40.0)
    with pytest.raises(ZeroDivisionError):
        run_ensemble(cfg, tumv)
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forked[0], os.WNOHANG)


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("workers, replicates, spans", [
    (2, 300, "60..119, 180..239"),  # the parent waits on the dead worker
    (3, 400, "57..113, 228..284"),  # so does the next worker, which then stops
])
def test_worker_dying_on_a_later_slice_breaks_the_ring(tumv, monkeypatch, workers, replicates, spans):
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    parent, real, stepped = os.getpid(), montecarlo._shard, []
    worker_1 = replicates // montecarlo._slices(replicates, workers)  # where its first slice starts

    def shard(lo, *args):
        if os.getpid() != parent:
            stepped.append(lo)
            if stepped[0] == worker_1 and len(stepped) == 2:
                os._exit(7)
        real(lo, *args)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(montecarlo, "_shard", shard)
    use_workers(monkeypatch, workers)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=replicates, t_end=40.0)
    with pytest.raises(RuntimeError, match=f"^the worker integrating replicates {spans} exited with status 7$"):
        run_ensemble(cfg, tumv)
    assert len(forked) == workers - 1
    for pid in forked:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)


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


def test_ensemble_memory_does_not_grow_with_horizon(tumv, monkeypatch):
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=10000.0, initial=displaced_initial(eq, 0.01, tumv.K),
                    record_stride=100)
    cfg = EnsembleConfig(replicates=200, sim=sim, noise=NoiseSpec(0.05, 0.05), anchor=eq,
                         epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=5)
    n = step_count(sim)
    assert n == 20000
    whole_horizon_buffers = 2 * cfg.replicates * n * 8  # both coordinates' increments at once
    use_workers(monkeypatch, 1)  # tracemalloc sees neither shared memory nor workers
    tracemalloc.start()
    try:
        run_ensemble(cfg, tumv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole_horizon_buffers / 4


# ---------------------------------------------------------------------------
# stability-in-probability estimation

@pytest.mark.parametrize("run", [
    lambda cfg, params: sweep(params, {}, {}, cfg),
    lambda cfg, params: run_ensemble(cfg, params),
], ids=["sweep", "ensemble"])
def test_increment_buffer_counts_against_memory(tumv, monkeypatch, run):
    # there is no increment buffer, and nothing per replicate: each process
    # holds a slice buffer of 64 replicates, whose Philox streams, state and
    # results for one cell take 15 kB, so two workers need more than the
    # 16 KiB this machine is made to have, however few the replicates
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4}
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
    # 300 replicates make 5 slices: at 2 and 3 workers the token goes round
    # the ring more than once, and replicates diverge in the middle slices
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
    assert montecarlo._slices(300, workers) == 5
    rec = recorded_steps(27, 1)
    buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, rec)
    sq, first, nonfinite, negative = [], [], [], []
    for s in range(5):
        lo, hi = 300 * s // 5, 300 * (s + 1) // 5
        buffer.step(lo, hi - lo)
        sq.append(buffer.sq[:, 0, :hi - lo].copy())
        first += buffer.first_exceed[0, :hi - lo].tolist()
        nonfinite += buffer.nonfinite[0, :hi - lo].tolist()
        negative += buffer.negative[0, :hi - lo].tolist()
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


def test_wilson_reference_values():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert hi == pytest.approx(0.0038, abs=5e-5)
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0
    lo, hi = wilson_interval(50, 1000)
    assert lo == pytest.approx(0.038, abs=1e-3)
    assert hi == pytest.approx(0.065, abs=1e-3)


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
        cfg = replace(template, sim=replace(sim, initial=displaced_initial(anchor, 0.01, params.K)),
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
