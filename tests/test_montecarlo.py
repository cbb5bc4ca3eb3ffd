import contextlib
import functools
import json
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
from ssrna import _em, cli, montecarlo, simulator
from ssrna.model_core import anchor_scale, displaced_initial
from ssrna.montecarlo import write_ensemble_csv, write_sweep_csv
from ssrna.simulator import recorded_steps, step_count
from ssrna.stability import gamma_bounds

from conftest import TUMV, deviations_sq, use_block_rows, use_workers


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
    dev_sq = deviations_sq(traj, eq)
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
    ref_sq = deviations_sq(ref, eq)
    assert stats.mean_sq_dev == pytest.approx(ref_sq, rel=0.06)


def test_zero_noise_exceedance_matches_deterministic_sup_exactly(tumv):
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=60.0, initial=displaced_initial(eq, 0.01, tumv.K))
    traj = integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, sim, replicate=0)
    sup = float(np.sqrt(deviations_sq(traj, eq).max()))
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

    def step(self, first, n):
        block = 0 if self.done else self._next // self.block
        if fails(first, block, threading.current_thread() is threading.main_thread()):
            raise Boom(first)
        real(self, first, n)

    monkeypatch.setattr(_em.Slice, "step", step)


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


def record_affinity(monkeypatch, fake=None, fail=False):
    """The os.sched_setaffinity calls of this test, as (thread, mask) pairs in a list that grows as
    they are made.

    With fake, a set of CPUs, the calls change no real mask: each thread gets its own mask in a
    model of the kernel, which starts as fake and which os.sched_getaffinity reads.  With fail,
    each call raises OSError instead.
    """
    calls, masks, real = [], {}, os.sched_setaffinity

    def setaffinity(pid, mask):
        assert pid == 0  # the calling thread
        calls.append((threading.get_ident(), set(mask)))
        if fail:
            raise OSError(22, "Invalid argument")
        if fake is None:
            real(pid, mask)
        else:
            masks[threading.get_ident()] = set(mask)

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    if fake is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(masks.get(threading.get_ident(), fake)))
    return calls


def moves(calls):
    """Per thread, in the order of their first call, the masks it was given."""
    threads = {}
    for thread, mask in calls:
        threads.setdefault(thread, []).append(mask)
    return list(threads.values())


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_each_thread_starts_on_its_own_cpu(tumv, monkeypatch, workers):
    # of the CPUs 7, 2, 5 and 3, thread w moves to the (w mod 4)-th in ascending order before its first
    # slice, and is then given all four again; the caller, thread 0, ends with the mask it had
    cpus = {7, 2, 5, 3}
    calls = record_affinity(monkeypatch, fake=cpus)
    use_workers(monkeypatch, workers)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=300, t_end=40.0)
    run_ensemble(cfg, tumv)
    threads = moves(calls)
    if workers == 1:
        assert threads == []  # one thread stays where it is
        return
    assert len(threads) == workers and all(len(masks) == 2 and masks[1] == cpus for masks in threads)
    assert sorted(min(masks[0]) for masks in threads) == sorted([2, 3, 5, 7, 2][:workers])
    assert moves(c for c in calls if c[0] == threading.get_ident()) == [[{2}, cpus]]
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("fails", [False, True], ids=["run", "failed-run"])
def test_threads_move_to_distinct_cpus_and_give_the_caller_its_mask_back(tumv, monkeypatch, fails):
    # on the CPUs this process may use: each of up to one thread per CPU lands on its own, and the
    # caller's mask is the same after a run, and after a run whose thread 1 raised
    before = os.sched_getaffinity(0)
    calls = record_affinity(monkeypatch)
    use_workers(monkeypatch, 2)
    if fails:
        fail_step(monkeypatch, lambda first, block, main: not main)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=300, t_end=40.0)
    with pytest.raises(Boom) if fails else contextlib.nullcontext():
        run_ensemble(cfg, tumv)
    assert os.sched_getaffinity(0) == before
    threads = moves(calls)
    assert len(threads) == 2 and all(masks[1] == before for masks in threads)
    assert len({min(masks[0]) for masks in threads}) == min(2, len(before))


@pytest.mark.usefixtures("deadline")
def test_threads_that_cannot_move_give_the_same_bytes(tumv, monkeypatch, tmp_path):
    use_workers(monkeypatch, 2)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=300, t_end=400.0, record_stride=1)
    write_ensemble_csv(run_ensemble(cfg, tumv), tmp_path / "moved.csv")
    calls = record_affinity(monkeypatch, fail=True)
    write_ensemble_csv(run_ensemble(cfg, tumv), tmp_path / "stayed.csv")
    assert len(moves(calls)) == 2
    assert (tmp_path / "stayed.csv").read_bytes() == (tmp_path / "moved.csv").read_bytes()


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
    the same exclusion rules and replicate-order summation as run_ensemble:
    each row of mean_sq_dev over the |x|^2 that are finite in that row, and
    the exceedances over the replicates whose state is finite at the end.
    """
    n = step_count(cfg.sim)
    rec = recorded_steps(n, cfg.sim.record_stride)
    sums, lost = np.zeros(len(rec)), np.zeros(len(rec), np.int64)
    first_exceed, n_negative, n_nonfinite = [], 0, 0
    for k in range(cfg.replicates):
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected below
            sq, first, negative, finite = _reference_path(params, cfg, k, n, rec)
        sq = np.asarray(sq)
        sums += np.where(np.isfinite(sq), sq, 0.0)  # adding 0.0 to a sum of squares leaves it as it is
        lost += ~np.isfinite(sq)
        if not finite:
            n_nonfinite += 1
            continue
        first_exceed.append(first)
        n_negative += negative
    n_included = cfg.replicates - n_nonfinite
    cum = [sum(e is not None and e <= step for e in first_exceed) / n_included for step in rec]
    with np.errstate(invalid="ignore"):  # a row without a finite |x|^2 is NaN
        return sums / (cfg.replicates - lost), np.asarray(cum), n_negative, n_nonfinite


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
    """(|x|^2 at the recorded steps, first step |x| > epsilon1, went negative, state finite at step n).

    A diverging path goes on through its steps: its |x|^2 turns infinite or
    NaN, and its state too, which then stays so.
    """
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
        dsq = x1 * x1 + x2 * x2
        if i in rec:
            sq.append(dsq)
        if exceed_at is None and dsq > eps_sq:
            exceed_at = i
        negative = negative or eq.p_star + x1 < 0.0 or eq.m_star + x2 < 0.0
    return sq, exceed_at, negative, math.isfinite(x1) and math.isfinite(x2)


def row_bytes(values):
    """Each number's bytes (float.hex), or None where it is not finite: the kernel and the reference take
    the same steps, but their NaNs need not be the same."""
    return [float(x).hex() if math.isfinite(x) else None for x in values]


def test_slice_draws_the_top_stream_keys():
    # replicate 2**63 - 1 under the largest seed draws from the keys 2**64 - 2 and 2**64 - 1
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), record_stride=3)
    cfg = EnsembleConfig(replicates=1, sim=sim, noise=NoiseSpec(0.8, 0.8), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=2**64 - 1)
    rec = recorded_steps(27, 3)
    buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, 27, 3, cfg.replicates)
    buffer.step(2**63 - 1, 1)
    sq, _, negative, finite = _reference_path(p, cfg, 2**63 - 1, 27, rec)
    assert finite
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
        buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, 27, 3, n)
    assert buffer.stride == min(64, -(-n // 8) * 8)
    buffer.step(64, buffer.stride)  # outputs of another slice beyond n, which em_fold must not read
    buffer.step(0, n)
    included = []
    for j in range(n):
        with np.errstate(over="ignore", invalid="ignore"):
            sq, exceed_at, negative, finite = _reference_path(p, cfg, j, 27, rec)
        assert row_bytes(buffer.sq[j::buffer.stride]) == row_bytes(sq), j  # rows x one cell x stride
        if finite:
            included.append(j)
            assert buffer.first_exceed[j] == (-1 if exceed_at is None else bisect_left(rec, exceed_at)), j
            assert buffer.negative[j] == negative, j
    if noise.omega1 > 1.0 and n >= 7:
        assert 0 < sum(j < 8 for j in included) < min(n, 8)
    elif noise.omega1 < 1.0 and n >= 8:
        assert 0 < sum(buffer.negative[:n]) < n

    sums = _em.Sums(1, len(rec))
    buffer.fold(sums)
    sq = np.frombuffer(buffer.sq).reshape(len(rec), buffer.stride)[:, :n]
    assert np.array_equal(np.frombuffer(sums.sq), sum_finite(sq))
    assert list(sums.lost) == np.count_nonzero(~np.isfinite(sq), axis=1).tolist()
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
        buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, 27, 3, cfg.replicates)
        buffer.step(100, 37)
        runs[name] = (stats.n_negative, stats.n_nonfinite,
                      [(tmp_path / f"{name}-{command}.csv").read_bytes() for command in ("ensemble", "sweep")],
                      [(buffer.sq[j::buffer.stride].tobytes(), buffer.state[j::buffer.stride].tobytes(),
                        buffer.first_exceed[j], buffer.negative[j]) for j in range(37)])
    assert runs["scalar"] == runs["default"]
    n_negative, n_nonfinite = runs["scalar"][:2]
    assert n_negative > 0 and (n_nonfinite > 0) == (noise.omega1 > 1.0)


@st.composite
def slice_batches(draw):
    """A slice of a batch of one or two cells, and the reference's inputs.

    Each cell is coupled, or decoupled (r = 0, where x1 and x2 meet only through 0 x inf), about
    the origin or the coexistence point, with noise from decaying to divergent on each coordinate.
    The slice is `width` replicates from `first` on, up to the top stream keys, of an ensemble of
    `replicates`, which sets the buffer's stride, over a short horizon recorded every stride-th step
    and at the last, which may be off the stride; a stride of the horizon or more records its start
    and end only.
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
    stride = draw(st.integers(1, n_steps + 1))
    width = draw(st.integers(1, 64))
    replicates = draw(st.integers(width, 80))
    seed = draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    first = draw(st.one_of(st.integers(0, 100), st.just(2**63 - width), st.integers(0, 2**63 - width)))
    dt = draw(st.sampled_from([0.05, 0.25, 0.5, 1.0]))
    return cells, seed, first, width, replicates, dt, n_steps, stride


# Decoupled cells whose |x|^2 overflows in step 6, and whose one divergent coordinate overflows in
# step 11, the last: the other is still finite there, and becomes NaN only a step later, through
# 0 x inf.  A replicate is non-finite if either coordinate is, whichever the random examples happen
# to end on.
_DECOUPLED = ModelParams(**dict(_COUPLED, r=0.0))
_LAST_STEP_OVERFLOWS = ([(_DECOUPLED, origin_equilibrium(), NoiseSpec(w1, w2), State(500.0, 500.0), 450.0)
                         for w1, w2 in ((0.05, 1e30), (1e30, 0.05))], 7, 0, 16, 16, 0.25, 11, 5)


@settings(max_examples=30)
@given(batch=slice_batches(), block=st.sampled_from([1, 2, 3, None]))
@example(batch=_LAST_STEP_OVERFLOWS, block=None)
@example(batch=_LAST_STEP_OVERFLOWS, block=2)  # the overflows are in the second block, after a fold
def test_slices_equal_the_reference_by_property(scalar_library, batch, block):
    # Slice.step and Slice.fold equal _reference_path byte for byte, on the default library (eight
    # lanes per register where the CPU has AVX-512F) and on the scalar one, whatever the columns and
    # the recording stride, in blocks of 1, 2 or 3 recorded rows or of every row.  A fold adds the
    # |x|^2 that are finite and counts the others, row by row, so each block is stepped and folded
    # once, whichever block a replicate turns non-finite in.
    cells, seed, first, width, replicates, dt, n_steps, every = batch
    rec, k = recorded_steps(n_steps, every), len(cells)
    cfgs = [EnsembleConfig(replicates=replicates, sim=SimConfig(dt=dt, t_end=n_steps * dt, initial=initial),
                           noise=noise, anchor=anchor, epsilon1=epsilon1, master_seed=seed)
            for _, anchor, noise, initial, epsilon1 in cells]
    with np.errstate(over="ignore", invalid="ignore"):
        paths = [[_reference_path(cell[0], cfg, first + j, n_steps, rec) for j in range(width)]
                 for cell, cfg in zip(cells, cfgs)]
    kernel_cells = [montecarlo._cell(cfg, cell[0]) for cell, cfg in zip(cells, cfgs)]
    for library in (_em.library(), scalar_library):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_em, "_lib", library)
            if block is not None:
                use_block_rows(patch, block)
            buffer = _em.Slice(kernel_cells, seed, dt, n_steps, every, replicates)
        stride = buffer.stride
        assert stride == min(64, -(-replicates // 8) * 8)
        assert buffer.block == (block or len(rec))
        buffer.step(2**63 - stride, stride)  # another slice's outputs in every column, which em_fold must not read
        while not buffer.done:
            buffer.step(2**63 - stride, stride)
        sums, sq_rows = _em.Sums(k, len(rec)), []
        buffer.step(first, width)
        while True:
            buffer.fold(sums)
            sq_rows.append(buffer.sq[:buffer.rows * k * stride])
            if buffer.done:
                break
            buffer.step(first, width)
        sq = array("d", b"".join(rows.tobytes() for rows in sq_rows))  # recorded rows x cells x stride
        for c, cell_paths in enumerate(paths):
            rows = [0.0] * len(rec)  # the reference's fold: each row adds its finite |x|^2 in index order
            exceed, lost, included, negatives = [0] * len(rec), [0] * len(rec), 0, 0
            for j, (sq_j, exceed_at, negative, finite) in enumerate(cell_paths):
                assert row_bytes(sq[c * stride + j::k * stride]) == row_bytes(sq_j), (c, j)
                rows = [acc + x if math.isfinite(x) else acc for acc, x in zip(rows, sq_j)]
                lost = [m + (not math.isfinite(x)) for m, x in zip(lost, sq_j)]
                if not finite:
                    continue
                row = -1 if exceed_at is None else bisect_left(rec, exceed_at)
                assert (buffer.first_exceed[c * stride + j], buffer.negative[c * stride + j]) == (row, negative)
                included, negatives = included + 1, negatives + negative
                if row >= 0:
                    exceed[row] += 1
            part = slice(c * len(rec), (c + 1) * len(rec))
            assert sums.sq[part].tobytes() == array("d", rows).tobytes()
            assert list(sums.exceed[part]) == exceed
            assert list(sums.lost[part]) == lost
            assert list(sums.counts[3 * c:3 * c + 3]) == [included, negatives, width - included]


def test_a_row_without_a_finite_square_reads_nan():
    # x1 grows by about 1e29 a step: the |x|^2 of every replicate overflows in step 6, while its state
    # stays finite to step 11.  Over 8 steps, rows 6 to 8 have no finite |x|^2 to average and read NaN,
    # and every replicate ends with a finite state, so it counts in the exceedance fraction.
    sim = SimConfig(dt=0.25, t_end=2.0, initial=State(500.0, 500.0))
    cfg = EnsembleConfig(replicates=16, sim=sim, noise=NoiseSpec(1e30, 0.05), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=7)
    stats = run_ensemble(cfg, _DECOUPLED)
    assert np.isfinite(stats.mean_sq_dev[:6]).all() and np.isnan(stats.mean_sq_dev[6:]).all()
    assert (stats.n_included, stats.n_nonfinite, stats.exceed_fraction) == (16, 0, 1.0)
    msd, cum, _, _ = reference_ensemble(_DECOUPLED, cfg)
    assert row_bytes(stats.mean_sq_dev) == row_bytes(msd)
    assert stats.exceed_fraction_cum.tobytes() == cum.tobytes()


def test_ensemble_memory_does_not_grow_with_horizon(tumv):
    # Each thread holds one block of recorded rows, whatever the horizon.  Recorded at every step, a
    # horizon ten times as long adds to the peak no more than the run keeps per row: its sums (a
    # float64 and two int64), the recorded step and the statistics (t, the mean |x|^2 and the
    # exceedance fraction).  Slices that held every row added 64 columns of |x|^2 per thread.
    eq = positive_equilibrium(tumv)
    peaks = []
    for t_end in (5000.0, 50000.0):
        sim = SimConfig(dt=0.5, t_end=t_end, initial=displaced_initial(eq, 0.01, tumv.K), record_stride=1)
        cfg = EnsembleConfig(replicates=200, sim=sim, noise=NoiseSpec(0.05, 0.05), anchor=eq,
                             epsilon1=0.1 * anchor_scale(eq, tumv.K), master_seed=5)
        assert _em.block_rows(step_count(sim), 1) == 513  # at both horizons
        tracemalloc.start()  # it sees every thread's slice
        try:
            run_ensemble(cfg, tumv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    per_row = 3 * 8 + 8 + 3 * 8
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
    # thread, 95 MB each, then 8, 12 MB each.  Now a thread holds 513 rows of 8 columns, 33 kB,
    # and the run 48 B per row: its sums and the statistics (the recorded steps are freed before the
    # statistics are made), 8.9 MB
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

    monkeypatch.setattr(_em, "Sums", allocate)
    monkeypatch.setattr(_em, "Slice", allocate)
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=2, t_end=10.0, record_stride=10**6)
    with pytest.raises(ParameterError, match="bytes"):
        run(cfg, tumv)


def sum_finite(sq):
    """Per row of sq (rows, replicates), the sum of its finite numbers.

    It adds in replicate-index order from 0.0, as the ensemble kernel does.
    """
    out = np.empty(len(sq))
    for i, row in enumerate(sq):
        acc = 0.0
        for x in row.tolist():
            if math.isfinite(x):
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
    buffer = _em.Slice([montecarlo._cell(cfg, p)], cfg.master_seed, sim.dt, 27, 1, cfg.replicates)
    # numpy views of the slice buffer: rows x cells x stride, and cells x stride
    buffer_sq = np.frombuffer(buffer.sq).reshape(len(rec), 1, buffer.stride)
    buffer_first = np.frombuffer(buffer.first_exceed, np.int64).reshape(1, buffer.stride)
    buffer_state = np.frombuffer(buffer.state).reshape(2, 1, buffer.stride)
    buffer_negative = np.frombuffer(buffer.negative, np.bool_).reshape(1, buffer.stride)
    sq, first, nonfinite, negative = [], [], [], []
    for s in range(5):
        lo, hi = 300 * s // 5, 300 * (s + 1) // 5
        buffer.step(lo, hi - lo)
        sq.append(buffer_sq[:, 0, :hi - lo].copy())
        first += buffer_first[0, :hi - lo].tolist()
        nonfinite += (~np.isfinite(buffer_state[:, 0, :hi - lo]).all(axis=0)).tolist()
        negative += buffer_negative[0, :hi - lo].tolist()
    sq, nonfinite = np.concatenate(sq, axis=1), np.array(nonfinite)
    assert all(0 < nonfinite[60 * s:60 * (s + 1)].sum() < 60 for s in (1, 2, 3))
    n_included = 300 - int(nonfinite.sum())
    assert np.array_equal(stats.mean_sq_dev, sum_finite(sq) / np.isfinite(sq).sum(axis=1))
    # the order shows in the bits: added backwards, some row differs
    assert not np.array_equal(sum_finite(sq[:, ::-1]), sum_finite(sq))
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
    # the last, each left out of the rows in which its |x|^2 is not finite
    p = validate_params(**_COUPLED)
    use_workers(monkeypatch, workers)
    if rows is not None:
        use_block_rows(monkeypatch, rows)
    cells = [montecarlo._cell(cfg, p) for cfg in _DIVERGENCE_CFGS]
    for batch in (cells[:1], cells):
        sums, times = montecarlo._ensembles(batch, _DIVERGENCE_CFGS[0], 2)
        assert times.tolist() == [0.25 * step for step in recorded_steps(27, 2)]
        for c in range(len(batch)):
            stats = montecarlo._reduce(sums, c, times)
            msd, cum, n_negative, n_nonfinite = divergence_reference(c)
            assert stats.mean_sq_dev.tobytes() == msd.tobytes()
            assert stats.exceed_fraction_cum.tobytes() == cum.tobytes()
            assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite)
            assert (n_nonfinite > 0) == (c == 0)


@pytest.mark.usefixtures("deadline")
def test_every_step_ensemble_writes_the_same_bytes_in_blocks_of_any_rows(tumv, monkeypatch, tmp_path):
    # 650 replicates make 11 slices, recorded at each of 4200 steps: blocks of 4097 rows (BLOCK_STEPS
    # 4096), of 513 (the default) and of one row write the same ensemble.csv
    cfg, _, _ = tumv_ensemble_cfg(tumv, replicates=650, t_end=2100.0, record_stride=1)
    assert _em.slice_count(cfg.replicates, 2) == 11 and _em.block_rows(step_count(cfg.sim), 1) == 513
    written = []
    for rows in (4097, None, 1):
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                use_block_rows(patch, rows)
            write_ensemble_csv(run_ensemble(cfg, tumv), tmp_path / f"{rows}.csv")
        written.append((tmp_path / f"{rows}.csv").read_bytes())
    assert written[1] == written[0] and written[2] == written[0]


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


def divergence_steps(params, cfg):
    """Per replicate of cfg, the first step whose |x|^2 is not finite, or None if there is none."""
    n = step_count(cfg.sim)
    with np.errstate(over="ignore", invalid="ignore"):
        paths = [_reference_path(params, cfg, k, n, range(n + 1))[0] for k in range(cfg.replicates)]
    return [next((i for i, x in enumerate(sq) if not math.isfinite(x)), None) for sq in paths]


def count_steps(monkeypatch):
    """The first replicate of each Slice.step call, in a list that grows as they are made."""
    calls, real = [], _em.Slice.step

    def step(self, first, n):
        calls.append(first)
        real(self, first, n)

    monkeypatch.setattr(_em.Slice, "step", step)
    return calls


@pytest.mark.usefixtures("deadline")
def test_replicates_that_turn_non_finite_in_later_blocks_take_one_pass(monkeypatch):
    # Under the divergence noise, the |x|^2 of 83 of the 128 replicates turns non-finite, from step 16
    # to step 60, each recorded, so in blocks of 20 rows most do so after a fold has counted their
    # first rows; 82 end with a state that is not finite.  A row counts the |x|^2 that are finite
    # there, so no fold is undone: the 2 slices step through their 4 blocks once each, and every row
    # equals the per-row reference.
    p = validate_params(**_COUPLED)
    sim = SimConfig(dt=0.25, t_end=0.25 * 60, initial=State(300.0, 300.0))
    cfg = EnsembleConfig(replicates=128, sim=sim, noise=NoiseSpec(3.5, 0.5), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    use_workers(monkeypatch, 2)
    use_block_rows(monkeypatch, 20)
    calls = count_steps(monkeypatch)
    stats = run_ensemble(cfg, p)
    assert Counter(calls) == {0: 4, 64: 4}
    diverged = [d for d in divergence_steps(p, cfg) if d is not None]
    assert (len(diverged), min(diverged), max(diverged)) == (83, 16, 60)
    assert {d // 20 for d in diverged} == {0, 1, 2, 3}
    msd, cum, n_negative, n_nonfinite = reference_ensemble(p, cfg)
    assert stats.mean_sq_dev.tobytes() == msd.tobytes()
    assert stats.exceed_fraction_cum.tobytes() == cum.tobytes()
    assert (stats.n_negative, stats.n_nonfinite) == (n_negative, n_nonfinite) == (46, 82)


@pytest.mark.usefixtures("deadline")
def test_an_ensemble_that_ends_all_non_finite_takes_one_pass_then_fails(monkeypatch, tmp_path, capsys):
    # Under noise (5.0, 0.5) the |x|^2 of every one of the 128 replicates turns non-finite, from step
    # 15 to step 56 of 60, in the first three of four blocks of 20 rows, and so does every state by
    # the end.  The run steps each block once, and then has no statistics: EnsembleError, which the
    # CLI reports with exit status 3.
    p = validate_params(**_COUPLED)
    sim = SimConfig(dt=0.25, t_end=0.25 * 60, initial=State(300.0, 300.0))
    cfg = EnsembleConfig(replicates=128, sim=sim, noise=NoiseSpec(5.0, 0.5), anchor=origin_equilibrium(),
                         epsilon1=450.0, master_seed=4242)
    use_workers(monkeypatch, 2)
    use_block_rows(monkeypatch, 20)
    calls = count_steps(monkeypatch)
    with pytest.raises(EnsembleError, match="all replicates became non-finite"):
        run_ensemble(cfg, p)
    assert Counter(calls) == {0: 4, 64: 4}
    diverged = divergence_steps(p, cfg)
    assert None not in diverged and (min(diverged), max(diverged)) == (15, 56)
    assert {d // 20 for d in diverged} == {0, 1, 2}
    calls.clear()
    config = {"schema": "ssrna-config/1", "model": _COUPLED, "noise": {"omega1": 5.0, "omega2": 0.5},
              "ensemble": {"replicates": 128, "anchor": "origin", "epsilon1": 450.0, "master_seed": 4242,
                           "sim": {"dt": 0.25, "t_end": 15.0, "initial": [300.0, 300.0]}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["ensemble", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "all replicates became non-finite" in capsys.readouterr().err
    assert Counter(calls) == {0: 4, 64: 4}


# Ensembles whose replicates turn non-finite over their horizon: coupled, the |x|^2 of 83 of 128 from
# step 16 to step 60 (above), and decoupled (r = 0, the test hook), where x1 alone diverges, slowly:
# the |x|^2 of the 64 replicates turns non-finite from step 3372 to step 9182, from the seventh block of
# 512 steps to the eighteenth, and the state of 34 from step 8151 to step 11982 of 12000
_PREFIX_CASES = {
    "coupled": (EnsembleConfig(replicates=128, sim=SimConfig(dt=0.25, t_end=0.25, initial=State(300.0, 300.0)),
                               noise=NoiseSpec(3.5, 0.5), anchor=origin_equilibrium(), epsilon1=450.0,
                               master_seed=4242), validate_params(**_COUPLED), 60),
    "decoupled": (EnsembleConfig(replicates=64, sim=SimConfig(dt=0.25, t_end=0.25, initial=State(300.0, 300.0)),
                                 noise=NoiseSpec(3.5, 0.5), anchor=origin_equilibrium(), epsilon1=450.0,
                                 master_seed=4242), _DECOUPLED, 12000),
}


@settings(max_examples=12, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(_PREFIX_CASES))
def test_a_shorter_horizon_gives_the_first_rows(case, workers, data):
    # Row k of an ensemble depends on the steps up to row k only: over a longer horizon that records
    # the same steps, t and mean_sq_dev begin with the same bytes, however many replicates turn
    # non-finite after the shorter horizon ends, in whichever block of rows.  Where no |x|^2 of a row
    # is finite, both read NaN, with the same bytes.
    cfg, params, most = _PREFIX_CASES[case]
    stride = data.draw(st.integers(1, max(1, most // 400)), label="stride")
    short = stride * data.draw(st.integers(1, most // stride - 1), label="short rows")
    long = data.draw(st.integers(short + 1, most), label="long steps")
    rows = data.draw(st.sampled_from([1, 2, 20, None]) if long // stride < 500 else st.just(None), label="rows")
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        use_workers(patch, workers)
        if rows is not None:
            use_block_rows(patch, rows)
        for steps in (short, long):
            sim = cfg.sim.replace(t_end=0.25 * steps, record_stride=stride)
            runs.append(run_ensemble(cfg.replace(sim=sim), params))
    n = len(runs[0].times)
    assert runs[0].times.tobytes() == runs[1].times[:n].tobytes()
    assert runs[0].mean_sq_dev.tobytes() == runs[1].mean_sq_dev[:n].tobytes()


def test_wilson_reference_values():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert hi == pytest.approx(0.0038, abs=5e-5)
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0
    lo, hi = wilson_interval(50, 1000)
    assert lo == pytest.approx(0.038, abs=1e-3)
    assert hi == pytest.approx(0.065, abs=1e-3)
    # the ends are exact where no trial, or every trial, succeeded: the formula's own lower end at 0
    # successes read 1.08e-19 for n = 2000, and its upper end at n successes 1 - 2^-53 for 6291 n
    for n in range(1, 20001):
        assert wilson_interval(0, n)[0] == 0.0 and wilson_interval(n, n)[1] == 1.0, n
        assert 0.0 < wilson_interval(0, n)[1] < 1.0 and 0.0 < wilson_interval(n, n)[0] < 1.0, n


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
