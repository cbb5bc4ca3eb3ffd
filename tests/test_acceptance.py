"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.  Run with `pytest -s` to
see the lines as they appear."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ssrna import (
    EnsembleConfig,
    NoiseSpec,
    SimConfig,
    State,
    basic_reproduction_number,
    det_closed_form,
    estimate_stability_in_probability,
    gamma_bounds,
    generator_coefficients,
    integrate_ode,
    linearize,
    lyapunov_matrix,
    origin_equilibrium,
    positive_equilibrium,
    q_interval,
    run_ensemble,
    validate_params,
)
from ssrna.cli import main
from ssrna.montecarlo import anchor_scale, displaced_initial
from ssrna.simulator import default_dt

from conftest import (
    TUMV,
    as_matrix,
    measure_em_strong_order,
    measure_rk4_order,
    random_params,
    random_point_in_triangle,
    random_stable_matrix,
    report_from_entries,
    use_workers,
)


@contextmanager
def criterion(number, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def test_criterion_1_tumv_regression():
    with criterion(1, "TuMV quantitative regression", 1.0):
        params = validate_params(**TUMV)
        assert basic_reproduction_number(params) == pytest.approx(4.287, abs=1e-3)
        eq = positive_equilibrium(params)
        assert eq.p_star == pytest.approx(30670385.0, abs=1.0)
        assert eq.m_star == pytest.approx(5320090.0, abs=1.0)
        rep = linearize(params, eq)
        assert rep.a11 == pytest.approx(-0.01862524, abs=1e-8)
        assert rep.a12 == pytest.approx(0.01452332, abs=1e-8)
        assert rep.a21 == pytest.approx(-0.00378021, abs=1e-8)
        assert rep.a22 == pytest.approx(-0.01797908, abs=1e-8)
        assert rep.trace == pytest.approx(-0.03660432, abs=1e-8)
        assert rep.det == pytest.approx(0.00038977, abs=1e-8)
        bound1, _ = gamma_bounds(rep, 0.0)
        assert bound1 == pytest.approx(0.02000961, abs=1e-8)
        abs_tr = -rep.trace
        assert rep.A2 / abs_tr == pytest.approx(0.01947893, abs=1e-8)
        assert rep.A1 / abs_tr == pytest.approx(0.02012510, abs=1e-8)


def test_criterion_2_algebraic_identities():
    with criterion(2, "drift-matrix identities over 1000 parameter sets", 5.0):
        rng = np.random.default_rng(2001)
        for _ in range(1000):
            params = random_params(rng, r0_min=1.0 + 1e-6)
            rep = linearize(params, positive_equilibrium(params))
            closed = det_closed_form(params)
            assert abs(rep.det - closed) <= 1e-10 * abs(rep.det)
            lhs = rep.A1 * rep.A2
            rhs = rep.trace**2 * rep.det + rep.a12**2 * rep.a21**2
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def _q_samples_inside(lo, hi, count=20):
    if lo <= 0.0:
        lo_s = hi * 1e-6 if math.isfinite(hi) else 1e-3
    else:
        lo_s = lo * (1.0 + 1e-3)
    hi_s = hi * (1.0 - 1e-3) if math.isfinite(hi) else max(lo_s * 1e6, 1e3)
    return np.geomspace(lo_s, hi_s, count)


def test_criterion_3_q_interval_equivalence():
    with criterion(3, "q-interval <=> noise-bound equivalence", 10.0):
        rng = np.random.default_rng(3001)
        nonempty_seen = empty_seen = 0
        for _ in range(1000):
            rep = report_from_entries(*random_stable_matrix(rng))
            bound1, _ = gamma_bounds(rep, 0.0)
            g1 = bound1 * 10.0 ** rng.uniform(-2.0, 0.3)
            g2 = 10.0 ** rng.uniform(-4.0, 1.0)
            conditions = g1 < bound1
            if conditions:
                _, bound2 = gamma_bounds(rep, g1)
                conditions = g2 < bound2
            noise = NoiseSpec.from_gammas(g1, g2)
            interval = q_interval(rep, noise)
            assert (interval is not None) == conditions
            if interval is None:
                empty_seen += 1
                continue
            nonempty_seen += 1
            lo, hi = interval
            for q in _q_samples_inside(lo, hi):
                c1, c2 = generator_coefficients(rep, noise, float(q))
                assert c1 < 0.0 and c2 < 0.0
            outside = []
            if lo > 0.0:
                outside.append(lo * (1.0 - 1e-3))
            if math.isfinite(hi):
                outside.append(hi * (1.0 + 1e-3))
            for q in outside:
                c1, c2 = generator_coefficients(rep, noise, q)
                assert c1 >= 0.0 or c2 >= 0.0
        assert nonempty_seen >= 100 and empty_seen >= 100  # both branches exercised


def test_criterion_4_lyapunov_residual():
    with criterion(4, "Lyapunov matrix residual and definiteness", 5.0):
        rng = np.random.default_rng(4001)
        for _ in range(1000):
            rep = report_from_entries(*random_stable_matrix(rng))
            q = 10.0 ** rng.uniform(-3.0, 3.0)
            mat = lyapunov_matrix(rep, q)
            assert mat.p11 > 0.0
            assert mat.p11 * mat.p22 - mat.p12 * mat.p12 > 0.0
            P = np.array([[mat.p11, mat.p12], [mat.p12, mat.p22]])
            A = as_matrix(rep)
            residual = P @ A + A.T @ P + np.diag([q, 1.0])
            scale = max(np.abs(P).max(), q, 1.0)
            assert np.abs(residual).max() <= 1e-10 * scale


def test_criterion_5_integrator_orders():
    with criterion(5, "integrator convergence orders", 60.0):
        rk4 = measure_rk4_order()
        assert 3.7 <= rk4 <= 4.3, f"RK4 exponent {rk4}"
        em = measure_em_strong_order(n_paths=250)
        assert 0.35 <= em <= 0.65, f"Euler-Maruyama strong exponent {em}"


def test_criterion_6_invariance_descent_convergence():
    with criterion(6, "triangle invariance, Lyapunov descent, convergence", 60.0):
        rng = np.random.default_rng(6001)

        # 100 random (params, initial) pairs never leave the triangle
        for _ in range(100):
            params = random_params(rng)
            rates = max(params.delta + params.sigma, params.r, params.alpha * params.r)
            p0, m0 = random_point_in_triangle(rng, params.K)
            cfg = SimConfig(dt=0.01 / rates, t_end=30.0 / rates,
                            initial=State(p0, m0), record_stride=50)
            traj = integrate_ode(params, cfg)
            tol = 1e-9 * params.K
            assert traj.exited_omega is None
            assert (traj.states[:, 0] >= -tol).all()
            assert (traj.states[:, 1] >= -tol).all()
            assert (traj.states.sum(axis=1) <= params.K + tol).all()

        # sub-threshold: the weighted load sigma*p + r*m never increases
        for _ in range(40):
            params = random_params(rng, r0_max=1.0)
            rates = max(params.delta + params.sigma, params.r, params.alpha * params.r)
            p0, m0 = random_point_in_triangle(rng, params.K)
            cfg = SimConfig(dt=0.01 / rates, t_end=30.0 / rates,
                            initial=State(p0, m0), record_stride=20)
            traj = integrate_ode(params, cfg)
            w = params.sigma * traj.states[:, 0] + params.r * traj.states[:, 1]
            assert (np.diff(w) <= 1e-9 * w[0]).all()

        # super-threshold: interior starts reach E+ within 0.1% at 50/|Tr|.
        # The pinned horizon cannot resolve near-degenerate spectra (slow mode
        # ~ det/|Tr| as R0 -> 1), so sampling keeps the spectrum conditioned.
        kept = 0
        while kept < 40:
            params = random_params(rng, r0_min=1.3)
            eq = positive_equilibrium(params)
            rep = linearize(params, eq)
            if rep.det / rep.trace**2 < 0.2:
                continue
            kept += 1
            p0, m0 = random_point_in_triangle(rng, params.K, margin=0.02)
            cfg = SimConfig(dt=default_dt(params, eq), t_end=50.0 / abs(rep.trace),
                            initial=State(p0, m0), record_stride=10**9)
            traj = integrate_ode(params, cfg)
            final = traj.final_state
            dist = math.hypot(final.p - eq.p_star, final.m - eq.m_star)
            assert dist <= 1e-3 * math.hypot(eq.p_star, eq.m_star)


def _stochastic_leg(params, anchor, n_replicates=1000):
    rep = linearize(params, anchor)
    bound1, _ = gamma_bounds(rep, 0.0)
    g1 = 0.5 * bound1
    _, bound2 = gamma_bounds(rep, g1)
    noise = NoiseSpec.from_gammas(g1, 0.5 * bound2)
    scale = anchor_scale(anchor, params.K)
    sim = SimConfig(dt=default_dt(params, anchor), t_end=50.0 / abs(rep.trace),
                    initial=displaced_initial(anchor, 0.01, params.K), record_stride=16)
    cfg = EnsembleConfig(replicates=n_replicates, sim=sim, noise=noise, anchor=anchor,
                         epsilon1=0.10 * scale, master_seed=74205)
    stats = run_ensemble(cfg, params)
    assert stats.n_nonfinite == 0
    assert stats.mean_sq_dev[-1] < stats.mean_sq_dev[0]
    _, (_, upper) = estimate_stability_in_probability(stats)
    assert upper < 0.1, f"Wilson upper bound {upper}"


def test_criterion_7_empirical_stochastic_stability():
    with criterion(7, "finite-horizon stochastic stability surrogate", 300.0):
        tumv = validate_params(**TUMV)
        _stochastic_leg(tumv, positive_equilibrium(tumv))
        sub = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1e6)
        assert basic_reproduction_number(sub) < 1.0
        _stochastic_leg(sub, origin_equilibrium())


def _run_twice(tmp_path, command, cfg_payload, outputs, monkeypatch, workers=(1, 3)):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg_payload))
    blobs = []
    for tag, n_workers in zip(("a", "b"), workers):
        out = tmp_path / f"{command}-{tag}"
        use_workers(monkeypatch, n_workers)
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append([(out / name).read_bytes() for name in outputs])
    assert blobs[0] == blobs[1]


def test_criterion_8_byte_determinism(tmp_path, monkeypatch):
    with criterion(8, "byte-identical reruns, worker-count independent", 120.0):
        model = dict(r=TUMV["r"], alpha=TUMV["alpha"], delta=TUMV["delta"],
                     sigma=TUMV["sigma"], K=TUMV["K"])
        noise = {"omega1": 0.1, "omega2": 0.1}
        sim = {"dt": 0.5, "t_end": 60.0, "initial": {"displace_fraction": 0.01},
               "record_stride": 8}
        ens = {"replicates": 25, "anchor": "positive", "epsilon1": {"fraction": 0.1},
               "master_seed": 11, "sim": sim}
        base = {"schema": "ssrna-config/1", "model": model, "noise": noise}
        _run_twice(tmp_path, "analyze", dict(base, analyze={}), ["analysis.json"], monkeypatch)
        _run_twice(
            tmp_path, "simulate",
            dict(base, simulate=dict(sim, scheme="euler-maruyama", anchor="positive", seed=21)),
            ["trajectory.csv"], monkeypatch,
        )
        _run_twice(tmp_path, "ensemble", dict(base, ensemble=ens), ["ensemble.csv"], monkeypatch)
        _run_twice(
            tmp_path, "sweep",
            dict(base, sweep={"ensemble": dict(ens, replicates=8),
                              "noise_grid": {"omega1": [0.05, 0.15]},
                              "model_grid": {"alpha": [0.0743, 0.2]}}),
            ["sweep.csv"], monkeypatch,
        )
