import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ssrna import (
    IntegrationError,
    NoiseSpec,
    ParameterError,
    Scheme,
    SimConfig,
    State,
    basic_reproduction_number,
    brownian_increments,
    centralized_rhs,
    default_dt,
    integrate_ode,
    integrate_sde,
    linearize,
    origin_equilibrium,
    positive_equilibrium,
    validate_params,
    vector_field,
)
from ssrna import _em, serialize, simulator
from ssrna.model_core import field
from ssrna.simulator import recorded_steps, step_count, write_trajectory_csv

from conftest import (
    measure_em_strong_order,
    measure_rk4_order,
    random_params,
    random_point_in_triangle,
)


# ---------------------------------------------------------------------------
# configuration plumbing

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=0.0, t_end=1.0, initial=State(0, 0)),
        dict(dt=-0.1, t_end=1.0, initial=State(0, 0)),
        dict(dt=0.5, t_end=0.1, initial=State(0, 0)),
        dict(dt=0.5, t_end=1.0, initial=State(0, 0), record_stride=0),
        dict(dt=0.5, t_end=1.0, initial=State(0, 0), seed=-1),
        dict(dt=0.5, t_end=1.0, initial=State(math.nan, 0)),
        # True is an int to Python, but never a seed or a stride
        dict(dt=0.5, t_end=1.0, initial=State(0, 0), seed=True),
        dict(dt=0.5, t_end=1.0, initial=State(0, 0), record_stride=True),
        # 2**63 steps: one more than the compiled library's 64-bit step counter holds
        dict(dt=1.0, t_end=2.0**63, initial=State(0, 0)),
        # beyond floating-point range, or not a number
        dict(dt=10**400, t_end=1.0, initial=State(0, 0)),
        dict(dt=0.5, t_end=10**400, initial=State(0, 0)),
        dict(dt=0.5, t_end=1.0, initial=State(10**400, 0)),
        dict(dt="a", t_end=1.0, initial=State(0, 0)),
        # the start must be a pair of numbers
        dict(dt=0.5, t_end=1.0, initial=5),
        dict(dt=0.5, t_end=1.0, initial=None),
        dict(dt=0.5, t_end=1.0, initial=(1.0,)),
        dict(dt=0.5, t_end=1.0, initial=(1.0, 2.0, 3.0)),
    ],
)
def test_sim_config_validation(kwargs):
    with pytest.raises(ParameterError):
        SimConfig(**kwargs)


def test_step_count_and_recording():
    cfg = SimConfig(dt=0.25, t_end=1.0, initial=State(0, 0))
    assert step_count(cfg) == 4
    assert step_count(SimConfig(dt=1.0, t_end=2.0**62, initial=State(0, 0))) == 2**62
    assert recorded_steps(4, 1) == [0, 1, 2, 3, 4]
    assert recorded_steps(10, 4) == [0, 4, 8, 10]  # final step always kept
    assert recorded_steps(8, 4) == [0, 4, 8]
    for n, stride in [(4, 1), (10, 4), (8, 4), (3, 4), (1, 1), (1, 7), (12, 3)]:
        assert _em.recorded_rows(n, stride) == len(recorded_steps(n, stride))


def test_default_dt_rule(tumv):
    eq = positive_equilibrium(tumv)
    rep = linearize(tumv, eq)
    dt = default_dt(tumv, eq)
    fastest = max(abs(rep.a11), abs(rep.a22), tumv.delta + tumv.sigma)
    assert dt * fastest == pytest.approx(0.01, rel=1e-12)


_RATES = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)  # so that most rates are valid together


@given(r=_RATES, alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True), delta=_RATES, sigma=_RATES,
       K=_RATES)
def test_default_dt_without_an_anchor_is_the_origins(r, alpha, delta, sigma, K):
    # the drift diagonal at the origin is (-delta, -sigma), so the rule reads 0.01 / (delta + sigma) there
    try:
        p = validate_params(r=r, alpha=alpha, delta=delta, sigma=sigma, K=K)
    except ParameterError:
        assume(False)
    assert default_dt(p) == default_dt(p, origin_equilibrium()) == 0.01 / (p.delta + p.sigma)


# ---------------------------------------------------------------------------
# deterministic integration

def test_ode_origin_is_constant(tumv):
    cfg = SimConfig(dt=0.5, t_end=20.0, initial=State(0.0, 0.0))
    traj = integrate_ode(tumv, cfg)
    assert traj.scheme is Scheme.RK4
    assert (traj.states == 0.0).all()
    assert traj.exited_omega is None
    assert (np.diff(traj.times) > 0).all()


def test_ode_tumv_converges_to_coexistence(tumv):
    eq = positive_equilibrium(tumv)
    rep = linearize(tumv, eq)
    horizon = 50.0 / abs(rep.trace)
    cfg = SimConfig(dt=0.5, t_end=horizon, initial=State(1.0, 0.0), record_stride=100)
    traj = integrate_ode(tumv, cfg)
    final = traj.final_state
    dist = math.hypot(final.p - eq.p_star, final.m - eq.m_star)
    assert dist <= 1e-3 * math.hypot(eq.p_star, eq.m_star)
    assert traj.exited_omega is None


def test_ode_subthreshold_decays_to_origin():
    p = validate_params(r=0.5, alpha=1, delta=1, sigma=1, K=1000.0)
    assert basic_reproduction_number(p) < 1
    cfg = SimConfig(dt=0.01, t_end=60.0, initial=State(400.0, 300.0), record_stride=100)
    traj = integrate_ode(p, cfg)
    final = traj.final_state
    assert math.hypot(final.p, final.m) <= 1e-6 * p.K


def test_ode_triangle_invariance_property():
    rng = np.random.default_rng(61)
    for _ in range(30):
        p = random_params(rng)
        rates = max(p.delta + p.sigma, p.r, p.alpha * p.r)
        cfg_dt = 0.01 / rates
        for _ in range(3):
            p0, m0 = random_point_in_triangle(rng, p.K)
            cfg = SimConfig(dt=cfg_dt, t_end=30.0 / rates, initial=State(p0, m0), record_stride=50)
            traj = integrate_ode(p, cfg)
            assert traj.exited_omega is None
            tol = 1e-9 * p.K
            assert (traj.states[:, 0] >= -tol).all()
            assert (traj.states[:, 1] >= -tol).all()
            assert (traj.states.sum(axis=1) <= p.K + tol).all()


def test_ode_lyapunov_descent_subthreshold():
    # with R0 <= 1 the weighted total W = sigma*p + r*m never increases
    rng = np.random.default_rng(67)
    for _ in range(30):
        p = random_params(rng, r0_max=1.0)
        rates = max(p.delta + p.sigma, p.r, p.alpha * p.r)
        p0, m0 = random_point_in_triangle(rng, p.K)
        cfg = SimConfig(dt=0.01 / rates, t_end=30.0 / rates, initial=State(p0, m0), record_stride=20)
        traj = integrate_ode(p, cfg)
        w = p.sigma * traj.states[:, 0] + p.r * traj.states[:, 1]
        assert (np.diff(w) <= 1e-9 * w[0]).all()


def test_rk4_order_exponent():
    assert 3.7 <= measure_rk4_order() <= 4.3


# ---------------------------------------------------------------------------
# path recording, shared by both schemes

def integrate(scheme, params, cfg):
    """A path of either scheme; Euler-Maruyama is anchored at the origin with no noise."""
    if scheme is Scheme.RK4:
        return integrate_ode(params, cfg)
    return integrate_sde(params, NoiseSpec(0.0, 0.0), origin_equilibrium(), cfg)


both_schemes = pytest.mark.parametrize("scheme", list(Scheme), ids=[s.value for s in Scheme])


@both_schemes
def test_start_outside_triangle_exits_at_t0(scheme):
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.05, t_end=1.0, initial=State(800.0, 800.0), seed=5)
    traj = integrate(scheme, p, cfg)
    assert traj.scheme is scheme
    assert traj.exited_omega == 0.0


@both_schemes
def test_stride_that_does_not_divide_records_final_step(scheme, tumv):
    cfg = SimConfig(dt=0.25, t_end=2.5, initial=State(1.0, 0.0), record_stride=4)
    n = step_count(cfg)
    assert n % cfg.record_stride != 0
    traj = integrate(scheme, tumv, cfg)
    assert np.array_equal(traj.times, np.asarray(recorded_steps(n, cfg.record_stride)) * cfg.dt)
    assert traj.states.shape == (len(traj.times), 2)


@both_schemes
def test_trajectory_holds_a_path_as_its_columns(scheme, tumv):
    # t, p and m are the record's fields, as trajectory.json lists them; states are their rows, built on read
    cfg = SimConfig(dt=0.5, t_end=30.0, initial=State(1e6, 2e6), seed=3, record_stride=4)
    traj = integrate(scheme, tumv, cfg)
    assert traj._fields == ("times", "p", "m", "exited_omega", "scheme", "lowest")
    assert np.array_equal(traj.states, np.column_stack((traj.p, traj.m)))
    assert traj.states.flags.c_contiguous and traj.states.shape == (len(traj.times), 2)
    assert traj.final_state == State(traj.p[-1], traj.m[-1])
    assert traj.columns() == tuple(serialize._stored(traj, name) for name in ("times", "p", "m"))
    doc = serialize.plain(traj)
    assert [doc[name] for name in ("times", "p", "m")] == list(traj.columns())


def test_lowest_is_the_smallest_recorded_population():
    # strong noise on coarse steps carries the noisy path below zero, deepest between the rows of
    # stride 7; the RK4 path stays positive
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    every, strided = (SimConfig(dt=0.5, t_end=200.0, initial=State(400.0, 400.0), seed=5, record_stride=s)
                      for s in (1, 7))
    noisy = [integrate_sde(p, NoiseSpec(1.2, 1.2), origin_equilibrium(), cfg) for cfg in (every, strided)]
    assert [traj.lowest for traj in noisy] == [traj.states.min() for traj in noisy]
    assert noisy[0].lowest < noisy[1].lowest < 0.0
    rk4 = integrate_ode(p, strided)
    assert rk4.lowest == rk4.states.min() > 0.0


@both_schemes
def test_blowup_raises_with_time(scheme):
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    cfg = SimConfig(dt=1e6, t_end=1e7, initial=State(0.5, 0.4))
    with pytest.raises(IntegrationError) as err:
        integrate(scheme, p, cfg)
    assert err.value.t > 0


def stepped_in_blocks(scheme, params, noise, cfg, whole):
    """The path of cfg, replicate 6 about the origin for Euler-Maruyama, as (times, states, exited_omega,
    lowest, final_state), or the message and time of its IntegrationError: with whole, as integrate_ode or
    integrate_sde gives it, its blocks joined; else a block at a time, as ode_blocks or sde_blocks steps it,
    each block of at most serialize._BLOCK_ROWS rows."""
    try:
        if whole:
            traj = (integrate_ode(params, cfg) if scheme is Scheme.RK4
                    else integrate_sde(params, noise, origin_equilibrium(), cfg, replicate=6))
            return traj.times.tolist(), traj.states.tolist(), traj.exited_omega, traj.lowest, traj.final_state
        blocks = (simulator.ode_blocks(params, cfg) if scheme is Scheme.RK4
                  else simulator.sde_blocks(params, noise, origin_equilibrium(), cfg, replicate=6))
        times, states = [], []
        for path in blocks:
            t, p, m = path.columns()
            assert 1 <= len(t) <= serialize._BLOCK_ROWS
            times += t.tolist()
            states += [[pi, mi] for pi, mi in zip(p.tolist(), m.tolist())]
        return times, states, blocks.exited_omega, blocks.lowest, blocks.final_state
    except IntegrationError as exc:
        return str(exc), exc.t


@both_schemes
@pytest.mark.parametrize("stride", [1, 3])  # 3 divides neither the 61 steps nor those of the exits
@pytest.mark.parametrize("noise", [NoiseSpec(0.8, 0.8), NoiseSpec(3.5, 0.5)], ids=["excursions", "divergence"])
def test_blocks_of_any_size_make_the_whole_path(scheme, stride, noise):
    # RK4 at dt 1.5 leaves the triangle at t = 3, and at dt 2.0 overflows at t = 8 (it ignores the noise);
    # the noisy paths leave it at step 6, or overflow at step 21
    if scheme is Scheme.RK4:
        p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
        dt = 1.5 if noise.omega1 < 1.0 else 2.0
        cfg = SimConfig(dt=dt, t_end=dt * 61, initial=State(0.5, 0.4), record_stride=stride)
    else:
        p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
        cfg = SimConfig(dt=0.25, t_end=0.25 * 61, initial=State(300.0, 300.0), seed=4242, record_stride=stride)
    whole = stepped_in_blocks(scheme, p, noise, cfg, True)
    if noise.omega1 > 1.0:
        assert len(whole) == 2  # the message and the time
    else:
        assert whole[2] is not None and len(whole[0]) == len(recorded_steps(61, stride))
    # the last, the default block, holds every row
    for rows in (1, 2, 3, 5, 21, 22, 23, serialize._BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_BLOCK_ROWS", rows)
            assert stepped_in_blocks(scheme, p, noise, cfg, False) == whole
            assert stepped_in_blocks(scheme, p, noise, cfg, True) == whole


@both_schemes
def test_a_whole_path_holds_its_rows_and_one_block(scheme, tumv):
    # integrate_ode and integrate_sde join the path's blocks into three columns of every recorded row,
    # made once: 24 B a row, one block of rows and a constant.  Columns grown block by block would
    # over-allocate, and take old and new at once as they grow; a column copied whole would take 8 B a
    # row more.
    eq = positive_equilibrium(tumv)
    cfg = SimConfig(dt=0.5, t_end=0.5 * 20000, initial=State(1.01 * eq.p_star, 1.01 * eq.m_star), seed=3)
    rows = len(recorded_steps(step_count(cfg), 1))
    assert rows == 20001 > 4 * serialize._BLOCK_ROWS

    def run():
        if scheme is Scheme.RK4:
            return integrate_ode(tumv, cfg)
        return integrate_sde(tumv, NoiseSpec(0.05, 0.05), eq, cfg)

    run()  # the library built and loaded before the count
    tracemalloc.start()
    try:
        traj = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(serialize._stored(traj, "times")) == rows and traj.exited_omega is None
    assert peak <= (rows + serialize._BLOCK_ROWS) * 24 + 16 * 1024


# ---------------------------------------------------------------------------
# the compiled paths against the Python loops they replaced

def recorded(cfg, K, states, hint):
    """The Python path recorder the compiled one replaced, kept as its reference.

    From the start state and the state after each step, keeps those of the
    recorded steps and notes the first time the state left the phase-space
    triangle; raises IntegrationError, naming the hint, at the first
    non-finite state.
    """
    dt = cfg.dt
    tol = simulator.OMEGA_EXIT_RTOL * K
    low, high = -tol, K + tol
    rec_iter = iter(recorded_steps(step_count(cfg), cfg.record_stride))
    next_rec = next(rec_iter)
    times, kept = [], []
    exited = None
    for i, (p, m) in enumerate(states):
        t = i * dt
        if not (math.isfinite(p) and math.isfinite(m)):
            raise IntegrationError(f"state became non-finite at t={t:.6g} ({hint})", t)
        if exited is None and (p < low or m < low or p + m > high):
            exited = t
        if i == next_rec:
            times.append(t)
            kept.append([p, m])
            next_rec = next(rec_iter, None)
    return times, kept, exited


def rk4_states(params, cfg):
    """The Python RK4 loop the compiled one replaced: the start state, then the state after each step."""
    f = field(params)
    dt = cfg.dt
    sixth, half = dt / 6.0, 0.5 * dt
    p, m = float(cfg.initial[0]), float(cfg.initial[1])
    yield p, m
    for _ in range(step_count(cfg)):
        k1p, k1m = f(p, m)
        k2p, k2m = f(p + half * k1p, m + half * k1m)
        k3p, k3m = f(p + half * k2p, m + half * k2m)
        k4p, k4m = f(p + dt * k3p, m + dt * k3m)
        p = p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        m = m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m)
        yield p, m


def outcome(run):
    """(times, states, exited_omega) of run() as lists, or the message and time of its IntegrationError."""
    try:
        result = run()
    except IntegrationError as exc:
        return str(exc), exc.t
    if isinstance(result, tuple):
        return result
    return result.times.tolist(), result.states.tolist(), result.exited_omega


def rk4_reference(params, cfg):
    return outcome(lambda: recorded(cfg, params.K, rk4_states(params, cfg), "step size too large?"))


@pytest.mark.parametrize("stride", [1, 7, 11])  # 7 divides the 210 steps, 11 does not
def test_compiled_rk4_equals_the_python_loop(stride):
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.25, t_end=52.5, initial=State(1.0, 0.5), record_stride=stride)
    assert step_count(cfg) == 210
    expected = rk4_reference(p, cfg)
    assert outcome(lambda: integrate_ode(p, cfg)) == expected
    assert expected[1][-1][0] > 100.0  # the path grew from the start towards coexistence


@pytest.mark.parametrize("dt, result", [(1.5, "exits at t=3"), (2.0, "overflows at t=8")])
@pytest.mark.parametrize("stride", [1, 3])  # 3 records neither step 2 nor step 4
def test_compiled_rk4_exit_and_failure_equal_the_python_loop(dt, result, stride):
    p = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    cfg = SimConfig(dt=dt, t_end=40 * dt, initial=State(0.5, 0.4), record_stride=stride)
    expected = rk4_reference(p, cfg)
    assert outcome(lambda: integrate_ode(p, cfg)) == expected
    if result == "exits at t=3":
        assert expected[2] == 3.0
    else:
        assert expected == ("state became non-finite at t=8 (step size too large?)", 8.0)


@pytest.mark.parametrize("noise", [NoiseSpec(0.8, 0.8), NoiseSpec(3.5, 0.5)], ids=["excursions", "divergence"])
def test_compiled_em_recorder_at_a_stride_equals_the_stride_1_states(noise):
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    every = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), seed=4242)
    fourth = every.replace(record_stride=4)  # records neither the exit (step 6) nor the overflow (step 21)
    args = (p, noise, origin_equilibrium())
    one = outcome(lambda: integrate_sde(*args, every, replicate=6))
    strided = outcome(lambda: integrate_sde(*args, fourth, replicate=6))
    if noise.omega1 > 1.0:
        assert one == strided == ("state became non-finite at t=5.25 (noise or step too large?)", 5.25)
    else:
        assert one[2] == 1.5
        assert strided == outcome(lambda: recorded(fourth, p.K, one[1], "noise or step too large?"))


def settled_at(states):
    """The first step from which every state equals the one before, bit for bit, else None."""
    states, at = [(float(p).hex(), float(m).hex()) for p, m in states], None
    for i in range(1, len(states)):
        at = (at or i) if states[i] == states[i - 1] else None
    return at


def words_drawn(recorder):
    """Words the recorder's first Philox stream has handed out: a settled Euler-Maruyama path stops
    drawing.  A stream is _em.c's stream_t, ctr[4], key[2], buffer[32] and buffer_pos: its refills
    computed blocks 1..ctr[0] of four words, and buffer_pos words of the last eight were read."""
    words = recorder._streams
    return 4 * words[0] - 32 + words[38]


# the rows of a path in blocks of 1 and 3 rows, or of the default block: a path that settles in a
# block records the rest of it, and each later block steps once and settles again
SETTLING_BLOCK_ROWS = (1, 3, serialize._BLOCK_ROWS)


@pytest.mark.parametrize("rows", SETTLING_BLOCK_ROWS)
@pytest.mark.parametrize("stride", [1, 7])
def test_a_settled_rk4_path_equals_the_python_loop_stepped_to_its_end(monkeypatch, rows, stride):
    # at dt 0.25 the path reaches a state that RK4 maps to itself, bit for bit, at step 395 of 1000:
    # the kernel records the rest without stepping, as the Python loop steps it
    monkeypatch.setattr(serialize, "_BLOCK_ROWS", rows)
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.25, t_end=250.0, initial=State(1.0, 0.5), record_stride=stride)
    assert settled_at(rk4_states(p, cfg)) == 395
    assert outcome(lambda: integrate_ode(p, cfg)) == rk4_reference(p, cfg)


@pytest.mark.parametrize("rows", SETTLING_BLOCK_ROWS)
@pytest.mark.parametrize("stride", [1, 7])
def test_a_settled_em_path_equals_the_python_loop_stepped_to_its_end(monkeypatch, rows, stride):
    # below threshold the deviations about the origin decay to a few subnormal ulps, where the drift
    # part maps them to themselves and omega x rounds to zero: from there no draw moves the path,
    # and the kernel records the rest without drawing
    monkeypatch.setattr(serialize, "_BLOCK_ROWS", rows)
    p = validate_params(r=0.5, alpha=1, delta=1, sigma=1, K=1000.0)
    eq, noise = origin_equilibrium(), NoiseSpec(0.3, 0.05)
    cfg = SimConfig(dt=0.5, t_end=1500.0, initial=State(300.0, 250.0), seed=21, record_stride=stride)
    states = list(em_states(p, noise, eq, cfg, 4))
    settled = settled_at(states)
    assert settled is not None and settled < 2700 and 0.0 < states[-1][0] < 1e-322
    blocks = simulator.sde_blocks(p, noise, eq, cfg, replicate=4)
    assert outcome(blocks.trajectory) == outcome(lambda: recorded(cfg, p.K, states, "noise or step too large?"))
    if rows > 1:  # each block of one row steps once, and so draws at every step
        assert words_drawn(blocks.recorder) < 2800 < step_count(cfg)


def test_an_em_path_on_increments_of_zero_moves_again_where_they_do_not():
    # on 1000 steps of zero increments the path reaches the coexistence state about the origin, which
    # the drift maps to itself, bit for bit; but there omega x is not zero, so the nonzero increments
    # after them move it again, and the kernel must step them
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq, noise = origin_equilibrium(), NoiseSpec(0.3, 0.2)
    cfg = SimConfig(dt=0.25, t_end=0.25 * 1200, initial=State(300.0, 250.0), seed=21)
    dW = np.stack([brownian_increments(cfg.seed, 4, c, 1200, cfg.dt) for c in (0, 1)], axis=1)
    dW[:1000] = 0.0
    states = list(em_states(p, noise, eq, cfg, 4, dW))
    assert states[1000] == states[999] and states[1001] != states[1000] and settled_at(states) is None
    expected = outcome(lambda: recorded(cfg, p.K, states, ""))
    assert outcome(lambda: integrate_sde(p, noise, eq, cfg, dW=dW)) == expected


# ---------------------------------------------------------------------------
# stochastic integration

def test_sde_anchor_is_exact_fixed_point(tumv):
    eq = positive_equilibrium(tumv)
    cfg = SimConfig(dt=0.5, t_end=50.0, initial=State(eq.p_star, eq.m_star), seed=9)
    traj = integrate_sde(tumv, NoiseSpec(0.4, 0.4), eq, cfg)
    assert (traj.states[:, 0] == eq.p_star).all()
    assert (traj.states[:, 1] == eq.m_star).all()


def test_sde_zero_noise_is_drift_only_euler(tumv):
    eq = positive_equilibrium(tumv)
    rep = linearize(tumv, eq)
    ps, ms = eq.p_star, eq.m_star
    dt = 0.5
    n = 200
    cfg = SimConfig(dt=dt, t_end=n * dt, initial=State(1.01 * ps, 1.01 * ms), seed=33)
    traj = integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, cfg)

    # drift-only Euler recursion in deviation coordinates: same arithmetic
    br = tumv.b * tumv.r
    abr = tumv.alpha * br
    x1, x2 = 1.01 * ps - ps, 1.01 * ms - ms
    states = [(ps + x1, ms + x2)]
    for _ in range(n):
        g1 = rep.a11 * x1 + rep.a12 * x2 - br * (x1 + x2) * x2
        g2 = rep.a21 * x1 + rep.a22 * x2 - abr * (x1 + x2) * x1
        x1 = x1 + g1 * dt
        x2 = x2 + g2 * dt
        states.append((ps + x1, ms + x2))
    assert (traj.states == np.asarray(states)).all()

    # and it agrees with a plain Euler pass over the raw field to round-off
    p, m = 1.01 * ps, 1.01 * ms
    raw = [(p, m)]
    for _ in range(n):
        dp, dm = vector_field(tumv, State(p, m))
        p, m = p + dp * dt, m + dm * dt
        raw.append((p, m))
    assert np.allclose(traj.states, np.asarray(raw), rtol=0, atol=1e-9 * tumv.K)


def test_sde_noisy_path_matches_shared_drift_recursion():
    # integrate_sde must round like centralized_rhs, whose arithmetic the
    # ensemble kernel shares, on increments drawn a chunk at a time.  With
    # R0 > 1 the path leaves the origin anchor for the coexistence state, so
    # the quadratic coupling stays as large as the linear part and a
    # reordered product shows up in the path.
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq = origin_equilibrium()
    cfg = SimConfig(dt=0.25, t_end=30.0, initial=State(300.0, 250.0), seed=21)
    noise = NoiseSpec(0.3, 0.2)
    traj = integrate_sde(p, noise, eq, cfg, replicate=4)
    assert np.array_equal(traj.states, np.asarray(list(em_states(p, noise, eq, cfg, 4))))


def em_states(params, noise, eq, cfg, replicate, dW=None):
    """The shared drift recursion on one-shot increments, or on the rows of dW: the start state, then
    the state after each step."""
    n = step_count(cfg)
    if dW is None:
        dW1 = brownian_increments(cfg.seed, replicate, 0, n, cfg.dt)
        dW2 = brownian_increments(cfg.seed, replicate, 1, n, cfg.dt)
    else:
        dW1, dW2 = dW[:, 0], dW[:, 1]
    x1, x2 = cfg.initial.p - eq.p_star, cfg.initial.m - eq.m_star
    yield eq.p_star + x1, eq.m_star + x2
    for i in range(n):
        g1, g2 = centralized_rhs(params, eq, (x1, x2))
        x1 = x1 + g1 * cfg.dt + noise.omega1 * x1 * dW1[i]
        x2 = x2 + g2 * cfg.dt + noise.omega2 * x2 * dW2[i]
        yield eq.p_star + x1, eq.m_star + x2


@pytest.mark.parametrize("scheme", list(Scheme))
def test_paths_hand_library_callers_float64_arrays(scheme):
    # the compiled recorder fills array('d') buffers; a library caller reads
    # numpy arrays, bit for bit the Python loops' recorded rows
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq, noise = origin_equilibrium(), NoiseSpec(0.3, 0.2)
    cfg = SimConfig(dt=0.25, t_end=30.0, initial=State(300.0, 250.0), seed=21, record_stride=7)
    if scheme is Scheme.RK4:
        traj, states = integrate_ode(p, cfg), rk4_states(p, cfg)
    else:
        traj, states = integrate_sde(p, noise, eq, cfg, replicate=4), em_states(p, noise, eq, cfg, 4)
    times, kept, exited = recorded(cfg, p.K, states, "")
    assert len(times) == 19  # 120 steps at a stride of 7, and the last
    for got, want in ((traj.times, times), (traj.states, kept)):
        want = np.array(want, dtype=np.float64)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert traj.final_state == State(*kept[-1]) and traj.exited_omega == exited


def test_sde_seed_and_replicate_streams(tumv):
    eq = positive_equilibrium(tumv)
    cfg = SimConfig(dt=0.5, t_end=40.0, initial=State(1.01 * eq.p_star, eq.m_star), seed=77)
    noise = NoiseSpec(0.1, 0.1)
    a = integrate_sde(tumv, noise, eq, cfg)
    b = integrate_sde(tumv, noise, eq, cfg)
    assert (a.states == b.states).all()  # same stream, same bytes
    c = integrate_sde(tumv, noise, eq, cfg, replicate=1)
    assert not (a.states == c.states).all()
    d = integrate_sde(tumv, noise, eq, SimConfig(dt=0.5, t_end=40.0, initial=cfg.initial, seed=78))
    assert not (a.states == d.states).all()


def test_sde_draws_the_top_stream_keys():
    # replicate 2**63 - 1 under the largest seed draws from the keys 2**64 - 2 and 2**64 - 1
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0), seed=2**64 - 1)
    replicate, args = 2**63 - 1, (p, NoiseSpec(0.8, 0.8), origin_equilibrium(), cfg)
    dW = np.stack([brownian_increments(cfg.seed, replicate, c, 27, cfg.dt) for c in (0, 1)], axis=1)
    drawn = integrate_sde(*args, replicate=replicate)
    assert np.array_equal(drawn.states, integrate_sde(*args, dW=dW).states)
    assert not np.array_equal(drawn.states, integrate_sde(*args, replicate=replicate - 1).states)


@pytest.mark.parametrize("replicate", [-1, 2**63, True])
def test_sde_rejects_replicate_outside_the_stream_keys(tumv, replicate):
    # the key 2 * replicate + coordinate must be a 64-bit word
    eq = positive_equilibrium(tumv)
    cfg = SimConfig(dt=0.5, t_end=10.0, initial=State(eq.p_star, eq.m_star))
    with pytest.raises(ParameterError, match="replicate"):
        integrate_sde(tumv, NoiseSpec(0.1, 0.1), eq, cfg, replicate=replicate)


def test_sde_rejects_non_equilibrium_anchor(tumv):
    from ssrna import Equilibrium, EquilibriumKind

    fake = Equilibrium(EquilibriumKind.POSITIVE, 0.5 * tumv.K, 0.25 * tumv.K, True)
    cfg = SimConfig(dt=0.5, t_end=10.0, initial=State(0.0, 0.0))
    with pytest.raises(ParameterError, match="equilibrium"):
        integrate_sde(tumv, NoiseSpec(0.0, 0.0), fake, cfg)


def test_sde_dw_shape_checked(tumv):
    eq = positive_equilibrium(tumv)
    cfg = SimConfig(dt=0.5, t_end=10.0, initial=State(eq.p_star, eq.m_star))
    with pytest.raises(ParameterError, match="dW"):
        integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, cfg, dW=np.zeros((3, 2)))
    # 20 steps: a list or tuple of rows is refused unless it has 20 rows of two numbers
    for dW in ([[0.0, 0.0]] * 3, ((0.0, 0.0, 0.0),) * 20, [[0.0, 0.0]] * 19 + [[0.0]], [["a", "b"]] * 20):
        with pytest.raises(ParameterError, match="dW"):
            integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, cfg, dW=dW)
    # and unless every increment is finite: None becomes NaN
    for bad in (None, math.nan, math.inf, -math.inf):
        for dW in ([[bad, bad]] * 20, [[0.0, 0.0]] * 19 + [[0.0, bad]]):
            with pytest.raises(ParameterError, match="dW must be finite"):
                integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, cfg, dW=dW)
    moved = SimConfig(dt=0.5, t_end=10.0, initial=State(1.01 * eq.p_star, eq.m_star))
    args = (tumv, NoiseSpec(0.1, 0.1), eq, moved)
    rows = integrate_sde(*args, dW=[[0.5, -0.5]] * 20)
    assert np.array_equal(rows.states, integrate_sde(*args, dW=np.full((20, 2), [0.5, -0.5])).states)
    assert not np.array_equal(rows.states, integrate_sde(*args, dW=np.zeros((20, 2))).states)


def test_sde_exit_and_negative_states_recorded():
    # coarse steps with strong noise let the scheme cross zero; paths are
    # recorded as-is, never clamped (fixed seed pins the realization)
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq = origin_equilibrium()
    cfg = SimConfig(dt=0.5, t_end=200.0, initial=State(400.0, 400.0), seed=5)
    traj = integrate_sde(p, NoiseSpec(1.2, 1.2), eq, cfg)
    assert (traj.states < 0.0).any()
    assert traj.exited_omega is not None


def path_or_failure(*args, **kwargs):
    """(times, states, exited_omega) of integrate_sde as lists, or the time of its IntegrationError."""
    try:
        traj = integrate_sde(*args, **kwargs)
    except IntegrationError as exc:
        return exc.t
    return traj.times.tolist(), traj.states.tolist(), traj.exited_omega


@pytest.mark.parametrize("noise", [NoiseSpec(0.8, 0.8), NoiseSpec(3.5, 0.5)], ids=["excursions", "divergence"])
@pytest.mark.parametrize("n_steps", [5, 8, 9, 27])
def test_chunked_path_equals_one_shot_increments(n_steps, noise):
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    eq = origin_equilibrium()
    cfg = SimConfig(dt=0.25, t_end=0.25 * n_steps, initial=State(300.0, 300.0), seed=4242)
    dW = np.stack([brownian_increments(cfg.seed, 6, c, n_steps, cfg.dt) for c in (0, 1)], axis=1)
    drawn = path_or_failure(p, noise, eq, cfg, replicate=6)
    assert drawn == path_or_failure(p, noise, eq, cfg, dW=dW)
    if n_steps == 27:  # the comparison covers an exit and, at the larger noise, an overflow
        assert isinstance(drawn, float) == (noise.omega1 > 1.0)
        assert isinstance(drawn, float) or drawn[2] is not None


def test_path_memory_does_not_grow_with_horizon(tumv):
    eq = positive_equilibrium(tumv)
    cfg = SimConfig(dt=0.5, t_end=50000.0, initial=State(1.01 * eq.p_star, eq.m_star), seed=3,
                    record_stride=10**5)
    n = step_count(cfg)
    assert n == 100000
    whole_horizon_increments = 2 * n * 8  # both coordinates' float64 increments at once
    tracemalloc.start()
    try:
        traj = integrate_sde(tumv, NoiseSpec(0.05, 0.05), eq, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 2
    assert peak < whole_horizon_increments / 4


def test_em_strong_order_exponent():
    assert 0.35 <= measure_em_strong_order(n_paths=120) <= 0.65


# ---------------------------------------------------------------------------
# centralized drift

def test_centralized_rhs_zero_at_center(tumv):
    eq = positive_equilibrium(tumv)
    assert centralized_rhs(tumv, eq, (0.0, 0.0)) == (0.0, 0.0)


def test_centralized_rhs_quadratic_remainder(tumv):
    eq = positive_equilibrium(tumv)
    rep = linearize(tumv, eq)
    br = tumv.b * tumv.r
    rng = np.random.default_rng(71)
    for scale in (1e-2 * tumv.K, 1e-4 * tumv.K, 1e-6 * tumv.K):
        u = rng.normal(size=2)
        u *= scale / math.hypot(*u)
        g1, g2 = centralized_rhs(tumv, eq, (u[0], u[1]))
        lin1 = rep.a11 * u[0] + rep.a12 * u[1]
        lin2 = rep.a21 * u[0] + rep.a22 * u[1]
        bound = 2.0 * br * scale * scale  # |x1+x2||x2| <= 2|x|^2
        assert abs(g1 - lin1) <= bound
        assert abs(g2 - lin2) <= bound


def test_centralized_rhs_matches_raw_field(tumv):
    eq = positive_equilibrium(tumv)
    rng = np.random.default_rng(73)
    tol = 1e-9 * max(1.0, tumv.r * tumv.K)
    for _ in range(200):
        x = rng.uniform(-0.5, 0.5, size=2) * tumv.K
        g = centralized_rhs(tumv, eq, (x[0], x[1]))
        f = vector_field(tumv, State(eq.p_star + x[0], eq.m_star + x[1]))
        assert abs(g[0] - f[0]) <= tol
        assert abs(g[1] - f[1]) <= tol


def test_centralized_rhs_origin_anchor_equals_field():
    p = validate_params(r=0.5, alpha=1, delta=1, sigma=1, K=100.0)
    rng = np.random.default_rng(79)
    for _ in range(50):
        x = rng.uniform(0, p.K, size=2)
        g = centralized_rhs(p, origin_equilibrium(), (x[0], x[1]))
        f = vector_field(p, State(x[0], x[1]))
        assert g[0] == pytest.approx(f[0], rel=1e-12, abs=1e-12 * p.K)
        assert g[1] == pytest.approx(f[1], rel=1e-12, abs=1e-12 * p.K)


# ---------------------------------------------------------------------------
# streams and output

def test_brownian_increments_reproducible():
    a = brownian_increments(123, 4, 0, 64, 0.25)
    b = brownian_increments(123, 4, 0, 64, 0.25)
    assert (a == b).all()
    assert not (a == brownian_increments(123, 4, 1, 64, 0.25)).all()
    assert not (a == brownian_increments(123, 5, 0, 64, 0.25)).all()
    assert not (a == brownian_increments(124, 4, 0, 64, 0.25)).all()


def test_trajectory_csv_round_trip(tmp_path, tumv):
    cfg = SimConfig(dt=0.5, t_end=5.0, initial=State(1.0, 0.0))
    traj = integrate_ode(tumv, cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p,m"
    assert len(lines) == 1 + len(traj.times)
    for line, t, (p, m) in zip(lines[1:], traj.times, traj.states):
        ts, ps, ms = line.split(",")
        assert float(ts) == t and float(ps) == p and float(ms) == m
