import io
import math
from enum import Enum
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import settings

from ssrna import IntegrationError, ModelParams, NoiseSpec, serialize, validate_params

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")

# Turnip mosaic virus rates; the canonical quantitative regression fixture.
TUMV = dict(r=0.1211, alpha=0.0743, delta=0.0049, sigma=0.0121, K=4.694e7)


@pytest.fixture
def tumv():
    return validate_params(**TUMV)


@pytest.fixture(scope="session")
def scalar_library():
    """A second copy of the compiled library, built as _em builds it (the same compiler and archive)
    with one flag more, which defines __builtin_cpu_supports to 0, so on any CPU it refills one Philox
    block at a time and steps two replicates per register, as a CPU without AVX-512F does.  The flags
    are part of the cache key, so it is cached beside the default library."""
    from ssrna import _em

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_em, "_FLAGS", (*_em._FLAGS, "-D__builtin_cpu_supports(x)=0"))
        patch.setattr(_em, "_lib", None)
        return _em.library()


def use_workers(monkeypatch, n):
    """Run ensembles and sweeps in n threads, whatever the CPUs."""
    from ssrna import montecarlo

    monkeypatch.setattr(montecarlo, "_worker_count", lambda replicates: n)


def use_block_rows(monkeypatch, rows):
    """Step ensembles and sweeps in blocks of `rows` recorded rows, whatever their horizon: every
    Slice, and the memory check, looks up _em.block_rows when it is made."""
    from ssrna import _em

    monkeypatch.setattr(_em, "block_rows", lambda n, stride: rows)


def new_slice(cells, seed, dt, steps, stride, replicates):
    """An _em.Slice of an ensemble of cells that folds into new Sums of its cells and recorded rows,
    its `sums`."""
    from ssrna import _em

    sums = _em.Sums(len(cells), _em.recorded_rows(steps, stride))
    return _em.Slice(cells, seed, dt, steps, stride, replicates, sums)


def centralized_rhs(params, eq):
    """The drift of the dynamics rewritten in deviations x = state - eq, as a function of (x1, x2).

    Splits into the linear drift-matrix part plus a single quadratic coupling, in the evaluation
    order of the compiled kernel's step (_em.c's EM_STEP); algebraically identical to
    vector_field(params, eq + x) whenever eq is a true equilibrium (which is checked).
    """
    from ssrna.simulator import _drift_coefficients, check_anchor

    check_anchor(params, eq)
    a11, a12, a21, a22, br, abr = _drift_coefficients(params, eq)

    def drift(x1, x2):
        s = x1 + x2
        return a11 * x1 + a12 * x2 - br * s * x2, a21 * x1 + a22 * x2 - abr * s * x1

    return drift


def em_deviations(params, noise, eq, initial, dt, increments):
    """The tests' reference of the compiled Euler-Maruyama step (_em.c's EM_STEP), in Python floats:
    the deviations from eq at the start, then after the step on each row (d1, d2) of increments.

    A diverging path goes on through its steps: its deviations turn infinite or NaN, and stay so.
    """
    drift = centralized_rhs(params, eq)
    x1, x2 = float(initial[0]) - eq.p_star, float(initial[1]) - eq.m_star
    yield x1, x2
    for d1, d2 in increments:
        g1, g2 = drift(x1, x2)
        x1 = x1 + g1 * dt + noise.omega1 * x1 * d1
        x2 = x2 + g2 * dt + noise.omega2 * x2 * d2
        yield x1, x2


def drawn_increments(seed, replicate, n, dt):
    """The rows (d1, d2) of n steps of dt that the streams keyed (seed, 2 replicate + coordinate)
    give, as the compiled kernel draws them: brownian_increments, one coordinate at a time."""
    from ssrna.simulator import brownian_increments

    return zip(*(brownian_increments(seed, replicate, c, n, dt).tolist() for c in (0, 1)))


def em_states(params, noise, eq, cfg, replicate):
    """The reference path of integrate_sde(params, noise, eq, cfg, replicate): the start state, then
    the state after each step."""
    from ssrna.simulator import step_count

    increments = drawn_increments(cfg.seed, replicate, step_count(cfg), cfg.dt)
    for x1, x2 in em_deviations(params, noise, eq, cfg.initial, cfg.dt, increments):
        yield eq.p_star + x1, eq.m_star + x2


def recorded(cfg, K, states, hint):
    """The Python path recorder the compiled one replaced, kept as its reference.

    From the start state and the state after each step, keeps those of the
    recorded steps and notes the first time the state left the phase-space
    triangle; raises IntegrationError, naming the hint, at the first
    non-finite state.
    """
    from ssrna.simulator import OMEGA_EXIT_RTOL, recorded_steps, step_count

    dt = cfg.dt
    tol = OMEGA_EXIT_RTOL * K
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


def outcome(run):
    """(times, states, exited_omega) of run() as lists, or the message and time of its IntegrationError."""
    try:
        result = run()
    except IntegrationError as exc:
        return str(exc), exc.t
    if isinstance(result, tuple):
        return result
    return result.times.tolist(), result.states.tolist(), result.exited_omega


def em_reference(params, noise, eq, cfg, replicate):
    """The outcome of integrate_sde(params, noise, eq, cfg, replicate) by the reference: its recorded
    rows, or the message and time of the IntegrationError at its first non-finite state."""
    return outcome(lambda: recorded(cfg, params.K, em_states(params, noise, eq, cfg, replicate),
                                    "noise or step too large?"))


def deviations_sq(traj, anchor):
    """The squared Euclidean deviation of each recorded state of a trajectory from an anchor."""
    dp = traj.p - anchor.p_star
    dm = traj.m - anchor.m_star
    return dp * dp + dm * dm


def dumps(obj):
    """The JSON text that serialize.dump writes for obj."""
    fh = io.BytesIO()
    serialize.dump(obj, fh)
    return fh.getvalue().decode()


def record(cls, data):
    """Rebuild the record class cls from its serialize.plain form, following its field annotations."""
    hints = get_type_hints(cls)
    return cls(**{name: _typed(hints[name], data[name]) for name in cls._fields})


def _typed(tp, value):
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
        return _typed(tp, value)
    if origin is tuple:
        return tuple(_typed(a, v) for a, v in zip(get_args(tp), value))
    if isinstance(tp, type) and issubclass(tp, serialize.Record):
        return record(tp, value)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(value)
    if tp is float:  # an integral float is written without a decimal point
        return float(value)
    return value


def analysis_from_dict(d):
    """The model, the noise and the classification that an analysis.json document was written from."""
    from ssrna.stability import StabilityClassification

    assert d["schema"] == "ssrna-analysis/1"
    params = validate_params(**{name: d["model"][name] for name in ModelParams._fields})
    noise = NoiseSpec(**{name: d["noise"][name] for name in NoiseSpec._fields})
    return params, noise, record(StabilityClassification, d)


def random_params(rng, r0_min=None, r0_max=None, max_tries=10000):
    """Random valid parameter set, optionally filtered on R0."""
    for _ in range(max_tries):
        p = validate_params(
            r=10.0 ** rng.uniform(-2, 1),
            alpha=rng.uniform(0.05, 1.0),
            delta=10.0 ** rng.uniform(-2, 1),
            sigma=10.0 ** rng.uniform(-2, 1),
            K=10.0 ** rng.uniform(2, 8),
        )
        r0 = p.r * math.sqrt(p.alpha / (p.delta * p.sigma))
        if r0_min is not None and not r0 > r0_min:
            continue
        if r0_max is not None and not r0 < r0_max:
            continue
        return p
    raise AssertionError("sampler failed to satisfy the R0 filter")


def random_stable_matrix(rng):
    """Random 2x2 with negative trace and positive determinant."""
    while True:
        a = rng.normal(size=4)
        trace = a[0] + a[3]
        det = a[0] * a[3] - a[1] * a[2]
        if trace < 0.0 and det > 0.0:
            return a


def random_point_in_triangle(rng, K, margin=0.0):
    """Uniform point of the phase-space triangle, optionally shrunk inward."""
    u, v = rng.uniform(0, 1, size=2)
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    lo = margin
    scale = 1.0 - 3.0 * margin
    return (lo + scale * u) * K, (lo + scale * v) * K


def report_from_entries(a11, a12, a21, a22, equilibrium=None):
    """LinearizationReport built from raw entries (test-side helper)."""
    from ssrna import LinearizationReport, origin_equilibrium

    trace = a11 + a22
    det = a11 * a22 - a12 * a21
    eq = equilibrium if equilibrium is not None else origin_equilibrium()
    return LinearizationReport(a11, a12, a21, a22, trace, det, det + a11 * a11, det + a22 * a22, eq)


def as_matrix(rep):
    return np.array([[rep.a11, rep.a12], [rep.a21, rep.a22]])


def measure_rk4_order():
    """Measured RK4 convergence exponent on the replication ODE."""
    from ssrna import SimConfig, State, integrate_ode

    params = validate_params(r=2, alpha=1, delta=1, sigma=1, K=1)
    initial = State(0.1, 0.05)
    t_fix = 2.0
    dts = [0.2, 0.1, 0.05, 0.025]
    errors = []
    for dt in dts:
        got = integrate_ode(params, SimConfig(dt=dt, t_end=t_fix, initial=initial, record_stride=10**9))
        ref = integrate_ode(params, SimConfig(dt=dt / 16, t_end=t_fix, initial=initial, record_stride=10**9))
        gp, gm = got.final_state
        rp, rm = ref.final_state
        errors.append(math.hypot(gp - rp, gm - rm))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    return float(slope)


def measure_em_strong_order(n_paths, master_seed=20240706):
    """Measured Euler-Maruyama strong-convergence exponent on the scalar
    multiplicative-noise test equation dx = a x dt + w x dW.

    The coupling rate r is set to zero (direct ModelParams construction, the
    dedicated test hook), which decouples the genomic coordinate into exactly
    that equation with a = -delta; the exact geometric-Brownian solution at
    the matched Wiener path is the oracle.  Each coarser level steps the sums
    of the finest level's increments, so the scheme is stepped by the
    reference recursion (em_deviations), which the compiled kernel repeats
    bit for bit on the increments it draws.
    """
    from ssrna import ModelParams, State, origin_equilibrium
    from ssrna.simulator import brownian_increments

    a, w, x0, t_end = -0.5, 0.5, 1.0, 1.0
    params = ModelParams(r=0.0, alpha=1.0, delta=-a, sigma=1.0, K=1.0)
    anchor, noise = origin_equilibrium(), NoiseSpec(w, 0.0)
    levels = [2**-4, 2**-5, 2**-6, 2**-7, 2**-8]
    n_fine = int(round(t_end / levels[-1]))

    errors = np.zeros(len(levels))
    for k in range(n_paths):
        fine = brownian_increments(master_seed, k, 0, n_fine, levels[-1])
        exact = x0 * math.exp((a - 0.5 * w * w) * t_end + w * float(fine.sum()))
        for i, dt in enumerate(levels):
            n = int(round(t_end / dt))
            increments = ((d, 0.0) for d in fine.reshape(n, n_fine // n).sum(axis=1).tolist())
            *_, (x1, _) = em_deviations(params, noise, anchor, State(x0, 0.0), dt, increments)
            errors[i] += abs(x1 - exact)
    errors /= n_paths
    slope = np.polyfit(np.log(levels), np.log(errors), 1)[0]
    return float(slope)
