import io
import math
from enum import Enum
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import settings

from ssrna import ModelParams, NoiseSpec, serialize, validate_params

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
    the matched Wiener path is the oracle.
    """
    from ssrna import ModelParams, SimConfig, State, integrate_sde, origin_equilibrium
    from ssrna.simulator import brownian_increments

    a, w, x0, t_end = -0.5, 0.5, 1.0, 1.0
    params = ModelParams(r=0.0, alpha=1.0, delta=-a, sigma=1.0, K=1.0)
    anchor = origin_equilibrium()
    levels = [2**-4, 2**-5, 2**-6, 2**-7, 2**-8]
    n_fine = int(round(t_end / levels[-1]))
    noise = _noise(w)

    errors = np.zeros(len(levels))
    for k in range(n_paths):
        fine = brownian_increments(master_seed, k, 0, n_fine, levels[-1])
        exact = x0 * math.exp((a - 0.5 * w * w) * t_end + w * float(fine.sum()))
        for i, dt in enumerate(levels):
            ratio = int(round(dt / levels[-1]))
            n = n_fine // ratio
            dW = np.zeros((n, 2))
            dW[:, 0] = fine.reshape(n, ratio).sum(axis=1)
            cfg = SimConfig(dt=dt, t_end=t_end, initial=State(x0, 0.0), record_stride=10**9)
            traj = integrate_sde(params, noise, anchor, cfg, dW=dW)
            errors[i] += abs(traj.final_state.p - exact)
    errors /= n_paths
    slope = np.polyfit(np.log(levels), np.log(errors), 1)[0]
    return float(slope)


def _noise(w):
    from ssrna import NoiseSpec

    return NoiseSpec(w, 0.0)
