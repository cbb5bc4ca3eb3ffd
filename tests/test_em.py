"""The compiled library: its Philox streams, its draws, its build and its cache."""

import json
import math

import numpy as np
import pytest

from ssrna import (
    NoiseSpec,
    SimConfig,
    State,
    integrate_sde,
    origin_equilibrium,
    simulator,
    validate_params,
)
from ssrna import _em, cli
from ssrna.simulator import brownian_increments, step_count

from conftest import TUMV

U64_MAX = 2**64 - 1


def seeded_stream(key) -> np.ndarray:
    stream = np.empty(simulator._STREAM_WORDS, np.uint64)
    _em.library().em_seed(stream.ctypes.data, *key)
    return stream


def raw_words(stream: np.ndarray, n: int) -> np.ndarray:
    words = np.empty(n, np.uint64)
    _em.library().em_raw(stream.ctypes.data, n, words.ctypes.data)
    return words


def test_stream_size_is_what_the_memory_check_counts():
    assert _em.library().em_stream_words() == simulator._STREAM_WORDS


def test_slice_size_is_the_kernels_block():
    assert _em.library().em_block() == _em.BLOCK


@pytest.mark.parametrize("key", [(0, 0), (0, U64_MAX), (U64_MAX, 0), (U64_MAX, U64_MAX), (20240706, 7)])
def test_philox_words_equal_numpy(key):
    # 1001 words: 250 whole blocks of four and the first word of the next
    expected = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(1001)
    assert np.array_equal(raw_words(seeded_stream(key), 1001), expected)


def test_philox_counter_carries_like_numpy():
    # a stream's words are ctr[4], key[2], buffer[4], buffer_pos: start it
    # where the next block's counter carries into the top word
    counter = np.array([U64_MAX, U64_MAX, U64_MAX, 5], dtype=np.uint64)
    key = np.array([3, U64_MAX], dtype=np.uint64)
    stream = seeded_stream(key.tolist())
    stream[:4] = counter
    expected = np.random.Philox(counter=counter, key=key).random_raw(9)
    assert np.array_equal(raw_words(stream, 9), expected)


def test_kernel_draws_equal_brownian_increments_into_the_ziggurat_tail():
    # 100000 steps draw 200000 normals.  About one in 3900 lies beyond the
    # ziggurat's base layer (3.654...), where numpy's sampler takes its
    # tail branch.  The path stays near the coexistence state, far from the
    # origin anchor, so every increment moves it by far more than an ulp.
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.25, t_end=25000.0, initial=State(300.0, 250.0), seed=99, record_stride=7)
    n = step_count(cfg)
    assert 2 * n >= 200000
    dW = np.stack([brownian_increments(cfg.seed, 5, c, n, cfg.dt) for c in (0, 1)], axis=1)
    assert np.count_nonzero(np.abs(dW) > 3.6541528853610088 * math.sqrt(cfg.dt)) > 10
    args = (p, NoiseSpec(0.3, 0.2), origin_equilibrium(), cfg)
    drawn = integrate_sde(*args, replicate=5)
    assert np.array_equal(drawn.states, integrate_sde(*args, dW=dW).states)
    assert drawn.states.min() > 10.0  # no increment was lost in rounding


def test_single_path_is_stepped_in_one_call(monkeypatch):
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    sim = SimConfig(dt=0.25, t_end=0.25 * 27, initial=State(300.0, 300.0))
    calls, path = [], _em.path

    def counted(cell, seed, replicate, recorder, *args):
        calls.append(recorder.n)
        return path(cell, seed, replicate, recorder, *args)

    monkeypatch.setattr(_em, "path", counted)
    traj = integrate_sde(p, NoiseSpec(0.1, 0.1), origin_equilibrium(), sim)
    assert calls == [27]
    assert len(traj.times) == 28


EM_CONFIG = {
    "schema": "ssrna-config/1",
    "model": dict(TUMV),
    "noise": {"omega1": 0.05, "omega2": 0.05},
    "ensemble": {"replicates": 4, "anchor": "positive", "epsilon1": 1.0, "master_seed": 1,
                 "sim": {"t_end": 10.0, "initial": {"displace_fraction": 0.01}}},
    "simulate": {"scheme": "euler-maruyama", "anchor": "positive", "t_end": 10.0,
                 "initial": {"displace_fraction": 0.01}},
}


# every command loads the library: simulate-rk4 for its path, analyze for its writer
@pytest.mark.parametrize("command", ["ensemble", "simulate", "simulate-rk4", "analyze"])
def test_build_failure_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_em, "_lib", None)
    monkeypatch.setattr(_em, "_compiler", lambda: ["false"])
    blocks = {"ensemble": EM_CONFIG["ensemble"], "simulate": EM_CONFIG["simulate"],
              "simulate-rk4": dict(EM_CONFIG["simulate"], scheme="rk4"), "analyze": {}}
    command, block = command.split("-")[0], blocks[command]
    config = {key: EM_CONFIG[key] for key in ("schema", "model", "noise")}
    config[command] = block
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot build")
    assert "`false -O2 -ffp-contract=off" in captured.err and "Traceback" not in captured.err
    assert list((tmp_path / "cache" / "ssrna").iterdir()) == []  # no half-written library


def test_changed_source_builds_a_new_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = _em._build()
    compiler = _em._compiler
    monkeypatch.setattr(_em, "_compiler", lambda: ["false"])
    assert _em._build() == first  # cached: the compiler is not run again
    changed = tmp_path / "_em.c"
    changed.write_bytes(_em._SOURCE.read_bytes() + b"\n/* changed */\n")
    monkeypatch.setattr(_em, "_SOURCE", changed)
    monkeypatch.setattr(_em, "_compiler", compiler)
    second = _em._build()
    assert second != first
    assert sorted((tmp_path / "ssrna").iterdir()) == sorted([first, second])
