"""The compiled library: its Philox streams, its draws, its build and its cache."""

import ctypes
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrna import (
    NoiseSpec,
    SimConfig,
    State,
    integrate_sde,
    origin_equilibrium,
    simulator,
    validate_params,
)
from ssrna import _em, cli, montecarlo
from ssrna.errors import KernelError
from ssrna.simulator import brownian_increments, step_count

from conftest import TUMV, use_block_rows

U64_MAX = 2**64 - 1


def seeded_stream(key, library=None) -> np.ndarray:
    stream = np.empty(_em._STREAM_WORDS, np.uint64)
    (library or _em.library()).em_seed(stream.ctypes.data, *key)
    return stream


def raw_words(stream: np.ndarray, n: int, library=None) -> np.ndarray:
    words = np.empty(n, np.uint64)
    (library or _em.library()).em_raw(stream.ctypes.data, n, words.ctypes.data)
    return words


def test_stream_size_is_what_the_memory_check_counts():
    # a Slice holds two streams per column, which ensemble_bytes counts at _STREAM_WORDS words each
    assert _em.library().em_stream_words() == _em._STREAM_WORDS
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cell = simulator._kernel_cell(p, origin_equilibrium(), NoiseSpec(0.1, 0.1), State(1.0, 2.0), 4.0)
    for replicates, columns in ((1, 8), (9, 16), (1000, 64)):
        buffer = _em.Slice([cell], 0, 0.5, 2, 1, replicates)
        assert len(buffer.streams) * buffer.streams.itemsize == 2 * columns * _em.library().em_stream_words() * 8


def test_slice_size_is_the_kernels_block():
    assert _em.library().em_block() == _em.BLOCK


def test_recorder_has_the_kernels_layout():
    assert _em.library().em_recorder_bytes() == ctypes.sizeof(_em.Recorder)


def test_slice_has_the_kernels_layout():
    assert _em.library().em_slice_bytes() == ctypes.sizeof(_em.Slice)


def check_blocks(n, stride, rows, blocks):
    """Check that a horizon of n steps, recorded every stride-th step, takes `blocks` blocks of `rows` rows.

    A block holds the rows up to the first recorded step at least BLOCK_STEPS steps in, that one
    included: each block but the last spans at least BLOCK_STEPS steps, and a row fewer would not.
    """
    assert _em.block_rows(n, stride) == rows
    assert -(-_em.recorded_rows(n, stride) // rows) == blocks
    # the steps each block takes: from the last of the block before, or from 0
    rec = simulator.recorded_steps(n, stride)
    ends = [rec[min(i + rows, len(rec)) - 1] for i in range(0, len(rec), rows)]
    spans = [b - a for a, b in zip([0, *ends], ends)]
    assert len(spans) == blocks and all(span >= _em.BLOCK_STEPS for span in spans[:-1])
    assert blocks == 1 or rec[rows - 2] < _em.BLOCK_STEPS  # a row fewer would span fewer


@pytest.mark.parametrize("n, stride, rows, blocks", [
    (18626, 10, 53, 36),   # rows 0 to 52, steps 0 to 520; the 36th block holds rows 1855 to 1863
    (18626, 1, 513, 37),
    (512, 1, 513, 1),
    (513, 1, 513, 2),      # the second block holds the last row only
    (511, 1, 512, 1),      # every step of a horizon shorter than BLOCK_STEPS
    (1863, 1, 513, 4),     # every step of ensemble_wide's horizon
    (932, 2**63 - 1, 2, 1),  # a sweep records the start and the end: one block, whatever the horizon
    (10**12, 2**63 - 1, 2, 1),
    (10**7, 5000, 2, 1001),
])
def test_blocks_span_the_default_block_steps(n, stride, rows, blocks):
    assert _em.BLOCK_STEPS == 512
    check_blocks(n, stride, rows, blocks)


@pytest.mark.parametrize("n, stride, rows, blocks", [
    (18626, 10, 411, 5),   # rows 0 to 410, steps 0 to 4100; the fifth block holds rows 1644 to 1863
    (18626, 1, 4097, 5),
    (4096, 1, 4097, 1),
    (4097, 1, 4097, 2),    # the second block holds the last row only
    (1863, 1, 1864, 1),    # every step of a horizon shorter than BLOCK_STEPS
    (932, 2**63 - 1, 2, 1),  # a sweep records the start and the end: one block, whatever the horizon
    (10**12, 2**63 - 1, 2, 1),
    (10**7, 5000, 2, 1001),
])
def test_blocks_span_block_steps(monkeypatch, n, stride, rows, blocks):
    # the same rule at a block eight times as long: block_rows follows BLOCK_STEPS
    monkeypatch.setattr(_em, "BLOCK_STEPS", 4096)
    check_blocks(n, stride, rows, blocks)


def buffer_bytes(obj) -> int:
    """Bytes of the array buffers that obj holds."""
    return sum(a.buffer_info()[1] * a.itemsize for a in vars(obj).values() if isinstance(a, array))


@pytest.mark.parametrize("ncells, steps, every, workers, replicates, stride, block", [
    (1, 1, 1, 1, 1, 8, 2), (1, 5000, 1, 2, 64, 64, 513), (3, 6, 1, 2, 9, 16, 7), (16, 1, 1, 4, 1000, 64, 2),
    (1, 5000, 1, 2, 2, 8, 513), (1, 5000, 1, 2, 64, 64, 1), (1, 5000, 10, 2, 64, 64, 53),
    (16, 10**12, 2**63 - 1, 2, 9, 16, 2),
], ids=["1-2-1", "1-5001-2", "3-7-2", "16-2-4", "1-5001-2-two-replicates", "1-5001-2-one-row-blocks",
        "1-501-2-stride-10", "16-2-2-sweep"])
def test_ensemble_bytes_are_the_buffers_allocated(monkeypatch, ncells, steps, every, workers, replicates, stride,
                                                  block):
    # a slice holds columns for min(64, replicates) replicates, rounded up to whole groups of 8 lanes, and
    # one block of rows; the statistics are reduced one cell at a time, and their t is the recorded times
    if block == 1:
        use_block_rows(monkeypatch, 1)
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cell = simulator._kernel_cell(p, origin_equilibrium(), NoiseSpec(0.1, 0.1), State(1.0, 2.0), 4.0)
    buffer = _em.Slice([cell] * ncells, 0, 0.5, steps, every, replicates)
    assert buffer.stride == _em.slice_stride(replicates) == stride
    assert buffer.block == block
    nrec = _em.recorded_rows(steps, every)
    sums, times = _em.Sums(ncells, nrec), array("d", range(nrec))
    sums.counts[0] = 1  # an included replicate in cell 0
    stats = montecarlo._reduce(sums, 0, times)
    assert vars(stats)["times"] is times
    stats_bytes = sum(len(vars(stats)[name]) * 8 for name in ("times", "mean_sq_dev", "exceed_fraction_cum"))
    expected = buffer_bytes(sums) + stats_bytes + workers * buffer_bytes(buffer)
    assert _em.ensemble_bytes(ncells, steps, every, workers, replicates) == expected


@pytest.mark.parametrize("steps, stride", [(0, 1), (-1, 1), (4, 0), (4, -3)])
def test_slice_refuses_a_horizon_without_steps_or_stride(steps, stride):
    # em_fold counts (steps - 1) // stride + 2 recorded rows, and em_run records every stride-th step
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cell = simulator._kernel_cell(p, origin_equilibrium(), NoiseSpec(0.1, 0.1), State(1.0, 2.0), 4.0)
    with pytest.raises(ValueError, match=f"a stride >= 1, not {steps}, {stride}$"):
        _em.Slice([cell], 0, 0.5, steps, stride, 8)


def test_slice_steps_its_replicates_a_block_at_a_time(monkeypatch):
    # em_run resumes the slice in progress, so a call mid-way must name its replicates; a slice that has
    # stepped its last block starts the replicates it is given from step 0
    p = validate_params(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cell = simulator._kernel_cell(p, origin_equilibrium(), NoiseSpec(0.1, 0.1), State(1.0, 2.0), 4.0)
    use_block_rows(monkeypatch, 2)
    buffer = _em.Slice([cell], 0, 0.5, 4, 1, 8)
    rows = []
    for first in (0, 0, 0, 8):
        buffer.step(first, 8)
        rows.append((buffer.rows, buffer.done))
        if not buffer.done:
            with pytest.raises(ValueError, match="mid-way"):
                buffer.step(first + 1, 8)
    assert rows == [(2, False), (2, False), (1, True), (2, False)]
    sq = buffer.sq.tobytes()  # replicates 8 to 15 over rows 0 and 1
    for first in (8, 8, 16, 16, 16):
        buffer.step(first, 8)
    assert buffer.done
    buffer.step(8, 8)
    assert (buffer.rows, buffer.done, buffer.sq.tobytes()) == (2, False, sq)


@pytest.mark.parametrize("key", [(0, 0), (0, U64_MAX), (U64_MAX, 0), (U64_MAX, U64_MAX), (20240706, 7)])
def test_philox_words_equal_numpy(key):
    # 1001 words: 250 whole blocks of four and the first word of the next
    expected = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(1001)
    assert np.array_equal(raw_words(seeded_stream(key), 1001), expected)


def test_philox_counter_carries_like_numpy():
    # a stream's words are ctr[4], key[2], buffer[32], buffer_pos: start it
    # where the next block's counter carries into the top word
    counter = np.array([U64_MAX, U64_MAX, U64_MAX, 5], dtype=np.uint64)
    key = np.array([3, U64_MAX], dtype=np.uint64)
    stream = seeded_stream(key.tolist())
    stream[:4] = counter
    expected = np.random.Philox(counter=counter, key=key).random_raw(9)
    assert np.array_equal(raw_words(stream, 9), expected)


def test_refill_lanes_follow_the_cpu():
    # where the CPU has AVX-512F a stream's refill computes eight blocks, and em_run's step eight replicates, in the
    # lanes of an AVX-512 register; elsewhere the refill computes one block at a time, and the step two replicates
    lanes = _em.library().em_refill_lanes()
    if platform.machine() != "x86_64":
        assert lanes == 1
    elif sys.platform.startswith("linux"):
        flags = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.MULTILINE).group(1).split()
        assert lanes == (8 if "avx512f" in flags else 1)
    else:
        assert lanes in (1, 8)


@pytest.mark.parametrize("key", [(0, 0), (3, U64_MAX), (U64_MAX, U64_MAX)])
@pytest.mark.parametrize("low", [U64_MAX - 19, U64_MAX - 8, U64_MAX - 7, U64_MAX - 6, U64_MAX])
def test_refills_equal_numpy_across_the_counter_carry(scalar_library, low, key):
    # A refill from counter ctr computes the blocks of ctr + 1 .. ctr + 8, in eight lanes where the
    # CPU has AVX-512F and one after another in the scalar library; the carry here goes on into
    # ctr[2].  200 words are seven refills, before, across and after the carry.
    counter = np.array([low, U64_MAX, 7, 0], dtype=np.uint64)
    expected = np.random.Philox(counter=counter, key=np.array(key, dtype=np.uint64)).random_raw(200)
    for library in (_em.library(), scalar_library):
        assert_words_equal_numpy(library, key, counter, expected)


def assert_words_equal_numpy(library, key, counter, expected):
    """The words of library's stream keyed key from counter are numpy's `expected`."""
    stream = seeded_stream(key, library)
    stream[:4] = counter  # a stream's words are ctr[4], key[2], buffer[32], buffer_pos
    assert np.array_equal(raw_words(stream, len(expected), library), expected), library.em_refill_lanes()


WORDS = st.integers(0, U64_MAX)


@settings(max_examples=60)
@given(key=st.tuples(WORDS, WORDS), n=st.integers(1, 200),
       counter=st.tuples(st.integers(U64_MAX - 40, U64_MAX), *[st.one_of(st.just(U64_MAX), WORDS)] * 3))
def test_refills_equal_numpy_near_the_counter_carries_by_property(scalar_library, key, counter, n):
    # the low word carries within the first six refills, into words that carry on or stop, up to
    # the top word, which wraps round to 0 as numpy's does
    counter = np.array(counter, dtype=np.uint64)
    expected = np.random.Philox(counter=counter, key=np.array(key, dtype=np.uint64)).random_raw(n)
    for library in (_em.library(), scalar_library):
        assert_words_equal_numpy(library, key, counter, expected)


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


def ziggurat_draws(key, n: int) -> list[tuple[int, int, int]]:
    """Per standard normal of numpy's Generator(Philox(key)), in turn: the stream position of its
    first word, the words it took (more than one on a reject of the first try) and that word's
    layer (its low 8 bits; layer 0 holds the tail)."""
    bit_generator = np.random.Philox(key=np.array(key, dtype=np.uint64))
    words = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(8 * n + 8)
    generator, draws, position = np.random.Generator(bit_generator), [], 0
    for _ in range(n):
        generator.standard_normal()
        state = bit_generator.state  # block `counter` is being read at buffer_pos (no carry this early)
        end = 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"])
        draws.append((position, end - position, int(words[position]) & 0xFF))
        position = end
    return draws


# Streams of seed 99 whose normals leave the ziggurat's first try, found by scanning replicates
# with ziggurat_draws: (replicate, coordinate, draw, what the reject is).
ZIGGURAT_REJECTS = [
    (15, 0, 0, "wedge"), (54, 0, 0, "wedge"), (3280, 0, 0, "tail"), (6960, 1, 0, "tail"),
    (5, 1, 3, "last word of a block"), (44, 1, 7, "last word of a block"),
]


@pytest.mark.parametrize("replicate, coordinate, draw, kind", ZIGGURAT_REJECTS)
def test_kernel_draws_equal_numpy_where_the_first_try_is_rejected(replicate, coordinate, draw, kind):
    seed, steps = 99, 8
    position, words, layer = ziggurat_draws((seed, 2 * replicate + coordinate), steps)[draw]
    assert words > 1
    assert {"wedge": layer != 0, "tail": layer == 0, "last word of a block": position % 4 == 3}[kind]
    # the origin anchor makes the deviations the state, so |x|^2 is p * p + m * m
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.25, t_end=0.25 * steps, initial=State(300.0, 250.0), seed=seed)
    dW = np.stack([brownian_increments(seed, replicate, c, steps, cfg.dt) for c in (0, 1)], axis=1)
    noise, anchor = NoiseSpec(0.3, 0.2), origin_equilibrium()
    imposed = integrate_sde(p, noise, anchor, cfg, dW=dW).states
    assert np.array_equal(integrate_sde(p, noise, anchor, cfg, replicate=replicate).states, imposed)
    cell = simulator._kernel_cell(p, anchor, noise, cfg.initial, math.inf)
    buffer = _em.Slice([cell], seed, cfg.dt, steps, 1, 1)  # one block of every row
    buffer.step(replicate, 1)
    assert list(buffer.sq[::buffer.stride]) == [pm * pm + mm * mm for pm, mm in imposed.tolist()]


# Streams of seed 99 whose normal at `draw` rejects the first try on the last word of the refilled
# buffer, so the fallback refills it: (replicate, coordinate, draw).
BUFFER_END_REJECTS = [(13, 1, 28), (121, 1, 30)]


@pytest.mark.parametrize("replicate, coordinate, draw", BUFFER_END_REJECTS)
def test_kernel_draws_equal_numpy_where_a_reject_ends_the_buffer(replicate, coordinate, draw):
    seed, steps = 99, 32
    position, words, _ = ziggurat_draws((seed, 2 * replicate + coordinate), steps)[draw]
    assert words > 1 and position % 32 == 31  # the last of the 32 words a refill computes
    p = validate_params(r=1.0, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg = SimConfig(dt=0.25, t_end=0.25 * steps, initial=State(300.0, 250.0), seed=seed)
    dW = np.stack([brownian_increments(seed, replicate, c, steps, cfg.dt) for c in (0, 1)], axis=1)
    noise, anchor = NoiseSpec(0.3, 0.2), origin_equilibrium()
    imposed = integrate_sde(p, noise, anchor, cfg, dW=dW).states
    assert np.array_equal(integrate_sde(p, noise, anchor, cfg, replicate=replicate).states, imposed)
    buffer = _em.Slice([simulator._kernel_cell(p, anchor, noise, cfg.initial, math.inf)], seed, cfg.dt,
                       steps, 1, 1)  # one block of every row
    buffer.step(replicate, 1)
    assert list(buffer.sq[::buffer.stride]) == [pm * pm + mm * mm for pm, mm in imposed.tolist()]


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


def run_on_empty_cache(tmp_path, monkeypatch, command, out="out") -> int:
    """The exit status of `command` (ensemble, simulate, simulate-rk4 or analyze) run into
    tmp_path/out on an empty cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_em, "_lib", None)
    blocks = {"ensemble": EM_CONFIG["ensemble"], "simulate": EM_CONFIG["simulate"],
              "simulate-rk4": dict(EM_CONFIG["simulate"], scheme="rk4"), "analyze": {}}
    command, block = command.split("-")[0], blocks[command]
    config = {key: EM_CONFIG[key] for key in ("schema", "model", "noise")}
    config[command] = block
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / out)])


def failed_build(tmp_path, monkeypatch, capsys, command) -> str:
    """The error line of `command` run on an empty cache whose library cannot be built, checked
    to be one line with exit 1, no traceback and no file left in the cache."""
    assert run_on_empty_cache(tmp_path, monkeypatch, command) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot build")
    assert "Traceback" not in captured.err
    assert list((tmp_path / "cache" / "ssrna").iterdir()) == []  # no half-written library
    return captured.err


def failing_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(_em, "_compiler", lambda: ["false"])


def without_objcopy(tmp_path, monkeypatch):
    # a PATH that holds the compiler but not binutils' objcopy
    shim = tmp_path / "bin"
    shim.mkdir()
    compiler = _em._compiler()[0]
    (shim / Path(compiler).name).symlink_to(shutil.which(compiler))
    monkeypatch.setenv("PATH", str(shim))


# every command that steps a path loads the library, simulate-rk4 too
LIBRARY_COMMANDS = ["ensemble", "simulate", "simulate-rk4"]


@pytest.mark.parametrize("command", LIBRARY_COMMANDS)
def test_build_failure_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys, command):
    failing_compiler(tmp_path, monkeypatch)
    assert "`false -O2 -ffp-contract=off" in failed_build(tmp_path, monkeypatch, capsys, command)


@pytest.mark.parametrize("command", LIBRARY_COMMANDS)
def test_build_without_objcopy_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys, command):
    without_objcopy(tmp_path, monkeypatch)
    assert "objcopy" in failed_build(tmp_path, monkeypatch, capsys, command)


@pytest.mark.parametrize("broken", [failing_compiler, without_objcopy], ids=["failing-compiler", "without-objcopy"])
def test_analyze_needs_no_compiled_library(tmp_path, monkeypatch, broken):
    # the closed-form analysis writes no float column, so it neither builds nor loads the library
    assert run_on_empty_cache(tmp_path, monkeypatch, "analyze", "default") == 0
    broken(tmp_path, monkeypatch)
    assert run_on_empty_cache(tmp_path, monkeypatch, "analyze") == 0
    assert _em._lib is None and not (tmp_path / "cache").exists()
    report = (tmp_path / "out" / "analysis.json").read_bytes()
    assert report == (tmp_path / "default" / "analysis.json").read_bytes()


def test_build_of_an_archive_without_the_ziggurat_tables_fails(tmp_path, monkeypatch):
    include, archive = _em._numpy_files()
    renamed = tmp_path / archive.name
    subprocess.run(["objcopy", "--redefine-sym=ki_double=ki_renamed", str(archive), str(renamed)], check=True)
    monkeypatch.setattr(_em, "_numpy_files", lambda: (include, renamed))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(KernelError, match="cannot build the compiled library: .*ki_double") as failure:
        _em._build()
    assert "\n" not in str(failure.value)
    assert list((tmp_path / "cache" / "ssrna").iterdir()) == []


def test_changed_source_builds_a_new_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = _em._build()
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("the build ran again"))
    assert _em._build() == first  # cached: the compiler is not run again
    changed = tmp_path / "_em.c"
    changed.write_bytes(_em._SOURCE.read_bytes() + b"\n/* changed */\n")
    monkeypatch.setattr(_em, "_SOURCE", changed)
    monkeypatch.setattr(subprocess, "run", run)
    second = _em._build()
    assert second != first
    assert sorted((tmp_path / "ssrna").iterdir()) == sorted([first, second])


def test_changed_objcopy_arguments_name_a_new_library(monkeypatch):
    first = _em._library_path(*_em._numpy_files())
    monkeypatch.setattr(_em, "_GLOBALIZE", (*_em._GLOBALIZE, "--globalize-symbol=fi_double"))
    assert _em._library_path(*_em._numpy_files()) != first


def test_changed_compiler_command_names_a_new_library(monkeypatch):
    # e.g. another flag, as the scalar_library of tests/conftest.py adds, in the same cache directory
    first = _em._library_path(*_em._numpy_files())
    monkeypatch.setattr(_em, "_FLAGS", (*_em._FLAGS, "-D__builtin_cpu_supports(x)=0"))
    assert _em._library_path(*_em._numpy_files()) != first


def test_another_interpreter_build_names_a_new_library(tmp_path, monkeypatch):
    # another build of Python, and so maybe another CC, has another _sysconfigdata module; the key
    # hashes its bytes, found as sysconfig names it, without importing it (or sysconfig)
    first = _em._library_path(*_em._numpy_files())
    name = "_sysconfigdata_other_build"
    (tmp_path / f"{name}.py").write_text("build_time_vars = {'CC': 'other-cc'}\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("_PYTHON_SYSCONFIGDATA_NAME", name)
    assert _em._library_path(*_em._numpy_files()) != first
    assert name not in sys.modules


def test_without_build_data_the_compiler_command_names_the_library(monkeypatch):
    monkeypatch.setenv("_PYTHON_SYSCONFIGDATA_NAME", "_sysconfigdata_of_no_build")
    paths = []
    for compiler in (["cc"], ["other-cc"]):
        monkeypatch.setattr(_em, "_compiler", lambda: compiler)
        paths.append(_em._library_path(*_em._numpy_files()))
    assert paths[0] != paths[1]


def test_a_cached_library_loads_without_sysconfig(tmp_path):
    # only a build reads the compiler command: the key and the load of a cached library import neither
    # sysconfig nor its build data
    run = ("import sys; from ssrna import _em; _em.library(); "
           "print(sorted(m for m in sys.modules if m.startswith(('sysconfig', '_sysconfigdata'))))")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(Path(_em.__file__).parents[1]))
    imported = [subprocess.run([sys.executable, "-c", run], env=env, check=True, capture_output=True,
                               text=True).stdout.strip() for _ in range(2)]
    assert imported[0] != "[]"  # the build, into an empty cache
    assert imported[1] == "[]"


def sampler_copy(tmp_path, name, flip=None):
    """numpy's bitgen.h and libnpyrandom.a copied under tmp_path/name, with one byte of `flip` changed.

    Returns (include directory, archive), as _em._numpy_files does.
    """
    include, archive = _em._numpy_files()
    header = Path("numpy", "random", "bitgen.h")
    copies = {"bitgen.h": tmp_path / name / "include" / header, "libnpyrandom.a": tmp_path / name / archive.name}
    for key, source in (("bitgen.h", include / header), ("libnpyrandom.a", archive)):
        copies[key].parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, copies[key])
    if flip is not None:
        data = bytearray(copies[flip].read_bytes())
        data[len(data) // 2] ^= 1
        copies[flip].write_bytes(data)
    return tmp_path / name / "include", copies["libnpyrandom.a"]


def test_library_name_follows_the_bytes_of_numpys_sampler(tmp_path):
    assert _em._numpy_files()[0] == Path(np.get_include())
    names = {variant: _em._library_path(*sampler_copy(tmp_path, variant, flip)).name
             for variant, flip in (("copy", None), ("same bytes", None),
                                   ("bitgen.h", "bitgen.h"), ("libnpyrandom.a", "libnpyrandom.a"))}
    assert all(re.fullmatch(r"_em-[0-9a-f]{16}\.so", name) for name in names.values())
    assert names["copy"] == names["same bytes"] == _em._library_path(*_em._numpy_files()).name
    assert len({names["copy"], names["bitgen.h"], names["libnpyrandom.a"]}) == 3
    # the files are found and read without importing numpy
    code = "import sys; from ssrna import _em; _em._library_path(*_em._numpy_files()); sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
