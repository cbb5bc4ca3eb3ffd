import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ssrna import (
    IntegrationError,
    NoiseSpec,
    SimConfig,
    State,
    e0_gamma_bounds,
    integrate_sde,
    montecarlo,
    positive_equilibrium,
    simulator,
    validate_params,
)
from ssrna import _em, cli, serialize
from ssrna.cli import COMMANDS, analysis_to_dict, main

from conftest import TUMV, analysis_from_dict, deviations_sq, dumps, use_workers

TUMV_CONFIG = resources.files("ssrna.data") / "tumv.json"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**blocks):
    cfg = {
        "schema": "ssrna-config/1",
        "model": dict(r=TUMV["r"], alpha=TUMV["alpha"], delta=TUMV["delta"],
                      sigma=TUMV["sigma"], K=TUMV["K"]),
    }
    cfg.update(blocks)
    return cfg


# ---------------------------------------------------------------------------
# analyze

# R0 < 1: the coexistence point does not exist
SUBTHRESHOLD = dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1e6)


def test_analyze_tumv_regression(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(TUMV_CONFIG), "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["r0"] == pytest.approx(4.287, abs=1e-3)
    pos = report["positive"]
    assert pos["equilibrium"]["p_star"] == pytest.approx(30670385, abs=1)
    assert pos["equilibrium"]["m_star"] == pytest.approx(5320090, abs=1)
    assert pos["linearization"]["a11"] == pytest.approx(-0.01862524, abs=1e-8)
    assert pos["verdict"]["gamma1_bound"] == pytest.approx(0.02000961, abs=1e-8)
    stdout = capsys.readouterr().out
    assert "R0" in stdout and "stable in probability" in stdout


@pytest.mark.parametrize("model, noise, needle", [
    (TUMV, {"omega1": 0.05, "omega2": 0.05}, '"certificate": {'),
    # R0 < 1: no coexistence point, so its verdict and certificate are null
    (dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1e6), {"omega1": 0.1, "omega2": 0.1}, '"verdict": null'),
    # omega2 = 0 leaves the q interval unbounded above
    (TUMV, {"omega1": 0.05, "omega2": 0.0}, "Infinity"),
], ids=["tumv", "subthreshold", "omega2-zero"])
def test_analyze_report_round_trips(tmp_path, model, noise, needle):
    cfg = base_config(analyze={}, noise=noise)
    cfg["model"] = dict(model)
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    text = (out / "analysis.json").read_text()
    assert needle in text
    params, noise, cls = analysis_from_dict(json.loads(text))
    assert dumps(analysis_to_dict(params, noise, cls)) == text


def test_analyze_subthreshold_branch(tmp_path):
    cfg = base_config(analyze={})
    cfg["model"] = dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1e6)
    cfg["noise"] = {"omega1": 0.1, "omega2": 0.1}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["positive"]["equilibrium"]["exists"] is False
    assert report["positive"]["verdict"] is None
    assert "not admissible" in report["positive"]["summary"]
    params = validate_params(**cfg["model"])
    bound1, _ = e0_gamma_bounds(params, 0.0)
    assert report["origin"]["verdict"]["gamma1_bound"] == pytest.approx(bound1, rel=1e-12)
    assert report["origin"]["verdict"]["conditions_met"] is True


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.pop("model"), "model"),
        (lambda c: c["model"].pop("delta"), "delta"),
        (lambda c: c["model"].__setitem__("alpha", 2.0), "alpha"),
        (lambda c: c.__setitem__("schema", "bogus/9"), "schema"),
        (lambda c: c.__setitem__("simulate", {}), "exactly one command block"),
        pytest.param(lambda c: c.__setitem__("noise", {"omega1": -0.1}), "error: noise: omega1 must be",
                     id="omega1-negative"),
        pytest.param(lambda c: c.__setitem__("noise", {"omega2": math.nan}), "error: noise: omega2 must be",
                     id="omega2-nan"),
        pytest.param(lambda c: c.__setitem__("noise", {"omega1": math.nan}), "error: noise: omega1 must be",
                     id="omega1-nan"),
        pytest.param(lambda c: (c.clear(), c.update(ensemble_config(), noise={"omega1": -1})),
                     "error: noise: omega1 must be", id="ensemble-omega1-negative"),
        # a misspelt or stray field is refused, not left to fall back to its default
        pytest.param(lambda c: c.__setitem__("noise", {"omega_1": 0.5}),
                     "noise: unknown field 'omega_1'", id="noise.omega_1"),
        pytest.param(lambda c: c.__setitem__("noise ", {"omega1": 0.5}),
                     "config: unknown field 'noise '", id="top-level-typo"),
        pytest.param(lambda c: (c.clear(), c.update(simulate_config(record_strid=10))),
                     "simulate: unknown field 'record_strid'", id="simulate.record_strid"),
        pytest.param(lambda c: (c.clear(), c.update(ensemble_config(
            sim={"dt": 0.5, "t_end": 60.0, "initial": [1.0, 1.0], "seed": 3}))),
                     "ensemble.sim: unknown field 'seed'", id="ensemble.sim-extra-key"),
        pytest.param(lambda c: c.__setitem__("output", 5), "output must be a JSON object",
                     id="output-not-an-object"),
        pytest.param(lambda c: c.__setitem__("analyze", 5), "analyze must be a JSON object",
                     id="analyze-not-an-object"),
        pytest.param(lambda c: c["model"].__setitem__("r", 10**400),
                     "error: model: r must be a positive finite number", id="integer-beyond-float-range"),
        pytest.param(lambda c: (c.clear(), c.update(simulate_config(scheme="euler-maruyama"))),
                     "error: simulate: missing required field 'anchor'\n", id="simulate-em-without-anchor"),
        pytest.param(lambda c: (c.clear(), c.update(simulate_config(initial={"displace_fraction": 0.01}))),
                     "error: simulate.initial: displace_fraction needs an 'anchor' in this block\n",
                     id="displace-fraction-without-anchor"),
        pytest.param(lambda c: (c.clear(), c.update(ensemble_config(), model=SUBTHRESHOLD)),
                     "error: ensemble: coexistence anchor does not exist for these parameters (R0 <= 1)\n",
                     id="ensemble-positive-anchor-below-threshold"),
        # a null dt is refused by its reader, not taken for the default dt
        pytest.param(lambda c: (c.clear(), c.update(ensemble_config(
            sim={"dt": None, "t_end": 60.0, "initial": {"displace_fraction": 0.01}}))),
                     "error: ensemble.sim.dt must be a number, got None\n", id="dt-null"),
        # the fraction is finite, but the radius it gives overflows
        pytest.param(lambda c: (c.clear(), c.update(ensemble_config(epsilon1={"fraction": 1e308}))),
                     "error: ensemble: epsilon1 must be a positive finite number, got inf\n",
                     id="epsilon1-fraction-overflows"),
        # without a dt the block steps by the anchor's default dt, which the config never states: a
        # shorter horizon is refused with that dt
        pytest.param(lambda c: (c.clear(), c.update(ensemble_config(
            sim={"t_end": 0.3, "initial": {"displace_fraction": 0.01}}))),
                     "error: ensemble.sim: t_end must be at least dt = "
                     f"{simulator.default_dt(validate_params(**TUMV), positive_equilibrium(validate_params(**TUMV)))!r}"
                     ", got 0.3\n", id="t_end-below-the-default-dt"),
    ],
)
def test_analyze_invalid_config_exits_2(tmp_path, capsys, mutate, needle):
    cfg = base_config(analyze={})
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    command = next(c for c in COMMANDS if c in cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert needle in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()  # a rejected config creates no output directory


@pytest.mark.parametrize("command, make, needle", [
    ("analyze", lambda: base_config(analyze={}, model=dict(TUMV, r=json.loads("[" * 900 + "]" * 900))),
     "error: model: r must be a positive finite number, got [[["),
    ("sweep", lambda: sweep_config(model_grid={"r": [0.1211] * 200_000 + ["x"]}),
     "error: model_grid.r must be a list of numbers, got [0.1211, "),
    ("simulate", lambda: simulate_config(scheme="x" * 100_000),
     "error: simulate.scheme must be 'rk4' or 'euler-maruyama', got 'xxx"),
], ids=["nested-900-deep", "200001-grid-values", "100000-character-string"])
def test_long_or_deep_value_is_echoed_in_one_short_line(tmp_path, capsys, command, make, needle):
    path = write_config(tmp_path, make())
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(needle) and err.count("\n") == 1 and len(err) < 160, err[:300]


def _set(cfg, path, value):
    """cfg with the field at path, a tuple of keys, set to value."""
    for key in path[:-1]:
        cfg = cfg[key]
    cfg[path[-1]] = value


SIM_PATHS = {"simulate": ("simulate",), "ensemble": ("ensemble", "sim"), "sweep": ("sweep", "ensemble", "sim")}
ENSEMBLE_PATHS = {"ensemble": ("ensemble",), "sweep": ("sweep", "ensemble")}


# a value of each field that a record checks, which the record refuses; the message names the block
RECORD_REFUSALS = [
    ("analyze", ("model", "r"), -1.0),
    ("analyze", ("model", "alpha"), 2.0),
    ("analyze", ("model", "delta"), "0.1"),
    ("analyze", ("model", "sigma"), True),
    ("analyze", ("model", "K"), 10**400),
    ("analyze", ("model", "r"), 1e308),  # each rate is finite, but R0 overflows
    ("analyze", ("noise", "omega1"), -0.1),
    ("analyze", ("noise", "omega2"), [0.1]),
    ("simulate", ("simulate", "seed"), 2**64),
    ("simulate", ("simulate", "seed"), 1.0),
    *[(command, (*SIM_PATHS[command], field), value) for command in SIM_PATHS for field, value in (
        ("t_end", 0.25), ("t_end", None), ("record_stride", 0), ("record_stride", 4.0), ("dt", -0.5),
        ("dt", math.inf), ("initial", [math.inf, 1.0]), ("initial", {"displace_fraction": 1e308}))],
    *[(command, (*ENSEMBLE_PATHS[command], field), value) for command in ENSEMBLE_PATHS for field, value in (
        ("replicates", 0), ("replicates", 2**63 + 1), ("replicates", 4.0), ("master_seed", -1),
        ("master_seed", "5"), ("epsilon1", 0.0), ("epsilon1", {"fraction": 1e308}))],
]


@pytest.mark.parametrize("command, path, value", RECORD_REFUSALS,
                         ids=[f"{'.'.join(path)}={json.dumps(value)[:24]}" for _, path, value in RECORD_REFUSALS])
def test_a_value_a_record_refuses_names_its_block(tmp_path, capsys, command, path, value):
    cfg = small_valid_config(command)
    _set(cfg, path, value)
    block = ".".join(path[:-1])
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command, path", [
    ("simulate", ("simulate", "seed")), ("ensemble", ("ensemble", "master_seed")),
    ("sweep", ("sweep", "ensemble", "master_seed")),
], ids=["simulate", "ensemble", "sweep"])
def test_seed_replaces_the_config_seed_once_that_is_checked(tmp_path, capsys, command, path):
    cfg = small_valid_config(command)
    _set(cfg, path, "x")
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {'.'.join(path[:-1])}: ")
    assert not out.exists()
    written = []
    for seed, flags in ((3, []), (0, ["--seed", "3"])):
        _set(cfg, path, seed)
        out = tmp_path / str(seed)
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), *flags]) == 0
        written.append((out / f"{'trajectory' if command == 'simulate' else command}.csv").read_bytes())
    assert written[0] == written[1]


DEEP = json.loads("[" * 900 + "]" * 900)


# every field of the model, noise, sim and ensemble blocks, by a command whose config holds it
VALUE_FIELDS = [
    *[("analyze", (block, field)) for block, table in (("model", cli._MODEL), ("noise", cli._NOISE))
      for field in table],
    *[(command, (*SIM_PATHS[command], field)) for command in SIM_PATHS for field in cli._SIM],
    ("simulate", ("simulate", "seed")),
    *[(command, (*ENSEMBLE_PATHS[command], field)) for command in ENSEMBLE_PATHS for field in cli._ENSEMBLE],
]


@pytest.mark.parametrize("command, path", VALUE_FIELDS, ids=[".".join(path) for _, path in VALUE_FIELDS])
def test_a_deep_list_or_a_long_integer_in_any_field_is_one_short_line(tmp_path, capsys, command, path):
    for value in (DEEP, 10**400):
        if path[-1] == "record_stride" and value == 10**400:
            continue  # a valid stride: the start and the end are recorded
        cfg = small_valid_config(command)
        _set(cfg, path, value)
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--seed", "3"]], ids=["format", "seed"])
def test_analyze_takes_no_format_or_seed(tmp_path, capsys, flag):
    # the closed-form analysis draws no noise and writes only JSON
    path = write_config(tmp_path, base_config(analyze={}))
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--config", path, "--out", str(tmp_path / "o"), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_refuses_a_configured_format(tmp_path, capsys, fmt):
    # the config's twin of --format: refused, not ignored
    path = write_config(tmp_path, base_config(analyze={}, output={"format": fmt}))
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: output.format: analyze writes analysis.json only and takes no format\n"
    assert not (tmp_path / "o").exists()
    assert main(["analyze", "--config", write_config(tmp_path, base_config(analyze={}, output={})),
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("raw, needle", [
    pytest.param(b"\xff\xfe" + json.dumps(base_config(analyze={})).encode("utf-16-le"),
                 "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0", id="utf-16"),
    pytest.param(b"[" * 100_000, "nests arrays or objects too deeply to read", id="nested-too-deeply"),
])
def test_config_bytes_the_reader_refuses_exit_2(tmp_path, capsys, raw, needle):
    # a config is read as UTF-8 (RFC 8259) whatever the locale, and a failure to read it is one line
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(path)!r} ") and needle in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, make, needle", [
    ("analyze", lambda: base_config(analyze={}, noise=[0.1, 0.1]), "noise"),
    ("simulate", lambda: base_config(simulate=[simulate_config()["simulate"]]), "simulate"),
    ("ensemble", lambda: ensemble_config(sim=[0.5, 60.0]), "ensemble.sim"),
], ids=["noise", "simulate", "ensemble.sim"])
def test_block_that_is_not_an_object_exits_2(tmp_path, capsys, command, make, needle):
    path = write_config(tmp_path, make())
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"{needle} must be a JSON object" in capsys.readouterr().err


def _file_in_the_way(tmp_path):
    (tmp_path / "file").write_text("")
    return ["--out", str(tmp_path / "file" / "out")]


def _directory_in_the_way(tmp_path):
    (tmp_path / "out" / "analysis.json").mkdir(parents=True)
    return ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command, output, out_args, needle", [
    ("analyze", {"dir": 5}, lambda tmp_path: [], "output.dir must be a string"),
    ("analyze", {}, _file_in_the_way, "cannot create output directory"),
    ("ensemble", {}, _file_in_the_way, "cannot create output directory"),
    ("analyze", {}, _directory_in_the_way, "cannot write"),
    ("ensemble", {}, lambda tmp_path: [],
     "error: no output directory: set output.dir in the config or pass --out\n"),
    # a seed beyond 64 bits is refused before the output directory is looked at
    ("simulate", {}, lambda tmp_path: ["--out", str(tmp_path / "o"), "--seed", "-1"],
     "error: --seed must be a 64-bit unsigned integer, got -1\n"),
    ("simulate", {}, lambda tmp_path: ["--out", str(tmp_path / "o"), "--seed", str(2**64)],
     f"error: --seed must be a 64-bit unsigned integer, got {2**64}\n"),
], ids=["dir-not-a-string", "parent-is-a-file", "parent-is-a-file-ensemble", "file-is-a-directory", "no-out",
        "seed-negative", "seed-2**64"])
def test_unusable_output_path_exits_2(tmp_path, capsys, monkeypatch, command, output, out_args, needle):
    def run_ensemble(*args, **kwargs):
        pytest.fail("the ensemble ran before its output path was refused")

    monkeypatch.setattr(montecarlo, "run_ensemble", run_ensemble)
    cfg = {"analyze": lambda: base_config(analyze={}), "simulate": simulate_config, "ensemble": ensemble_config}[command]()
    path = write_config(tmp_path, dict(cfg, output=output))
    args = out_args(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", path, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and err.count("\n") == 1
    assert not (tmp_path / "file").is_dir()
    assert sorted(tmp_path.rglob("*")) == before


class FullDisk:
    """A file opened for writing whose writes raise ENOSPC once `room` bytes were written."""

    def __init__(self, fh, room):
        self.fh, self.room, self.written = fh, room, 0

    def write(self, data):
        if self.written + len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.written += len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch, fmt):
    files = []

    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode:
            fh = FullDisk(fh, 100_000)
            files.append(fh)
        return fh

    for module in (cli, serialize):  # the JSON writer's open and write_csv's
        monkeypatch.setattr(module, "open", full_disk_open, raising=False)
    cfg = base_config(simulate=dict(scheme="euler-maruyama", anchor="positive", t_end=2000.0, dt=0.5,
                                    initial={"displace_fraction": 0.01}, seed=3))
    cfg["noise"] = {"omega1": 0.05, "omega2": 0.05}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(out / f'trajectory.{fmt}')!r}: [Errno 28] No space left on device\n"
    assert len(files) == 1 and files[0].written > 0  # it failed partway through
    assert list(out.iterdir()) == []


def test_os_error_outside_the_outputs_is_not_invalid_input(tmp_path, monkeypatch):
    # e.g. an OSError raised while integrating: a fault of the run, not of the config
    def fail(*args, **kwargs):
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(montecarlo, "run_ensemble", fail)
    path = write_config(tmp_path, ensemble_config())
    with pytest.raises(BlockingIOError):
        main(["ensemble", "--config", path, "--out", str(tmp_path / "o")])


def test_command_config_mismatch_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(analyze={}))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "simulate" in capsys.readouterr().err


def test_analyze_inconclusive_verdict_is_not_an_error(tmp_path):
    cfg = base_config(analyze={})
    cfg["noise"] = {"omega1": 0.5, "omega2": 0.5}  # far beyond every bound
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["positive"]["verdict"]["conditions_met"] is False


# ---------------------------------------------------------------------------
# simulate

def simulate_config(**sim):
    payload = dict(scheme="rk4", t_end=100.0, initial=[1.0, 0.0], record_stride=100)
    payload.update(sim)
    return base_config(simulate=payload)


def test_simulate_deterministic_convergence(tmp_path, capsys):
    eq = positive_equilibrium(validate_params(**TUMV))
    horizon = 50.0 / 0.0366
    cfg = simulate_config(t_end=horizon, dt=0.5)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,p,m"
    _, p, m = map(float, rows[-1].split(","))
    assert math.hypot(p - eq.p_star, m - eq.m_star) < 1e-3 * math.hypot(eq.p_star, eq.m_star)
    assert "final state" in capsys.readouterr().out


def test_simulate_byte_deterministic(tmp_path):
    cfg = simulate_config(scheme="euler-maruyama", anchor="positive",
                          initial={"displace_fraction": 0.01}, t_end=50.0, dt=0.5, seed=42)
    cfg["noise"] = {"omega1": 0.1, "omega2": 0.1}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_seed_override_changes_noise_path(tmp_path):
    cfg = simulate_config(scheme="euler-maruyama", anchor="positive",
                          initial={"displace_fraction": 0.01}, t_end=50.0, dt=0.5, seed=42)
    cfg["noise"] = {"omega1": 0.1, "omega2": 0.1}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", path, "--out", str(out1)])
    main(["simulate", "--config", path, "--out", str(out2), "--seed", "43"])
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_simulate_outside_triangle_warns_and_proceeds(tmp_path, capsys):
    cfg = simulate_config(initial=[5e7, 5e7], t_end=10.0, dt=0.5)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "warning" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("scheme, negative", [("rk4", "false"), ("euler-maruyama", "true")])
def test_simulate_reports_negative_populations(tmp_path, capsys, scheme, negative):
    # coarse steps with strong noise carry the noisy path below zero
    cfg = base_config(simulate=dict(scheme=scheme, anchor="origin", t_end=200.0, dt=0.5, seed=5,
                                    initial=[400.0, 400.0]), noise={"omega1": 1.2, "omega2": 1.2})
    cfg["model"] = dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    assert f"visited negative populations: {negative}\n" in capsys.readouterr().out


def test_simulate_blowup_exits_3(tmp_path, capsys):
    cfg = base_config(simulate=dict(scheme="rk4", t_end=3e6, dt=1e6, initial=[1e7, 1e7]))
    cfg["model"] = dict(r=2.0, alpha=1.0, delta=1.0, sigma=1.0, K=1.0)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "t=" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# simulate steps a path a block of this many recorded rows at a time, and writes each block as it comes
B = serialize._BLOCK_ROWS

# a model whose RK4 path at dt 1.395 grows away from its coexistence point (0.25, 0.25): started 1e-13
# away, it leaves the triangle at step 4318, and started at (0.5, 0.4), it overflows at step 5280
UNSTABLE_RK4 = dict(r=2.0, alpha=1.0, delta=1.0, sigma=1.0, K=1.0)


def streamed_and_whole(tmp_path, cfg, fmt):
    """The trajectory file and stdout of `simulate` on cfg, and the file the library's writers make of the
    whole Trajectory, with the stdout its fields give."""
    out = tmp_path / f"out-{fmt}"
    args = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(args) == 0
    block = cfg["simulate"]
    params = validate_params(**cfg["model"])
    sim = SimConfig(dt=block["dt"], t_end=block["t_end"], initial=State(*block["initial"]),
                    seed=block.get("seed", 0), record_stride=block.get("record_stride", 1))
    if block["scheme"] == "rk4":
        traj = simulator.integrate_ode(params, sim)
    else:
        traj = integrate_sde(params, NoiseSpec(**cfg["noise"]), positive_equilibrium(params), sim)
    whole = tmp_path / f"whole.{fmt}"
    if fmt == "csv":
        simulator.write_trajectory_csv(traj, whole)
    else:
        times, p, m = traj.columns()
        with open(whole, "wb") as fh:
            serialize.dump({"schema": "ssrna-trajectory/1", "scheme": traj.scheme.value,
                            "exited_omega": traj.exited_omega, "times": times, "p": p, "m": m}, fh)
    exited = ("stayed inside phase-space triangle" if traj.exited_omega is None
              else f"left phase-space triangle at t={serialize.fmt(traj.exited_omega)}")
    expected = (f"scheme: {traj.scheme.value}\n"
                f"final state: ({serialize.fmt(traj.final_state.p)}, {serialize.fmt(traj.final_state.m)})\n"
                f"{exited}\nvisited negative populations: {str(traj.lowest < 0.0).lower()}\n"
                f"trajectory written to {out / f'trajectory.{fmt}'}\n")
    assert stdout.getvalue() == expected
    assert [path.name for path in out.iterdir()] == [f"trajectory.{fmt}"]
    return (out / f"trajectory.{fmt}").read_bytes(), whole.read_bytes(), traj


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scheme", ["rk4", "euler-maruyama"])
@pytest.mark.parametrize("rows, stride, steps", [
    (B - 1, 1, B - 2), (B, 1, B - 1), (B + 1, 1, B), (2 * B + 1, 1, 2 * B),
    # the last step is not a multiple of the stride, and is recorded all the same
    (B + 1, 3, 3 * B - 1), (2 * B + 1, 7, 14 * B),
], ids=["B-1", "B", "B+1", "2B+1", "B+1-stride-3", "2B+1-stride-7"])
def test_streamed_path_equals_the_whole_trajectory_written(tmp_path, fmt, scheme, rows, stride, steps):
    # steps short enough that the path has not settled on its anchor by its last row, so that every
    # block's rows depend on those before
    eq = positive_equilibrium(validate_params(**TUMV))
    cfg = base_config(simulate=dict(scheme=scheme, anchor="positive", t_end=2**-7 * steps, dt=2**-7, seed=11,
                                    initial=[1.01 * eq.p_star, 0.99 * eq.m_star], record_stride=stride))
    cfg["noise"] = {"omega1": 0.3, "omega2": 0.3}
    streamed, whole, traj = streamed_and_whole(tmp_path, cfg, fmt)
    assert len(traj.times) == rows and traj.times[-1] == 2**-7 * steps
    assert traj.final_state != eq.state
    assert streamed == whole


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_path_that_leaves_the_triangle_in_its_second_block(tmp_path, fmt):
    cfg = base_config(simulate=dict(scheme="rk4", t_end=1.395 * 6000, dt=1.395, initial=[0.25 * (1 + 1e-13), 0.25]))
    cfg["model"] = UNSTABLE_RK4
    streamed, whole, traj = streamed_and_whole(tmp_path, cfg, fmt)
    assert B < round(traj.exited_omega / 1.395) < len(traj.times) == 6001
    assert streamed == whole


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_path_that_fails_in_its_second_block_leaves_nothing(tmp_path, capsys, fmt):
    cfg = base_config(simulate=dict(scheme="rk4", t_end=1.395 * 20000, dt=1.395, initial=[0.5, 0.4]))
    cfg["model"] = UNSTABLE_RK4
    config = write_config(tmp_path, cfg)
    with pytest.raises(IntegrationError) as err:
        simulator.integrate_ode(validate_params(**UNSTABLE_RK4), SimConfig(dt=1.395, t_end=1.395 * 20000,
                                                                            initial=State(0.5, 0.4)))
    assert B < round(err.value.t / 1.395) < 2 * B  # in the second block
    # the run makes out/nested, and removes both once the path fails
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out" / "nested"), "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {err.value} (t={serialize.fmt(err.value.t)})\n"
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_failed_side_file_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the JSON writer's side files, opened to be written and read back, hit a full disk
    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return FullDisk(fh, 1000) if "x" in mode else fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    cfg = base_config(simulate=dict(scheme="euler-maruyama", anchor="positive", t_end=2000.0, dt=0.5,
                                    initial={"displace_fraction": 0.01}, seed=3))
    cfg["noise"] = {"omega1": 0.05, "omega2": 0.05}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out), "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(out / 'trajectory.json')!r}: [Errno 28] No space left on device\n"
    assert list(out.iterdir()) == []


# sha256 of small TuMV trajectories as written before the writers formatted
# Python floats in one pass; the Euler-Maruyama digest also pins numpy's
# Philox normal sampler (numpy 2.4.6).
GOLDEN_TRAJECTORIES = [
    ("rk4", "csv", "33f57613ad899439c13eed4cb82154ad6da117acd3b2f8c44ec461ab6240d661"),
    ("euler-maruyama", "json", "d925697a591a33592467a1593801d2e456c29a59162d860e30087b583384e67f"),
]


@pytest.mark.parametrize("scheme, fmt, digest", GOLDEN_TRAJECTORIES, ids=["rk4-csv", "em-json"])
def test_simulate_output_bytes_are_pinned(tmp_path, scheme, fmt, digest):
    cfg = base_config(simulate=dict(scheme=scheme, anchor="positive", t_end=200.0, dt=0.5,
                                    initial={"displace_fraction": 0.01}, seed=3))
    cfg["noise"] = {"omega1": 0.05, "omega2": 0.05}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--format", fmt]) == 0
    assert hashlib.sha256((out / f"trajectory.{fmt}").read_bytes()).hexdigest() == digest


def test_simulate_json_format(tmp_path):
    cfg = simulate_config(t_end=5.0, dt=0.5)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "trajectory.json").read_text())
    assert data["schema"] == "ssrna-trajectory/1"
    assert len(data["times"]) == len(data["p"]) == len(data["m"])


# ---------------------------------------------------------------------------
# ensemble

def ensemble_config(replicates=40, **overrides):
    block = {
        "replicates": replicates,
        "anchor": "positive",
        "epsilon1": {"fraction": 0.10},
        "master_seed": 7,
        "sim": {"dt": 0.5, "t_end": 60.0, "initial": {"displace_fraction": 0.01},
                "record_stride": 8},
    }
    block.update(overrides)
    cfg = base_config(ensemble=block)
    cfg["noise"] = {"omega1": 0.1, "omega2": 0.1}
    return cfg


def test_ensemble_single_replicate_zero_noise_matches_path(tmp_path):
    cfg = ensemble_config(replicates=1)
    cfg["noise"] = {"omega1": 0.0, "omega2": 0.0}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", path, "--out", str(out)]) == 0
    rows = (out / "ensemble.csv").read_text().splitlines()[1:]
    tumv = validate_params(**TUMV)
    eq = positive_equilibrium(tumv)
    sim = SimConfig(dt=0.5, t_end=60.0,
                    initial=State(1.01 * eq.p_star, 1.01 * eq.m_star), record_stride=8)
    traj = integrate_sde(tumv, NoiseSpec(0.0, 0.0), eq, sim, replicate=0)
    dev_sq = deviations_sq(traj, eq)
    assert len(rows) == len(dev_sq)
    for row, expected in zip(rows, dev_sq):
        assert float(row.split(",")[1]) == pytest.approx(expected, rel=1e-12)


def test_ensemble_prints_verdict_and_wilson(tmp_path, capsys):
    path = write_config(tmp_path, ensemble_config())
    assert main(["ensemble", "--config", path, "--out", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "analytic verdict" in stdout
    assert "Wilson" in stdout


def test_ensemble_worker_count_does_not_change_bytes(tmp_path, monkeypatch):
    path = write_config(tmp_path, ensemble_config(replicates=13))
    outputs = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        out = tmp_path / str(workers)
        assert main(["ensemble", "--config", path, "--out", str(out)]) == 0
        outputs.append((out / "ensemble.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_ensemble_json_format(tmp_path):
    path = write_config(tmp_path, ensemble_config())
    out = tmp_path / "out"
    assert main(["ensemble", "--config", path, "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "ensemble.json").read_text())
    assert list(data) == ["schema", "times", "mean_sq_dev", "exceed_fraction_cum", "exceed_fraction",
                          "n_replicates", "n_included", "n_exceed", "n_negative", "n_nonfinite"]
    assert data["schema"] == "ssrna-ensemble/1"
    assert data["n_replicates"] == 40


def test_ensemble_all_aborted_exits_3(tmp_path, capsys):
    cfg = ensemble_config(replicates=3, anchor="origin",
                          sim={"dt": 1.0, "t_end": 200.0, "initial": [10.0, 10.0]},
                          epsilon1=100.0, master_seed=3)
    cfg["model"] = dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1000.0)
    cfg["noise"] = {"omega1": 3.0, "omega2": 3.0}
    path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep

def sweep_config(noise_grid=None, model_grid=None, replicates=10):
    ens = {
        "replicates": replicates,
        "anchor": "positive",
        "epsilon1": {"fraction": 0.10},
        "master_seed": 99,
        "sim": {"dt": 0.5, "t_end": 40.0, "initial": {"displace_fraction": 0.01},
                "record_stride": 8},
    }
    block = {"ensemble": ens}
    if noise_grid:
        block["noise_grid"] = noise_grid
    if model_grid:
        block["model_grid"] = model_grid
    return base_config(sweep=block)


def test_sweep_verdict_flips_across_bound(tmp_path):
    omegas = [math.sqrt(2 * 0.015), math.sqrt(2 * 0.025)]  # straddles gamma1 bound
    path = write_config(tmp_path, sweep_config(noise_grid={"omega1": omegas}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    verdicts = [line.split(",")[8] for line in lines[1:]]
    assert verdicts == ["true", "false"]


def test_sweep_reproducible_across_runs_and_worker_counts(tmp_path, monkeypatch):
    path = write_config(
        tmp_path,
        sweep_config(noise_grid={"omega1": [0.0, 0.05, 0.1]},
                     model_grid={"r": [0.1211, 0.15, 0.2]}, replicates=5),
    )
    outputs = []
    for run, workers in enumerate((2, 1, 3, 2)):
        use_workers(monkeypatch, workers)
        out = tmp_path / str(run)
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert len(set(outputs)) == 1
    assert len(outputs[0].splitlines()) == 10


@pytest.mark.parametrize("grids, needle", [
    ({"noise_grid": {"omega1": [0.05, "x"]}}, "noise_grid.omega1"),
    ({"noise_grid": {"omega1": [True]}}, "noise_grid.omega1"),
    ({"model_grid": {"r": 0.1211}}, "model_grid.r"),
    ({"model_grid": [0.1211]}, "model_grid"),
    ({"model_grid": {"K": [1000, 10**400]}}, "model_grid.K"),
    ({"noise_grid": {"omega2": [-10**400]}}, "noise_grid.omega2"),
    # an empty axis would leave the sweep no cell to run
    ({"model_grid": {"r": []}}, "error: model_grid.r is empty"),
    ({"noise_grid": {"omega1": [0.05], "omega2": []}}, "error: noise_grid.omega2 is empty"),
])
def test_sweep_malformed_grid_exits_2(tmp_path, capsys, grids, needle):
    cfg = sweep_config(replicates=3)
    cfg["sweep"].update(grids)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


def test_sweep_rates_out_of_float_range(tmp_path, capsys):
    # delta is a positive finite number, but delta*sigma underflows to zero
    cfg = sweep_config(replicates=3)
    cfg["model"]["delta"] = 5e-324
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "floating-point range" in err and "Traceback" not in err

    # the same rate as a grid cell is recorded in its row
    cfg = sweep_config(model_grid={"delta": [TUMV["delta"], 5e-324]}, replicates=3)
    assert main(["sweep", "--config", write_config(tmp_path, cfg, "grid.json"), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[8] for row in rows] == ["true", "error"]


@pytest.mark.parametrize("r, at", [(1e300, "E0"), (1e160, "E0")])
def test_rates_whose_drift_matrix_overflows_exit_2(tmp_path, capsys, r, at):
    # each rate, R0, delta*sigma and 1/K are finite, but det at the origin, delta*sigma - alpha r^2, is not:
    # analyze once wrote NaN and -Infinity into its report
    cfg = base_config(analyze={})
    cfg["model"]["r"] = r
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model: rates out of floating-point range: the drift matrix at {at} ")
    assert err.count("\n") == 1 and f"r={r!r}" in err
    assert not out.exists()

    # a sweep cell of that r is an error row
    cfg = sweep_config(model_grid={"r": [TUMV["r"], r]}, replicates=3)
    assert main(["sweep", "--config", write_config(tmp_path, cfg, "grid.json"), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[8] for row in rows] == ["true", "error"]


# Rates whose drift matrix is finite, but whose |Tr| det (or det) is not a normal number: (rates
# changed from TuMV's, the noise, the equilibrium whose bounds are checked)
FINITE_DRIFT_MATRIX_RATES = {
    # at r = 1e154 the origin's det is -7.43e306, finite.  At E+, |Tr| det (2.1e153 x 7.8e290)
    # overflows, though the bounds do not
    "overflow": ({"r": 1e154}, 0.05, "positive"),
    # at E+, |Tr| det (1e-150 x 1e-304) underflows, though the bounds (about 2e-152) do not
    "underflow": ({name: TUMV[name] * 1e-150 for name in ("r", "delta", "sigma")}, 1e-78, "positive"),
    # at E0, alpha r underflows to 0 and det is subnormal (1e-322); with no noise and trace < 0 < det
    # the conditions hold, and the gamma1 bound is delta
    "subnormal-det": ({"r": 1e-170, "alpha": 1e-300, "delta": 1e-161, "sigma": 1e-161, "K": 1}, 0.0, "origin"),
}


@pytest.mark.parametrize("rates, omega, point", FINITE_DRIFT_MATRIX_RATES.values(), ids=FINITE_DRIFT_MATRIX_RATES)
def test_rates_whose_drift_matrix_is_finite_run(tmp_path, rates, omega, point):
    # the bounds are found on the drift matrix scaled by a power of two, and scaled back
    cfg = base_config(noise={"omega1": omega, "omega2": omega}, analyze={})
    cfg["model"].update(rates)
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "analysis.json").read_text())
    for name in ("origin", "positive"):
        rep = report[name]["linearization"]
        assert rep is None or all(math.isfinite(rep[key]) for key in ("a11", "a12", "a21", "a22", "trace", "det"))
    if rates.get("r") == 1e154:
        assert report["origin"]["linearization"]["det"] == pytest.approx(-7.43e306)
    # each bound within a few ulps of its exact value from the report's own invariants, or where det is
    # subnormal, and so has lost bits, from those of the report's entries
    rep, verdict = report[point]["linearization"], report[point]["verdict"]
    if abs(rep["det"]) < sys.float_info.min:
        a11, a12, a21, a22 = (Fraction(rep[name]) for name in ("a11", "a12", "a21", "a22"))
        trace, det = a11 + a22, a11 * a22 - a12 * a21
        a1, a2 = det + a11 * a11, det + a22 * a22
    else:
        trace, det, a1, a2 = (Fraction(rep[name]) for name in ("trace", "det", "A1", "A2"))
    g1, g2 = Fraction(verdict["gamma1"]), Fraction(verdict["gamma2"])
    exact = {"gamma1_bound": -trace * det / a2, "gamma2_bound": (-trace * det - a2 * g1) / (a1 + trace * g1)}
    for name, value in exact.items():
        assert abs(Fraction(verdict[name]) - value) <= 4 * Fraction(math.ulp(float(value))), name
    if point == "origin":  # a21 is 0, so the bounds are -a11 = delta and, at gamma1 = 0, -a22 = sigma
        assert exact == {"gamma1_bound": Fraction(1e-161), "gamma2_bound": Fraction(1e-161)}
    # the printed certificate: q in the interval, finite above where there is noise, P positive
    # definite, and c1, c2 < 0, in exact arithmetic
    assert verdict["conditions_met"]
    cert = report[point]["certificate"]
    q, p11, p12, p22 = (Fraction(cert[name]) for name in ("q", "p11", "p12", "p22"))
    q_lo, q_hi = verdict["q_interval"]
    assert q_lo < q < q_hi and math.isfinite(q_lo) and math.isfinite(q_hi) == (omega > 0)
    assert p11 > 0 and p11 * p22 - p12 * p12 > 0
    assert -q + 2 * p11 * g1 < 0 and -1 + 2 * p22 * g2 < 0


# Rates across all that validate_params accepts, log-uniform: each a power of two from the least
# subnormal, 2^-1074, to below 2^1024, and alpha up to 1
_ANY_RATE = st.floats(-1074.0, 1024.0, exclude_max=True).map(lambda e: 2.0 ** e)


@st.composite
def analyze_inputs(draw):
    """(model, noise) blocks of an analyze config: rates log-uniform over the accepted range, noise in [0, 10]."""
    model = {name: draw(_ANY_RATE) for name in ("r", "delta", "sigma", "K")}
    model["alpha"] = draw(st.floats(-1074.0, 0.0).map(lambda e: 2.0 ** e))
    return model, {name: draw(st.floats(0.0, 10.0)) for name in ("omega1", "omega2")}


@settings(max_examples=200, deadline=None)
@given(analyze_inputs())
# E0's drift entries run from 5.6e149 down to 3.6e-320: scaled into range, a22 and det underflowed to 0
# and the gamma1 bound divided by zero (a traceback); as they are, the bounds are delta and sigma
@example(({"r": 8.507905323251386e-152, "alpha": 4.2847060820040845e-169, "delta": 5.572970111043438e+149,
           "sigma": 2.5431593456223117e-298, "K": 8.002438769810281e-187},
          {"omega1": 2.4354676587274824e-157, "omega2": 1.0759219174006198e-59}))
# E+'s q interval is (4.2e-288, 4.4e-65): its geometric mean, taken as the root of the ends' product,
# underflowed to 0, and the certificate failed with exit 3
@example(({"r": 9.179865819134803e+159, "alpha": 1.9345405533562944e-138, "delta": 3.544246572403593e-77,
           "sigma": 1.0189552910147991e+30, "K": 3.0847469490698566e+45},
          {"omega1": 1.9042318752758282e-64, "omega2": 2.445634265808947e-10}))
def test_analyze_exits_0_or_2_over_the_accepted_range(inputs):
    # the closed-form analysis of rates that validate_params accepts ends in a report; rates that it
    # refuses, as their drift matrix overflows, end in one line naming the block
    model, noise = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(base_config(model=model, noise=noise, analyze={})))
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["analyze", "--config", str(path), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2), err
        if code == 2:
            assert re.fullmatch(r"error: [a-z]+: [^\n]*\n", err), err
            assert not out.exists()
            return
        assert err == ""
        report = json.loads((out / "analysis.json").read_text())
    for name in ("origin", "positive"):
        verdict, cert = report[name]["verdict"], report[name]["certificate"]
        if cert is not None:
            q_lo, q_hi = verdict["q_interval"]
            assert q_lo < cert["q"] < q_hi, name


def test_sweep_json_format(tmp_path):
    path = write_config(tmp_path, sweep_config(noise_grid={"omega1": [0.0, 0.1]}, replicates=5))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert list(data) == ["schema", "rows"]
    assert data["schema"] == "ssrna-sweep/1"
    assert len(data["rows"]) == 2
    for row in data["rows"]:
        assert list(row) == ["r", "alpha", "delta", "sigma", "K", "omega1", "omega2", "R0", "verdict",
                             "exceed_fraction", "final_msd", "n_negative", "n_nonfinite", "error"]


# sha256 of a sweep with ok, "error" (every replicate diverged) and
# "nonexistent" rows, whose grid holds ints; pins numpy's Philox normal
# sampler (numpy 2.4.6) like GOLDEN_TRAJECTORIES
GOLDEN_SWEEPS = [
    ("csv", "b20f8b18636398091ba17b4a8d8e89c7cd1479d962648f6275dd6cf1d700e342"),
    ("json", "be56f5e724417dd742a8b26ce9d27d15d61d5b6fe23440465996cb2ec594fe45"),
]


@pytest.mark.parametrize("fmt, digest", GOLDEN_SWEEPS, ids=["csv", "json"])
def test_sweep_output_bytes_are_pinned(tmp_path, fmt, digest):
    cfg = sweep_config(model_grid={"r": [0.1211, 0.01], "K": [46940000, 10**17]},
                       noise_grid={"omega1": [0.05, 0.6, 8], "omega2": [0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out), "--format", fmt]) == 0
    written = (out / f"sweep.{fmt}").read_bytes()
    if fmt == "csv":  # each grid value is written as the float its cell ran with, an int's too
        rows = [line.split(b",") for line in written.splitlines()[1:]]
        assert [row[4] for row in rows] == ([b"46940000"] * 3 + [b"1e+17"] * 3) * 2
        assert [row[8] for row in rows] == [b"true", b"false", b"error"] * 2 + [b"nonexistent"] * 6
    assert hashlib.sha256(written).hexdigest() == digest


def test_sweep_rows_hold_the_float_each_cell_ran_with(tmp_path):
    # 2**53 + 1 has no float: the cell runs with K = 2**53, and both files say so
    cfg = write_config(tmp_path, sweep_config(model_grid={"K": [2**53 + 1]}, noise_grid={"omega1": [0.05]}))
    for fmt in ("csv", "json"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / fmt), "--format", fmt]) == 0
    csv_rows = (tmp_path / "csv" / "sweep.csv").read_bytes().splitlines()
    assert [row.split(b",")[4] for row in csv_rows[1:]] == [b"9007199254740992"]
    assert b'"K": 9007199254740992,' in (tmp_path / "json" / "sweep.json").read_bytes()


# ---------------------------------------------------------------------------
# runs too large to record

# a replicate count is bounded by its stream keys (2k + coordinate in 64 bits)
@pytest.mark.parametrize("command, make, reason", [
    ("simulate", lambda: simulate_config(t_end=1e300, dt=0.5), "t_end / dt"),
    ("simulate", lambda: simulate_config(t_end=1e10, dt=5e-324), "t_end / dt"),
    ("ensemble", lambda: ensemble_config(replicates=10**20), "replicates must be an integer from 1 to 2**63"),
    ("sweep", lambda: sweep_config(noise_grid={"omega1": [0.0, 0.1]}, replicates=10**20),
     "replicates must be an integer from 1 to 2**63"),
], ids=["path-steps", "steps-overflow-a-float", "ensemble-replicates", "sweep-replicates"])
def test_run_too_large_to_record_exits_2(tmp_path, capsys, command, make, reason):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, make()), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert not out.exists()


# a command in a process whose address space is limited to argv[1] bytes (none if 0), which
# prints its VmPeak in KiB to stdout after the command's own output
LIMITED_RUN = """
import resource, sys
limit = int(sys.argv[1])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from ssrna.cli import main
status = main(sys.argv[2:])
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmPeak:")))
sys.exit(status)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak from /proc")
def test_long_path_runs_in_the_memory_of_a_short_one(tmp_path):
    # simulate holds one block of rows, and writes each as it comes, so a path of 500001 rows
    # runs in the memory of one of 101, plus a constant: the block's buffers take under 1 MB.
    # A path that held its rows took 24 B a row, 12 MB more here
    rows = 500001
    cfg = base_config(simulate=dict(scheme="euler-maruyama", anchor="positive", t_end=250000.0, dt=0.5,
                                    initial={"displace_fraction": 0.01}, seed=3))
    cfg["noise"] = {"omega1": 0.05, "omega2": 0.05}
    _em.library()  # built and cached before the runs

    def run(limit, out, cfg, command, *args):
        config = write_config(tmp_path, cfg, f"{out}.json")
        args = [command, "--config", config, "--out", str(tmp_path / out), *args]
        return subprocess.run([sys.executable, "-c", LIMITED_RUN, str(limit), *args], capture_output=True, text=True)

    short = dict(cfg, simulate=dict(cfg["simulate"], t_end=50.0))
    for fmt in ("csv", "json"):
        base = run(0, f"short-{fmt}", short, "simulate", "--format", fmt)
        assert base.returncode == 0
        limited = run(int(base.stdout.splitlines()[-1]) * 1024 + 4 * 2**20, f"long-{fmt}", cfg, "simulate",
                      "--format", fmt)
        assert (limited.returncode, limited.stderr) == (0, "")
        written = (tmp_path / f"long-{fmt}" / f"trajectory.{fmt}").read_bytes()
        if fmt == "json":
            document = json.loads(written)
            assert len(document["times"]) == len(document["p"]) == len(document["m"]) == rows
        else:
            assert written.count(b"\n") == 1 + rows

    # an ensemble still holds its recorded rows: without room for them, a one-line error, exit 2,
    # and no output.  One replicate, so no worker is forked
    ensemble = ensemble_config(replicates=1, sim={"dt": 0.5, "t_end": 50.0, "initial": {"displace_fraction": 0.01}})
    base = run(0, "short-ensemble", ensemble, "ensemble")
    assert base.returncode == 0
    ensemble["ensemble"]["sim"]["t_end"] = 250000.0
    starved = run(int(base.stdout.splitlines()[-1]) * 1024 + 8 * rows, "starved", ensemble, "ensemble")
    assert starved.returncode == 2 and starved.stderr.startswith("error: out of memory")
    assert starved.stderr.count("\n") == 1 and "Traceback" not in starved.stderr
    assert not (tmp_path / "starved").exists()


class Admitted(Exception):
    """Raised in place of the ensemble's integration, once its size was checked."""


def test_memory_check_counts_slice_buffers_not_replicates(tmp_path, capsys, monkeypatch):
    # 768 KiB of memory and two workers
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 192}
    monkeypatch.setattr(simulator.os, "sysconf", pages.__getitem__)
    use_workers(monkeypatch, 2)

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(_em, "Sums", admitted)
    monkeypatch.setattr(_em, "Slice", admitted)
    sim = {"dt": 0.5, "t_end": 1000.0, "initial": {"displace_fraction": 0.01}, "record_stride": 1}
    # 20000 replicates x 2001 rows of |x|^2 would be 320 MB; the sums and
    # the two slices take 0.72 MB
    cfg = ensemble_config(replicates=20000, sim=sim)
    with pytest.raises(Admitted):
        main(["ensemble", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    # 5001 rows: a float64 sum and two int64 counts per row (first exceedances
    # and squares that are not finite), and three counts; the recorded times,
    # the mean |x|^2 and the exceedance fraction per row; in each of the two
    # threads the cell's 13 words, and per replicate of 64 its two state
    # values, |x|^2 per row of a block of 513 rows, its first exceedance, a
    # 1 B flag and two 39-word streams (64 replicates fill a slice's 64
    # columns; fewer take fewer, see test_em)
    cfg = ensemble_config(replicates=64, sim=dict(sim, t_end=2500.0))
    size = 5001 * (24 + 3 * 8) + 3 * 8 + 2 * (13 * 8 + 64 * ((2 + 513 + 1) * 8 + 1 + 2 * 39 * 8))
    assert size == 848664
    out = tmp_path / "out"
    assert main(["ensemble", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"would record {Decimal(size):.3g} bytes, more than the 786432 bytes" in capsys.readouterr().err
    assert not out.exists()


# 1e300 steps of dt 1.0 recorded at the start and the end only: two rows fit
# in memory, but the compiled library counts steps in a signed 64-bit integer
HUGE_HORIZON = {"dt": 1.0, "t_end": 1e300, "record_stride": 10**300}


def huge_sweep():
    cfg = sweep_config(noise_grid={"omega1": [0.0, 0.1]})
    cfg["sweep"]["ensemble"]["sim"].update(HUGE_HORIZON)
    return cfg


@pytest.mark.parametrize("command, make, block", [
    ("simulate", lambda: simulate_config(**HUGE_HORIZON), "simulate"),
    ("simulate", lambda: simulate_config(scheme="euler-maruyama", anchor="positive", **HUGE_HORIZON), "simulate"),
    ("ensemble", lambda: ensemble_config(sim=dict(HUGE_HORIZON, initial={"displace_fraction": 0.01})),
     "ensemble.sim"),
    ("sweep", huge_sweep, "sweep.ensemble.sim"),
], ids=["simulate-rk4", "simulate-em", "ensemble", "sweep"])
def test_steps_beyond_the_step_counter_exit_2(tmp_path, capsys, monkeypatch, command, make, block):
    monkeypatch.setattr(_em, "library", lambda: pytest.fail("the run was stepped"))
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, make()), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: t_end / dt = 1e+300 / 1.0") and "64-bit" in err
    assert not out.exists()


@pytest.mark.parametrize("command, make, steps", [
    ("ensemble", ensemble_config, 120),
    ("sweep", lambda: sweep_config(noise_grid={"omega1": [0.0, 0.1]}), 80),
], ids=["ensemble", "sweep"])
def test_a_stride_beyond_64_bits_records_the_start_and_the_end(tmp_path, command, make, steps):
    # ctypes turns a stride of 2**64 + 1 into 1 without an error: the Slice takes the step count instead
    written = []
    for stride in (2**64 + 1, steps):
        cfg = make()
        (cfg["sweep"]["ensemble"] if command == "sweep" else cfg["ensemble"])["sim"]["record_stride"] = stride
        out = tmp_path / str(stride)
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        written.append((out / f"{command}.csv").read_bytes())
    assert written[0] == written[1]
    if command == "ensemble":
        assert [line.split(",")[0] for line in written[0].decode().splitlines()] == ["t", "0", f"{steps * 0.5:g}"]


# ---------------------------------------------------------------------------
# entry point

def test_console_script_installed(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ssrna.cli", "analyze", "--config", str(TUMV_CONFIG),
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "R0" in proc.stdout
    assert (out / "analysis.json").exists()


def test_sigterm_removes_the_partial_output(tmp_path):
    # a path too long to end, 4M steps a block, is stopped while it is written: the script exits 143
    # with no traceback, and removes its temporary file and the directories it made
    cfg = write_config(tmp_path, simulate_config(t_end=1e12, dt=0.5, record_stride=1000))
    out = tmp_path / "out" / "nested"
    proc = subprocess.Popen([sys.executable, "-m", "ssrna.cli", "simulate", "--config", cfg, "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not (out.is_dir() and any(out.iterdir())) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [path.name for path in out.iterdir()] == [f"trajectory.csv.{proc.pid}.tmp"]
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (143, "")
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


# the configs of every command, small, for the runs without numpy
NO_NUMPY_RUNS = {
    "analyze": dict(analyze={}, noise={"omega1": 0.05, "omega2": 0.05}),
    "simulate-rk4": dict(simulate={"scheme": "rk4", "anchor": "positive", "t_end": 60.0,
                                   "initial": {"displace_fraction": 0.01}}),
    "simulate-em": dict(simulate={"scheme": "euler-maruyama", "anchor": "positive", "seed": 3, "t_end": 60.0,
                                  "initial": {"displace_fraction": 0.01}, "record_stride": 7},
                        noise={"omega1": 0.1, "omega2": 0.1}),
    "ensemble": {key: value for key, value in ensemble_config().items() if key in ("ensemble", "noise")},
    "sweep": dict(sweep={"noise_grid": {"omega1": [0.0, 0.1]}, "ensemble": ensemble_config(replicates=10)["ensemble"]},
                  noise={"omega1": 0.05, "omega2": 0.05}),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("run", NO_NUMPY_RUNS)
def test_every_command_runs_without_numpy(tmp_path, capsys, run, fmt):
    # tests/cli_without_numpy.py exits 1 if the command imported numpy, the dataclass machinery, or a
    # module of ssrna or ctypes that it does not run (its UNUSED table), or sysconfig while it loaded a
    # library already cached; its bytes must be those of a run in this process.  The format is the
    # config's; analyze takes none, and writes JSON
    command = run.split("-")[0]
    out = tmp_path / "out"
    config = base_config(**NO_NUMPY_RUNS[run], **({} if command == "analyze" else {"output": {"format": fmt}}))
    args = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("cli_without_numpy.py")), *args],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out
    assert written == {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written) == 1


# ---------------------------------------------------------------------------
# the config boundary

def field_tables():
    """Every field table of the config reader: a dict of field -> (reader, default)."""
    return {name: table for name, table in vars(cli).items()
            if isinstance(table, dict) and table
            and all(isinstance(v, tuple) and len(v) == 2 and callable(v[0]) for v in table.values())}


def test_readme_documents_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Determinism")]
    documented = set(re.findall(r"`([A-Za-z_0-9]+)`", section))
    tables = field_tables()
    assert {"_CONFIG", "_MODEL", "_NOISE", "_OUTPUT", "_SIMULATE", "_ENSEMBLE", "_SIM", "_SWEEP",
            "_DISPLACE", "_FRACTION"} <= set(tables)
    missing = [f"{name}: {field}" for name, table in tables.items() for field in table
               if field not in documented]
    assert not missing


def small_valid_config(command):
    """A valid config of command whose run takes milliseconds."""
    sim = {"dt": 0.5, "t_end": 20.0, "initial": {"displace_fraction": 0.01}, "record_stride": 4}
    ens = {"replicates": 4, "anchor": "positive", "epsilon1": {"fraction": 0.1}, "master_seed": 5,
           "sim": sim}
    blocks = {
        "analyze": {},
        "simulate": dict(sim, scheme="euler-maruyama", anchor="positive", seed=1),
        "ensemble": ens,
        "sweep": {"ensemble": ens, "model_grid": {"r": [0.1211, 0.2]}, "noise_grid": {"omega1": [0.0, 0.1]}},
    }
    cfg = base_config(output={} if command == "analyze" else {"format": "csv"}, **{command: blocks[command]})
    cfg["noise"] = {"omega1": 0.05, "omega2": 0.05}
    return cfg


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, 10**400]) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Run time is not bounded by the program yet: an ensemble with t_end 1e12 and a
# huge record_stride passes the memory check and then steps for ever.  So the
# values this strategy puts under t_end, dt and replicates are kept small (other
# values there are any JSON but a number), and dt is never deleted, since the
# default dt of a mutated model can be tiny.  This bounds the test, not the program.
SIZE_VALUES = {
    "t_end": st.floats(-1.0, 30.0) | st.sampled_from([math.nan, math.inf]),
    "dt": st.floats(0.25, 2.0) | st.sampled_from([0.0, -0.5, 5e-324, math.nan, math.inf]),
    "replicates": st.integers(-1, 8),
}
FIELD_NAMES = sorted({field for table in field_tables().values() for field in table})


# values a field may validly hold, so that mutated configs also run
PLAUSIBLE = (st.floats(0.0, 1.0) | st.sampled_from(["origin", "positive", "euler-maruyama", "json"])
             | st.builds(lambda: [1.0, 2.0]))


def value_for(key):
    if key in SIZE_VALUES:
        return SIZE_VALUES[key] | json_values.filter(lambda v: not _is_number(v))
    return json_values | PLAUSIBLE


def _paths(node, prefix=()):
    """The path of every value below node, in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config of a random command with one to three fields replaced, deleted or inserted."""
    command = draw(st.sampled_from(COMMANDS))
    cfg = small_valid_config(command)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "delete" and key != "dt":
            del parent[key]
        elif action == "insert" and isinstance(parent, dict):
            new_key = draw(st.sampled_from(FIELD_NAMES) | st.text(max_size=6))
            parent[new_key] = draw(value_for(new_key))
        else:
            parent[key] = draw(value_for(key))
    return command, cfg


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_any_mutated_config_exits_0_2_or_3(command_and_cfg):
    command, cfg = command_and_cfg
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        use_workers(mp, 1)  # the worker-count tests cover threads; here they only cost time
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        err = stderr.getvalue()
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
