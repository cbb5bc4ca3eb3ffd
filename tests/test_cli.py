import json
import math
import subprocess
import sys
from importlib import resources

import pytest

from ssrna import (
    NoiseSpec,
    SimConfig,
    State,
    e0_gamma_bounds,
    integrate_sde,
    montecarlo,
    positive_equilibrium,
    validate_params,
)
from ssrna.cli import analysis_from_dict, analysis_to_dict, main
from ssrna.serialize import dumps, loads

from conftest import TUMV, use_workers

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

def test_analyze_tumv_regression(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(TUMV_CONFIG), "--out", str(out)]) == 0
    report = loads((out / "analysis.json").read_text())
    assert report["r0"] == pytest.approx(4.287, abs=1e-3)
    pos = report["positive"]
    assert pos["equilibrium"]["p_star"] == pytest.approx(30670385, abs=1)
    assert pos["equilibrium"]["m_star"] == pytest.approx(5320090, abs=1)
    assert pos["linearization"]["a11"] == pytest.approx(-0.01862524, abs=1e-8)
    assert pos["verdict"]["gamma1_bound"] == pytest.approx(0.02000961, abs=1e-8)
    stdout = capsys.readouterr().out
    assert "R0" in stdout and "stable in probability" in stdout


def test_analyze_report_round_trips(tmp_path):
    out = tmp_path / "out"
    main(["analyze", "--config", str(TUMV_CONFIG), "--out", str(out)])
    text = (out / "analysis.json").read_text()
    params, noise, cls = analysis_from_dict(loads(text))
    assert dumps(analysis_to_dict(params, noise, cls)) == text


def test_analyze_subthreshold_branch(tmp_path):
    cfg = base_config(analyze={})
    cfg["model"] = dict(r=0.05, alpha=0.5, delta=0.3, sigma=0.25, K=1e6)
    cfg["noise"] = {"omega1": 0.1, "omega2": 0.1}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = loads((out / "analysis.json").read_text())
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
    ],
)
def test_analyze_invalid_config_exits_2(tmp_path, capsys, mutate, needle):
    cfg = base_config(analyze={})
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("command, make, needle", [
    ("analyze", lambda: base_config(analyze={}, noise=[0.1, 0.1]), "noise"),
    ("simulate", lambda: base_config(simulate=[simulate_config()["simulate"]]), "simulate"),
    ("ensemble", lambda: ensemble_config(sim=[0.5, 60.0]), "ensemble.sim"),
], ids=["noise", "simulate", "ensemble.sim"])
def test_block_that_is_not_an_object_exits_2(tmp_path, capsys, command, make, needle):
    path = write_config(tmp_path, make())
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"{needle} must be a JSON object" in capsys.readouterr().err


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
    report = loads((out / "analysis.json").read_text())
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


def test_simulate_blowup_exits_3(tmp_path, capsys):
    cfg = base_config(simulate=dict(scheme="rk4", t_end=3e6, dt=1e6, initial=[1e7, 1e7]))
    cfg["model"] = dict(r=2.0, alpha=1.0, delta=1.0, sigma=1.0, K=1.0)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "t=" in capsys.readouterr().err


def test_simulate_json_format(tmp_path):
    cfg = simulate_config(t_end=5.0, dt=0.5)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out), "--format", "json"]) == 0
    data = loads((out / "trajectory.json").read_text())
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
    dev_sq = traj.deviations_sq(eq)
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
    data = loads((out / "ensemble.json").read_text())
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


def test_sweep_json_format(tmp_path):
    path = write_config(tmp_path, sweep_config(noise_grid={"omega1": [0.0, 0.1]}, replicates=5))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out), "--format", "json"]) == 0
    data = loads((out / "sweep.json").read_text())
    assert data["schema"] == "ssrna-sweep/1"
    assert len(data["rows"]) == 2


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
