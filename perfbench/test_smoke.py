"""Fast smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import gate
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "0.1", "--tiny", *args],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_inputs_come_from_the_seed():
    w = workloads.WORKLOADS["sweep_crn"]
    src = str(run.SRC)
    assert w.ops(src, 5) == w.ops(src, 5)
    assert w.ops(src, 5)[0].config["sweep"]["ensemble"]["master_seed"] == 5
    assert w.ops(src, 5) != w.ops(src, 6)


@pytest.mark.parametrize("seed", ["0", "17"])
def test_untraced_run_prints_every_end_to_end_metric(seed):
    proc, last = _run("--workload", "all", "--seed", seed, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 6
    for name in workloads.WORKLOADS:
        for metric, unit in run.END_TO_END.items():
            value = last["metrics"][f"{name}/{metric}"]
            assert value["unit"] == unit and value["value"] > 0
    assert proc.stdout.count("fail_frac") == len(workloads.WORKLOADS)


def test_traced_run_prints_every_layer_metric_and_repeats_counts():
    counts = []
    for _ in range(2):
        proc, last = _run("--workload", "sweep_crn", "--seed", "3", "--trace", "1")
        assert proc.returncode == 0 and last["correct"], proc.stdout + proc.stderr
        assert {k: v["unit"] for k, v in last["metrics"].items()} == run.PER_LAYER
        counts.append({k: v["value"] for k, v in last["metrics"].items() if k.endswith(".calls")})
    sizes = workloads.WORKLOADS["sweep_crn"].tiny_sizes
    cells = len(sizes["r"]) * len(sizes["omega1"])
    assert last["metrics"]["simulator.brownian_increments.unique_ratio"]["value"] == 1 / cells
    assert counts[0] == counts[1]
    assert counts[0]["simulator.brownian_increments.calls"] == cells * sizes["replicates"] * 2


def test_wrappers_pass_values_through_and_are_removed():
    from ssrna import montecarlo, simulator

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("ssrna")}
    expected = simulator.brownian_increments(1, 2, 0, 50, 0.5)
    t = tracer.Tracer(op_id=7)
    t.install()
    try:
        assert montecarlo.brownian_increments is not before["ssrna.montecarlo"]["brownian_increments"]
        assert montecarlo.check_mean_square_stability.__wrapped__ is \
            before["ssrna.stability"]["check_mean_square_stability"]
        assert (montecarlo.brownian_increments(1, 2, 0, 50, 0.5) == expected).all()
    finally:
        t.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name in before}
    assert all(after[name][k] is v for name in before for k, v in before[name].items())
    (span,) = t.export()
    assert span[0] == "simulator.brownian_increments" and span[3] == -1 and span[4] == 7
    assert span[5] == {"work": 50, "key": [1, 2, 0, 50, 0.5]}


def test_self_time_subtracts_covered_children():
    spans = [
        ("a", 0, 100, -1, 0, None),
        ("b", 10, 40, 0, 0, None),
        ("b", 30, 60, 0, 0, None),  # overlaps its sibling: covered once
        ("c", 70, 80, 0, 0, None),
    ]
    stats = tracer.function_stats(spans)
    assert stats["a"].self_s == pytest.approx(40e-9)
    assert stats["b"].calls == 2 and stats["b"].s == pytest.approx(60e-9)


def test_gate_counts_a_corrupted_output_as_a_failure(tmp_path):
    (op,) = workloads.WORKLOADS["ensemble_long"].ops(str(run.SRC), workloads.DEFAULT_SEED, tiny=True)
    config = tmp_path / "c.json"
    config.write_bytes(gate.config_bytes(op.config))
    reference = gate.load_digests()[gate.sha256(config.read_bytes())]
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 120)
    proc, digests = runner.run_op(op, "plain", config, reference)
    assert proc.problems == [] and digests == reference

    out = tmp_path / "out"
    runner.spawn("ensemble", "plain", [op.command, "--config", str(config), "--out", str(out)])
    data = bytearray((out / "ensemble.csv").read_bytes())
    assert gate.check_op(op, 0, "ensemble written to x", "", {"ensemble.csv": bytes(data)}, reference) == []
    data[len(data) // 2] ^= 1
    problems = gate.check_op(op, 0, "ensemble written to x", "", {"ensemble.csv": bytes(data)}, reference)
    assert problems and "bytes differ" in problems[0]
    assert gate.structure_problems(op, {"ensemble.csv": b"t,p\n"})


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single_path", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
