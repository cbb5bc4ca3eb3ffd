"""Benchmark of ssrna's CLI workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is ``src/ssrna`` there.
Closed loop, one client: each operation of the workload runs through
``ssrna.cli.main`` in a fresh process, one at a time, until the next
iteration would overrun ``--seconds``.  ``SSRNA_THREADS`` is removed from the
operations' environment, so the program's own parallelism choice is measured.

``--trace 0`` reports the end-to-end metrics (medians over iterations);
wall time is gated as ``wall_rel``, each iteration's wall time divided by the
time of a fixed calibration computation run in this process between
operations (see ``calibration_s``), so that most of the drift in the host's
speed cancels out; ``wall_s`` and ``rsteps_per_s`` are printed in the table as
measured.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, from spans recorded around calls into each module's public
functions (see tracer.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a table with quartiles
and sample counts, and the environment, come before it.  Details, and the
spans of a traced run, are written under ``.perfbench_work/results``.

``--record-digests`` runs every workload once at the default seed, full and
tiny size, and rewrites digests.json with the sha256 of each output file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

SETUP_PROBES = 3          # extra set-up-only processes per run, for setup_s
RUN_LIMIT_S = 170.0       # no operation may run past this point of the run

END_TO_END = {
    "wall_rel": "x",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
INFO = {                  # printed in the table only, not gated
    "wall_s": "s",
    "rsteps_per_s": "1/s",
    "calibration_s": "s",
}

CAL_LOOP = 400_000        # pure-Python iterations of the calibration computation
CAL_ARRAY = 1 << 22       # float64 elements (32 MiB) of its numpy passes
CAL_PASSES = 8


@dataclass
class Proc:
    """One finished operation process."""

    op_id: int
    label: str
    spawn_ns: int
    exit_ns: int
    returncode: int
    cpu_s: float
    report: dict | None
    problems: list[str] = field(default_factory=list)

    @property
    def rss_mb(self) -> float | None:
        return None if self.report is None else self.report["peak_rss_kib"] / 1024.0

    @property
    def wall_s(self) -> float:
        return (self.exit_ns - self.spawn_ns) * 1e-9

    @property
    def setup_s(self) -> float | None:
        return None if self.report is None else (self.report["ready_ns"] - self.spawn_ns) * 1e-9

    @property
    def import_s(self) -> float | None:
        return None if self.report is None else (self.report["imported_ns"] - self.report["started_ns"]) * 1e-9


@dataclass
class Iteration:
    mode: str
    procs: list[Proc]
    cals: list[float]     # calibration_s before the first operation and after each one

    @property
    def wall_rel(self) -> float:
        return self.wall_s / statistics.mean(self.cals)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)


def calibration_s(array) -> float:
    """Seconds taken by a fixed computation: a pure-Python loop, then numpy
    passes over ``array`` that allocate fresh 32 MiB results, like the
    interpreter, memory and page-fault work the operations do.

    The host is shared, and its speed drifts by tens of percent over minutes,
    in the processor and in the memory system.  Dividing an iteration's wall
    time by the calibration times taken around it removes most of that drift.
    It runs between operations, never beside one, so it cannot slow them."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    for _ in range(CAL_PASSES):
        array * 1.0001 + 0.5
    return time.perf_counter() - start


class Runner:
    """Spawns operation processes for one run and checks what they write."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.next_id = 0
        self.env = {k: v for k, v in os.environ.items() if k != "SSRNA_THREADS"}

    def spawn(self, label: str, mode: str, cli_args: list[str]) -> Proc:
        op_id = self.next_id
        self.next_id += 1
        op_dir = self.run_dir / f"op{op_id}"
        op_dir.mkdir()
        report_path = op_dir / "report.json"
        argv = [sys.executable, str(CHILD), str(SRC), str(report_path), str(op_id), mode, "--", *cli_args]
        with open(op_dir / "stdout", "w") as out, open(op_dir / "stderr", "w") as err:
            spawn_ns = time.monotonic_ns()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            exit_ns = time.monotonic_ns()
        child.returncode = os.waitstatus_to_exitcode(status)
        report = None
        if report_path.exists():
            report = json.loads(report_path.read_text())
        return Proc(op_id, label, spawn_ns, exit_ns, child.returncode,
                    usage.ru_utime + usage.ru_stime, report)

    def run_op(self, op, mode: str, config_path: Path, reference: dict | None) -> tuple[Proc, dict]:
        """Run and check one operation; returns it with its output digests."""
        out_dir = self.run_dir / f"out{self.next_id}"
        args = [op.command, "--config", str(config_path), "--out", str(out_dir)]
        if op.fmt:
            args += ["--format", op.fmt]
        proc = self.spawn(op.label, mode, args)
        op_dir = self.run_dir / f"op{proc.op_id}"
        files = {name: (out_dir / name).read_bytes() for name in op.outputs if (out_dir / name).exists()}
        stdout = (op_dir / "stdout").read_text(errors="replace")
        stderr = (op_dir / "stderr").read_text(errors="replace")
        proc.problems = gate.check_op(op, proc.returncode, stdout, stderr, files, reference)
        if proc.report is None:
            proc.problems.append("no timing report")
        shutil.rmtree(out_dir, ignore_errors=True)
        return proc, {name: gate.sha256(data) for name, data in files.items()}


# ---------------------------------------------------------------------------
# one run of one workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(values: list[float], unit: str) -> dict:
    q1, med, q3 = _quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def _span_metrics():
    """(name, unit, value from the merged FunctionStats of one iteration)."""
    B = "simulator.brownian_increments"
    E = "montecarlo.run_ensemble"
    metrics = [
        (f"{B}.calls", "count", lambda f: f(B).calls),
        (f"{B}.s", "s", lambda f: f(B).s),
        (f"{B}.ns_per_draw", "ns", lambda f: _per(f(B).s, f(B).work, 1e9)),
        (f"{B}.bytes", "B", lambda f: f(B).work * 8),
        (f"{B}.unique_ratio", "ratio", lambda f: _per(len(f(B).keys), f(B).calls)),
        (f"{E}.calls", "count", lambda f: f(E).calls),
        (f"{E}.s", "s", lambda f: f(E).s),
        (f"{E}.self_s", "s", lambda f: f(E).self_s),
        (f"{E}.ns_per_rstep", "ns", lambda f: _per(f(E).self_s, f(E).work, 1e9)),
        ("montecarlo.sweep.s", "s", lambda f: f("montecarlo.sweep").s),
        ("montecarlo.sweep.self_s", "s", lambda f: f("montecarlo.sweep").self_s),
    ]
    for path in ("simulator.integrate_ode", "simulator.integrate_sde"):
        metrics += [
            (f"{path}.s", "s", lambda f, p=path: f(p).s),
            (f"{path}.ns_per_step", "ns", lambda f, p=path: _per(f(p).s, f(p).work, 1e9)),
        ]
    for writer in ("simulator.write_trajectory_csv", "serialize.dumps"):
        metrics += [
            (f"{writer}.s", "s", lambda f, w=writer: f(w).s),
            (f"{writer}.bytes", "B", lambda f, w=writer: f(w).bytes),
        ]
    for name, stat, unit in (
        ("montecarlo.write_ensemble_csv", "s", "s"),
        ("montecarlo.write_sweep_csv", "s", "s"),
        ("stability.check_mean_square_stability", "calls", "count"),
        ("stability.check_mean_square_stability", "s", "s"),
        ("stability.classify_equilibria_stability", "s", "s"),
        ("linearization.linearize", "calls", "count"),
        ("model_core.positive_equilibrium", "calls", "count"),
        ("cli.load_config", "s", "s"),
        ("cli.main", "s", "s"),
        ("cli.main", "self_s", "s"),
    ):
        metrics.append((f"{name}.{stat}", unit, lambda f, n=name, s=stat: getattr(f(n), s)))
    return metrics


SPAN_METRICS = _span_metrics()
PROCESS_METRICS = {
    "process.import_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_s": "s",
}
PER_LAYER = {name: unit for name, unit, _ in SPAN_METRICS} | PROCESS_METRICS


def _iteration_spans(it: Iteration) -> list:
    """All spans of an iteration, each process under a root span from spawn to exit."""
    spans = []
    for proc in it.procs:
        base = len(spans)
        spans.append(("process", proc.spawn_ns, proc.exit_ns, -1, proc.op_id, None))
        for name, start, end, parent, op_id, extra in (proc.report or {}).get("spans", []):
            spans.append((name, start, end, base if parent < 0 else base + 1 + parent, op_id, extra))
    return spans


def layer_metrics(iterations: list[Iteration]) -> tuple[dict, list]:
    """Per-layer summaries, and every span of the traced iterations."""
    plain = [it for it in iterations if it.mode == "plain"]
    traced = [it for it in iterations if it.mode == "traced"]
    all_spans = []
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for it in traced:
        spans = _iteration_spans(it)
        all_spans += spans
        stats = tracer.function_stats(spans)
        lookup = lambda name: stats.get(name, tracer.FunctionStats())  # noqa: E731
        for name, _unit, value in SPAN_METRICS:
            samples[name].append(float(value(lookup)))
    for it in plain:
        cpu = sum(p.cpu_s for p in it.procs)
        samples["process.import_s"].append(sum(p.import_s or 0.0 for p in it.procs))
        samples["process.cpu_s"].append(cpu)
        samples["process.cpu_util"].append(cpu / it.wall_s)
    overhead = statistics.median(it.wall_s for it in traced) - statistics.median(it.wall_s for it in plain)
    samples["trace.overhead_s"].append(overhead)
    return {name: _summary(values, PER_LAYER[name]) for name, values in samples.items()}, all_spans


def end_to_end_metrics(iterations: list[Iteration], probes: list[Proc], rsteps: int) -> dict:
    """The gated metrics, then the INFO ones."""
    setups = [p.setup_s for p in probes + [p for it in iterations for p in it.procs] if p.setup_s is not None]
    samples = {
        "wall_rel": [it.wall_rel for it in iterations],
        "peak_rss_mb": [max(p.rss_mb or 0.0 for p in it.procs) for it in iterations],
        "setup_s": setups,
        "wall_s": [it.wall_s for it in iterations],
        "rsteps_per_s": [rsteps / it.wall_s for it in iterations],
        "calibration_s": [c for it in iterations for c in it.cals],
    }
    units = END_TO_END | INFO
    return {name: _summary(values, units[name]) for name, values in samples.items()}


def run_workload(workload, seed: int, seconds: float, trace: bool, tiny: bool, run_start: float) -> dict:
    import numpy

    cal_array = numpy.arange(CAL_ARRAY, dtype=float)
    ops = workload.ops(str(SRC), seed, tiny)
    configs = [gate.config_bytes(op.config) for op in ops]
    references = [None] * len(ops)
    if seed == workloads.DEFAULT_SEED:
        recorded = gate.load_digests()
        references = [recorded.get(gate.sha256(data)) for data in configs]
        if None in references:
            raise SystemExit(f"no recorded digests for {workload.name} at seed {seed}; run with --record-digests")
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_paths = [run_dir / f"{op.label}.json" for op in ops]
    for path, data in zip(config_paths, configs):
        path.write_bytes(data)

    runner = Runner(run_dir, run_start + RUN_LIMIT_S)
    try:
        probes = [runner.spawn(ops[0].label, "setup", [ops[0].command, "--config", str(config_paths[0])])
                  for _ in range(SETUP_PROBES)]
        for probe in probes:
            if probe.returncode != 0 or probe.report is None:
                probe.problems.append(f"set-up probe exit code {probe.returncode}")

        iterations: list[Iteration] = []
        durations: list[float] = []
        start = time.monotonic()
        last_cal = calibration_s(cal_array)
        while True:
            mode = "traced" if trace and len(iterations) % 2 == 1 else "plain"
            began = time.monotonic()
            procs, cals = [], [last_cal]
            for i, op in enumerate(ops):
                proc, digests = runner.run_op(op, mode, config_paths[i], references[i])
                if references[i] is None and not proc.problems:
                    references[i] = digests  # later repetitions must match these bytes
                procs.append(proc)
                cals.append(calibration_s(cal_array))
            last_cal = cals[-1]
            iterations.append(Iteration(mode, procs, cals))
            now = time.monotonic()
            durations.append(now - began)
            estimate = statistics.median(durations)
            enough = len(iterations) >= (2 if trace else 1)
            if now + estimate > runner.deadline or any(p.returncode < 0 for p in procs):
                break
            if enough and now - start + estimate > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    procs = [p for it in iterations for p in it.procs]
    failed = [p for p in procs if p.problems]
    rsteps = sum(op.rsteps for op in ops)
    if trace:
        metrics, spans = layer_metrics(iterations)
    else:
        metrics, spans = end_to_end_metrics(iterations, probes, rsteps), []
    return {
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.tiny_sizes if tiny else workload.sizes,
        "work_per_iteration": {
            "replicate_steps": rsteps,
            "increment_bytes": sum(op.increment_bytes for op in ops),
            "recorded_rows": sum(op.rows for op in ops),
            "operations": [op.label for op in ops],
        },
        "samples": {
            "iterations": len(iterations),
            "traced_iterations": sum(it.mode == "traced" for it in iterations),
            "operations": len(procs),
            "setup_probes": len(probes),
        },
        "attempted": len(procs),
        "failed": len(failed),
        "fail_frac": len(failed) / len(procs),
        "problems": [f"op{p.op_id} {p.label}: {msg}" for p in failed + probes for msg in p.problems],
        "correct": not failed and not any(p.problems for p in probes),
        "metrics": metrics,
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# environment and reporting


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ssrna").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def print_table(result: dict) -> None:
    s = result["samples"]
    print(f"workload {result['workload']}: {s['iterations']} iterations ({s['traced_iterations']} traced), "
          f"{result['attempted']} operations, {result['failed']} failed; {result['why']}")
    work = result["work_per_iteration"]
    print(f"  work per iteration: {work['replicate_steps']} replicate-steps, "
          f"{work['increment_bytes']} increment bytes (computed), {work['recorded_rows']} recorded rows")
    for name, m in result["metrics"].items():
        if name in INFO:
            name += " (not gated)"
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    if not s["traced_iterations"]:
        print(f"  {'fail_frac':<48} {result['fail_frac']:>14.6g} {'ratio':<6} "
              f"({result['failed']}/{result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def record_digests() -> None:
    digests = {}
    for workload in workloads.WORKLOADS.values():
        for tiny in (False, True):
            ops = workload.ops(str(SRC), workloads.DEFAULT_SEED, tiny)
            run_dir = WORK / f"record-{workload.name}-{int(tiny)}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            runner = Runner(run_dir, time.monotonic() + 600)
            for op in ops:
                data = gate.config_bytes(op.config)
                path = run_dir / f"{op.label}.json"
                path.write_bytes(data)
                proc, files = runner.run_op(op, "plain", path, None)
                if proc.problems:
                    raise SystemExit(f"{workload.name}/{op.label}: {proc.problems}")
                digests[gate.sha256(data)] = files
                print(f"{workload.name} {'tiny' if tiny else 'full'} {op.label}: {files}")
            shutil.rmtree(run_dir, ignore_errors=True)
    with open(gate.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    run_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke tests")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "ssrna" / "cli.py").is_file():
        print(f"error: no ssrna sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"error: --seed must be a 64-bit unsigned integer, got {args.seed}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        record_digests()
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args)
    results = []
    for name in names:
        result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              args.tiny, time.monotonic() if len(names) > 1 else run_start)
        results.append(result)
        print_table(result)
        out = WORK / "results"
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        if result["spans"]:
            (out / f"{stem}-spans.json").write_text(json.dumps(result["spans"]))
        details = {k: v for k, v in result.items() if k != "spans"}
        (out / f"{stem}.json").write_text(json.dumps(dict(details, environment=env), indent=1) + "\n")

    print("environment: " + json.dumps(env))
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        metrics.update({prefix + k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items() if k not in INFO})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
