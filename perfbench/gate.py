"""Correctness gate: an operation passes only if it exits 0, prints no
traceback and writes the expected bytes.

At the default seed each output file must match the sha256 recorded in
``digests.json`` for the exact generated config.  At any seed, repeated
operations in one run must write byte-identical files, and the first one is
checked for structure (header, row count, finite numbers, sweep verdicts).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

HEADERS = {
    "ensemble.csv": "t,mean_sq_dev,exceed_fraction_cum",
    "trajectory.csv": "t,p,m",
    "sweep.csv": "r,alpha,delta,sigma,K,omega1,omega2,R0,verdict,exceed_fraction,final_msd,n_negative,n_nonfinite",
}
SWEEP_VERDICT_COLUMN = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, indent=2, sort_keys=True) + "\n").encode()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _csv_problems(name: str, text: str, rows: int) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{name}: no final newline"]
    lines.pop()
    if not lines or lines[0] != HEADERS[name]:
        return [f"{name}: header is {lines[:1]!r}"]
    if len(lines) - 1 != rows:
        return [f"{name}: {len(lines) - 1} rows, expected {rows}"]
    width = HEADERS[name].count(",") + 1
    for number, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != width:
            return [f"{name}: row {number} has {len(fields)} fields"]
        if name == "sweep.csv":
            verdict = fields.pop(SWEEP_VERDICT_COLUMN)
            if verdict not in ("true", "false"):
                return [f"{name}: row {number} has verdict {verdict!r}"]
        if not all(_finite(f) for f in fields):
            return [f"{name}: row {number} holds a non-finite or non-numeric value"]
    return []


def _json_problems(name: str, text: str, rows: int) -> list[str]:
    doc = json.loads(text)
    if name == "trajectory.json":
        if doc.get("schema") != "ssrna-trajectory/1":
            return [f"{name}: schema {doc.get('schema')!r}"]
        lengths = {len(doc[k]) for k in ("times", "p", "m")}
        if lengths != {rows}:
            return [f"{name}: series lengths {sorted(lengths)}, expected {rows}"]
        if not all(math.isfinite(v) for k in ("times", "p", "m") for v in doc[k]):
            return [f"{name}: non-finite value"]
        return []
    if doc.get("schema") != "ssrna-analysis/1":
        return [f"{name}: schema {doc.get('schema')!r}"]
    if not (doc["r0"] > 1.0 and doc["positive"]["equilibrium"]["exists"]):
        return [f"{name}: coexistence equilibrium missing (R0 {doc['r0']!r})"]
    return []


def structure_problems(op, files: dict[str, bytes]) -> list[str]:
    problems = []
    for name, data in files.items():
        try:
            text = data.decode("ascii")
            if name.endswith(".csv"):
                problems += _csv_problems(name, text, op.rows)
            else:
                problems += _json_problems(name, text, op.rows)
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
    return problems


def check_op(op, returncode: int, stdout: str, stderr: str, files: dict[str, bytes],
             reference: dict[str, str] | None) -> list[str]:
    """Problems with one operation; empty when it passed.

    ``reference`` maps output file names to the sha256 they must have; when
    it is None the files are checked for structure instead.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stdout or "Traceback" in stderr:
        problems.append("printed a traceback")
    if "written to" not in stdout:
        problems.append("did not report its output file")
    missing = [name for name in op.outputs if name not in files]
    if missing:
        return problems + [f"missing outputs {missing}"]
    if reference is None:
        return problems + structure_problems(op, files)
    for name, data in files.items():
        if sha256(data) != reference.get(name):
            problems.append(f"{name}: bytes differ from the reference (sha256 {sha256(data)[:12]})")
    return problems
