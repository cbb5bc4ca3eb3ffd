"""Named workloads: each turns a seed into the ssrna configs of its operations.

Every workload uses the TuMV rates shipped in ``src/ssrna/data/tumv.json``,
the coexistence anchor, a start displaced by 1% of the anchor, an exceedance
radius of 10% of the anchor, noise 0.05/0.05 and the model's default ``dt``.
The seed becomes ``master_seed`` (ensembles, sweeps) or ``seed`` (paths) in
the generated config; the program receives only the config file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

DEFAULT_SEED = 0
NOISE = {"omega1": 0.05, "omega2": 0.05}
DISPLACE_FRACTION = 0.01
EPSILON1_FRACTION = 0.1
SWEEP_R = (0.08, 0.1211, 0.2, 0.4)
SWEEP_OMEGA1 = (0.0, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class Op:
    """One CLI invocation, run in a fresh process."""

    label: str
    command: str
    config: dict
    fmt: Optional[str]
    outputs: tuple[str, ...]
    rsteps: int          # replicate-steps (path steps for single paths)
    increment_bytes: int  # 2 x replicates x steps x 8, for the ensemble buffers
    rows: int            # recorded rows over all output tables


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    tiny_sizes: dict
    build: Callable[[dict, int, dict], list[Op]]

    def ops(self, src_dir: str, seed: int, tiny: bool = False) -> list[Op]:
        return self.build(_base_config(src_dir), seed, self.tiny_sizes if tiny else self.sizes)


def _base_config(src_dir: str) -> dict:
    with open(os.path.join(src_dir, "ssrna", "data", "tumv.json")) as fh:
        tumv = json.load(fh)
    return {"schema": tumv["schema"], "model": dict(tumv["model"]), "noise": dict(NOISE)}


def _steps(base: dict, t_end: float) -> int:
    """Steps at the default dt of the base rates, which every cell of a sweep reuses."""
    from ssrna import model_core, simulator

    params = model_core.validate_params(**base["model"])
    anchor = model_core.positive_equilibrium(params)
    dt = simulator.default_dt(params, anchor)
    return simulator.step_count(simulator.SimConfig(dt=dt, t_end=t_end, initial=anchor.state))


def _ensemble_block(seed: int, sizes: dict) -> dict:
    return {
        "replicates": sizes["replicates"],
        "anchor": "positive",
        "epsilon1": {"fraction": EPSILON1_FRACTION},
        "master_seed": seed,
        "sim": {
            "t_end": sizes["t_end"],
            "initial": {"displace_fraction": DISPLACE_FRACTION},
            "record_stride": sizes["record_stride"],
        },
    }


def _ensemble(base: dict, seed: int, sizes: dict) -> list[Op]:
    from ssrna.simulator import recorded_steps

    steps = _steps(base, sizes["t_end"])
    reps = sizes["replicates"]
    rows = len(recorded_steps(steps, sizes["record_stride"]))
    config = dict(base, ensemble=_ensemble_block(seed, sizes))
    return [Op("ensemble", "ensemble", config, None, ("ensemble.csv",),
               reps * steps, 2 * reps * steps * 8, rows)]


def _sweep(base: dict, seed: int, sizes: dict) -> list[Op]:
    steps = _steps(base, sizes["t_end"])
    reps = sizes["replicates"]
    cells = len(sizes["r"]) * len(sizes["omega1"])
    config = dict(
        base,
        sweep={
            "model_grid": {"r": list(sizes["r"])},
            "noise_grid": {"omega1": list(sizes["omega1"])},
            "ensemble": _ensemble_block(seed, sizes),
        },
    )
    return [Op("sweep", "sweep", config, None, ("sweep.csv",),
               cells * reps * steps, cells * 2 * reps * steps * 8, cells)]


def _single_path(base: dict, seed: int, sizes: dict) -> list[Op]:
    steps = _steps(base, sizes["t_end"])
    sim = {
        "t_end": sizes["t_end"],
        "initial": {"displace_fraction": DISPLACE_FRACTION},
        "anchor": "positive",
        "seed": seed,
    }
    return [
        Op("simulate-rk4", "simulate", dict(base, simulate=dict(sim, scheme="rk4")), None,
           ("trajectory.csv",), steps, 0, steps + 1),
        Op("simulate-em", "simulate", dict(base, simulate=dict(sim, scheme="euler-maruyama")), "json",
           ("trajectory.json",), steps, 0, steps + 1),
        Op("analyze", "analyze", dict(base, analyze={}), None, ("analysis.json",), 0, 0, 0),
    ]


# Each "why" is repeated in BENCHMARK.json; the smoke tests keep them equal.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble_long",
            "1000 replicates over 18626 steps: the step kernel and the O(replicates x steps) increment buffers dominate",
            {"replicates": 1000, "t_end": 10000.0, "record_stride": 10},
            {"replicates": 40, "t_end": 200.0, "record_stride": 10},
            _ensemble,
        ),
        Workload(
            "sweep_crn",
            "4x4 r x omega1 sweep whose 16 cells regenerate the same 2000 Wiener streams (common random numbers)",
            {"replicates": 1000, "t_end": 500.0, "record_stride": 10, "r": SWEEP_R, "omega1": SWEEP_OMEGA1},
            {"replicates": 20, "t_end": 50.0, "record_stride": 10, "r": SWEEP_R[:2], "omega1": SWEEP_OMEGA1[:2]},
            _sweep,
        ),
        Workload(
            "ensemble_wide",
            "10000 short replicates observed every step: many streams and wide arrays, where sharding could help",
            {"replicates": 10000, "t_end": 1000.0, "record_stride": 1},
            {"replicates": 200, "t_end": 50.0, "record_stride": 1},
            _ensemble,
        ),
        Workload(
            "single_path",
            "rk4 to CSV, euler-maruyama to JSON, then analyze: scalar integrators, writers and CLI set-up",
            {"t_end": 60000.0},
            {"t_end": 200.0},
            _single_path,
        ),
    )
}
