"""Command-line front end: analyze, simulate, ensemble and sweep workflows.

Configuration is a single JSON file with a versioned `schema` field and
exactly one command block; outputs are CSV/JSON files whose numbers carry
17 significant digits, so identical (config, seed) runs produce identical
bytes.  Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from typing import Any, Optional

from . import montecarlo, serialize, simulator, stability
from .errors import EnsembleError, Error, IntegrationError, ParameterError, StabilityDomainError
from .linearization import linearize
from .model_core import Equilibrium, EquilibriumKind, ModelParams, State, validate_params
from .montecarlo import EnsembleConfig
from .simulator import MAX_SEED, Scheme, SimConfig, Trajectory
from .stability import EquilibriumAssessment, NoiseSpec, StabilityClassification

CONFIG_SCHEMA = "ssrna-config/1"
ANALYSIS_SCHEMA = "ssrna-analysis/1"
COMMANDS = ("analyze", "simulate", "ensemble", "sweep")


# ---------------------------------------------------------------------------
# config parsing

def _object(value: Any, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"{ctx} must be a JSON object")
    return value


def _expect(mapping: Any, key: str, ctx: str) -> Any:
    if key not in _object(mapping, ctx):
        raise ParameterError(f"{ctx}: missing required field {key!r}")
    return mapping[key]


def _number(value: Any, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{ctx} must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{ctx} must be an integer, got {value!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from None
    try:
        cfg = serialize.loads(text)
    except ValueError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParameterError("config root must be a JSON object")
    if cfg.get("schema") != CONFIG_SCHEMA:
        raise ParameterError(
            f"config field 'schema' must be {CONFIG_SCHEMA!r}, got {cfg.get('schema')!r}"
        )
    present = [c for c in COMMANDS if c in cfg]
    if len(present) != 1:
        raise ParameterError(
            f"config must contain exactly one command block out of {COMMANDS}, found {present or 'none'}"
        )
    return cfg


def parse_model(cfg: dict) -> ModelParams:
    block = _expect(cfg, "model", "config")
    return validate_params(
        r=_number(_expect(block, "r", "model"), "model.r"),
        alpha=_number(_expect(block, "alpha", "model"), "model.alpha"),
        delta=_number(_expect(block, "delta", "model"), "model.delta"),
        sigma=_number(_expect(block, "sigma", "model"), "model.sigma"),
        K=_number(_expect(block, "K", "model"), "model.K"),
    )


def parse_noise(cfg: dict) -> NoiseSpec:
    block = cfg.get("noise")
    if block is None:
        return NoiseSpec(0.0, 0.0)
    _object(block, "noise")
    try:
        return NoiseSpec(
            omega1=_number(block.get("omega1", 0.0), "noise.omega1"),
            omega2=_number(block.get("omega2", 0.0), "noise.omega2"),
        )
    except StabilityDomainError as exc:  # "omega1 must be ..." becomes "noise.omega1 must be ..."
        raise ParameterError(f"noise.{exc}") from None


def _resolve_anchor(params: ModelParams, name: Any, ctx: str) -> Equilibrium:
    if name not in ("origin", "positive"):
        raise ParameterError(f"{ctx}: anchor must be 'origin' or 'positive', got {name!r}")
    try:
        return montecarlo.resolve_anchor(params, EquilibriumKind(name))
    except ParameterError as exc:
        raise ParameterError(f"{ctx}: {exc}") from None


def _resolve_initial(spec: Any, anchor: Optional[Equilibrium], params: ModelParams,
                     ctx: str) -> tuple[State, Optional[float]]:
    """The initial state, and the displace_fraction it was derived from (None for [p, m])."""
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        return State(_number(spec[0], f"{ctx}[0]"), _number(spec[1], f"{ctx}[1]")), None
    if isinstance(spec, dict) and "displace_fraction" in spec:
        if anchor is None:
            raise ParameterError(f"{ctx}: displace_fraction needs an 'anchor' in this block")
        frac = _number(spec["displace_fraction"], f"{ctx}.displace_fraction")
        return montecarlo.displaced_initial(anchor, frac, params.K), frac
    raise ParameterError(
        f"{ctx} must be [p, m] or {{'displace_fraction': f}}, got {spec!r}"
    )


def _parse_sim_block(
    block: dict,
    params: ModelParams,
    anchor: Optional[Equilibrium],
    ctx: str,
    seed_override: Optional[int],
) -> tuple[SimConfig, Optional[float]]:
    dt_raw = _object(block, ctx).get("dt")
    if dt_raw is None:
        dt = simulator.default_dt(params, anchor)
    else:
        dt = _number(dt_raw, f"{ctx}.dt")
    t_end = _number(_expect(block, "t_end", ctx), f"{ctx}.t_end")
    initial, displace = _resolve_initial(_expect(block, "initial", ctx), anchor, params, f"{ctx}.initial")
    seed = _integer(block.get("seed", 0), f"{ctx}.seed")
    if seed_override is not None:
        seed = seed_override
    stride = _integer(block.get("record_stride", 1), f"{ctx}.record_stride")
    return SimConfig(dt=dt, t_end=t_end, initial=initial, seed=seed, record_stride=stride), displace


def _parse_ensemble_block(
    block: dict,
    params: ModelParams,
    noise: NoiseSpec,
    ctx: str,
    seed_override: Optional[int],
) -> tuple[EnsembleConfig, Optional[float], Optional[float]]:
    """Returns (config, displace_fraction, epsilon1_fraction) for sweep reuse."""
    anchor = _resolve_anchor(params, _expect(block, "anchor", ctx), ctx)
    sim, displace = _parse_sim_block(_expect(block, "sim", ctx), params, anchor, f"{ctx}.sim", None)
    replicates = _integer(_expect(block, "replicates", ctx), f"{ctx}.replicates")
    master_seed = _integer(block.get("master_seed", 0), f"{ctx}.master_seed")
    if seed_override is not None:
        master_seed = seed_override
    eps_spec = _expect(block, "epsilon1", ctx)
    eps_fraction: Optional[float] = None
    if isinstance(eps_spec, dict) and "fraction" in eps_spec:
        eps_fraction = _number(eps_spec["fraction"], f"{ctx}.epsilon1.fraction")
        epsilon1 = eps_fraction * montecarlo.anchor_scale(anchor, params.K)
    else:
        epsilon1 = _number(eps_spec, f"{ctx}.epsilon1")
    cfg = EnsembleConfig(
        replicates=replicates,
        sim=sim,
        noise=noise,
        anchor=anchor,
        epsilon1=epsilon1,
        master_seed=master_seed,
    )
    return cfg, displace, eps_fraction


def _out_dir(cfg: dict, out_flag: Optional[str]) -> str:
    """The output directory, refused before the run unless its nearest existing ancestor is
    a writable directory.  Nothing is created here; _write_output makes it and checks again."""
    block = cfg.get("output", {})
    out_dir = out_flag or (block.get("dir") if isinstance(block, dict) else None)
    if out_dir is None:
        raise ParameterError("no output directory: set output.dir in the config or pass --out")
    if not isinstance(out_dir, str):
        raise ParameterError(f"output.dir must be a string, got {out_dir!r}")
    probe = os.path.abspath(out_dir)
    while not os.path.exists(probe) and os.path.dirname(probe) != probe:
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK)):
        raise ParameterError(f"cannot create output directory {out_dir!r}: {probe!r} is not a writable directory")
    return out_dir


def _output_format(cfg: dict, fmt_flag: Optional[str]) -> str:
    block = cfg.get("output", {})
    fmt = fmt_flag or (block.get("format", "csv") if isinstance(block, dict) else "csv")
    if fmt not in ("csv", "json"):
        raise ParameterError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _write_output(out_dir: str, stem: str, fmt: str, document: Callable[[], dict],
                  write_csv: Optional[Callable[[str], None]] = None) -> str:
    """Write `stem.json` from document(), or `stem.csv` with write_csv; returns the path.

    The output directory is created here, once the run has succeeded, so a
    rejected config leaves no directory behind.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {out_dir!r}: {exc}") from None
    if not os.access(out_dir, os.W_OK):
        raise ParameterError(f"output directory {out_dir!r} is not writable")
    path = os.path.join(out_dir, f"{stem}.{fmt}")
    try:
        if fmt == "json":
            with open(path, "w") as fh:
                fh.write(serialize.dumps(document()))
        else:
            write_csv(path)
    except OSError as exc:
        raise ParameterError(f"cannot write {path!r}: {exc}") from None
    return path


# ---------------------------------------------------------------------------
# analysis report serialization

def analysis_to_dict(params: ModelParams, noise: NoiseSpec, cls: StabilityClassification) -> dict:
    return {
        "schema": ANALYSIS_SCHEMA,
        "model": {"r": params.r, "alpha": params.alpha, "delta": params.delta,
                  "sigma": params.sigma, "K": params.K, "b": params.b},
        "noise": {"omega1": noise.omega1, "omega2": noise.omega2,
                  "gamma1": noise.gamma1, "gamma2": noise.gamma2},
        **serialize.plain(cls),
    }


def analysis_from_dict(d: dict) -> tuple[ModelParams, NoiseSpec, StabilityClassification]:
    if d.get("schema") != ANALYSIS_SCHEMA:
        raise ParameterError(f"not an analysis report (schema={d.get('schema')!r})")
    m = d["model"]
    params = validate_params(r=m["r"], alpha=m["alpha"], delta=m["delta"], sigma=m["sigma"], K=m["K"])
    noise = NoiseSpec(d["noise"]["omega1"], d["noise"]["omega2"])
    return params, noise, serialize.record(StabilityClassification, d)


# ---------------------------------------------------------------------------
# commands

def _print_assessment(label: str, a: EquilibriumAssessment) -> None:
    eq = a.equilibrium
    fmt = serialize.fmt
    print(f"{label}: ({fmt(eq.p_star)}, {fmt(eq.m_star)}) exists={str(eq.exists).lower()}")
    if a.linearization is not None:
        rep = a.linearization
        print(f"  drift matrix: a11={fmt(rep.a11)} a12={fmt(rep.a12)} a21={fmt(rep.a21)} a22={fmt(rep.a22)}")
        print(f"  invariants: trace={fmt(rep.trace)} det={fmt(rep.det)} A1={fmt(rep.A1)} A2={fmt(rep.A2)}")
    if a.verdict is not None:
        v = a.verdict
        b1 = "undefined" if v.gamma1_bound is None else fmt(v.gamma1_bound)
        b2 = "undefined" if v.gamma2_bound is None else fmt(v.gamma2_bound)
        print(f"  gamma1={fmt(v.gamma1)} (bound {b1})  gamma2={fmt(v.gamma2)} (bound {b2})")
        if v.q_interval is not None:
            print(f"  q interval: ({fmt(v.q_interval[0])}, {fmt(v.q_interval[1])})")
        else:
            print("  q interval: empty")
        if v.marginal:
            print("  note: a comparison sits within 1e-12 of its bound (marginal)")
    if a.certificate is not None:
        c = a.certificate
        print(f"  certificate: q={fmt(c.q)} p11={fmt(c.p11)} p12={fmt(c.p12)} "
              f"p22={fmt(c.p22)} c1={fmt(c.c1)} c2={fmt(c.c2)}")
    print(f"  verdict: {a.summary}")


def cmd_analyze(cfg: dict, out_dir: str, fmt: str, seed_override: Optional[int]) -> int:
    params = parse_model(cfg)
    noise = parse_noise(cfg)
    cls = stability.classify_equilibria_stability(params, noise)
    print(f"R0: {serialize.fmt(cls.r0)}")
    _print_assessment("virus-free equilibrium E0", cls.origin)
    _print_assessment("coexistence equilibrium E+", cls.positive)
    report_path = _write_output(out_dir, "analysis", "json", lambda: analysis_to_dict(params, noise, cls))
    print(f"report written to {report_path}")
    return 0


def _trajectory_json(traj: Trajectory) -> dict:
    return {
        "schema": "ssrna-trajectory/1",
        "scheme": traj.scheme.value,
        "exited_omega": traj.exited_omega,
        "times": traj.times.tolist(),
        "p": traj.states[:, 0].tolist(),
        "m": traj.states[:, 1].tolist(),
    }


def cmd_simulate(cfg: dict, out_dir: str, fmt: str, seed_override: Optional[int]) -> int:
    params = parse_model(cfg)
    noise = parse_noise(cfg)
    block = _object(cfg["simulate"], "simulate")
    scheme_name = block.get("scheme", "rk4")
    if scheme_name not in (Scheme.RK4.value, Scheme.EULER_MARUYAMA.value):
        raise ParameterError(f"simulate.scheme must be 'rk4' or 'euler-maruyama', got {scheme_name!r}")
    anchor = None
    if "anchor" in block or scheme_name == Scheme.EULER_MARUYAMA.value:
        anchor = _resolve_anchor(params, _expect(block, "anchor", "simulate"), "simulate")
    sim, _ = _parse_sim_block(block, params, anchor, "simulate", seed_override)

    p0, m0 = sim.initial
    if scheme_name == Scheme.RK4.value and (p0 < 0 or m0 < 0 or p0 + m0 > params.K):
        print("warning: initial state lies outside the phase-space triangle; proceeding anyway")

    if scheme_name == Scheme.RK4.value:
        traj = simulator.integrate_ode(params, sim)
    else:
        traj = simulator.integrate_sde(params, noise, anchor, sim)

    path = _write_output(out_dir, "trajectory", fmt, lambda: _trajectory_json(traj),
                         lambda p: simulator.write_trajectory_csv(traj, p))

    final = traj.final_state
    went_negative = bool((traj.states < 0.0).any())
    print(f"scheme: {traj.scheme.value}")
    print(f"final state: ({serialize.fmt(final.p)}, {serialize.fmt(final.m)})")
    if traj.exited_omega is not None:
        print(f"left phase-space triangle at t={serialize.fmt(traj.exited_omega)}")
    else:
        print("stayed inside phase-space triangle")
    print(f"visited negative populations: {str(went_negative).lower()}")
    print(f"trajectory written to {path}")
    return 0


def cmd_ensemble(cfg: dict, out_dir: str, fmt: str, seed_override: Optional[int]) -> int:
    params = parse_model(cfg)
    noise = parse_noise(cfg)
    ens_cfg, _, _ = _parse_ensemble_block(cfg["ensemble"], params, noise, "ensemble", seed_override)
    verdict = stability.check_mean_square_stability(linearize(params, ens_cfg.anchor), noise)
    stats = montecarlo.run_ensemble(ens_cfg, params)

    path = _write_output(out_dir, "ensemble", fmt,
                         lambda: {"schema": "ssrna-ensemble/1", **serialize.plain(stats)},
                         lambda p: montecarlo.write_ensemble_csv(stats, p))

    print(f"analytic verdict (sufficient conditions met): {str(verdict.conditions_met).lower()}")
    print(f"replicates: {stats.n_replicates} included: {stats.n_included} "
          f"negative: {stats.n_negative} nonfinite: {stats.n_nonfinite}")
    print(f"mean_sq_dev: initial {serialize.fmt(float(stats.mean_sq_dev[0]))} "
          f"final {serialize.fmt(float(stats.mean_sq_dev[-1]))}")
    if stats.n_included >= 30:
        est, (lo, hi) = montecarlo.estimate_stability_in_probability(stats)
        print(f"exceed fraction: {serialize.fmt(est)} (Wilson 95%: {serialize.fmt(lo)}..{serialize.fmt(hi)})")
    else:
        print(f"exceed fraction: {serialize.fmt(stats.exceed_fraction)}")
    print(f"ensemble written to {path}")
    return 0


def cmd_sweep(cfg: dict, out_dir: str, fmt: str, seed_override: Optional[int]) -> int:
    params = parse_model(cfg)
    noise = parse_noise(cfg)
    block = cfg["sweep"]
    template, displace, eps_fraction = _parse_ensemble_block(
        _expect(block, "ensemble", "sweep"), params, noise, "sweep.ensemble", seed_override
    )
    rows = montecarlo.sweep(
        params, block.get("model_grid", {}), block.get("noise_grid", {}), template,
        displace_fraction=displace,
        epsilon1_fraction=eps_fraction,
    )

    path = _write_output(out_dir, "sweep", fmt,
                         lambda: {"schema": "ssrna-sweep/1", "rows": serialize.plain(rows)},
                         lambda p: montecarlo.write_sweep_csv(rows, p))

    for row in rows:
        print(f"omega1={serialize.fmt(row.omega1)} omega2={serialize.fmt(row.omega2)} "
              f"R0={serialize.fmt(row.R0)} verdict={row.verdict} "
              f"exceed={serialize.fmt(row.exceed_fraction)} final_msd={serialize.fmt(row.final_msd)}")
    print(f"{len(rows)} cells written to {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssrna",
        description="Stability analysis and stochastic simulation of within-cell ssRNA replication",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a ssrna-config/1 JSON file")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, default=None, help="seed override (u64)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None, help="tabular output format")
    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "sweep": cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command not in cfg:
            raise ParameterError(
                f"config contains no {args.command!r} block (command and config must agree)"
            )
        if args.seed is not None and not 0 <= args.seed < MAX_SEED:
            raise ParameterError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
        out_dir = _out_dir(cfg, args.out)
        fmt = _output_format(cfg, args.format)
        return _DISPATCH[args.command](cfg, out_dir, fmt, args.seed)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical failure: {exc} (t={serialize.fmt(exc.t)})", file=sys.stderr)
        return 3
    except (EnsembleError, Error) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
