"""Command-line front end: analyze, simulate, ensemble and sweep workflows.

Configuration is a single JSON file with a versioned `schema` field and
exactly one command block; outputs are CSV/JSON files whose numbers carry
17 significant digits, so identical (config, seed) runs produce identical
bytes.  Exit codes: 0 success, 1 the compiled library cannot be built or
loaded, 2 invalid input, 3 numerical failure; the `ssrna` script stopped by
SIGTERM exits 143 and leaves no partial output.

Each config value is checked once: by the record that holds it, whose
refusal reads `<block>: <message>`, or else by this module's readers, as
`<block>.<field> must be ...`.

Reading a config loads only serialize, model_core and errors; each command
imports the modules it runs.  So `analyze` loads neither the integrators nor
the compiled library, and `simulate` neither the ensembles nor the stability
criteria.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, BinaryIO, Optional

from . import serialize
from .errors import Error, IntegrationError, KernelError, ParameterError, StabilityDomainError, brief
from .model_core import (
    MAX_SEED,
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    NoiseSpec,
    Scheme,
    State,
    anchor_scale,
    displaced_initial,
    resolve_anchor,
    validate_params,
)

if TYPE_CHECKING:
    from .montecarlo import EnsembleConfig
    from .simulator import PathBlocks, SimConfig
    from .stability import EquilibriumAssessment, StabilityClassification

CONFIG_SCHEMA = "ssrna-config/1"
ANALYSIS_SCHEMA = "ssrna-analysis/1"
COMMANDS = ("analyze", "simulate", "ensemble", "sweep")


# ---------------------------------------------------------------------------
# config parsing: one table per block maps each field to (reader, default)

_REQUIRED = object()  # the default of a field that must be present

_Reader = Callable[[Any, str], Any]  # (value, dotted path) -> parsed value


def _fields(block: Any, ctx: str, spec: dict[str, tuple[_Reader, Any]]) -> dict:
    """Every field of spec, read from block, or its default when absent.

    A block that is not an object, a missing required field and a field the
    spec does not list are refused, naming the block's dotted path ctx ("" is
    the config root, whose fields have bare names).
    """
    where = ctx or "config"
    if not isinstance(block, dict):
        raise ParameterError(f"{where} must be a JSON object")
    for key in block:
        if key not in spec:
            raise ParameterError(f"{where}: unknown field {brief(key)}")
    out = {}
    for name, (read, default) in spec.items():
        if name in block:
            out[name] = read(block[name], f"{ctx}.{name}" if ctx else name)
        elif default is _REQUIRED:
            raise ParameterError(f"{where}: missing required field {name!r}")
        else:
            out[name] = default
    return out


def _any(value: Any, ctx: str) -> Any:
    """A value read later: a block, or a field that the record holding it checks."""
    return value


def _number(value: Any, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{ctx} must be a number, got {brief(value)}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer has no bound
        raise ParameterError(f"{ctx} is an integer beyond floating-point range") from None


def _string(value: Any, ctx: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"{ctx} must be a string, got {brief(value)}")
    return value


def _one_of(*choices: str) -> _Reader:
    def read(value: Any, ctx: str) -> str:
        if not (isinstance(value, str) and value in choices):
            raise ParameterError(f"{ctx} must be {' or '.join(map(repr, choices))}, got {brief(value)}")
        return value
    return read


def _initial(value: Any, ctx: str) -> tuple[Optional[State], Optional[float]]:
    """[p, m] as (state, None); {"displace_fraction": f} as (None, f)."""
    if isinstance(value, list) and len(value) == 2:
        return State(_number(value[0], f"{ctx}[0]"), _number(value[1], f"{ctx}[1]")), None
    if isinstance(value, dict):
        return None, _fields(value, ctx, _DISPLACE)["displace_fraction"]
    raise ParameterError(f"{ctx} must be [p, m] or {{'displace_fraction': f}}, got {brief(value)}")


def _epsilon1(value: Any, ctx: str) -> tuple[Optional[float], Optional[float]]:
    """A radius as (radius, None); {"fraction": f} of the anchor's magnitude as (None, f)."""
    if isinstance(value, dict):
        return None, _fields(value, ctx, _FRACTION)["fraction"]
    return _number(value, ctx), None


_ANCHOR = _one_of(EquilibriumKind.ORIGIN.value, EquilibriumKind.POSITIVE.value)
_CONFIG = {"schema": (_one_of(CONFIG_SCHEMA), _REQUIRED), "model": (_any, _REQUIRED),
           "noise": (_any, {}), "output": (_any, {}), **{c: (_any, None) for c in COMMANDS}}
_MODEL = {name: (_any, _REQUIRED) for name in ModelParams._fields}
_NOISE = {name: (_any, 0.0) for name in NoiseSpec._fields}
_OUTPUT = {"dir": (_string, None), "format": (_one_of("csv", "json"), "csv")}
# a null dt is refused, not taken for the default dt
_SIM = {"dt": (_number, None), "t_end": (_any, _REQUIRED), "initial": (_initial, _REQUIRED),
        "record_stride": (_any, 1)}
_SIMULATE = {"scheme": (_one_of(*(s.value for s in Scheme)), Scheme.RK4.value),
             "anchor": (_ANCHOR, None), "seed": (_any, 0), **_SIM}
_ENSEMBLE = {"replicates": (_any, _REQUIRED), "anchor": (_ANCHOR, _REQUIRED),
             "epsilon1": (_epsilon1, _REQUIRED), "master_seed": (_any, 0), "sim": (_any, _REQUIRED)}
_SWEEP = {"model_grid": (_any, {}), "noise_grid": (_any, {}), "ensemble": (_any, _REQUIRED)}
_DISPLACE = {"displace_fraction": (_number, _REQUIRED)}
_FRACTION = {"fraction": (_number, _REQUIRED)}


def load_config(path: str) -> dict:
    """The config at path, its root fields checked; an absent block holds its default.

    The file is read as UTF-8 (RFC 8259), whatever the locale.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config {path!r} is not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParameterError(f"config {path!r} nests arrays or objects too deeply to read") from None
    cfg = _fields(data, "", _CONFIG)
    present = [c for c in COMMANDS if cfg[c] is not None]
    if len(present) != 1:
        raise ParameterError(
            f"config must contain exactly one command block out of {COMMANDS}, found {present or 'none'}"
        )
    return cfg


def _record(ctx: str, build: Callable[..., Any], *args: Any, **fields: Any) -> Any:
    """build(*args, **fields): a record of block ctx, or the check that makes one.  The record checks
    the values it holds, and its refusal is re-raised naming the block, as "ctx: <message>"."""
    try:
        return build(*args, **fields)
    except (ParameterError, StabilityDomainError) as exc:
        raise ParameterError(f"{ctx}: {exc}") from None


def parse_model(cfg: dict) -> ModelParams:
    return _record("model", validate_params, **_fields(cfg.get("model"), "model", _MODEL))


def parse_noise(cfg: dict) -> NoiseSpec:
    return _record("noise", NoiseSpec, **_fields(cfg.get("noise", {}), "noise", _NOISE))


def _sim(f: dict, ctx: str, params: ModelParams, anchor: Optional[Equilibrium]) -> tuple[SimConfig, Optional[float]]:
    """The SimConfig of a sim block's fields (a simulate block's seed too, else 0), and the
    displace_fraction of its start (or None)."""
    from .simulator import SimConfig, default_dt

    initial, displace = f["initial"]
    if initial is None:
        if anchor is None:
            raise ParameterError(f"{ctx}.initial: displace_fraction needs an 'anchor' in this block")
        initial = displaced_initial(anchor, displace, params.K)
    dt = default_dt(params, anchor) if f["dt"] is None else f["dt"]
    return _record(ctx, SimConfig, dt=dt, t_end=f["t_end"], initial=initial, seed=f.get("seed", 0),
                   record_stride=f["record_stride"]), displace


def _ensemble(block: Any, ctx: str, params: ModelParams, noise: NoiseSpec,
              seed_override: Optional[int]) -> tuple[EnsembleConfig, Optional[float], Optional[float]]:
    """The ensemble, with its displace_fraction and epsilon1 fraction (None when absolute)."""
    from .montecarlo import EnsembleConfig

    f = _fields(block, ctx, _ENSEMBLE)
    anchor = _record(ctx, resolve_anchor, params, EquilibriumKind(f["anchor"]))
    sim, displace = _sim(_fields(f["sim"], f"{ctx}.sim", _SIM), f"{ctx}.sim", params, anchor)
    epsilon1, eps_fraction = f["epsilon1"]
    if epsilon1 is None:
        epsilon1 = eps_fraction * anchor_scale(anchor, params.K)
    fields = dict(replicates=f["replicates"], sim=sim, noise=noise, anchor=anchor, epsilon1=epsilon1)
    cfg = _record(ctx, EnsembleConfig, master_seed=f["master_seed"], **fields)
    if seed_override is not None:  # --seed replaces the config's seed, which is checked all the same
        cfg = EnsembleConfig(master_seed=seed_override, **fields)
    return cfg, displace, eps_fraction


def _out_dir(out_dir: Optional[str]) -> str:
    """The output directory, refused before the run unless its nearest existing ancestor is
    a writable directory.  Nothing is created here; _write_output makes it and checks again."""
    if out_dir is None:
        raise ParameterError("no output directory: set output.dir in the config or pass --out")
    probe = os.path.abspath(out_dir)
    while not os.path.exists(probe) and os.path.dirname(probe) != probe:
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK)):
        raise ParameterError(f"cannot create output directory {out_dir!r}: {probe!r} is not a writable directory")
    return out_dir


def _write_output(out_dir: str, name: str, write: Callable[[str], None]) -> str:
    """Make out_dir, then write the file `name` in it with write(tmp); returns its path.

    write writes the whole file at the temporary path tmp in out_dir,
    which is renamed onto `name` once complete, so a failed write leaves
    neither a partial file nor the temporary one.  The directory is made
    here, once the config has been read, so a rejected config leaves none
    behind; a run that fails inside write with anything but an OSError (a
    `simulate` path that becomes non-finite as it is written) removes the
    directories made here too.
    """
    missing, probe = [], os.path.abspath(out_dir)
    while not os.path.lexists(probe):  # the directories makedirs makes, deepest first
        missing.append(probe)
        probe = os.path.dirname(probe)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {out_dir!r}: {exc}") from None
    if not os.access(out_dir, os.W_OK):
        raise ParameterError(f"output directory {out_dir!r} is not writable")
    path = os.path.join(out_dir, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.lexists(tmp):  # the write or the rename failed
                os.unlink(tmp)
    except OSError as exc:
        raise ParameterError(f"cannot write {path!r}: {exc}") from None
    except BaseException:
        for directory in missing:
            try:
                os.rmdir(directory)
            except OSError:  # no longer empty: another process wrote into it
                break
        raise
    return path


def _json(document: Callable[[], dict]) -> Callable[[str], None]:
    """The writer of document()'s JSON text, for _write_output."""
    def write(tmp: str) -> None:
        with open(tmp, "wb") as fh:
            serialize.dump(document(), fh)
    return write


# ---------------------------------------------------------------------------
# analysis report serialization

def analysis_to_dict(params: ModelParams, noise: NoiseSpec, cls: StabilityClassification) -> dict:
    return {
        "schema": ANALYSIS_SCHEMA,
        "model": {**serialize.plain(params), "b": params.b},
        "noise": {**serialize.plain(noise), "gamma1": noise.gamma1, "gamma2": noise.gamma2},
        **serialize.plain(cls),
    }


# ---------------------------------------------------------------------------
# commands: each gets its block, the model, the noise and the output settings

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


def cmd_analyze(block: Any, params: ModelParams, noise: NoiseSpec, out_dir: str, fmt: str,
                seed_override: Optional[int]) -> int:
    from . import stability

    _fields(block, "analyze", {})
    cls = stability.classify_equilibria_stability(params, noise)
    print(f"R0: {serialize.fmt(cls.r0)}")
    _print_assessment("virus-free equilibrium E0", cls.origin)
    _print_assessment("coexistence equilibrium E+", cls.positive)
    report_path = _write_output(out_dir, "analysis.json", _json(lambda: analysis_to_dict(params, noise, cls)))
    print(f"report written to {report_path}")
    return 0


def _side_file(name: str) -> BinaryIO:
    """A new file opened to write and read back, already unlinked, so that it goes when it is
    closed, however this process ends."""
    fh = open(name, "x+b")
    os.unlink(name)
    return fh


def _write_trajectory(blocks: PathBlocks, fmt: str, tmp: str) -> None:
    """Step the path and write it to tmp, as `t,p,m` CSV rows or as a JSON document, a block at a time.

    A CSV block is written as soon as it is stepped.  The JSON document
    holds exited_omega before the columns, and it is known only at the end,
    so the blocks' t, p and m go to side files next to tmp as float64, and
    the document is written from them once the path has ended.
    """
    if fmt == "csv":
        serialize.write_csv(tmp, "t,p,m", (path.columns() for path in blocks))
        return
    with _side_file(f"{tmp}.t") as t, _side_file(f"{tmp}.p") as p, _side_file(f"{tmp}.m") as m:
        for path in blocks:
            for side, column in zip((t, p, m), path.columns()):
                side.write(column)
        columns = [serialize._file_column(side) for side in (t, p, m)]
        with open(tmp, "wb") as fh:
            serialize.dump({"schema": "ssrna-trajectory/1", "scheme": blocks.scheme.value,
                            "exited_omega": blocks.exited_omega, "times": columns[0], "p": columns[1],
                            "m": columns[2]}, fh)


def cmd_simulate(block: Any, params: ModelParams, noise: NoiseSpec, out_dir: str, fmt: str,
                 seed_override: Optional[int]) -> int:
    from . import simulator

    f = _fields(block, "simulate", _SIMULATE)
    scheme = Scheme(f["scheme"])
    if f["anchor"] is None and scheme is Scheme.EULER_MARUYAMA:
        raise ParameterError("simulate: missing required field 'anchor'")
    anchor = None if f["anchor"] is None else _record("simulate", resolve_anchor, params,
                                                       EquilibriumKind(f["anchor"]))
    sim, _ = _sim(f, "simulate", params, anchor)
    if seed_override is not None:  # --seed replaces the config's seed, which is checked all the same
        sim = simulator.SimConfig(sim.dt, sim.t_end, sim.initial, seed_override, sim.record_stride)

    p0, m0 = sim.initial
    if scheme is Scheme.RK4 and (p0 < 0 or m0 < 0 or p0 + m0 > params.K):
        print("warning: initial state lies outside the phase-space triangle; proceeding anyway")

    # the path is stepped as it is written, one block of rows at a time
    if scheme is Scheme.RK4:
        blocks = simulator.ode_blocks(params, sim)
    else:
        blocks = simulator.sde_blocks(params, noise, anchor, sim)
    path = _write_output(out_dir, f"trajectory.{fmt}", lambda tmp: _write_trajectory(blocks, fmt, tmp))

    final = blocks.final_state
    print(f"scheme: {blocks.scheme.value}")
    print(f"final state: ({serialize.fmt(final.p)}, {serialize.fmt(final.m)})")
    if blocks.exited_omega is not None:
        print(f"left phase-space triangle at t={serialize.fmt(blocks.exited_omega)}")
    else:
        print("stayed inside phase-space triangle")
    print(f"visited negative populations: {str(blocks.lowest < 0.0).lower()}")
    print(f"trajectory written to {path}")
    return 0


def cmd_ensemble(block: Any, params: ModelParams, noise: NoiseSpec, out_dir: str, fmt: str,
                 seed_override: Optional[int]) -> int:
    from . import montecarlo, stability
    from .linearization import linearize

    ens_cfg, _, _ = _ensemble(block, "ensemble", params, noise, seed_override)
    verdict = stability.check_mean_square_stability(linearize(params, ens_cfg.anchor), noise)
    stats = montecarlo.run_ensemble(ens_cfg, params)

    write = (_json(lambda: {"schema": "ssrna-ensemble/1", **serialize.plain(stats)}) if fmt == "json"
             else lambda tmp: montecarlo.write_ensemble_csv(stats, tmp))
    path = _write_output(out_dir, f"ensemble.{fmt}", write)

    print(f"analytic verdict (sufficient conditions met): {str(verdict.conditions_met).lower()}")
    print(f"replicates: {stats.n_replicates} included: {stats.n_included} "
          f"negative: {stats.n_negative} nonfinite: {stats.n_nonfinite}")
    msd = serialize._stored(stats, "mean_sq_dev")
    print(f"mean_sq_dev: initial {serialize.fmt(msd[0])} final {serialize.fmt(msd[-1])}")
    if stats.n_included >= montecarlo.MIN_INTERVAL_REPLICATES:
        est, (lo, hi) = montecarlo.estimate_stability_in_probability(stats)
        print(f"exceed fraction: {serialize.fmt(est)} (Wilson 95%: {serialize.fmt(lo)}..{serialize.fmt(hi)})")
    else:
        print(f"exceed fraction: {serialize.fmt(stats.exceed_fraction)}")
    print(f"ensemble written to {path}")
    return 0


def cmd_sweep(block: Any, params: ModelParams, noise: NoiseSpec, out_dir: str, fmt: str,
              seed_override: Optional[int]) -> int:
    from . import montecarlo

    f = _fields(block, "sweep", _SWEEP)
    template, displace, eps_fraction = _ensemble(f["ensemble"], "sweep.ensemble", params, noise, seed_override)
    rows = montecarlo.sweep(
        params, f["model_grid"], f["noise_grid"], template,
        displace_fraction=displace,
        epsilon1_fraction=eps_fraction,
    )

    write = (_json(lambda: {"schema": "ssrna-sweep/1", "rows": serialize.plain(rows)}) if fmt == "json"
             else lambda tmp: montecarlo.write_sweep_csv(rows, tmp))
    path = _write_output(out_dir, f"sweep.{fmt}", write)

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
    parser.set_defaults(seed=None, format=None)  # analyze draws nothing and writes JSON: it takes neither
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a ssrna-config/1 JSON file")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        if name != "analyze":
            cmd.add_argument("--seed", type=int, default=None, help="seed override (u64)")
            cmd.add_argument("--format", choices=("csv", "json"), default=None, help="tabular output format")
    return parser


_DISPATCH = {"analyze": cmd_analyze, "simulate": cmd_simulate, "ensemble": cmd_ensemble, "sweep": cmd_sweep}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg[args.command] is None:
            raise ParameterError(
                f"config contains no {args.command!r} block (command and config must agree)"
            )
        if args.seed is not None and not 0 <= args.seed < MAX_SEED:
            raise ParameterError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
        output = _fields(cfg["output"], "output", _OUTPUT)
        if args.command == "analyze" and "format" in cfg["output"]:  # as it takes no --format
            raise ParameterError("output.format: analyze writes analysis.json only and takes no format")
        out_dir = _out_dir(args.out or output["dir"])
        return _DISPATCH[args.command](cfg[args.command], parse_model(cfg), parse_noise(cfg), out_dir,
                                       args.format or output["format"], args.seed)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. under an address-space limit below the machine's memory
        print("error: out of memory: the run does not fit in the memory this process may use", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical failure: {exc} (t={serialize.fmt(exc.t)})", file=sys.stderr)
        return 3
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    import signal  # a SIGTERM becomes an exit (143), which removes a partial output as a failed write does

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
