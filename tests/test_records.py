"""The frozen records (serialize.Record): construction, validation, equality, hashing, repr, immutability,
field order, replace and JSON key order."""

import json
import math

import pytest

from ssrna import cli, montecarlo
from ssrna.errors import ParameterError, StabilityDomainError
from ssrna.linearization import LinearizationReport
from ssrna.model_core import Equilibrium, EquilibriumKind, ModelParams, NoiseSpec, State, origin_equilibrium
from ssrna.montecarlo import EnsembleConfig, EnsembleStats, SweepRow
from ssrna.simulator import SimConfig
from ssrna.stability import LyapunovMatrix, StabilityCertificate

from conftest import TUMV

ORIGIN = Equilibrium(EquilibriumKind.ORIGIN, 0.0, 0.0, True)
SIM = SimConfig(dt=0.5, t_end=10.0, initial=State(1.0, 2.0))
ROW = dict(r=0.5, alpha=0.25, delta=0.1, sigma=0.2, K=1000.0, omega1=0.1, omega2=0.0, R0=3.5, verdict="true",
           exceed_fraction=0.25, final_msd=12.5, n_negative=0, n_nonfinite=1)


def examples():
    """(record, an equal record built anew, a record of the same class that differs in one field)."""
    return [
        (ModelParams(0.5, 0.25, 0.1, 0.2, 1000.0), ModelParams(r=0.5, alpha=0.25, delta=0.1, sigma=0.2, K=1000.0),
         ModelParams(0.5, 0.25, 0.1, 0.2, 1001.0)),
        (origin_equilibrium(), ORIGIN, Equilibrium(EquilibriumKind.ORIGIN, 0.0, 0.0, False)),
        (NoiseSpec(1, 0), NoiseSpec(1.0, 0.0), NoiseSpec(1.0, 0.5)),
        (SIM, SimConfig(0.5, 10.0, State(1.0, 2.0), 0, 1), SimConfig(0.5, 10.0, State(1.0, 2.0), seed=1)),
        (EnsembleConfig(4, SIM, NoiseSpec(0.1, 0.1), ORIGIN, 2, 7),
         EnsembleConfig(replicates=4, sim=SIM, noise=NoiseSpec(0.1, 0.1), anchor=ORIGIN, epsilon1=2.0, master_seed=7),
         EnsembleConfig(4, SIM, NoiseSpec(0.1, 0.2), ORIGIN, 2.0, 7)),
        (SweepRow(**ROW), SweepRow(*ROW.values(), None), SweepRow(**ROW, error="x")),
        (LinearizationReport(-1.0, 2.0, 3.0, -4.0, -5.0, -2.0, -1.0, 14.0, ORIGIN),
         LinearizationReport(-1.0, 2.0, 3.0, -4.0, -5.0, -2.0, -1.0, 14.0, origin_equilibrium()),
         LinearizationReport(-1.0, 2.0, 3.0, -4.0, -5.0, -2.0, -1.0, 14.0,
                             Equilibrium(EquilibriumKind.POSITIVE, 0.0, 0.0, True))),
        (StabilityCertificate(1.0, 2.0, 3.0, 4.0, -5.0, -6.0), StabilityCertificate(1.0, 2.0, 3.0, 4.0, -5.0, -6.0),
         StabilityCertificate(1.0, 2.0, 3.0, 4.0, -5.0, -7.0)),
    ]


@pytest.mark.parametrize("record, equal, other", examples(), ids=lambda r: type(r).__name__)
def test_equal_records_are_equal_and_hash_equal(record, equal, other):
    assert record == equal and not record != equal and hash(record) == hash(equal)
    assert record != other and len({record, equal, other}) == 2
    assert record != tuple(vars(record).values()) and record != None  # noqa: E711
    # records of different classes with equal values are not equal
    assert LyapunovMatrix(1.0, 2.0, 3.0, 4.0) != StabilityCertificate(1.0, 2.0, 3.0, 4.0, 0.0, 0.0)


@pytest.mark.parametrize("record, text", [
    (ModelParams(0.5, 0.25, 0.1, 0.2, 1000.0), "ModelParams(r=0.5, alpha=0.25, delta=0.1, sigma=0.2, K=1000.0)"),
    (ORIGIN, "Equilibrium(kind=<EquilibriumKind.ORIGIN: 'origin'>, p_star=0.0, m_star=0.0, exists=True)"),
    (NoiseSpec(1, 0), "NoiseSpec(omega1=1.0, omega2=0.0)"),
    (SimConfig(1, 10, (1, 2), seed=3),
     "SimConfig(dt=1.0, t_end=10.0, initial=(1, 2), seed=3, record_stride=1)"),
    (SweepRow(**ROW), "SweepRow(r=0.5, alpha=0.25, delta=0.1, sigma=0.2, K=1000.0, omega1=0.1, omega2=0.0, "
                      "R0=3.5, verdict='true', exceed_fraction=0.25, final_msd=12.5, n_negative=0, n_nonfinite=1, "
                      "error=None)"),
], ids=lambda r: type(r).__name__ if not isinstance(r, str) else "")
def test_repr_names_every_field_in_order(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, field", [
    (ModelParams(0.5, 0.25, 0.1, 0.2, 1000.0), "r"), (ORIGIN, "exists"), (NoiseSpec(0.1, 0.1), "omega1"),
    (SIM, "seed"), (SweepRow(**ROW), "error"),
], ids=lambda r: type(r).__name__ if not isinstance(r, str) else r)
def test_setting_or_deleting_a_field_raises_attribute_error(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert repr(record) == before


def test_positional_keyword_and_default_construction():
    assert SimConfig(0.5, 10.0, State(1.0, 2.0)) == SimConfig(t_end=10.0, initial=State(1.0, 2.0), dt=0.5)
    assert (SIM.seed, SIM.record_stride) == (0, 1)
    assert SimConfig(0.5, 10.0, SIM.initial, 9, 4) == SimConfig(0.5, 10.0, SIM.initial, record_stride=4, seed=9)
    assert SweepRow(**ROW).error is None and SweepRow(*ROW.values(), "x").error == "x"
    for call in (lambda: SimConfig(0.5, 10.0),                          # a required field missing
                 lambda: SimConfig(0.5, 10.0, SIM.initial, 0, 1, 2),    # one argument too many
                 lambda: SimConfig(0.5, 10.0, SIM.initial, dt=0.5),     # a field given twice
                 lambda: ModelParams(0.5, 0.25, 0.1, 0.2, 1000.0, b=0.001),  # not a field
                 lambda: NoiseSpec()):
        with pytest.raises(TypeError):
            call()


def test_validation_coerces_numbers_to_float():
    noise = NoiseSpec(1, 0)
    assert (type(noise.omega1), type(noise.omega2)) == (float, float)
    sim = SimConfig(1, 10, (1, 2))
    assert (type(sim.dt), type(sim.t_end)) == (float, float)
    assert type(EnsembleConfig(4, SIM, noise, ORIGIN, 2, 7).epsilon1) is float


@pytest.mark.parametrize("call, error, needle", [
    (lambda: NoiseSpec(-0.1, 0.0), StabilityDomainError, "omega1 must be a finite nonnegative number"),
    (lambda: NoiseSpec(0.1, math.nan), StabilityDomainError, "omega2 must be a finite nonnegative number"),
    (lambda: NoiseSpec(True, 0.0), StabilityDomainError, "omega1"),
    (lambda: SimConfig(0.0, 10.0, (1, 2)), ParameterError, "dt must be a positive finite number"),
    (lambda: SimConfig(0.5, 0.1, (1, 2)), ParameterError, "t_end must be at least dt"),
    (lambda: SimConfig(0.5, 10.0, (1, 2), seed=-1), ParameterError, "seed must be a 64-bit unsigned integer"),
    (lambda: SimConfig(0.5, 10.0, (1, 2), record_stride=0), ParameterError, "record_stride must be an integer"),
    (lambda: SimConfig(0.5, 10.0, (1,)), ParameterError, "initial state must be a pair"),
    (lambda: EnsembleConfig(0, SIM, NoiseSpec(0, 0), ORIGIN, 1.0, 0), ParameterError, "replicates must be"),
    (lambda: EnsembleConfig(1, SIM, NoiseSpec(0, 0), ORIGIN, 0.0, 0), ParameterError,
     "epsilon1 must be a positive finite number"),
    (lambda: EnsembleConfig(1, SIM, NoiseSpec(0, 0), ORIGIN, 1.0, 2**64), ParameterError, "master_seed must be"),
])
def test_validation_errors(call, error, needle):
    with pytest.raises(error, match=needle):
        call()


def run_json(tmp_path, name, **blocks):
    """The JSON document `name` that the command of blocks writes."""
    config = {"schema": "ssrna-config/1", "model": dict(TUMV), "noise": {"omega1": 0.05, "omega2": 0.05},
              "output": {"dir": str(tmp_path)}, **blocks}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command, = blocks
    assert cli.main([command, "--config", str(path)] + (["--format", "json"] if command != "analyze" else [])) == 0
    return json.loads((tmp_path / name).read_text())


EQUILIBRIUM = ["kind", "p_star", "m_star", "exists"]


def test_analysis_json_keys_are_in_field_order(tmp_path):
    doc = run_json(tmp_path, "analysis.json", analyze={})
    assert list(doc) == ["schema", "model", "noise", "r0", "origin", "positive"]
    assert list(doc["model"]) == ["r", "alpha", "delta", "sigma", "K", "b"]
    assert list(doc["noise"]) == ["omega1", "omega2", "gamma1", "gamma2"]
    for key in ("origin", "positive"):
        assessment = doc[key]
        assert list(assessment) == ["equilibrium", "linearization", "verdict", "certificate", "summary"]
        assert list(assessment["equilibrium"]) == EQUILIBRIUM
    positive = doc["positive"]
    assert list(positive["linearization"]) == ["a11", "a12", "a21", "a22", "trace", "det", "A1", "A2", "equilibrium"]
    assert list(positive["linearization"]["equilibrium"]) == EQUILIBRIUM
    assert list(positive["verdict"]) == ["equilibrium_kind", "gamma1", "gamma2", "trace_ok", "det_ok", "gamma1_bound",
                                         "gamma2_bound", "conditions_met", "q_interval", "marginal"]
    assert list(positive["certificate"]) == ["q", "p11", "p12", "p22", "c1", "c2"]


def test_ensemble_and_sweep_json_keys_are_in_field_order(tmp_path):
    block = {"replicates": 4, "anchor": "positive", "epsilon1": {"fraction": 0.1}, "master_seed": 7,
             "sim": {"dt": 0.5, "t_end": 10.0, "initial": {"displace_fraction": 0.01}}}
    doc = run_json(tmp_path, "ensemble.json", ensemble=block)
    assert list(doc) == ["schema", "times", "mean_sq_dev", "exceed_fraction_cum", "exceed_fraction", "n_replicates",
                         "n_included", "n_exceed", "n_negative", "n_nonfinite"]
    doc = run_json(tmp_path, "sweep.json", sweep={"noise_grid": {"omega1": [0.1]}, "ensemble": block})
    (row,) = doc["rows"]
    assert list(row) == [*ROW, "error"]


def test_fields_name_every_field_in_declaration_order():
    assert ModelParams._fields == ("r", "alpha", "delta", "sigma", "K")
    assert SimConfig._fields == ("dt", "t_end", "initial", "seed", "record_stride")
    assert SweepRow._fields == (*ROW, "error")
    assert EnsembleStats._fields[:3] == ("times", "mean_sq_dev", "exceed_fraction_cum")
    assert [name for name, _ in montecarlo._SWEEP_WRITERS] == list(montecarlo.SWEEP_COLUMNS) == list(ROW)
    # each column is written by the type of its field: the verdict and the counts as str, the rest by fmt
    assert [name for name, write in montecarlo._SWEEP_WRITERS if write is str] == ["verdict", "n_negative",
                                                                                   "n_nonfinite"]


def test_replace_changes_the_given_fields_and_checks_them_again():
    assert SIM.replace() == SIM and SIM.replace() is not SIM
    assert SIM.replace(seed=5, dt=1) == SimConfig(1.0, 10.0, SIM.initial, seed=5)
    assert type(SIM.replace(dt=1).dt) is float
    with pytest.raises(ParameterError, match="dt must be a positive finite number"):
        SIM.replace(dt=0.0)
    with pytest.raises(TypeError):
        SIM.replace(b=1.0)
    stats = EnsembleStats([0.0, 1.0], [2.0, 3.0], [0.0, 0.5], 0.5, 2, 2, 1, 0, 0)
    again = stats.replace(n_negative=1)
    assert again.n_negative == 1 and again.mean_sq_dev.tolist() == [2.0, 3.0]
    assert again.replace(n_negative=0) == stats
