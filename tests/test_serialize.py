import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssrna import _em, serialize
from ssrna.montecarlo import EnsembleStats, write_ensemble_csv
from ssrna.serialize import dumps, fmt
from ssrna.simulator import Scheme, Trajectory, write_trajectory_csv

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.integers(), st.booleans())


def dumps_item_by_item(obj):
    """dumps with every list written through the per-item path, the reference."""
    with mock.patch.object(serialize, "_finite_floats", lambda items: False):
        return dumps(obj)


@given(st.one_of(st.lists(finite_floats), st.lists(scalars)))
def test_dumps_float_lists_match_the_per_item_path(items):
    for doc in (items, tuple(items), {"column": items}, [items, {"nested": [items]}]):
        assert dumps(doc) == dumps_item_by_item(doc)


def rows_reference(header, columns):
    """The CSV text written one fmt call per number, over numpy row values."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


columns3 = st.integers(1, 30).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=n, max_size=n),
                       min_size=3, max_size=3)
)


@given(columns3)
def test_csv_writers_match_a_per_number_fmt_reference(columns):
    t, a, b = (np.asarray(c, dtype=float) for c in columns)
    traj = Trajectory(t, np.column_stack((a, b)), None, Scheme.EULER_MARUYAMA)
    stats = EnsembleStats(times=t, mean_sq_dev=a, exceed_fraction_cum=b, exceed_fraction=0.0,
                          n_replicates=1, n_included=1, n_exceed=0, n_negative=0, n_nonfinite=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == rows_reference("t,p,m", (t, a, b))
        write_ensemble_csv(stats, path)
        assert path.read_text() == rows_reference("t,mean_sq_dev,exceed_fraction_cum", (t, a, b))


def test_compiled_formatter_equals_percent_17g():
    rng = np.random.default_rng(20261018)
    tens = [float(f"1e{k}") for k in range(-30, 41)]
    values = np.concatenate([
        rng.integers(0, 2**64, 1_000_000, dtype=np.uint64).view(np.float64),  # mostly snprintf
        np.ldexp(1.0, np.arange(-1074, 1024)),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf),
        SPECIAL, [-math.nan, -math.inf, -5e-324],
        rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64),  # subnormals
        -rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64),
        np.arange(-100_000, 100_000, dtype=float),
        np.arange(-100_000, 100_000) / 8.0,
        2.0**50 + np.arange(4000) / 4.0,  # 17 digits end in a tie, rounded to even
    ])
    numbers = values.tolist()
    written = _em.format_g17(values, 1, b"", b"\n").decode()
    if written != ("%.17g\n" * len(numbers)) % tuple(numbers):
        lines = written.split("\n")
        wrong = [(x, "%.17g" % x, line) for x, line in zip(numbers, lines) if "%.17g" % x != line]
        pytest.fail(f"{len(wrong)} numbers written unlike '%.17g', e.g. {wrong[:5]}")
