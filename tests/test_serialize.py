import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ssrna import serialize
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
