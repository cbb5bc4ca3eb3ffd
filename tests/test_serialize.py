import ctypes
import json
import math
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssrna import _em, serialize
from ssrna.model_core import positive_equilibrium
from ssrna.model_core import NoiseSpec, Scheme, displaced_initial
from ssrna.montecarlo import EnsembleConfig, EnsembleStats, run_ensemble, write_ensemble_csv
from ssrna.serialize import fmt
from ssrna.simulator import SimConfig, Trajectory, integrate_ode, integrate_sde, write_trajectory_csv

from conftest import dumps, record

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.integers(), st.booleans())
numbers = st.one_of(st.floats(), st.sampled_from(SPECIAL))


def float_lists(size=None):
    """Lists of floats, of `size` items if given: drawn freely, or from a pool of one to three numbers, so
    that a number often has the bits of the one before it, which the formatter writes again from its text."""
    sizes = {} if size is None else {"min_size": size, "max_size": size}
    pooled = st.lists(numbers, min_size=1, max_size=3).flatmap(lambda pool: st.lists(st.sampled_from(pool), **sizes))
    return st.one_of(st.lists(numbers, **sizes), pooled)


# a list is formatted a block of _BLOCK_ROWS numbers at a time; blocks of 3 also test the joins between blocks
BLOCK_ROWS = (3, serialize._BLOCK_ROWS)


def dumped(obj, rows):
    """dumps(obj), written in blocks of `rows` numbers."""
    with mock.patch.object(serialize, "_BLOCK_ROWS", rows):
        return dumps(obj)


@given(st.one_of(st.lists(finite_floats), st.lists(scalars)))
def test_dumps_float_lists_match_the_per_item_path(items):
    # a list or tuple is written item by item, whatever it holds: only a float column reaches the
    # compiled formatter, which a closed-form report, holding none, then never builds
    unformatted = mock.patch.object(_em, "format_g17", side_effect=AssertionError("a list reached the formatter"))
    for doc in (items, tuple(items), {"column": items}, [items, {"nested": [items]}]):
        with unformatted:
            texts = [dumped(doc, rows) for rows in BLOCK_ROWS]
        assert texts == [texts[0]] * len(BLOCK_ROWS)
        assert json.loads(texts[0]) == json.loads(json.dumps(doc, allow_nan=True))
    if all(type(v) is float for v in items):  # the float column of the same numbers has the same bytes
        assert dumps({"column": items}) == dumps({"column": array("d", items)})


@given(float_lists())
def test_dumps_float_columns_match_the_per_item_path(items):
    # a float column goes to the compiled formatter, which spells a non-finite number as JSON does;
    # a list is written item by item, the reference.  A strided memoryview, a column of an
    # interleaved buffer, is a float column too, and so is a read-only one, which the formatter
    # copies, and the column of a file of float64 numbers, read back a block at a time
    reference = dumps({"column": items})
    interleaved = array("d", [x for item in items for x in (item, 0.5)])
    readonly = memoryview(array("d", items).tobytes()).cast("d")
    with tempfile.TemporaryFile() as fh:
        fh.write(array("d", items))
        for rows in BLOCK_ROWS:
            with mock.patch.object(serialize, "_BLOCK_ROWS", rows):  # the file's blocks, of `rows` numbers
                from_file = serialize._file_column(fh)
            for column in (array("d", items), np.array(items, dtype=float), memoryview(interleaved)[0::2],
                           readonly, from_file):
                assert dumped({"column": column}, rows) == reference


def rows_reference(header, columns):
    """The CSV text written one fmt call per number, over numpy row values."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def column_kinds(values):
    """values as six columns of the kinds write_csv takes: an array('d'), a memoryview slice at an
    offset, a read-only float64 array and a strided one, which the formatter copies, the int64 array
    of their indices, and a list."""
    x = np.asarray(values, dtype=float)
    readonly = x.copy()
    readonly.flags.writeable = False
    return [array("d", values), memoryview(array("d", [0.5, *values]))[1:], readonly, np.repeat(x, 2)[::2],
            np.arange(len(values)) - 7, list(values)]


def assert_kinds_written(path, first, second):
    """write_csv writes two blocks of column_kinds columns, of first and of second, as the reference does."""
    blocks = [column_kinds(first), column_kinds(second)]
    serialize.write_csv(path, "a,b,c,d,e,f", blocks)
    joined = [[*one, *two] for one, two in zip(*blocks)]
    assert path.read_text() == rows_reference("a,b,c,d,e,f", joined)


columns3 = st.integers(1, 30).flatmap(lambda n: st.lists(float_lists(n), min_size=3, max_size=3))


@given(columns3)
def test_csv_writers_match_a_per_number_fmt_reference(columns):
    t, a, b = (np.asarray(c, dtype=float) for c in columns)
    traj = Trajectory(t, a, b, None, Scheme.EULER_MARUYAMA)
    stats = EnsembleStats(times=t, mean_sq_dev=a, exceed_fraction_cum=b, exceed_fraction=0.0,
                          n_replicates=1, n_included=1, n_exceed=0, n_negative=0, n_nonfinite=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        for rows in BLOCK_ROWS:
            with mock.patch.object(serialize, "_BLOCK_ROWS", rows):
                write_trajectory_csv(traj, path)
                assert path.read_text() == rows_reference("t,p,m", (t, a, b))
                write_ensemble_csv(stats, path)
                assert path.read_text() == rows_reference("t,mean_sq_dev,exceed_fraction_cum", (t, a, b))
                assert_kinds_written(path, columns[1], columns[2])


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
    written = bytes(_em.format_g17([values], b"", b"\n", serialize.Text())).decode()
    if written != ("%.17g\n" * len(numbers)) % tuple(numbers):
        lines = written.split("\n")
        wrong = [(x, "%.17g" % x, line) for x, line in zip(numbers, lines) if "%.17g" % x != line]
        pytest.fail(f"{len(wrong)} numbers written unlike '%.17g', e.g. {wrong[:5]}")


# the longest '%.17g' of a double: 24 bytes
WIDEST = -1.2345678901234567e-308


def spelled(x, json):
    """x as '%.17g' writes it, or with json a NaN or an infinity as the JSON writer spells it."""
    if json and not math.isfinite(x):
        return b"NaN" if math.isnan(x) else b"Infinity" if x > 0 else b"-Infinity"
    return b"%.17g" % x


@pytest.mark.parametrize("sep, eol", [(b"", b""), (b",", b"\n"), (b", ", b"\n"), (b",\n  ", b""),
                                      (b"", b",\n    "), (b"abcdefg", b"\r\n"), (b";" * 8, b"|" * 9),
                                      (b"-" * 17, b"=" * 40)])
@pytest.mark.parametrize("row", [1, 2, 3])
def test_formatter_writes_within_the_room_of_each_number(sep, eol, row):
    # fmt_g17 copies each number's text in a piece of G17_ROOM bytes, and its separator in pieces that
    # end with it: the widest numbers, in a buffer of just the room it is given, end before its canary.
    # Each of the row's columns is an array at its own address; the longest non-finite spelling,
    # -Infinity, ends the last row
    lib = _em.library()
    for values in ([WIDEST] * row, [WIDEST] * 6, [0.5, WIDEST, WIDEST, -0.0, WIDEST, 1e300],
                   [WIDEST, 1e-5, 2.0**60, 1.0, 0.0, 2.5], [math.nan, WIDEST, math.inf] + [WIDEST] * 2 + [-math.inf]):
        columns = [array("d", values[j::row]) for j in range(row)]
        addresses = (ctypes.c_void_p * row)(*map(_em._address, columns))
        room = len(values) * (_em._G17_ROOM + max(len(sep), len(eol)))
        canary = b"\xa5" * 64
        for json in (0, 1):
            out = ctypes.create_string_buffer(room + len(canary))
            ctypes.memmove(ctypes.addressof(out) + room, canary, len(canary))
            size = lib.fmt_g17(addresses, row, len(columns[0]), sep, len(sep), eol, len(eol), json, out)
            rows = [values[i:i + row] for i in range(0, len(values), row)]
            expected = b"".join(sep.join(spelled(v, json) for v in r) + eol for r in rows)
            assert (out.raw[:size], out.raw[room:]) == (expected, canary)


def test_a_text_serves_every_block_and_grows_where_one_needs_more_room():
    # a view of one block's text is valid until the next block; a block that needs more room takes a
    # new buffer, and leaves the view of the one before it as it was
    text = serialize.Text()
    small = _em.format_g17([[1.5], [2.5]], b",", b"\n", text)
    held = text.buffer
    assert bytes(small) == b"1.5,2.5\n" and len(held) == 2 * (_em._G17_ROOM + 1)
    large = _em.format_g17([[WIDEST] * 3], b"", b"\n", text)
    assert text.buffer is not held and bytes(small) == b"1.5,2.5\n"
    assert bytes(large) == b"-1.2345678901234567e-308\n" * 3
    again = _em.format_g17([[0.25]], b"", b"\n", text)
    assert bytes(again) == b"0.25\n" and bytes(large).startswith(b"0.25\n")  # written over, in place
    for json, spelling in ((False, b"nan,inf,-inf\n"), (True, b"NaN,Infinity,-Infinity\n")):
        assert bytes(_em.format_g17([[math.nan], [math.inf], [-math.inf]], b",", b"\n", text, json)) == spelling


def test_numpy_arrays_are_written_like_lists(tmp_path):
    # the writers take array('d') buffers; library callers may still pass numpy arrays
    rng = np.random.default_rng(11)
    states = rng.normal(size=(40, 2)) * 1e5
    t = np.arange(40) * 0.25
    column = states[:, 0]  # strided
    assert not column.flags.c_contiguous
    assert serialize.plain(column) == column.tolist() and serialize.plain(states) == states.tolist()
    stats = EnsembleStats(times=t, mean_sq_dev=column, exceed_fraction_cum=t / 10, exceed_fraction=0.0,
                          n_replicates=1, n_included=1, n_exceed=0, n_negative=0, n_nonfinite=0)
    # a record's one-column fields are handed over as the array('d') it holds, as float columns
    doc = serialize.plain(stats)
    for name, values in (("times", t), ("mean_sq_dev", column), ("exceed_fraction_cum", t / 10)):
        assert doc[name] is serialize._stored(stats, name) and doc[name] == array("d", values.tolist())
    assert dumps(doc) == dumps(json_lists({**doc, "times": t, "mean_sq_dev": column, "exceed_fraction_cum": t / 10}))
    for doc in (column, (t, np.arange(3)), [states]):
        assert dumps(serialize.plain(doc)) == dumps(json_lists(doc))
    # dumps writes a 1-D float64 array as it is
    doc = {"column": column, "nan": np.array([1.0, math.nan])}
    assert dumps(doc) == dumps(json_lists(doc))
    serialize.write_csv(tmp_path / "arrays.csv", "t,p,n", [(t, column, np.arange(40))])
    serialize.write_csv(tmp_path / "lists.csv", "t,p,n", [(t.tolist(), column.tolist(), list(range(40)))])
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
    assert (tmp_path / "arrays.csv").read_bytes().count(b"\n") == 41
    assert_kinds_written(tmp_path / "kinds.csv", column, states[:, 1])


def records(params):
    """An RK4 trajectory, an Euler-Maruyama trajectory and the statistics of an ensemble."""
    eq = positive_equilibrium(params)
    sim = SimConfig(dt=0.5, t_end=30.0, initial=displaced_initial(eq, 0.01, params.K), seed=3, record_stride=4)
    noise = NoiseSpec(0.1, 0.1)
    ensemble = EnsembleConfig(replicates=5, sim=sim, noise=noise, anchor=eq, epsilon1=1e5, master_seed=3)
    return [integrate_ode(params, sim), integrate_sde(params, noise, eq, sim), run_ensemble(ensemble, params)]


def test_records_round_trip_through_json(tumv):
    # each record is read back bit for bit, each float column from its list
    for obj in records(tumv):
        back = record(type(obj), json.loads(dumps(serialize.plain(obj))))
        for name in vars(obj):
            value, read = serialize._stored(obj, name), serialize._stored(back, name)
            if isinstance(value, array):
                assert (read.typecode, read.tobytes()) == ("d", value.tobytes()), name
            else:
                assert (type(read), read) == (type(value), value), name
        if isinstance(obj, Trajectory):  # the columns of the (p, m) rows, as trajectory.json lists them
            doc = serialize.plain(obj)
            assert [list(row) for row in zip(doc["p"], doc["m"])] == obj.states.tolist()


def json_lists(obj):
    """obj with every numpy array replaced by its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: json_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_lists(value) for value in obj]
    return obj
