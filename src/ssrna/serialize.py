"""Deterministic text serialization: floats carry 17 significant digits.

17 significant digits round-trip any IEEE double exactly, which makes every
output file byte-comparable across runs and safe to parse back.  A record
(a dataclass) has one JSON form: an object whose keys are its field names in
declaration order, built by `plain` and read back by `record`.

A record's numeric arrays are FloatArray fields: the writers take the
array('d') they hold, so writing a record never imports numpy.  `plain`
writes a field of several columns as a list of rows, and `record` reads
those rows back.
"""

from __future__ import annotations

import dataclasses
import json
import math
from array import array
from collections.abc import Sequence
from enum import Enum
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from . import _em

__all__ = ["fmt", "write_csv", "dumps", "loads", "plain", "record", "FloatArray"]

_FLOAT = "%.17g"

# CSV rows formatted per call of the compiled formatter, which bounds its buffer.
_CSV_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Format one float with 17 significant digits."""
    return _FLOAT % x


class FloatArray:
    """A record field of float64 numbers, read as a float64 numpy array.

    The field holds an array('d') of its numbers in C order: the one it is
    given, or a copy of any other sequence of numbers or numpy array (see
    _em.doubles), or of a list of rows of `columns` numbers.  Each read
    returns a numpy array on that memory, of `columns` columns if more than
    one, and imports numpy.  The writers and `plain` take the array('d')
    itself (_stored), so writing a record never imports numpy.
    """

    def __init__(self, columns: int = 1):
        self.columns = columns

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            raise AttributeError(self.name)  # the dataclass field has no default
        import numpy as np

        values = np.frombuffer(obj.__dict__[self.name], dtype=np.float64)
        return values if self.columns == 1 else values.reshape(-1, self.columns)

    def __set__(self, obj: Any, value: Any) -> None:
        if self.columns > 1 and isinstance(value, list) and value and isinstance(value[0], list):
            value = [x for row in value for x in row]  # rows, as plain gives them
        obj.__dict__[self.name] = _em.doubles(value)


def _stored(record: Any, name: str) -> Any:
    """A record's field as the record holds it: for a FloatArray field, its array('d')."""
    return vars(record)[name]


def write_csv(path, header: str, columns: Sequence[Any]) -> None:
    """Write a `header` line, then row i of the equal-length numeric columns.

    Every value is written as fmt writes it.  The numbers are formatted by
    the compiled library's '%.17g' formatter (_em.format_g17), a block of
    rows per call, about ten times faster than Python's % per number.
    """
    columns = [_em.doubles(c) for c in columns]
    n, width = len(columns[0]), len(columns)
    if any(len(c) != n for c in columns):
        raise ValueError("the columns differ in length")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n)
            block = _em._zeros("d", width * (hi - lo))  # the rows lo..hi-1, one after another
            for j, column in enumerate(columns):
                block[j::width] = column[lo:hi]
            fh.write(_em.format_g17(block, width, b",", b"\n"))


def _float_column(obj: Any) -> bool:
    """Whether obj is an array('d') or a 1-D float64 numpy array, which is written as a list of its numbers."""
    if isinstance(obj, array):
        return obj.typecode == "d"
    return _em.is_ndarray(obj) and obj.ndim == 1 and obj.dtype.char == "d"


def _finite_floats(items: Any) -> bool:
    """Whether every item of a list or tuple is a finite float: no NaN, Infinity, bool or int spelling."""
    return all(type(v) is float for v in items) and all(map(math.isfinite, items))


def _write(obj: Any, out: list[str], indent: str, level: int) -> None:
    pad = indent * level
    pad_in = indent * (level + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        # bare Infinity/NaN round-trip through json.loads
        if math.isnan(obj):
            out.append("NaN")
        elif math.isinf(obj):
            out.append("Infinity" if obj > 0 else "-Infinity")
        else:
            out.append(fmt(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad_in + json.dumps(key) + ": ")
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or _float_column(obj):
        if len(obj) == 0:
            out.append("[]")
            return
        # finite floats have the bytes of the per-item loop below, which the tests keep as the
        # reference, in one call: a trajectory's columns are 10^5 numbers each.  The formatter
        # reports a float column's non-finite numbers, so only a list's items are checked first.
        numbers = None
        if _float_column(obj) or _finite_floats(obj):
            numbers = _em.format_g17(obj, len(obj), (",\n" + pad_in).encode(), b"", finite=True)
        if numbers is not None:
            out.append("[\n" + pad_in + numbers.decode() + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad_in)
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dumps(obj: Any, indent: str = "  ") -> str:
    out: list[str] = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def loads(text: str) -> Any:
    return json.loads(text)


def plain(obj: Any) -> Any:
    """JSON-ready form of a record: fields in declaration order, enums by value,
    tuples, lists and arrays as lists; other values pass through."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain_field(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, array) or _em.is_ndarray(obj):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    return obj


def _plain_field(obj: Any, name: str) -> Any:
    """A record's field in its plain form: a FloatArray field of several columns as a list of rows."""
    value, column = _stored(obj, name), vars(type(obj)).get(name)
    if not (isinstance(column, FloatArray) and column.columns > 1):
        return plain(value)
    return [value[i:i + column.columns].tolist() for i in range(0, len(value), column.columns)]


def record(cls: type, data: dict) -> Any:
    """Rebuild the dataclass `cls` from its `plain` form, following its field annotations."""
    hints = get_type_hints(cls)
    return cls(**{f.name: _typed(hints[f.name], data[f.name]) for f in dataclasses.fields(cls)})


def _typed(tp: Any, value: Any) -> Any:
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
        return _typed(tp, value)
    if origin is tuple:
        return tuple(_typed(a, v) for a, v in zip(get_args(tp), value))
    if dataclasses.is_dataclass(tp):
        return record(tp, value)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(value)
    if tp is float:  # an integral float is written without a decimal point
        return float(value)
    return value
