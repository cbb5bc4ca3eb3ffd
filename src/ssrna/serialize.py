"""Deterministic text serialization: floats carry 17 significant digits.

17 significant digits round-trip any IEEE double exactly, which makes every
output file byte-comparable across runs and safe to parse back.  A record
(a dataclass) has one JSON form: an object whose keys are its field names in
declaration order, built by `plain` and read back by `record`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence
from enum import Enum
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import _em

__all__ = ["fmt", "write_csv", "dumps", "loads", "plain", "record"]

_FLOAT = "%.17g"

# CSV rows formatted per call of the compiled formatter, which bounds its buffer.
_CSV_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Format one float with 17 significant digits."""
    return _FLOAT % x


def write_csv(path, header: str, columns: Sequence[Any]) -> None:
    """Write a `header` line, then row i of the equal-length numeric columns.

    Every value is written as fmt writes it.  The numbers are formatted by
    the compiled library's '%.17g' formatter (_em.format_g17), a block of
    rows per call, about ten times faster than Python's % per number.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(_em.format_g17(block, len(columns), b",", b"\n"))


def _float_column(obj: Any) -> bool:
    """Whether obj is a 1-D float64 array, which is written as a list of its numbers."""
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64


def _finite_floats(items: Union[list, tuple, np.ndarray]) -> bool:
    """Whether every item is a finite float: no NaN, Infinity, bool or int spelling."""
    if isinstance(items, np.ndarray):
        return bool(np.isfinite(items).all())
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
        if _finite_floats(obj):
            # the bytes of the per-item loop below, which the tests keep as the
            # reference, in one call: a trajectory's columns are 10^5 numbers each
            numbers = _em.format_g17(np.asarray(obj, dtype=float), len(obj), (",\n" + pad_in).encode(), b"")
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
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    return obj


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
