"""Deterministic text serialization: floats carry 17 significant digits.

17 significant digits round-trip any IEEE double exactly, which makes every
output file byte-comparable across runs and safe to parse back.  A record
(a subclass of Record) has one JSON form, built by `plain`: an object whose
keys are its field names in declaration order.

A record's numeric arrays are FloatArray fields, one column each: the
writers take the array('d') they hold, so writing a record never imports
numpy.

The compiled library's module (_em, and with it ctypes) is imported only
where numbers are formatted or stored in bulk: by write_csv, by a float
column of a JSON document, and by a FloatArray field's assignment.  A
document of plain numbers, such as `analyze`'s report, loads neither.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from typing import Any, BinaryIO, Optional

__all__ = ["fmt", "write_csv", "csv_rows", "dump", "plain", "Record", "FloatArray", "Blocks"]

_FLOAT = "%.17g"
_INDENT = "  "  # per level of a JSON document

# Rows of a CSV file, or numbers of a JSON list, formatted per call of the compiled
# formatter: the writers hold one block's numbers and text, not the whole output's.
_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Format one float with 17 significant digits."""
    return _FLOAT % x


def is_ndarray(obj) -> bool:
    """Whether obj is a numpy array, without importing numpy: if it is one, numpy is imported already."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


class FloatArray:
    """A record field of a column of float64 numbers, read as a 1-D float64 numpy array.

    The field holds an array('d') of its numbers: the one it is given, or a
    copy of any other sequence of numbers or numpy array (see _em.doubles).
    Each read returns a numpy array on that memory, and imports numpy.  The
    writers and `plain` take the array('d') itself (_stored), so writing a
    record never imports numpy.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            raise AttributeError(self.name)  # a field of a record, not of its class
        import numpy as np

        return np.frombuffer(obj.__dict__[self.name], dtype=np.float64)

    def __set__(self, obj: Any, value: Any) -> None:
        from . import _em

        obj.__dict__[self.name] = _em.doubles(value)


class Record:
    """A frozen record, whose fields are the names annotated in its class body, in their order.

    As a frozen dataclass does, a record takes its fields by position or by
    keyword, a value assigned in the class body being the field's default (a
    FloatArray field has none), and then runs its class's __post_init__,
    which checks the fields and may coerce one with object.__setattr__.
    Records of one class are equal, and hash alike, when the values they
    hold are (for a FloatArray field, its array('d')); the repr names every
    field; and setting or deleting an attribute raises AttributeError.
    _fields holds the field names, in order.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: value for name, value in vars(cls).items()
                         if name in cls._fields and not isinstance(value, FloatArray)}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        values = dict(zip(self._fields, args))
        if len(args) > len(self._fields) or not kwargs.keys() <= set(self._fields) - values.keys():
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}, each once, "
                            f"got {len(args)} by position and {sorted(kwargs)} by keyword")
        values = {**self._defaults, **values, **kwargs}
        for name in self._fields:
            if name not in values:
                raise TypeError(f"{type(self).__name__}() missing required field {name!r}")
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check, and coerce, the fields of a new record: a class with checks defines its own."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes: Any) -> Any:
        """A new record of this class, with the given fields changed, checked as any new record is."""
        return type(self)(**{**vars(self), **changes})


def _stored(record: Any, name: str) -> Any:
    """A record's field as the record holds it: for a FloatArray field, its array('d')."""
    return vars(record)[name]


def write_csv(path, header: str, columns: Sequence[Any]) -> None:
    """Write a `header` line, then row i of the equal-length numeric columns.

    Every value is written as fmt writes it, by csv_rows, a block of
    _BLOCK_ROWS rows per call.  A column is read a block at a time (see
    _em.doubles), so a column is written without copying it whole.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("the columns differ in length")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, _BLOCK_ROWS):
            fh.write(csv_rows([column[lo:lo + _BLOCK_ROWS] for column in columns]))


def csv_rows(columns: Sequence[Any]) -> bytes:
    """Row i of the equal-length numeric columns, for each i, as CSV lines of numbers written as fmt
    writes them.

    The numbers are formatted by the compiled library's '%.17g' formatter
    (_em.format_g17) in one call, about ten times faster than Python's %
    per number; the caller keeps the columns to a block of rows.
    """
    from . import _em

    width = len(columns)
    block = _em._zeros("d", width * len(columns[0]))  # the rows, one after another
    for j, column in enumerate(columns):
        block[j::width] = _em.doubles(column)
    return _em.format_g17(block, width, b",", b"\n")


class Blocks:
    """A float column given as its blocks of numbers, one after another: `_write` writes it as one
    JSON list, reading one block at a time.

    blocks is an iterable of non-empty sequences of numbers, each of a kind
    _em.doubles takes, such as an array('d') or a memoryview of float64.
    """

    def __init__(self, blocks: Iterable[Any]):
        self.blocks = blocks


def _file_column(fh: BinaryIO) -> Blocks:
    """The float64 numbers written to the binary file fh, from its start, as a Blocks column read a
    block of _BLOCK_ROWS numbers at a time."""
    fh.seek(0)
    return Blocks(memoryview(block).cast("d") for block in iter(lambda: fh.read(8 * _BLOCK_ROWS), b""))


def _float_column(obj: Any) -> bool:
    """Whether obj is an array('d'), a 1-D memoryview of float64 or a 1-D float64 numpy array,
    which is written as a list of its numbers."""
    if isinstance(obj, array):
        return obj.typecode == "d"
    if isinstance(obj, memoryview):
        return obj.ndim == 1 and obj.format == "d"
    return is_ndarray(obj) and obj.ndim == 1 and obj.dtype.char == "d"


def _write(obj: Any, write: Callable[[bytes], Any], level: int) -> None:
    """Write obj's JSON text through write, in pieces of at most a block of numbers."""
    pad = (_INDENT * level).encode()
    pad_in = (_INDENT * (level + 1)).encode()
    if obj is None:
        write(b"null")
    elif obj is True:
        write(b"true")
    elif obj is False:
        write(b"false")
    elif isinstance(obj, int):
        write(str(obj).encode())
    elif isinstance(obj, float):
        # bare Infinity/NaN round-trip through json.loads
        if math.isnan(obj):
            write(b"NaN")
        elif math.isinf(obj):
            write(b"Infinity" if obj > 0 else b"-Infinity")
        else:
            write(fmt(obj).encode())
    elif isinstance(obj, str):
        write(json.dumps(obj).encode())
    elif isinstance(obj, dict):
        if not obj:
            write(b"{}")
            return
        write(b"{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            write(pad_in + json.dumps(key).encode() + b": ")
            _write(value, write, level + 1)
            write(b",\n" if i < len(obj) - 1 else b"\n")
        write(pad + b"}")
    elif isinstance(obj, (list, tuple, Blocks)) or _float_column(obj):
        # a float column's block of finite numbers has the bytes of the per-item loop below, which
        # the tests keep as the reference, in one call: a trajectory's columns are 10^5 numbers each.
        # A list, and a block with a non-finite number, which the formatter reports, take the loop.
        sep = b",\n" + pad_in
        column = not isinstance(obj, (list, tuple))  # else a float column, by the test above
        if column:
            from . import _em
        blocks = obj.blocks if isinstance(obj, Blocks) else (
            obj[lo:lo + _BLOCK_ROWS] for lo in range(0, len(obj), _BLOCK_ROWS))
        empty = True
        for block in blocks:
            write(b"[\n" + pad_in if empty else sep)
            empty = False
            numbers = _em.format_g17(block, len(block), sep, b"", finite=True) if column else None
            if numbers is not None:
                write(numbers)
                continue
            for i, value in enumerate(block):
                if i:
                    write(sep)
                _write(value, write, level + 1)
        write(b"[]" if empty else b"\n" + pad + b"]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dump(obj: Any, fh: BinaryIO) -> None:
    """Write obj's JSON text and a newline into the binary file fh: two spaces of indent a level,
    floats as fmt writes them.

    A list is written item by item, and a float column (see _float_column) a
    block of _BLOCK_ROWS numbers at a time, or a Blocks column a block at a
    time as it comes, so writing holds one block's text, whatever the
    document's size.
    """
    _write(obj, fh.write, 0)
    fh.write(b"\n")


def plain(obj: Any) -> Any:
    """JSON-ready form of a record: fields in declaration order, enums by value,
    tuples, lists and numpy arrays as lists; other values, such as the
    array('d') of a FloatArray field, pass through."""
    if isinstance(obj, Record):
        return {name: plain(_stored(obj, name)) for name in obj._fields}
    if isinstance(obj, Enum):
        return obj.value
    if is_ndarray(obj):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    return obj
