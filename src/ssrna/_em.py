"""The compiled library (_em.c): built on first use, loaded with ctypes.

It holds the Euler-Maruyama kernel of ensembles, sweeps and single paths,
the RK4 path, the recorder of a single path (Recorder) and the '%.17g'
formatter of the writers (format_g17).

The shared library is built with the C compiler Python was built with and
linked against numpy's shipped libnpyrandom.a, which provides the normal
sampler of numpy.random.Generator.  It is cached under
$XDG_CACHE_HOME/ssrna (default ~/.cache/ssrna) in a file named after the
sha256 of the source, the compiler flags and the numpy version, so a
changed source or numpy builds a new one.  Nothing is built or loaded at
import.
"""

from __future__ import annotations

import ctypes
import math
import os
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import KernelError

try:  # CPython's own sha256: hashlib's would load OpenSSL, 3.5 MB resident
    from _sha2 import sha256
except ImportError:  # before Python 3.12
    from _sha256 import sha256

_SOURCE = Path(__file__).with_name("_em.c")

# No -ffast-math or -march: the kernel must round as numpy does, and
# -ffp-contract=off keeps the compiler from fusing a product into an add.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_lib: Optional[ctypes.CDLL] = None

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {
    "em_stream_words": (_I, ()),
    "em_seed": (None, (_P, ctypes.c_uint64, ctypes.c_uint64)),
    "em_raw": (None, (_P, _I, _P)),
    "em_run": (_I, (_P, _I, _P, _P, _I, ctypes.c_uint64, _I, _I, _I, _I, _D, _D, _I, _P, _I,
                    _P, _I, _I, _P, _P, _P, _P, _P)),
    "em_sum_included": (None, (_P, _I, _I, _I, _P, _P)),
    "rk4_path": (None, (_P, _D, _D, _P)),
    "fmt_g17": (_I, (_P, _I, _I, ctypes.c_char_p, _I, ctypes.c_char_p, _I, _P)),
}

# Bytes fmt_g17 may write per number, besides its separator (_em.c's G17_ROOM).
_G17_ROOM = 32


def _compiler() -> list[str]:
    """The C compiler command Python was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "ssrna"


def _build() -> Path:
    """The cached library of the current source, compiled first if it is not there yet."""
    source = _SOURCE.read_bytes()
    key = sha256(b"\0".join([source, " ".join(_FLAGS).encode(), np.__version__.encode()]))
    target = _cache_dir() / f"_em-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    numpy_dir = Path(np.__file__).parent
    command = [*_compiler(), *_FLAGS, "-I", np.get_include(), str(_SOURCE),
               str(numpy_dir / "random" / "lib" / "libnpyrandom.a"), "-lm", "-o"]
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        import subprocess  # only a build needs it

        target.parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([*command, str(tmp)], capture_output=True, text=True)
        detail = f"exited with status {proc.returncode}" + "".join(
            f": {line.strip()}" for line in proc.stderr.splitlines()[:1])
        if proc.returncode == 0:
            os.replace(tmp, target)  # atomic: a concurrent build or load sees all or nothing
            return target
    except OSError as exc:
        detail = str(exc)
    finally:
        tmp.unlink(missing_ok=True)
    raise KernelError(f"cannot build the compiled library: `{' '.join(command)} {tmp}` {detail}")


def library() -> ctypes.CDLL:
    """The loaded library, built on first use."""
    global _lib
    if _lib is None:
        path = _build()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise KernelError(f"cannot load the compiled library {path}: {exc}") from None
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        _lib = lib
    return _lib


class Recorder(ctypes.Structure):
    """The recorder of a single path (_em.c's path_t), with the rows it records.

    A path of n steps of dt keeps the state (p, m) at steps 0, stride,
    2 stride, ... and n in states, and step * dt in times.  exited is the
    first step whose state had p or m below low, or p + m above high, and
    failed the step whose state was not finite, where the path stopped;
    each is -1 when there is none.
    """

    _fields_ = [("n", _I), ("stride", _I), ("dt", _D), ("low", _D), ("high", _D), ("_times", _P),
                ("_states", _P), ("rows", _I), ("exited", _I), ("failed", _I), ("_due", _I)]

    def __init__(self, n: int, stride: int, dt: float, low: float, high: float):
        rows = -(-n // stride) + 1
        self.times = np.empty(rows)
        self.states = np.empty((rows, 2))
        super().__init__(n, min(stride, n), dt, low, high, self.times.ctypes.data, self.states.ctypes.data)


def rk4(rates: tuple[float, float, float, float, float], p: float, m: float, path: Recorder) -> None:
    """The classical RK4 path from (p, m) of the model with rates (r, alpha, delta, sigma, K), into path."""
    model = np.array(rates, dtype=float)
    library().rk4_path(model.ctypes.data, p, m, ctypes.addressof(path))


class Stepper:
    """Replicates first..first+n-1 of a batch of cells, advanced by the compiled loop.

    cells are simulator._Cell tuples.  Each replicate's two Philox streams
    and each cell's state (deviations, running maximum of |x|^2, running
    minima) persist across calls, so a horizon can be advanced a chunk at
    a time.
    """

    def __init__(self, cells, seed: int, first: int, n: int, dt: float):
        self._lib = library()
        self.cells = np.array([[*c.drift, *c[1:]] for c in cells], dtype=float)  # _em.c's cell words
        self.streams = np.empty((n, 2, self._lib.em_stream_words()), np.uint64)
        self.state = np.empty((5, len(self.cells), n))
        self.seed, self.first, self.n, self.dt = seed, first, n, dt
        self.step = 0  # steps taken
        self.col = 0   # recorded rows written

    def ensemble(self, steps: int, chunk: int, rec: np.ndarray, sq: np.ndarray, first_exceed: np.ndarray,
                 nonfinite: np.ndarray, negative: np.ndarray) -> None:
        """Advance every replicate `steps` steps and write its results (em_run in _em.c).

        rec holds the recorded steps (int64).  sq is (recorded rows, cells,
        n); first_exceed, nonfinite and negative are (cells, n).  They may
        be views into larger arrays, provided the replicate axis is
        contiguous and the cell axis has the same stride, in elements, in
        all four.
        """
        cells, n = self.cells.shape[0], self.n
        cell = first_exceed.strides[0] // 8
        # the C loop trusts every pointer, shape and stride
        if not (rec.dtype == np.int64 and rec.ndim == 1 and rec.flags.c_contiguous
                and sq.dtype == np.float64 and len(sq) >= len(rec) and sq.shape[1:] == (cells, n)
                and sq.strides[1:] == (8 * cell, 8)
                and first_exceed.dtype == np.int64 and first_exceed.shape == (cells, n)
                and first_exceed.strides == (8 * cell, 8)
                and all(a.dtype == np.bool_ and a.shape == (cells, n) and a.strides == (cell, 1)
                        for a in (nonfinite, negative))):
            raise ValueError("ensemble buffers do not match the kernel's replicates and cells")
        self._run(steps, chunk, rec.ctypes.data, len(rec), sq.ctypes.data, sq.strides[0] // 8, cell,
                  first_exceed.ctypes.data, nonfinite.ctypes.data, negative.ctypes.data, None, None)

    def path(self, path: Recorder, dW: Optional[np.ndarray] = None) -> None:
        """Step a single path path.n steps from its start into its recorder.

        dW, when given, is the (path.n, 2) float64 increments to use instead
        of the streams'.  The recorder stops the path at its first
        non-finite state, so the chunk plays no part.
        """
        if not (self.cells.shape[0] == self.n == 1 and self.step == 0 and path.dt == self.dt
                and (dW is None or (dW.dtype == np.float64 and dW.flags.c_contiguous
                                    and dW.shape == (path.n, 2)))):
            raise ValueError("path buffers do not match the kernel's one replicate")
        self._run(path.n, path.n, None, 0, None, 0, 0, None, None, None,
                  None if dW is None else dW.ctypes.data, ctypes.addressof(path))

    def _run(self, steps: int, chunk: int, *buffers) -> None:
        self.col = self._lib.em_run(
            self.cells.ctypes.data, self.cells.shape[0], self.streams.ctypes.data, self.state.ctypes.data,
            self.n, self.seed, self.first, self.step, steps, chunk, self.dt, math.sqrt(self.dt),
            self.col, *buffers)
        self.step += steps


def sum_included(sq: np.ndarray, nonfinite: np.ndarray) -> np.ndarray:
    """Per row of sq (rows, replicates), the sum over replicates not flagged nonfinite.

    Adds in replicate-index order from 0.0, as a running column sum would.
    """
    if not (sq.dtype == np.float64 and sq.ndim == 2 and sq.strides[1] == 8 and nonfinite.dtype == np.bool_
            and nonfinite.shape == sq.shape[1:] and nonfinite.flags.c_contiguous):
        raise ValueError("sum_included needs float64 rows with contiguous replicates and one flag each")
    out = np.empty(sq.shape[0])
    library().em_sum_included(sq.ctypes.data, sq.shape[0], sq.strides[0] // 8, sq.shape[1],
                              nonfinite.ctypes.data, out.ctypes.data)
    return out


def format_g17(values: np.ndarray, row: int, sep: bytes, eol: bytes) -> bytes:
    """Every number of values, in C order, as '%.17g' % x writes it (a NaN as nan).

    sep goes between the numbers of each row of `row` numbers, and eol
    after each row.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not (row >= 1 and x.size % row == 0):
        raise ValueError(f"{x.size} numbers do not make rows of {row}")
    out = np.empty(x.size * (_G17_ROOM + max(len(sep), len(eol))), np.uint8)
    size = library().fmt_g17(x.ctypes.data, x.size, row, sep, len(sep), eol, len(eol), out.ctypes.data)
    return out[:size].tobytes()
