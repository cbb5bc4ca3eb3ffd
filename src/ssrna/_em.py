"""The compiled library (_em.c): built on first use, loaded with ctypes.

It holds the Euler-Maruyama kernel of ensembles and sweeps, stepped and
folded one slice of replicates at a time (Slice), and of single paths
(path), the RK4 path, the recorder of a single path (Recorder) and the
'%.17g' formatter of the writers (format_g17).

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
    "em_block": (_I, ()),
    "em_run": (None, (_P, _I, _P, ctypes.c_uint64, _I, _I, _I, _D, _D, _P, _I, _P, _P, _P, _P, _P, _P)),
    "em_fold": (None, (_P, _I, _I, _P, _P, _P, _P, _P, _P, _P)),
    "rk4_path": (None, (_P, _D, _D, _P)),
    "fmt_g17": (_I, (_P, _I, _I, ctypes.c_char_p, _I, ctypes.c_char_p, _I, _P)),
}

# Replicates a slice holds at most (_em.c's BLOCK): they are stepped in lockstep.
BLOCK = 64

# Rows of the kernel's state per cell and replicate (_em.c's STATE_ROWS).
_STATE_ROWS = 5

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


def _cell_words(cells) -> np.ndarray:
    """simulator._Cell tuples as _em.c's cell words, the drift flattened."""
    return np.array([[*c.drift, *c[1:]] for c in cells], dtype=float)


class Slice:
    """One thread's buffer for a slice of at most BLOCK replicates of a batch of cells.

    cells are simulator._Cell tuples, seed keys the streams, and rec holds
    the recorded steps, the last of which ends the horizon of dt steps.
    step() integrates a slice into the buffer and fold() adds its finite
    replicates into an ensemble's sums.  The buffer holds, per cell and
    replicate, the |x|^2 at every recorded row, the first row by which |x|
    exceeded epsilon1 (-1 if none), the nonfinite and negative flags, and
    the kernel's state.
    """

    def __init__(self, cells, seed: int, dt: float, rec):
        self._lib = library()
        self.cells = _cell_words(cells)
        self.seed, self.dt = seed, dt
        self.rec = np.array(rec, dtype=np.int64)
        k = len(self.cells)
        self.state = np.empty((_STATE_ROWS, k, BLOCK))
        self.sq = np.empty((len(self.rec), k, BLOCK))
        self.first_exceed = np.empty((k, BLOCK), np.int64)
        self.nonfinite = np.empty((k, BLOCK), np.bool_)
        self.negative = np.empty((k, BLOCK), np.bool_)
        self.n = 0  # replicates in the buffer

    def step(self, first: int, n: int) -> None:
        """Integrate replicates first..first+n-1 of every cell over the horizon (em_run in _em.c)."""
        if not 0 <= n <= BLOCK:
            raise ValueError(f"a slice holds 0 to {BLOCK} replicates, not {n}")
        self._lib.em_run(self.cells.ctypes.data, len(self.cells), self.state.ctypes.data, self.seed, first, n,
                         int(self.rec[-1]), self.dt, math.sqrt(self.dt), self.rec.ctypes.data, len(self.rec),
                         self.sq.ctypes.data, self.first_exceed.ctypes.data, self.nonfinite.ctypes.data,
                         self.negative.ctypes.data, None, None)
        self.n = n

    def fold(self, sq: np.ndarray, exceed: np.ndarray, counts: np.ndarray) -> None:
        """Add the slice's finite replicates, in index order, into an ensemble's sums (em_fold in _em.c).

        sq (float64) and exceed (int64) are (cells, recorded rows): the sum
        of |x|^2 and the count of first exceedances at each row.  counts
        (int64) is (cells, 3): the included, negative and non-finite
        replicates.  Each array must be C-contiguous.
        """
        shape = (len(self.cells), len(self.rec))
        # the C loop trusts every pointer and shape
        if not all(a.dtype == dtype and a.shape == want and a.flags.c_contiguous
                   for a, dtype, want in ((sq, np.float64, shape), (exceed, np.int64, shape),
                                          (counts, np.int64, (shape[0], 3)))):
            raise ValueError("ensemble sums do not match the slice's cells and recorded rows")
        self._lib.em_fold(shape[0], self.n, shape[1], self.sq.ctypes.data, self.first_exceed.ctypes.data,
                          self.nonfinite.ctypes.data, self.negative.ctypes.data, sq.ctypes.data,
                          exceed.ctypes.data, counts.ctypes.data)


def path(cell, seed: int, replicate: int, recorder: Recorder, dW: Optional[np.ndarray] = None) -> None:
    """Step replicate `replicate` of one simulator._Cell recorder.n steps from its start into recorder.

    dW, when given, is the (recorder.n, 2) float64 increments to use instead
    of the streams'.  The recorder stops the path at its first non-finite
    state.
    """
    if not (dW is None or (dW.dtype == np.float64 and dW.flags.c_contiguous and dW.shape == (recorder.n, 2))):
        raise ValueError("the increments do not match the path's steps")
    state = np.empty((_STATE_ROWS, 1, BLOCK))
    library().em_run(_cell_words([cell]).ctypes.data, 1, state.ctypes.data, seed, replicate, 1, recorder.n,
                     recorder.dt, math.sqrt(recorder.dt), None, 0, None, None, None, None,
                     None if dW is None else dW.ctypes.data, ctypes.addressof(recorder))


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
