"""The compiled library (_em.c): built on first use, loaded with ctypes.

It holds the Euler-Maruyama kernel, with one entry point per job that
share one step and one normal draw: em_run steps ensembles and sweeps one
slice of replicates at a time, which em_fold folds (Slice), and em_path
steps a single path (path), each a block of recorded rows per call, as the
RK4 path does (rk4), recording every stride-th step and the last by one
rule, and the slice or the recorder carries what the next call resumes
from.  Its Philox streams refill eight blocks at a time, in the eight
lanes of an AVX-512 register where the CPU has AVX-512F, each lane
carrying its own counter through all four words, else one after another;
the rounds are written once, for a word and for eight lanes.  em_run steps
a slice in whole groups of eight replicates, eight per register where the
CPU has AVX-512F, else two.  The step is written once, for a double and for
a vector's lanes, which take the same IEEE operations in the same order,
none fused, under an unchanged MXCSR, so they give the same bytes.
em_refill_lanes reports the choice, made once for both: 8, else 1 (and a
step of two).  It also holds the RK4 path, the recorder of a single path
(Recorder) and the '%.17g' formatter of the writers (format_g17).

The shared library is built with the C compiler Python was built with and
linked against numpy's shipped libnpyrandom.a, which provides the normal
sampler of numpy.random.Generator.  The kernel reads the sampler's ziggurat
tables, which are local symbols of that archive, so the build first makes
them global with binutils' objcopy in a temporary copy of the archive, and
links the copy.  The library is cached under $XDG_CACHE_HOME/ssrna
(default ~/.cache/ssrna) in a file named after the sha256 of the source,
the interpreter's build configuration (the bytes of the _sysconfigdata
module that sysconfig reads the compiler command from), the flags, the
objcopy arguments and the bytes of numpy's libnpyrandom.a and
numpy/random/bitgen.h, so a changed source, interpreter build (and so
compiler), flags or sampler builds a new one.  Only a build imports
sysconfig, for the compiler command: loading a cached library does not.
Nothing is built or loaded at import, and numpy is never imported: its
files are located with importlib, and the library's buffers are
array.array objects.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from array import array
from pathlib import Path
from typing import Optional

from .errors import KernelError
from . import serialize

try:  # CPython's own sha256: hashlib's would load OpenSSL, 3.5 MB resident
    from _sha2 import sha256
except ImportError:  # before Python 3.12
    from _sha256 import sha256

_SOURCE = Path(__file__).with_name("_em.c")

# No -ffast-math or -march: the kernel must round as numpy does, and
# -ffp-contract=off keeps the compiler from fusing a product into an add.
# -z defs makes a symbol that nothing defines, such as a table objcopy did not
# globalize, fail the link rather than the load.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-Wl,-z,defs")

# The objcopy arguments that make the ziggurat tables of libnpyrandom.a global.
_GLOBALIZE = ("--globalize-symbol=ki_double", "--globalize-symbol=wi_double")

_lib: Optional[ctypes.CDLL] = None

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {
    "em_stream_words": (_I, ()),
    "em_refill_lanes": (_I, ()),
    "em_seed": (None, (_P, ctypes.c_uint64, ctypes.c_uint64)),
    "em_raw": (None, (_P, _I, _P)),
    "em_block": (_I, ()),
    "em_recorder_bytes": (_I, ()),
    "em_slice_bytes": (_I, ()),
    "em_run": (None, (_P,)),
    "em_path": (None, (_P, ctypes.c_uint64, _I, _P, _P)),
    "em_fold": (None, (_P, _P, _P, _P, _P)),
    "rk4_path": (None, (_P, _D, _D, _P)),
    "fmt_g17": (_I, (_P, _I, _I, ctypes.c_char_p, _I, ctypes.c_char_p, _I, _P, _P)),
}

# Replicates a slice holds at most (_em.c's BLOCK): they are stepped in lockstep.
BLOCK = 64

# em_run widens a slice to whole groups of this many replicates on every CPU (an AVX-512 register's
# lanes), and so a slice's columns come in such groups.
_LANES = 8

# Words of a Philox stream (_em.c's stream_t): a Slice keeps two per column.
_STREAM_WORDS = 39

# Steps that a block of an ensemble slice's recorded rows spans at least, but the last block: em_run
# steps a slice, and the threads fold it, a block at a time (see block_rows).  At 512 a block recorded
# at every step is 513 rows, 263 kB of |x|^2 per thread, and a block's Python work (a step() call, a
# fold turn, a fold() call) took at most 3% of an ensemble's time in one thread on an x86-64 vCPU,
# against 8-10% at 64 steps.
BLOCK_STEPS = 512

# Rows of the kernel's state per cell and replicate (_em.c's STATE_ROWS): the deviations.
_STATE_ROWS = 2

# Words of a cell's constants (_em.c's CELL_WORDS): a simulator._Cell, its drift flattened.
_CELL_WORDS = 13

# Bytes fmt_g17 may write per number, besides its separator (_em.c's G17_ROOM).
_G17_ROOM = 32


def _compiler() -> list[str]:
    """The C compiler command Python was built with: only a build needs it."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build_config() -> bytes:
    """What names the compiler Python was built with: the bytes of the _sysconfigdata module that
    sysconfig reads it from, found as sysconfig names it but not imported, else the command itself."""
    multiarch = getattr(sys.implementation, "_multiarch", "")
    name = os.environ.get("_PYTHON_SYSCONFIGDATA_NAME",
                          f"_sysconfigdata_{getattr(sys, 'abiflags', '')}_{sys.platform}_{multiarch}")
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return " ".join(_compiler()).encode()
    return Path(spec.origin).read_bytes()


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "ssrna"


def _numpy_files() -> tuple[Path, Path]:
    """numpy's C include directory (numpy.get_include()) and its libnpyrandom.a, found without importing numpy."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        raise KernelError("cannot build the compiled library: numpy is not installed")
    root = Path(spec.origin).parent
    include = root / "_core" / "include"
    if not include.is_dir():  # numpy 1
        include = root / "core" / "include"
    return include, root / "random" / "lib" / "libnpyrandom.a"


def _library_path(include: Path, archive: Path) -> Path:
    """Where the library built from the current source against numpy's include directory and archive is cached."""
    parts = [_SOURCE.read_bytes(), _build_config(), " ".join(_FLAGS).encode(),
             " ".join(_GLOBALIZE).encode(),
             (include / "numpy" / "random" / "bitgen.h").read_bytes(), archive.read_bytes()]
    key = sha256(b"".join(sha256(part).digest() for part in parts))
    return _cache_dir() / f"_em-{key.hexdigest()[:16]}.so"


def _build() -> Path:
    """The cached library of the current source, compiled first if it is not there yet."""
    include, archive = _numpy_files()
    try:
        target = _library_path(include, archive)
    except OSError as exc:
        raise KernelError(f"cannot build the compiled library: {exc}") from None
    if target.exists():
        return target
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    tables = tmp.with_suffix(".a")  # the archive with its tables made global
    commands = (["objcopy", *_GLOBALIZE, str(archive), str(tables)],
                [*_compiler(), *_FLAGS, "-I", str(include), str(_SOURCE), str(tables), "-lm", "-o", str(tmp)])
    command = commands[0]
    try:
        import subprocess  # only a build needs it

        target.parent.mkdir(parents=True, exist_ok=True)
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode != 0:
                break
        else:
            os.replace(tmp, target)  # atomic: a concurrent build or load sees all or nothing
            return target
        # the first line that names an error, as a link's first line names only the function
        lines = [line.strip() for line in proc.stderr.splitlines()]
        named = [line for line in lines if "error" in line or "undefined" in line]
        detail = f"exited with status {proc.returncode}" + "".join(f": {line}" for line in (named or lines)[:1])
    except OSError as exc:
        detail = str(exc)
    finally:
        tmp.unlink(missing_ok=True)
        tables.unlink(missing_ok=True)
    raise KernelError(f"cannot build the compiled library: `{' '.join(command)}` {detail}")


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


def _zeros(typecode: str, n: int) -> array:
    """An array of n zeros: 'd' float64, 'q' int64 or 'B' uint8 (a C bool)."""
    return array(typecode, [0]) * n


def _address(buffer: array) -> int:
    """The address of buffer's first item: the caller keeps buffer referenced while C uses it."""
    return buffer.buffer_info()[0]


def doubles(values) -> array:
    """values as a float64 array('d'), in C order.

    An array('d') is returned as it is, a numpy array or a memoryview of
    float64 (such as a Recorder's column) is copied through its bytes, and
    anything else is converted number by number.
    """
    if isinstance(values, array) and values.typecode == "d":
        return values
    if isinstance(values, memoryview) and values.format == "d":
        return array("d", values.tobytes())
    if serialize.is_ndarray(values):
        return array("d", values.astype("d", copy=False).tobytes())
    return array("d", values)


def recorded_rows(n: int, stride: int) -> int:
    """How many of steps 0..n are recorded: every stride-th and the last (len(simulator.recorded_steps(n, stride)))."""
    return -(-n // stride) + 1


class Recorder(ctypes.Structure):
    """The recorder of a single path (_em.c's path_t), with a block of the rows it records.

    A path of n steps of dt keeps the state (p, m) at steps 0, stride,
    2 stride, ... and n.  Its kernel (rk4 or path) steps it a block at a
    time: each call records up to `block` rows, which columns() gives,
    and returns once the block is full or the path has ended (step == n),
    and the next call resumes from where it stopped.  A block is the
    writers' block of serialize._BLOCK_ROWS rows, or every row of a
    shorter path, looked up when the recorder is made.  The rows are held
    as their columns times (step * dt), p and m, each an array('d') buffer
    of block numbers.  exited is the first step whose state had p or m
    below low, or p + m above high, and failed the step whose state was
    not finite, where the path stopped; each is -1 when there is none.
    lowest is the smallest p or m recorded.
    """

    _fields_ = [("n", _I), ("stride", _I), ("dt", _D), ("low", _D), ("high", _D), ("_times", _P), ("_p", _P),
                ("_m", _P), ("block", _I), ("step", _I), ("rows", _I), ("exited", _I), ("failed", _I),
                ("lowest", _D), ("_due", _I), ("_x1", _D), ("_x2", _D),
                ("_streams", ctypes.c_uint64 * (2 * _STREAM_WORDS))]

    def __init__(self, n: int, stride: int, dt: float, low: float, high: float):
        block = min(serialize._BLOCK_ROWS, recorded_rows(n, stride))
        self.times, self.p, self.m = (_zeros("d", block) for _ in range(3))
        super().__init__(n, min(stride, n), dt, low, high, *map(_address, (self.times, self.p, self.m)), block, -1)

    def columns(self) -> tuple[memoryview, memoryview, memoryview]:
        """t, p and m of the rows of the last call, as memoryviews of times, p and m."""
        return tuple(memoryview(column)[:self.rows] for column in (self.times, self.p, self.m))


def rk4(rates: tuple[float, float, float, float, float], p: float, m: float, path: Recorder) -> None:
    """The classical RK4 path from (p, m) of the model with rates (r, alpha, delta, sigma, K), into
    path: its next block (rk4_path), from (p, m) on the first call."""
    model = array("d", rates)
    library().rk4_path(_address(model), p, m, ctypes.addressof(path))


def _cell_words(cells) -> array:
    """simulator._Cell tuples as _em.c's cell words, the drift flattened."""
    return array("d", [word for c in cells for word in (*c.drift, *c[1:])])


class Sums:
    """An ensemble batch's statistics, summed in replicate-index order, each in C order.

    Per cell and recorded row, sq holds the sum of the |x|^2 that are
    finite there, lost counts those that are not, and exceed the replicates
    whose |x| first exceeded epsilon1 there; per cell, counts holds the
    replicates whose state is finite at the end (included), the negative
    ones among them (a population went below zero), and those whose state
    is not (non-finite).  exceed counts included replicates only.
    """

    def __init__(self, ncells: int, nrec: int):
        self.sq = _zeros("d", ncells * nrec)
        self.exceed = _zeros("q", ncells * nrec)
        self.lost = _zeros("q", ncells * nrec)
        self.counts = _zeros("q", 3 * ncells)


def slice_stride(replicates: int) -> int:
    """Columns per cell of the Slice of an ensemble of `replicates` replicates: the slice's most
    replicates, rounded up to whole groups of em_run's eight replicates."""
    return min(BLOCK, -(-replicates // _LANES) * _LANES)


def block_rows(n: int, stride: int) -> int:
    """Rows of a block of an ensemble slice that records steps 0, stride, 2 stride, ... and n: the rows
    up to the first recorded step at least BLOCK_STEPS steps in, that one included, or all of them.

    So every block but the last spans at least BLOCK_STEPS steps, and a slice holds one block of
    rows whatever the horizon: 513 rows at most, 53 at a stride of 10.  A horizon of fewer steps, or
    one recorded at its start and end only, as a sweep records it, is one block.
    """
    return min(recorded_rows(n, stride), -(-BLOCK_STEPS // stride) + 1)


def slice_count(replicates: int, workers: int) -> int:
    """How many slices an ensemble is cut into: slices of at most BLOCK replicates, and one per worker at least."""
    return max(workers, -(-replicates // BLOCK))


def ensemble_bytes(ncells: int, steps: int, stride: int, workers: int, replicates: int) -> int:
    """Bytes of the buffers of an ensemble or sweep of ncells cells over `steps` steps, recorded every
    stride-th and at the last, with `replicates` replicates in `workers` threads.

    Its Sums, the statistics of one cell (a sweep reduces its cells one at a time), whose times are
    the recorded times, and per thread a Slice of slice_stride(replicates) columns, which holds one
    block of block_rows(steps, stride) rows.
    """
    nrec, block, columns = recorded_rows(steps, stride), block_rows(steps, stride), slice_stride(replicates)
    shared = ncells * nrec * (8 + 8 + 8) + 3 * ncells * 8 + 3 * nrec * 8
    # per cell its constants, and per column its state, |x|^2 per row of a block, its first exceedance and a
    # 1 B flag; per column two streams
    per_cell = _CELL_WORDS * 8 + columns * ((_STATE_ROWS + block + 1) * 8 + 1)
    per_thread = ncells * per_cell + 2 * columns * _STREAM_WORDS * 8
    return shared + workers * per_thread


class Slice(ctypes.Structure):
    """One thread's slice of the replicates of an ensemble of a batch of cells (_em.c's slice_t).

    cells are simulator._Cell tuples and seed keys the streams.  Of the
    horizon of `steps` steps of dt, steps 0, every, 2 every, ... and the
    last are recorded, as a Recorder records them: every = min(stride,
    steps).  A slice holds at most `stride` = slice_stride(replicates)
    replicates per cell: at most BLOCK.  step() integrates a slice through
    its next block of `block` = block_rows(steps, stride) recorded rows,
    looked up when the slice is made, and fold() adds the block's finite
    |x|^2 into an ensemble's sums.  The slice holds, per cell and
    replicate, the |x|^2 at every row of the block (sq, of block x cells x
    stride), the first row by which |x| exceeded epsilon1, -1 if none
    (first_exceed, cells x stride), the negative flags (cells x stride),
    the kernel's state (state, 2 x cells x stride: the deviations) and two
    Philox streams per column, each in C order; rows is the rows of the
    last block.
    """

    _fields_ = [("_cells", _P), ("k", _I), ("stride", _I), ("dt", _D), ("steps", _I), ("every", _I), ("block", _I),
                ("_state", _P), ("_sq", _P), ("_first_exceed", _P), ("_negative", _P),
                ("_streams", _P), ("seed", ctypes.c_uint64), ("first", _I), ("n", _I), ("_step", _I),
                ("_next", _I), ("rows", _I), ("_due", _I)]

    def __init__(self, cells, seed: int, dt: float, steps: int, stride: int, replicates: int):
        self._lib = library()
        self.cells = _cell_words(cells)
        if min(steps, stride) < 1:
            raise ValueError(f"a slice takes steps and a stride >= 1, not {steps}, {stride}")
        k, columns, block = len(cells), slice_stride(replicates), block_rows(steps, stride)
        self.state = _zeros("d", _STATE_ROWS * k * columns)
        self.sq = _zeros("d", block * k * columns)
        self.first_exceed = _zeros("q", k * columns)
        self.negative = _zeros("B", k * columns)
        self.streams = _zeros("q", 2 * columns * _STREAM_WORDS)
        super().__init__(_address(self.cells), k, columns, dt, steps, min(stride, steps), block,
                         *map(_address, (self.state, self.sq, self.first_exceed, self.negative, self.streams)),
                         seed, 0, 0, -1)

    @property
    def done(self) -> bool:
        """Whether the slice has no block in progress: before the first step() and after the last block."""
        return self._step in (-1, self.steps)

    def step(self, first: int, n: int) -> None:
        """Integrate replicates first..first+n-1 of every cell through their next block of rows (em_run in _em.c).

        A call when the slice is done starts them from step 0; a call
        mid-way must name the replicates of the slice in progress.
        """
        if not 0 <= n <= self.stride:
            raise ValueError(f"a slice holds 0 to {self.stride} replicates, not {n}")
        if self.done:
            self.first, self.n, self._step = first, n, -1
        elif (first, n) != (self.first, self.n):
            raise ValueError(f"replicates {self.first} to {self.first + self.n - 1} are mid-way through the horizon")
        self._lib.em_run(ctypes.addressof(self))

    def fold(self, sums: Sums) -> None:
        """Add the finite |x|^2 of the block stepped last, in index order, into sums, and count the others
        (em_fold in _em.c); after the final block, the replicates' counts too."""
        size = self.k * recorded_rows(self.steps, self.every)
        # the C loop trusts every pointer and size
        if not all(a.typecode == typecode and len(a) == want for a, typecode, want in (
                (sums.sq, "d", size), (sums.exceed, "q", size), (sums.lost, "q", size),
                (sums.counts, "q", 3 * self.k))):
            raise ValueError("ensemble sums do not match the slice's cells and recorded rows")
        self._lib.em_fold(ctypes.addressof(self), *map(_address, (sums.sq, sums.exceed, sums.lost, sums.counts)))


def path(cell, seed: int, replicate: int, recorder: Recorder, dW: Optional[array] = None) -> None:
    """Step replicate `replicate` of one simulator._Cell recorder.n steps from its start into recorder:
    its next block (em_path).

    dW, when given, is an array('d') of recorder.n rows of two increments,
    to use instead of the streams'.  The recorder stops the path at its
    first non-finite state.
    """
    if not (dW is None or (dW.typecode == "d" and len(dW) == 2 * recorder.n)):
        raise ValueError("the increments do not match the path's steps")
    words = _cell_words([cell])
    library().em_path(_address(words), seed, replicate, None if dW is None else _address(dW),
                      ctypes.addressof(recorder))


def format_g17(values, row: int, sep: bytes, eol: bytes, finite: bool = False) -> Optional[bytes]:
    """Every number of values (see doubles), in C order, as '%.17g' % x writes it (a NaN as nan).

    sep goes between the numbers of each row of `row` numbers, and eol
    after each row.  With finite, None instead if a number is NaN or
    infinite.
    """
    x = doubles(values)
    if not (row >= 1 and len(x) % row == 0):
        raise ValueError(f"{len(x)} numbers do not make rows of {row}")
    out = ctypes.create_string_buffer(len(x) * (_G17_ROOM + max(len(sep), len(eol))))
    nonfinite = ctypes.c_int64()
    size = library().fmt_g17(_address(x), len(x), row, sep, len(sep), eol, len(eol), out, ctypes.byref(nonfinite))
    return None if finite and nonfinite.value else ctypes.string_at(out, size)
