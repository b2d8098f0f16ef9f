"""Kernel backend selection, done once at import.

The compiled extension (``latflow._ckernels``, plain C) is used when it
imported successfully and its ``VERSION`` is the one this module calls;
otherwise the numpy fallback takes over transparently.  Set
``LATFLOW_PURE_PYTHON=1`` in the environment to force the fallback, e.g. to
benchmark one against the other.

The C loops trust their buffers, so every call into them goes through a
wrapper here that checks dtypes, contiguity and lengths first: a wrong
buffer raises ValueError instead of being read out of bounds.  The two
public float64 matvec wrappers, one per backend, also check every column
index against the length of x, an O(nnz) scan; ``SparseMatrix.matvec``,
whose indices were checked when it was built, calls the private entry
points that skip it.

Every matrix takes a uint8 vector through the one integer CSR loop,
``_csr_matvec_u8``, over its int32 view; the table lookup that follows is
numpy's on both backends (``rules.apply_rule``).  Under the compiled
backend that per-step path serves only what no fused kernel takes, such
as rules of more than two states, a table with a reachable hole, ragged
rows and a ``step`` replaced on the class.

Every two-state preset steps by a fused kernel instead.  A lattice
automaton's matrix carries the taps of its stencil from construction, and
its arrays are read-only, so the taps stay its exact description: a
two-state automaton on such a matrix runs whole steps in one kernel,
``_stencil_steps_u8``, which ``DynamicalSystem.step`` calls for one step
and ``run`` for many: the stencil sum and the table lookup in byte lanes,
with no key vector between them, and no key checked: it is called only
when every key that cells of 0 or 1 can produce has a next state.  A
two-state network whose rows all hold W weights runs whole steps in
``_network_steps_u8``, after ``_fold_tables`` has folded each node's
weights into its table, one entry per pattern of its W inputs, once for
a system's matrix and rule: the steps read no weight and make no key.
On x86 with AVX2 the extension runs the fused lattice steps in vector
registers, picked once at import: the same bytes, faster.

The text formats have three kernels: ``assemble``, and the scanners
``mm_entries`` and ``node_lines``, which give None for any text not in
the writers' exact shape, so that the reader runs its numpy path.
"""

import importlib
import os

import numpy as np

from . import _kernels_py

# the interface of _ckernels.c that this module calls
_KERNELS_VERSION = 10


def _import_compiled():
    """latflow._ckernels when it is built from the current source, else None:
    a build of older source, whose functions take other arguments, counts
    as absent."""
    try:
        module = importlib.import_module(f"{__package__}._ckernels")
    except ImportError:
        return None
    return module if getattr(module, "VERSION", None) == _KERNELS_VERSION else None


_ckernels = _import_compiled()

if _ckernels is None or os.environ.get("LATFLOW_PURE_PYTHON"):
    BACKEND = "python"
else:
    BACKEND = "c"

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_I16 = np.dtype(np.int16)
_U8 = np.dtype(np.uint8)


def _require(array, dtype, name):
    if not (array.dtype == dtype and array.ndim == 1 and array.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous 1-d {dtype} array")


def _require_span(data, indices, indptr):
    if len(indptr) == 0 or indptr[0] != 0 or not len(data) == len(indices) == indptr[-1]:
        raise ValueError("indptr does not span data and indices")


def _require_columns(indices, x):
    if len(indices) and not (0 <= indices.min() and indices.max() < len(x)):
        raise ValueError(f"a column index lies outside x of length {len(x)}")


def _csr_matvec(data, indices, indptr, x):
    """y = A @ x for a CSR matrix given as (data, indices, indptr) arrays
    whose column indices lie inside x, by the active backend."""
    if BACKEND == "c":
        return _csr_matvec_compiled(data, indices, indptr, x)
    return _kernels_py.csr_matvec(data, indices, indptr, x)


def csr_matvec_python(data, indices, indptr, x):
    """Always the numpy fallback, regardless of the active backend."""
    _require_columns(indices, x)
    return _kernels_py.csr_matvec(data, indices, indptr, x)


def csr_matvec_compiled(data, indices, indptr, x):
    """Always the compiled kernel; raises if the extension is unavailable."""
    _require_columns(indices, x)
    return _csr_matvec_compiled(data, indices, indptr, x)


def _csr_matvec_compiled(data, indices, indptr, x):
    if _ckernels is None:
        raise RuntimeError("compiled kernel latflow._ckernels is not built")
    _require(data, _F64, "data")
    _require(indices, _I64, "indices")
    _require(indptr, _I64, "indptr")
    _require(x, _F64, "x")
    _require_span(data, indices, indptr)
    out = np.empty(len(indptr) - 1, dtype=np.float64)
    _ckernels.csr_matvec(data, indices, indptr, x, out)
    return out


def _row_width(indptr):
    """The number of entries in every row of a CSR matrix, or 0 when the
    rows differ in length or there are none."""
    lengths = np.diff(indptr)
    if len(lengths) == 0 or np.any(lengths != lengths[0]):
        return 0
    return int(lengths[0])


def _csr_matvec_u8(data, indices, indptr, x):
    """y = A @ x in int32 for int32 weights, int32 column indices that lie
    inside x and a uint8 vector; the caller guarantees that no row's sum of
    |weight| * 255 reaches 2**31, so the product is exact."""
    if BACKEND != "c":
        return _kernels_py.csr_matvec(data, indices, indptr, x, np.int32)
    _require(data, _I32, "data")
    _require(indices, _I32, "indices")
    _require(indptr, _I64, "indptr")
    _require(x, _U8, "x")
    _require_span(data, indices, indptr)
    out = np.empty(len(indptr) - 1, dtype=np.int32)
    _ckernels.csr_matvec_u8(data, indices, indptr, x, out)
    return out


def _stencil_steps_u8(x, steps, history, height, width, wrapped, dr, dc, w, table, kmin):
    """The state after ``steps`` steps of a two-state lattice automaton from
    the uint8 state x, by the compiled kernel: the stencil view of its
    matrix, and its rule as a 32-entry uint8 table indexed by key - kmin.
    The kernel checks no key: the caller guarantees that every key that
    cells of 0 or 1 can produce, a sum of some subset of w, lies in
    [kmin, kmin + 32) and has a next state there, not 255.  Breaking that
    gives wrong states, never an access out of bounds.

    Writes the state after each step to its row of ``history``, a
    C-contiguous (steps, len(x)) uint8 array, unless it is None."""
    _require(x, _U8, "x")
    _require_taps(dr, dc, w)
    _require(table, _U8, "table")
    if len(x) != height * width:
        raise ValueError(f"x of length {len(x)} for a {height}x{width} grid")
    if len(table) != 32:
        raise ValueError(f"a table of {len(table)} entries, not 32")
    out = np.empty_like(x)
    _ckernels.stencil_steps_u8(x, out, _history_rows(history, steps, len(x)), height, width,
                               wrapped, dr, dc, w, table, kmin, steps)
    return out


def _fold_tables(weights, width, table, lo):
    """The folded tables of a two-state network whose rows all hold
    ``width`` int32 weights, row i being weights[i*width:(i+1)*width], by
    the compiled kernel: a uint8 array whose entry (i << width) | p is the
    next state ``table[key - lo]``, or ``table[i, key - lo]`` with one table
    row per node, for key the sum of the weights of row i whose bit of p is
    1.  None when some row has such a key outside the table or on a 255
    entry, a hole.  The result has n * 2**width bytes: the caller bounds
    width."""
    _require(weights, _I32, "weights")
    flat = table.reshape(-1)
    _require(flat, _U8, "table")
    if not 1 <= width < 63 or len(weights) % width:
        raise ValueError(f"rows of width {width} do not span {len(weights)} weights")
    n = len(weights) // width
    if table.ndim == 2 and len(table) != n:
        raise ValueError(f"{len(table)} table rows for {n} rows of weights")
    out = np.empty(n << width, dtype=np.uint8)
    row = table.shape[-1]
    if _ckernels.fold_tables(weights, flat, lo, row, row if table.ndim == 2 else 0, width,
                             out) >= 0:
        return None
    return out


def _network_steps_u8(x, steps, history, indices, width, folded):
    """The state after ``steps`` steps of a two-state network from the uint8
    state x, by the compiled kernel: node i reads the cells
    indices[i*width:(i+1)*width], int32 indices that the caller guarantees
    lie inside x, the j-th as bit j of a pattern p, and takes the next
    state folded[(i << width) | p], the tables that ``_fold_tables`` gives.
    A cell other than 0 or 1 counts as its low bit, so a state or table
    that breaks the caller's guarantees gives wrong states, never an access
    out of bounds.

    Writes the state after each step to its row of ``history``, a
    C-contiguous (steps, len(x)) uint8 array, unless it is None."""
    _require(x, _U8, "x")
    _require(indices, _I32, "indices")
    _require(folded, _U8, "folded")
    if not 1 <= width < 63 or len(indices) != width * len(x):
        raise ValueError(f"{len(indices)} indices for {len(x)} rows of width {width}")
    if len(folded) != len(x) << width:
        raise ValueError(f"{len(folded)} folded entries for {len(x)} rows of width {width}")
    out = np.empty_like(x)
    _ckernels.network_steps_u8(x, out, _history_rows(history, steps, len(x)), indices, width,
                               folded, steps)
    return out


def _history_rows(history, steps, n):
    """The flat uint8 buffer of a C-contiguous (steps, n) history, or an
    empty one for None."""
    if history is None:
        return np.empty(0, dtype=np.uint8)
    if not (history.flags.c_contiguous and history.shape == (steps, n)):
        raise ValueError(f"history must be a C-contiguous ({steps}, {n}) array")
    rows = history.reshape(-1)
    _require(rows, _U8, "history")
    return rows


def _require_taps(dr, dc, w):
    _require(dr, _I32, "dr")
    _require(dc, _I32, "dc")
    _require(w, _I16, "w")
    if not len(dr) == len(dc) == len(w):
        raise ValueError("dr, dc and w differ in length")


def assemble(n, fields):
    """``_textcodec.assemble(n, *fields)`` by the compiled kernel, as a
    read-only uint8 array.  Checks first that every array field is a
    C-contiguous int64 array of n non-negative values, and that every span
    of a pooled field lies inside its uint8 pool."""
    for field in fields:
        if isinstance(field, bytes):
            continue
        pool, *arrays = field if isinstance(field, tuple) else (None, field)
        if pool is not None:
            _require(pool, _U8, "pool")
        for array in arrays:
            _require(array, _I64, "a field")
            if len(array) != n or (n and array.min() < 0):
                raise ValueError(f"a field is not {n} non-negative values")
        if pool is not None and (arrays[1] > len(pool) - arrays[0]).any():
            raise ValueError(f"a span reaches past its pool of {len(pool)} bytes")
    return np.frombuffer(_ckernels.assemble(n, tuple(fields)), dtype=np.uint8)


def mm_entries(text, start, nnz):
    """The int64 rows and columns and float64 weights of the ``nnz`` Matrix
    Market entry lines of ``text[start:]``, by the compiled scanner, which
    passes empty lines and lines that start with ``%``.  None when the
    numpy fallback is active, and when the text is not ASCII, has fewer
    than 6 bytes an entry, or has any other shape than the writer emits:
    the caller's numpy path then gives the result or the precise error."""
    if BACKEND != "c" or not text.isascii() or not 0 <= nnz <= (len(text) - start) // 6:
        return None
    entries = np.empty(nnz, _I64), np.empty(nnz, _I64), np.empty(nnz, _F64)
    return entries if _ckernels.mm_entries(text, start, *entries) else None


def node_lines(raw, start, nodes, n_states):
    """The spans in the bytes ``raw`` of the digit tables of the ``nodes``
    per-node rule lines from ``start`` to the end, indexed by node, as the
    caller's numpy path gives them, by the compiled scanner.  None when the
    numpy fallback is active, for more than 10 states, when the text from
    ``start`` does not hold ``nodes`` lines, and when the lines have any
    other shape than the writer emits."""
    # one line a LF, and one after the last LF
    if (BACKEND != "c" or n_states > 10
            or raw.count(b"\n", start) + (not raw.endswith(b"\n")) != nodes):
        return None
    spans = np.empty(nodes, _I64), np.empty(nodes, _I64)
    return spans if _ckernels.node_lines(raw, start, *spans) else None


def compiled_available():
    return _ckernels is not None
