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

A lattice automaton's matrix carries the taps of its stencil from
construction, and its arrays are read-only, so the taps stay its exact
description: it runs a kernel over them that reads no column index.  A
two-state automaton on such a matrix also runs whole steps in one kernel,
``_stencil_steps_u8``, which ``DynamicalSystem.run`` calls for many steps
at a time: the stencil sum and the table lookup in byte lanes, with no key
vector between them.  On x86 the extension picks, once at import from the
CPU's features, AVX2 builds of the stencil and of the fused steps and an
SSE4.1 lookup for tables of at most 32 entries shared by every cell: the
same bytes, faster.
"""

import importlib
import os

import numpy as np

from . import _kernels_py

# the interface of _ckernels.c that this module calls
_KERNELS_VERSION = 5


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


def _is_buffer(array, dtype):
    return array.dtype == dtype and array.ndim == 1 and array.flags.c_contiguous


def _require(array, dtype, name):
    if not _is_buffer(array, dtype):
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


def _csr_matvec_u8(data, indices, indptr, x, width):
    """y = A @ x in int32 for int32 weights, int32 column indices that lie
    inside x, a uint8 vector and the ``width`` that ``_row_width(indptr)``
    gives; the caller guarantees that no row's sum of |weight| * 255
    reaches 2**31, so the product is exact."""
    if BACKEND != "c":
        return _kernels_py.csr_matvec(data, indices, indptr, x, np.int32)
    _require(data, _I32, "data")
    _require(indices, _I32, "indices")
    _require(indptr, _I64, "indptr")
    _require(x, _U8, "x")
    _require_span(data, indices, indptr)
    if width and width * (len(indptr) - 1) != len(data):
        raise ValueError(f"rows of width {width} do not span data")
    out = np.empty(len(indptr) - 1, dtype=np.int32)
    _ckernels.csr_matvec_u8(data, indices, indptr, x, out, width)
    return out


def _stencil_matvec_u8(x, height, width, wrapped, dr, dc, w):
    """y = A @ x in int32 for a uint8 vector and the matrix of a stencil on
    a height x width grid, by the compiled kernel, which accumulates each
    grid row in int16: the caller guarantees that the sum of |w| times 255
    stays below 2**15, so the product is exact."""
    _require(x, _U8, "x")
    _require_taps(dr, dc, w)
    if len(x) != height * width:
        raise ValueError(f"x of length {len(x)} for a {height}x{width} grid")
    out = np.empty(len(x), dtype=np.int32)
    _ckernels.stencil_matvec_u8(x, out, height, width, wrapped, dr, dc, w)
    return out


def _stencil_steps_u8(x, steps, history, height, width, wrapped, dr, dc, w, table, kmin):
    """Up to ``steps`` steps of a two-state lattice automaton from the uint8
    state x, by the compiled kernel: the stencil view of its matrix, and its
    rule as a 32-entry uint8 table indexed by key - kmin, 255 for a hole or
    a key outside the rule's table.  The caller guarantees that every key
    lies in [kmin, kmin + 32), as it does when the |w| sum to at most 31.

    Writes the state after each step as float64 to its row of ``history``,
    a C-contiguous (steps, len(x)) array, unless it is None.  Returns the
    state and the number of steps done: fewer than ``steps`` when the next
    step's keys include one on a hole."""
    _require(x, _U8, "x")
    _require_taps(dr, dc, w)
    _require(table, _U8, "table")
    if len(x) != height * width:
        raise ValueError(f"x of length {len(x)} for a {height}x{width} grid")
    if len(table) != 32:
        raise ValueError(f"a table of {len(table)} entries, not 32")
    rows = np.empty(0, dtype=np.float64)
    if history is not None:
        if not (history.flags.c_contiguous and history.shape == (steps, len(x))):
            raise ValueError(f"history must be a C-contiguous ({steps}, {len(x)}) array")
        rows = history.reshape(-1)
        _require(rows, _F64, "history")
    out = np.empty_like(x)
    done = _ckernels.stencil_steps_u8(x, out, rows, height, width, wrapped, dr, dc, w, table,
                                      kmin, steps)
    return out, done


def _require_taps(dr, dc, w):
    _require(dr, _I32, "dr")
    _require(dc, _I32, "dc")
    _require(w, _I16, "w")
    if not len(dr) == len(dc) == len(w):
        raise ValueError("dr, dc and w differ in length")


def table_lookup(keys, table, lo):
    """``out[i] = table[keys[i] - lo]`` by the compiled kernel, or
    ``table[i, keys[i] - lo]`` when the table has one row per cell, as uint8.

    Returns None when the numpy fallback is active, when ``keys`` is not a
    contiguous 1-d int32 array, when a 2-D table does not have one row per
    key, or when some key lies outside [lo, lo + row width) or hits a 255
    entry, a hole: the caller's numpy path then gives the result or the
    precise error.
    """
    if BACKEND != "c" or not _is_buffer(keys, _I32):
        return None
    if table.ndim == 2 and len(table) != len(keys):
        return None
    flat = table.reshape(-1)
    _require(flat, _U8, "table")
    width = table.shape[-1]
    out = np.empty(len(keys), dtype=np.uint8)
    # the kernel reads row i at i * stride; stride 0 shares one row
    if _ckernels.table_lookup(keys, flat, lo, width, width if table.ndim == 2 else 0, out) >= 0:
        return None
    return out


def compiled_available():
    return _ckernels is not None
