"""Kernel backend selection, done once at import.

The compiled extension (``latflow._ckernels``, plain C) is used when it
imported successfully; otherwise the numpy fallback takes over
transparently.  Set ``LATFLOW_PURE_PYTHON=1`` in the environment to force
the fallback, e.g. to benchmark one against the other.

The C loops trust their buffers, so every call into them goes through a
wrapper here that checks dtypes, contiguity and lengths first: a wrong
buffer raises ValueError instead of being read out of bounds.
"""

import os

import numpy as np

from . import _kernels_py

try:
    from . import _ckernels

    _ckernels.table_lookup  # a build that predates the lookup kernel counts as absent
except (ImportError, AttributeError):
    _ckernels = None

if _ckernels is None or os.environ.get("LATFLOW_PURE_PYTHON"):
    BACKEND = "python"
else:
    BACKEND = "c"

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)


def _is_buffer(array, dtype):
    return array.dtype == dtype and array.ndim == 1 and array.flags.c_contiguous


def _require(array, dtype, name):
    if not _is_buffer(array, dtype):
        raise ValueError(f"{name} must be a C-contiguous 1-d {dtype} array")


def csr_matvec(data, indices, indptr, x):
    """y = A @ x for a CSR matrix given as (data, indices, indptr) arrays."""
    if BACKEND == "c":
        return csr_matvec_compiled(data, indices, indptr, x)
    return _kernels_py.csr_matvec(data, indices, indptr, x)


def csr_matvec_python(data, indices, indptr, x):
    """Always the numpy fallback, regardless of the active backend."""
    return _kernels_py.csr_matvec(data, indices, indptr, x)


def csr_matvec_compiled(data, indices, indptr, x):
    """Always the compiled kernel; raises if the extension is unavailable."""
    if _ckernels is None:
        raise RuntimeError("compiled kernel latflow._ckernels is not built")
    _require(data, _F64, "data")
    _require(indices, _I64, "indices")
    _require(indptr, _I64, "indptr")
    _require(x, _F64, "x")
    if len(indptr) == 0 or indptr[0] != 0 or not len(data) == len(indices) == indptr[-1]:
        raise ValueError("indptr does not span data and indices")
    out = np.empty(len(indptr) - 1, dtype=np.float64)
    _ckernels.csr_matvec(data, indices, indptr, x, out)
    return out


def table_lookup(pre, table, lo, width, stride):
    """``out[i] = table[i*stride + rint(pre[i]) - lo]`` by the compiled kernel.

    ``table`` holds one row of ``width`` entries shared by every cell
    (stride 0) or one row per cell, ``stride`` entries apart.  Returns None
    when the numpy fallback is active, when ``pre`` is not a contiguous 1-d
    float64 array, when it does not have one entry per row, or when some key
    is not within 1e-6 of an integer, lies outside [lo, lo + width) or hits
    a -1 entry: the caller's numpy path then gives the result or the precise
    error.
    """
    if BACKEND != "c" or not _is_buffer(pre, _F64):
        return None
    _require(table, _I64, "table")
    if width > (stride or len(table)):
        raise ValueError(f"rows of {width} entries do not fit the table")
    if stride and len(table) != len(pre) * stride:
        return None
    out = np.empty(len(pre), dtype=np.float64)
    if _ckernels.table_lookup(pre, table, lo, width, stride, out) >= 0:
        return None
    return out


def compiled_available():
    return _ckernels is not None
