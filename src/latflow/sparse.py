"""Sparse matrices in compressed-row form and the matvec they exist for.

A matrix is built once from coordinate arrays or (row, col, weight)
triplets and is immutable afterwards: its ``indptr``, ``indices`` and
``data`` arrays are read-only, so no view cached from them goes stale.
Every duplicate coordinate is an error because the lattice generators
never legitimately produce one, and accumulating silently would hide
generator bugs.  Weights are stored as float64.  A matrix of small integer
weights, as every lookup-table system has, also keeps an int32 copy of its
weights and column indices, made on its first uint8 matvec, so that
discrete states are mixed in exact integer arithmetic at a fraction of the
memory traffic.  With the copy it keeps the common length of its rows,
which lets the compiled kernel run a fully unrolled loop without row
pointers.

A matrix that a lattice generator built from a stencil of small integer
weights carries, from its construction, a stencil view of the stencil's
taps, and under the compiled backend its uint8 matvec runs the stencil
kernel over them and never makes the int32 copy: that kernel reads each
source row once per tap and no column index at all.  Any other matrix,
including one derived from such a matrix by ``scaled`` or ``transpose`` or
read back from Matrix Market, has no view and keeps the CSR kernels.
"""

import io
import warnings
from dataclasses import dataclass

import numpy as np

from . import _textcodec, backend
from .errors import (
    DimensionMismatch,
    DuplicateEntry,
    FileFormatError,
    IndexOutOfBounds,
    NonFiniteWeight,
    NotSquare,
    read_text,
)


class SparseMatrix:
    """N_rows x N_cols sparse matrix, CSR storage, row-major entry order.

    Convention: entry (i, j) is the weight of the connection from node j
    into node i, so row i lists the inputs of node i and ``matvec`` mixes
    inputs into each row's node.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_int32", "_stencil")

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        for array in (indptr, indices, data):
            array.flags.writeable = False
        self._int32 = None  # (data, indices, row width), False when exceeded
        # (height, width, wrapped, dr, dc, w), set by the lattice generator:
        # tap t reads cell (r + dr[t], c + dc[t]) of the grid with weight w[t]
        self._stencil = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build and finalize a matrix from coordinate arrays of equal length.

        Raises IndexOutOfBounds (a coordinate that is not an integer or lies
        outside the shape), NonFiniteWeight (a weight that is not a finite
        number) or DuplicateEntry, checked in that order, when the arrays do
        not describe a valid matrix, and DimensionMismatch when they are not
        three 1-D arrays of one length.
        """
        n_rows = int(n_rows)
        n_cols = int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise IndexOutOfBounds(f"negative matrix shape {n_rows}x{n_cols}")
        rows = _coordinates(rows, "row")
        cols = _coordinates(cols, "column")
        vals = _weights(vals)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != vals.shape:
            raise DimensionMismatch(
                f"coordinate arrays of shapes {rows.shape}, {cols.shape}, {vals.shape}"
            )
        if not len(rows):
            return cls(
                n_rows,
                n_cols,
                np.zeros(n_rows + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise IndexOutOfBounds(
                f"triplet index outside {n_rows}x{n_cols}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteWeight(
                f"non-finite weight {vals[bad]} at ({rows[bad]}, {cols[bad]})"
            )
        if n_rows * n_cols < 2**63:
            # one int64 key sorts several times faster than lexsort
            order = np.argsort(rows * n_cols + cols, kind="stable")
        else:
            order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise DuplicateEntry(f"duplicate entry at ({rows[k]}, {cols[k]})")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(n_rows, n_cols, indptr, cols, vals)

    @classmethod
    def from_triplets(cls, n_rows, n_cols, triplets):
        """Build a matrix from (row, col, weight) triplets, as from_coo does;
        DimensionMismatch when some triplet has other than 3 entries."""
        triplets = list(triplets)
        try:
            whole = set(map(len, triplets)) <= {3}
        except TypeError:
            whole = False
        if not whole:
            raise DimensionMismatch("every triplet must be (row, col, weight)")
        return cls.from_coo(
            n_rows,
            n_cols,
            [t[0] for t in triplets],
            [t[1] for t in triplets],
            [t[2] for t in triplets],
        )

    @classmethod
    def from_dense(cls, array):
        array = _weights(array)
        if array.ndim != 2:
            raise DimensionMismatch(f"dense matrix of shape {array.shape} is not 2-D")
        rows, cols = np.nonzero(array)
        return cls.from_coo(array.shape[0], array.shape[1], rows, cols, array[rows, cols])

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def is_square(self):
        return self.n_rows == self.n_cols

    def row(self, i):
        """Dict {col: weight} for row i."""
        if not 0 <= i < self.n_rows:
            raise IndexOutOfBounds(f"row {i} outside {self.n_rows} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return {int(c): float(w) for c, w in zip(self.indices[lo:hi], self.data[lo:hi])}

    def triplets(self):
        """The finalized entries as (row, col, weight), in (row, col) order."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return [
            (int(r), int(c), float(w))
            for r, c, w in zip(rows, self.indices, self.data)
        ]

    # -- linear algebra ----------------------------------------------------

    def matvec(self, v):
        """A @ v via the active CSR kernel.

        A uint8 vector gives the exact product as int32 when every weight is
        an integer and no row's sum of |weight| * 255 reaches 2**31; any
        other vector is taken as float64 and gives a float64 product.  The
        compiled backend computes the int32 product of a matrix with a
        stencil view by the stencil kernel.
        """
        v = np.asarray(v)
        if v.dtype != np.uint8:
            v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or len(v) != self.n_cols:
            raise DimensionMismatch(
                f"vector of length {v.shape} against {self.n_rows}x{self.n_cols}"
            )
        # a strided view is copied, as the compiled kernels read contiguous memory
        v = np.ascontiguousarray(v)
        if v.dtype == np.uint8:
            if backend.BACKEND == "c" and self._stencil is not None:
                return backend._stencil_matvec_u8(v, *self._stencil)
            if self._int32 is None:
                self._int32 = self._int32_view()
            if self._int32:
                data, indices, width = self._int32
                return backend._csr_matvec_u8(data, indices, self.indptr, v, width)
            v = v.astype(np.float64)
        return backend._csr_matvec(self.data, self.indices, self.indptr, v)

    def _int32_view(self):
        """(data, indices, width), the weights and column indices as int32
        and the length of every row (0 when rows differ), when the int32
        product of a uint8 vector is exact, else False."""
        data = self.data
        if self.n_cols >= 2**31 or not np.all(np.abs(data) < 2**31 // 255):
            return False
        if not np.array_equal(data, np.rint(data)):
            return False
        # exact row sums in int64, as each |weight| is below 2**31 / 255
        sums = np.concatenate(([0], np.cumsum(np.abs(data).astype(np.int64))))
        if np.any((sums[self.indptr[1:]] - sums[self.indptr[:-1]]) * 255 >= 2**31):
            return False
        width = backend._row_width(self.indptr)
        return data.astype(np.int32), self.indices.astype(np.int32), width

    def __matmul__(self, v):
        return self.matvec(v)

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def scaled(self, c):
        """New matrix with every weight multiplied by scalar c; raises
        NonFiniteWeight when a product is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            data = self.data * float(c)
        finite = np.isfinite(data)
        if not finite.all():
            k = int(np.argmin(finite))
            row = int(np.searchsorted(self.indptr, k, side="right")) - 1
            raise NonFiniteWeight(
                f"non-finite weight {data[k]} at ({row}, {self.indices[k]}) scaled by {c}"
            )
        return SparseMatrix(self.n_rows, self.n_cols, self.indptr, self.indices, data)

    def transpose(self):
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return SparseMatrix.from_coo(self.n_cols, self.n_rows, self.indices, rows, self.data)


def _coordinates(values, axis):
    """Coordinates as int64; IndexOutOfBounds for one that is not an
    integer.  An integer array, as every generator passes, is not checked."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    try:
        floats = values.astype(np.float64)
    except (TypeError, ValueError):
        raise IndexOutOfBounds(f"a {axis} index is not a number") from None
    whole = floats == np.rint(floats)
    if not whole.all():
        raise IndexOutOfBounds(f"{axis} index {floats[np.argmin(whole)]} is not an integer")
    # one beyond int64 lies outside every shape, as -1 does
    return np.where(np.abs(floats) < 2**63, floats, -1).astype(np.int64)


def _weights(values):
    """Weights as float64; NonFiniteWeight for one that is not a number."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise NonFiniteWeight(f"a weight is not a number: {exc}") from None


@dataclass
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int


def power_iteration(m, max_iters=1000, tol=1e-10, restart_seed=0):
    """Dominant eigenvalue magnitude of a square matrix.

    Starts from the all-ones direction for determinism; if the first Rayleigh
    quotient is below 1e-12 (orthogonal start) it restarts once from a seeded
    random vector.  Converged means two successive Rayleigh estimates differed
    by less than ``tol``; with a complex dominant pair the estimates oscillate
    and the last one is returned unconverged.
    """
    if not m.is_square:
        raise NotSquare("power iteration needs a square matrix")
    n = m.n_rows
    if n == 0:
        return PowerIterationResult(0.0, True, 0)
    v = np.ones(n) / np.sqrt(n)
    prev = None
    restarted = False
    for k in range(1, max_iters + 1):
        w = m.matvec(v)
        est = abs(float(v @ w))
        if k == 1 and not restarted and est < 1e-12:
            rng = np.random.default_rng(restart_seed)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            restarted = True
            prev = None
            continue
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # v is annihilated: dominant magnitude reachable from here is 0
            return PowerIterationResult(0.0, True, k)
        v = w / norm
        if prev is not None and abs(est - prev) < tol:
            return PowerIterationResult(est, True, k)
        prev = est
    return PowerIterationResult(prev if prev is not None else 0.0, False, max_iters)


def spectral_radius(m, max_iters=1000, tol=1e-10):
    """Power-iteration estimate of the dominant eigenvalue magnitude.

    Returns the last estimate whether or not the iteration converged; use
    :func:`power_iteration` when the convergence flag matters.
    """
    return power_iteration(m, max_iters=max_iters, tol=tol).value


# -- Matrix Market I/O -----------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"
# the most a reader allocates for what a file declares before its entries
# are read: Matrix Market row pointers, and the rule text's count key spans
# and per-node padding; a file declaring more is refused
_MAX_READ_BYTES = 1 << 30
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def save_matrix_market(path, m):
    """Write coordinate-format Matrix Market, 1-based, sorted by (row, col)."""
    rows = np.repeat(np.arange(1, m.n_rows + 1), np.diff(m.indptr))
    # each distinct weight is formatted once; keyed by its bits so that -0.0
    # keeps its own repr
    bits, inverse = np.unique(m.data.view(np.int64), return_inverse=True)
    reprs = [repr(w).encode() for w in bits.view(np.float64).tolist()]
    lengths = np.array([len(r) for r in reprs], dtype=np.int64)
    pool = np.frombuffer(b"".join(reprs), dtype=np.uint8)
    weights = (pool, (np.cumsum(lengths) - lengths)[inverse], lengths[inverse])
    body = _textcodec.assemble(m.nnz, rows, b" ", m.indices + 1, b" ", weights, b"\n")
    with open(path, "w") as f:
        f.write(f"{_MM_HEADER}\n{m.n_rows} {m.n_cols} {m.nnz}\n")
        f.write(body.tobytes().decode())


def load_matrix_market(path):
    """Read a coordinate-format Matrix Market file; entries may be in any order.

    After the size line, a ``%`` starts a comment anywhere on a line.
    """
    lines = io.StringIO(read_text(path))
    header = lines.readline().strip()
    parts = header.lower().split()
    if (
        len(parts) != 5
        or parts[0] != "%%matrixmarket"
        or parts[1] != "matrix"
        or parts[2] != "coordinate"
        or parts[3] not in ("real", "integer")
        or parts[4] != "general"
    ):
        raise FileFormatError(f"unsupported Matrix Market header: {header!r}")
    size_line = None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        size_line = line
        break
    if size_line is None:
        raise FileFormatError("missing size line")
    try:
        n_rows, n_cols, nnz = (int(x) for x in size_line.split())
    except ValueError as exc:
        raise FileFormatError(f"bad size line: {size_line!r}") from exc
    if 8 * (n_rows + 1) > _MAX_READ_BYTES:
        raise FileFormatError(
            f"{n_rows} rows need more than {_MAX_READ_BYTES} bytes of row pointers"
        )
    try:
        with warnings.catch_warnings():
            # numpy < 2 parses an integer field through a float with only a
            # DeprecationWarning ("1.5" -> 1); as an error it is a ValueError
            warnings.simplefilter("error", DeprecationWarning)
            # a file without entries is valid
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            entries = np.loadtxt(lines, dtype=_MM_ENTRY, comments="%", ndmin=1)
    except ValueError as exc:
        raise FileFormatError(f"bad entry line: {exc}") from exc
    if len(entries) != nnz:
        raise FileFormatError(f"expected {nnz} entries, found {len(entries)}")
    return SparseMatrix.from_coo(
        n_rows, n_cols, entries["i"] - 1, entries["j"] - 1, entries["w"]
    )
