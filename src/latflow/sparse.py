"""Sparse matrices in compressed-row form and the matvec they exist for.

A matrix is built once from (row, col, weight) triplets and is immutable
afterwards: every duplicate coordinate is an error because the lattice
generators never legitimately produce one, and accumulating silently would
hide generator bugs.  Weights are always stored as float64, even for
integer lookup-table weights, so one matvec path serves discrete and
continuous systems alike.
"""

from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import (
    DimensionMismatch,
    DuplicateEntry,
    FileFormatError,
    IndexOutOfBounds,
    NonFiniteWeight,
    NotSquare,
)


class SparseMatrix:
    """N_rows x N_cols sparse matrix, CSR storage, row-major entry order.

    Convention: entry (i, j) is the weight of the connection from node j
    into node i, so row i lists the inputs of node i and ``matvec`` mixes
    inputs into each row's node.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data

    # -- construction ------------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, triplets):
        """Build and finalize a matrix from (row, col, weight) triplets.

        Raises IndexOutOfBounds, DuplicateEntry or NonFiniteWeight when the
        triplets do not describe a valid matrix.
        """
        n_rows = int(n_rows)
        n_cols = int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise IndexOutOfBounds(f"negative matrix shape {n_rows}x{n_cols}")
        triplets = list(triplets)
        if not triplets:
            return cls(
                n_rows,
                n_cols,
                np.zeros(n_rows + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        rows = np.array([t[0] for t in triplets], dtype=np.int64)
        cols = np.array([t[1] for t in triplets], dtype=np.int64)
        vals = np.array([t[2] for t in triplets], dtype=np.float64)
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise IndexOutOfBounds(
                f"triplet index outside {n_rows}x{n_cols}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteWeight(
                f"non-finite weight {vals[bad]} at ({rows[bad]}, {cols[bad]})"
            )
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise DuplicateEntry(f"duplicate entry at ({rows[k]}, {cols[k]})")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_rows, n_cols, indptr, cols, vals)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=np.float64)
        rows, cols = np.nonzero(array)
        triplets = [(int(i), int(j), float(array[i, j])) for i, j in zip(rows, cols)]
        return cls.from_triplets(array.shape[0], array.shape[1], triplets)

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
        """A @ v via the active CSR kernel."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or len(v) != self.n_cols:
            raise DimensionMismatch(
                f"vector of length {v.shape} against {self.n_rows}x{self.n_cols}"
            )
        # a strided view is copied, as the compiled kernel reads contiguous memory
        return backend.csr_matvec(self.data, self.indices, self.indptr, np.ascontiguousarray(v))

    def __matmul__(self, v):
        return self.matvec(v)

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def scaled(self, c):
        """New matrix with every weight multiplied by scalar c."""
        return SparseMatrix(
            self.n_rows, self.n_cols, self.indptr, self.indices, self.data * float(c)
        )

    def transpose(self):
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        order = np.lexsort((rows, self.indices))
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        return SparseMatrix(
            self.n_cols, self.n_rows, indptr, rows[order], self.data[order]
        )


# -- module-level operation surface ---------------------------------------

def from_triplets(n_rows, n_cols, triplets):
    return SparseMatrix.from_triplets(n_rows, n_cols, triplets)


def matvec(m, v):
    return m.matvec(v)


def to_dense(m):
    return m.to_dense()


def is_symmetric(m):
    """True iff m[i, j] == m[j, i] for every entry (exact comparison)."""
    if not m.is_square:
        raise NotSquare(f"symmetry is undefined for {m.n_rows}x{m.n_cols}")
    t = m.transpose()
    return (
        np.array_equal(m.indptr, t.indptr)
        and np.array_equal(m.indices, t.indices)
        and np.array_equal(m.data, t.data)
    )


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


def save_matrix_market(path, m):
    """Write coordinate-format Matrix Market, 1-based, sorted by (row, col)."""
    rows = np.repeat(np.arange(m.n_rows), np.diff(m.indptr))
    with open(path, "w") as f:
        f.write(_MM_HEADER + "\n")
        f.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
        for r, c, w in zip(rows, m.indices, m.data):
            f.write(f"{r + 1} {c + 1} {float(w)!r}\n")


def load_matrix_market(path):
    """Read a coordinate-format Matrix Market file; entries may be in any order."""
    with open(path) as f:
        header = f.readline().strip()
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
        for line in f:
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
        triplets = []
        for line in f:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise FileFormatError(f"bad entry line: {line!r}")
            try:
                i, j, w = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise FileFormatError(f"bad entry line: {line!r}") from exc
            triplets.append((i - 1, j - 1, w))
    if len(triplets) != nnz:
        raise FileFormatError(f"expected {nnz} entries, found {len(triplets)}")
    return SparseMatrix.from_triplets(n_rows, n_cols, triplets)
