"""Procedural adjacency-matrix generation for lattices and random digraphs.

The 1D and 2D lattice generators write the CSR arrays directly, with no
loop over the cells or the stencil offsets: a cell's columns are the sum of
a grid row's and a grid column's shifted indices, one per nonzero stencil
weight.  On a wrapped grid the shifted indices are reduced modulo the grid
size, so the first and last cells become neighbors; on an unwrapped grid
the out-of-range ones are masked out (no padding, no ghost cells).

Cells of a 2D grid are flattened row-major: cell (r, c) has index
r * width + c, and a stencil offset (dr, dc) relative to the center targets
flat index ((r + dr) mod height) * width + ((c + dc) mod width).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentTooSmall,
    DegreeTooLarge,
    IndexOutOfBounds,
    NonFiniteWeight,
    StencilWiderThanGrid,
    check_seed,
)
from .sparse import SparseMatrix


@dataclass(frozen=True)
class GridSpec:
    """Grid dimensions and boundary behavior (height 1 for 1D grids)."""

    width: int
    height: int = 1
    wrapped: bool = True

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ArgumentTooSmall(f"grid {self.width}x{self.height} is empty")

    @property
    def n_cells(self):
        return self.width * self.height


@dataclass(frozen=True)
class NeighborhoodSpec1D:
    """Stencil weights plus the 0-based position of the central cell."""

    weights: tuple
    center_index: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not 0 <= self.center_index < len(self.weights):
            raise ArgumentTooSmall(
                f"center {self.center_index} outside stencil of {len(self.weights)}"
            )
        if not any(w != 0.0 for w in self.weights):
            raise ArgumentTooSmall("stencil has no nonzero weight")


@dataclass(frozen=True)
class NeighborhoodSpec2D:
    """2D stencil weights plus the (row, col) index of the central cell.

    Stencil row 0 lies above the cell and column 0 to its left, matching how
    a neighborhood is drawn on the grid.
    """

    weights: np.ndarray = field(repr=False)
    center: tuple = (0, 0)

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "center", (int(self.center[0]), int(self.center[1])))
        r, c = self.center
        if not (0 <= r < w.shape[0] and 0 <= c < w.shape[1]):
            raise ArgumentTooSmall(f"center {self.center} outside stencil {w.shape}")
        if not np.any(w != 0.0):
            raise ArgumentTooSmall("stencil has no nonzero weight")


def pattern_weights(n_states, k_neighbors):
    """Positional weights [n^0, n^1, ..., n^(k-1)], least significant first.

    Arranged into a stencil these make every neighborhood configuration
    produce a distinct integer under the matvec, so a lookup table can
    recover the full pattern from the mixed value.
    """
    if n_states < 2:
        raise ArgumentTooSmall(f"need at least 2 states, got {n_states}")
    if k_neighbors < 1:
        raise ArgumentTooSmall(f"need at least 1 neighbor, got {k_neighbors}")
    return [float(n_states) ** i for i in range(k_neighbors)]


def generate_ca_1d(grid, nb):
    """Adjacency matrix of a 1D lattice with the given stencil.

    Row i receives weight ``nb.weights[j + center]`` at column
    (i + j) mod width for each in-range offset j.
    """
    if grid.height != 1:
        raise ArgumentTooSmall("1D generation requires height 1")
    if len(nb.weights) > grid.width:
        raise StencilWiderThanGrid(
            f"stencil of {len(nb.weights)} on a width-{grid.width} grid"
        )
    return _stencil_matrix(grid, np.array([nb.weights]), (0, nb.center_index))


def generate_ca_2d(grid, nb):
    """Adjacency matrix of a 2D lattice with the given stencil."""
    height, width = grid.height, grid.width
    sh, sw = nb.weights.shape
    if sh > height or sw > width:
        raise StencilWiderThanGrid(
            f"stencil {sh}x{sw} on a {height}x{width} grid"
        )
    return _stencil_matrix(grid, nb.weights, nb.center)


def _stencil_matrix(grid, weights, center):
    """The CSR matrix of a 2D stencil that fits the grid: row i holds each
    nonzero weight, a tap, at the cell that the tap shifts cell i to, when
    that cell is on the grid (always, when wrapped).  Two taps of a
    stencil no larger than the grid never shift a cell to the same cell,
    even wrapped (generate_ca_2d raises StencilWiderThanGrid otherwise), so
    no row holds a column twice.  Taps come in (dr, dc) order, which is
    column order in every row whose taps neither wrap nor leave the grid;
    only the rows of the wrapped border are sorted.  A weight that is not
    finite raises NonFiniteWeight, and a grid whose entries cannot be
    allocated IndexOutOfBounds.

    When the weights are integers whose |w| sum to less than 2**15 / 255,
    the matrix gets its stencil view (see SparseMatrix), which the fused
    lattice steps read: the grid and each tap as the offset
    (dr, dc) from a cell to the cell it reads, in int32, and its weight, in
    int16.  The view is built from the same taps as the entries, and the
    entries are read-only, so the two always agree."""
    height, width, n = grid.height, grid.width, grid.n_cells
    sr, sc = np.nonzero(weights)
    dr, dc, w = sr - center[0], sc - center[1], weights[sr, sc]
    taps = len(w)
    if not np.all(np.isfinite(w)):
        bad = int(np.argmin(np.isfinite(w)))
        raise NonFiniteWeight(
            f"non-finite weight {w[bad]} at stencil entry ({sr[bad]}, {sc[bad]})")
    try:
        # the (n, taps) columns first, so a grid too large fails before the rest
        indices = np.empty(n * taps, dtype=np.int64)
        tr, tc = np.arange(height)[:, None] + dr, np.arange(width)[:, None] + dc
        off_r, off_c = (tr < 0) | (tr >= height), (tc < 0) | (tc >= width)
        if grid.wrapped:
            tr, tc = tr % height, tc % width
        else:  # a tap off the grid gets a column >= n
            tr, tc = np.where(off_r, height, tr), np.where(off_c, n, tc)
        np.add((tr * width)[:, None], tc, out=indices.reshape(height, width, taps))
        block = indices.reshape(n, taps)
        if grid.wrapped:
            data = np.tile(w, n)
            wraps = np.flatnonzero(off_r.any(1)[:, None] | off_c.any(1))
            edge = block[wraps]
            order = np.argsort(edge, axis=1)
            block[wraps] = np.take_along_axis(edge, order, axis=1)
            data.reshape(n, taps)[wraps] = w[order]
            indptr = np.arange(0, n * taps + 1, taps)
        else:
            keep = block < n
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep.sum(1), out=indptr[1:])
            indices, data = block[keep], np.broadcast_to(w, (n, taps))[keep]
    except (ValueError, MemoryError):  # numpy refuses the size, or malloc does
        raise IndexOutOfBounds(
            f"no memory for the {taps} taps of a {height}x{width} grid"
        ) from None
    m = SparseMatrix(n, n, indptr, indices, data)
    if np.array_equal(w, np.rint(w)) and np.abs(w).sum() * 255 < 2**15:
        m._stencil = (height, width, grid.wrapped, dr.astype(np.int32), dc.astype(np.int32),
                      w.astype(np.int16))
    return m


@dataclass(frozen=True)
class PositionalBase:
    """Weight scheme: input m of a node gets weight n_states^m."""

    n_states: int = 2


@dataclass(frozen=True)
class UniformWeights:
    """Weight scheme: weights drawn uniformly from [low, high)."""

    low: float
    high: float


def generate_random_digraph(n_nodes, in_degree, weight_scheme, allow_self, seed):
    """Random digraph where every node receives exactly ``in_degree`` inputs.

    Inputs are distinct, drawn uniformly by a PCG64 generator seeded with
    ``seed``; the whole construction is a pure function of its arguments.
    Returns (matrix, inputs): inputs is a read-only (n_nodes, in_degree)
    int64 array whose row i holds node i's inputs in draw order, the order
    the positional weights follow.

    Stream contract: node i's inputs are ``rng.choice(limit, in_degree,
    replace=False)`` drawn for i = 0, 1, ... in turn from
    ``rng = np.random.default_rng(seed)``, with limit = n_nodes, or
    n_nodes - 1 and picks >= i shifted up by one when self-loops are not
    allowed; ``UniformWeights`` draws the node's weights with
    ``rng.uniform(low, high, in_degree)`` right after its inputs.  With
    ``PositionalBase`` the draws are reproduced from one block of raw PCG64
    output (see :func:`_choice_rows`) wherever numpy's sampler allows it, so
    building a large network makes no Python call per node.
    """
    if in_degree < 0:
        raise ArgumentTooSmall(f"in-degree {in_degree} is negative")
    limit = n_nodes if allow_self else n_nodes - 1
    if in_degree > limit:
        raise DegreeTooLarge(
            f"in-degree {in_degree} with {n_nodes} nodes (allow_self={allow_self})"
        )
    rng = np.random.default_rng(check_seed(seed))
    k = in_degree
    positional = isinstance(weight_scheme, PositionalBase)
    if positional:
        row_weights = pattern_weights(weight_scheme.n_states, max(k, 1))[:k]
    # numpy's tail shuffle (limit > 10000 and k > limit // 50) and
    # UniformWeights, whose 64-bit uniform draws interleave with the 32-bit
    # words, are drawn call by call
    floyd = limit <= 10000 or k <= limit // 50
    if positional and floyd and limit <= 2**32:
        picks = _choice_rows(rng, n_nodes, limit, k)
        weights = np.tile(row_weights, n_nodes)
    else:
        picks = np.empty((n_nodes, k), dtype=np.int64)
        weights = np.empty((n_nodes, k))
        for i in range(n_nodes if k else 0):
            picks[i] = rng.choice(limit, size=k, replace=False)
            if positional:
                weights[i] = row_weights
            else:
                weights[i] = rng.uniform(weight_scheme.low, weight_scheme.high, size=k)
    node = np.arange(n_nodes)
    if not allow_self:
        picks += picks >= node[:, None]
    matrix = SparseMatrix.from_coo(
        n_nodes, n_nodes, np.repeat(node, k), picks.ravel(), weights.ravel()
    )
    picks.flags.writeable = False
    return matrix, picks


def _words(rng, count):
    """The next ``count`` (rounded up to even) 32-bit draws of a PCG64
    generator whose 32-bit buffer is empty: the low, then the high half of
    each 64-bit output."""
    return rng.bit_generator.random_raw((count + 1) // 2).astype("<u8").view("<u4")


def _choice_rows(rng, n_rows, limit, k):
    """``rng.choice(limit, k, replace=False)`` for each of ``n_rows`` rows in
    turn, as an (n_rows, k) array computed from raw PCG64 output.

    numpy samples such a row with Floyd's algorithm followed by a
    Fisher-Yates shuffle (in the regime limit <= 10000 or k <= limit // 50,
    limit <= 2**32).  Every draw on [0, j] takes the next 32-bit word u and
    returns (u * (j + 1)) >> 32 (Lemire's method), taking another word while
    the low 32 bits of the product are below 2**32 mod (j + 1); a draw on
    [0, 0] takes no word.  So every row takes the same words unless a draw
    is rejected, which at limit ~ 1e5 happens a few times per million draws:
    the rows are decoded at once up to the first rejection, whose word is
    dropped before decoding again from its row.
    """
    base = limit - k
    # the bound j + 1 of each word-taking draw of a row, in stream order:
    # Floyd's j = base .. limit - 1, then the shuffle's i = k - 1 .. 1
    floyd = np.arange(max(base, 1), limit)
    spans = np.concatenate([floyd, np.arange(k - 1, 0, -1)]).astype(np.uint64) + 1
    thresholds = (2**32 - spans) % spans
    per_row = len(spans)
    draws = np.empty((n_rows, per_row), dtype=np.int64)
    words = _words(rng, n_rows * per_row)
    row = 0
    while row < n_rows:
        need = (n_rows - row) * per_row
        if len(words) < need:
            words = np.concatenate([words, _words(rng, need - len(words))])
        prod = words[:need].reshape(n_rows - row, per_row) * spans
        rejected = np.flatnonzero((prod & 0xFFFFFFFF) < thresholds)
        good = rejected[0] // per_row if len(rejected) else n_rows - row
        draws[row:row + good] = prod[:good] >> 32
        row += good
        if len(rejected):
            words = np.delete(words, rejected[0])[good * per_row:]
    # Floyd: the draw on [0, base + t] is kept unless a value already taken,
    # in which case base + t is.  A value is taken iff it was drawn before in
    # the row, or it is base + s for an earlier s whose draw was replaced.
    v = np.zeros((n_rows, k), dtype=np.int64)
    v[:, k - len(floyd):] = draws[:, :len(floyd)]
    order = np.argsort(v, axis=1, kind="stable")
    sorted_v = np.take_along_axis(v, order, axis=1)
    repeat = np.zeros((n_rows, k), dtype=bool)
    repeat[:, 1:] = sorted_v[:, 1:] == sorted_v[:, :-1]
    np.put_along_axis(repeat, order, repeat.copy(), axis=1)
    replaced = np.zeros((n_rows, k), dtype=bool)
    node = np.arange(n_rows)
    for t in range(k):
        s = v[:, t] - base
        earlier = (s >= 0) & (s < t)
        replaced[:, t] = repeat[:, t] | earlier & replaced[node, np.where(earlier, s, 0)]
    picks = np.where(replaced, base + np.arange(k), v)
    # Fisher-Yates: swap position i with the draw on [0, i]
    for i, j in zip(range(k - 1, 0, -1), draws[:, len(floyd):].T):
        picks[:, i], picks[node, j] = picks[node, j], picks[:, i].copy()
    return picks
