import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from latflow import topology
from latflow.errors import (
    ArgumentTooSmall,
    DegreeTooLarge,
    IndexOutOfBounds,
    NonFiniteWeight,
    StencilWiderThanGrid,
)
from latflow.sparse import SparseMatrix
from latflow.systems import elementary_ca, game_of_life
from latflow.topology import (
    GridSpec,
    NeighborhoodSpec1D,
    NeighborhoodSpec2D,
    PositionalBase,
    UniformWeights,
    generate_ca_1d,
    generate_ca_2d,
    generate_random_digraph,
    pattern_weights,
)

ECA = NeighborhoodSpec1D((4.0, 2.0, 1.0), 1)
VON_NEUMANN = NeighborhoodSpec2D(
    [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], (1, 1)
)


def test_pattern_weights_binary_three():
    assert pattern_weights(2, 3) == [1.0, 2.0, 4.0]
    assert list(reversed(pattern_weights(2, 3))) == [4.0, 2.0, 1.0]


def test_pattern_weights_small_cases():
    assert pattern_weights(2, 1) == [1.0]
    assert pattern_weights(3, 2) == [1.0, 3.0]


def test_pattern_weights_validation():
    with pytest.raises(ArgumentTooSmall):
        pattern_weights(1, 3)
    with pytest.raises(ArgumentTooSmall):
        pattern_weights(2, 0)


def test_pattern_weight_keys_are_injective():
    # every neighborhood pattern must map to a distinct integer key
    for n, k in ((2, 3), (3, 3), (4, 2)):
        w = pattern_weights(n, k)
        keys = set()
        patterns = np.stack(
            np.meshgrid(*[np.arange(n)] * k, indexing="ij"), axis=-1
        ).reshape(-1, k)
        for p in patterns:
            keys.add(float(np.dot(p, w)))
        assert len(keys) == n ** k


def test_ca1d_wrapped_known_rows():
    m = generate_ca_1d(GridSpec(16, 1, True), ECA)
    assert m.shape == (16, 16)
    assert m.nnz == 48
    assert m.row(0) == {15: 4.0, 0: 2.0, 1: 1.0}
    assert m.row(15) == {14: 4.0, 15: 2.0, 0: 1.0}


def test_ca1d_every_wrapped_row_has_full_stencil():
    m = generate_ca_1d(GridSpec(10, 1, True), ECA)
    for i in range(10):
        assert m.row(i) == {(i - 1) % 10: 4.0, i: 2.0, (i + 1) % 10: 1.0}


def test_ca1d_unwrapped_boundary_rows():
    m = generate_ca_1d(GridSpec(4, 1, False), ECA)
    assert m.row(0) == {0: 2.0, 1: 1.0}
    assert m.row(3) == {2: 4.0, 3: 2.0}
    assert m.row(1) == {0: 4.0, 1: 2.0, 2: 1.0}
    assert m.nnz == 3 * 4 - 2


def test_ca1d_self_only_stencil_is_identity():
    m = generate_ca_1d(GridSpec(3, 1, True), NeighborhoodSpec1D((0.0, 1.0, 0.0), 1))
    assert np.array_equal(m.to_dense(), np.eye(3))


def test_ca1d_stencil_wider_than_grid():
    with pytest.raises(StencilWiderThanGrid):
        generate_ca_1d(GridSpec(2, 1, True), ECA)


def test_ca1d_requires_height_one():
    with pytest.raises(ArgumentTooSmall):
        generate_ca_1d(GridSpec(8, 2, True), ECA)


def test_ca1d_translation_equivariance(rng):
    m = generate_ca_1d(GridSpec(12, 1, True), ECA)
    v = rng.uniform(-1, 1, 12)
    assert np.allclose(m.matvec(np.roll(v, 1)), np.roll(m.matvec(v), 1))


def test_ca1d_row_pattern_shifts_by_one():
    m = generate_ca_1d(GridSpec(9, 1, True), ECA)
    for i in range(9):
        shifted = {(c + 1) % 9: w for c, w in m.row(i).items()}
        assert m.row((i + 1) % 9) == shifted


def test_ca2d_von_neumann_known_rows():
    m = generate_ca_2d(GridSpec(4, 4, True), VON_NEUMANN)
    assert m.shape == (16, 16)
    assert m.nnz == 64
    assert m.row(5) == {1: 1.0, 4: 1.0, 6: 1.0, 9: 1.0}
    assert m.row(0) == {1: 1.0, 3: 1.0, 4: 1.0, 12: 1.0}
    assert oracles.is_symmetric(m)


def test_ca2d_cell_above_stencil():
    # 3x1 stencil with the weight one row above the center cell
    nb = NeighborhoodSpec2D([[0.0], [1.0], [0.0]], (2, 0))
    m = generate_ca_2d(GridSpec(3, 3, True), nb)
    for i in range(9):
        r, c = divmod(i, 3)
        assert m.row(i) == {((r - 1) % 3) * 3 + c: 1.0}


def test_ca2d_unwrapped_corner_has_fewer_inputs():
    m = generate_ca_2d(GridSpec(4, 4, False), VON_NEUMANN)
    assert m.row(0) == {1: 1.0, 4: 1.0}
    assert m.row(5) == {1: 1.0, 4: 1.0, 6: 1.0, 9: 1.0}
    assert m.nnz < 64


def test_ca2d_stencil_wider_than_grid():
    with pytest.raises(StencilWiderThanGrid):
        generate_ca_2d(GridSpec(2, 2, True), VON_NEUMANN)


def test_ca2d_height_one_matches_ca1d():
    nb2 = NeighborhoodSpec2D([[4.0, 2.0, 1.0]], (0, 1))
    m2 = generate_ca_2d(GridSpec(16, 1, True), nb2)
    m1 = generate_ca_1d(GridSpec(16, 1, True), ECA)
    assert np.array_equal(m2.to_dense(), m1.to_dense())


def test_ca2d_row_major_shift_equivariance(rng):
    m = generate_ca_2d(GridSpec(5, 4, True), VON_NEUMANN)
    grid = rng.uniform(-1, 1, (4, 5))
    rolled = np.roll(grid, 1, axis=1).ravel()
    assert np.allclose(m.matvec(rolled), np.roll(m.matvec(grid.ravel()).reshape(4, 5), 1, axis=1).ravel())


def _assert_inputs_equal(inputs, want):
    assert inputs.dtype == np.int64
    assert inputs.shape == want.shape
    assert np.array_equal(inputs, want)


def test_digraph_trivial_empty():
    m, inputs = generate_random_digraph(1, 0, PositionalBase(2), False, 0)
    assert m.shape == (1, 1)
    assert m.nnz == 0
    _assert_inputs_equal(inputs, np.empty((1, 0), dtype=np.int64))


def test_digraph_positional_weights_no_self():
    m, inputs = generate_random_digraph(8, 2, PositionalBase(2), False, 42)
    for i in range(8):
        row = m.row(i)
        assert len(row) == 2
        assert i not in row
        assert sorted(row.values()) == [1.0, 2.0]
        # ordered input list pins which neighbor got which digit
        assert row[inputs[i][0]] == 1.0
        assert row[inputs[i][1]] == 2.0


def test_digraph_uniform_weights_allow_self():
    m, _ = generate_random_digraph(16, 3, UniformWeights(-1.0, 1.0), True, 7)
    assert m.nnz == 48
    vals = [w for _, _, w in m.triplets()]
    assert all(-1.0 <= w < 1.0 for w in vals)


def test_digraph_inputs_distinct_and_in_range():
    _, inputs = generate_random_digraph(10, 4, PositionalBase(2), False, 3)
    for i, ins in enumerate(inputs):
        assert len(set(ins)) == 4
        assert all(0 <= j < 10 and j != i for j in ins)


def test_digraph_deterministic_per_seed():
    a, ia = generate_random_digraph(12, 3, UniformWeights(0, 1), False, 9)
    b, ib = generate_random_digraph(12, 3, UniformWeights(0, 1), False, 9)
    assert np.array_equal(a.to_dense(), b.to_dense())
    _assert_inputs_equal(ia, ib)
    c, _ = generate_random_digraph(12, 3, UniformWeights(0, 1), False, 10)
    assert not np.array_equal(a.to_dense(), c.to_dense())


@pytest.mark.parametrize("n,k,scheme", [
    (50, 3, PositionalBase(2)),  # decoded from the raw stream
    (50, 3, UniformWeights(-1.0, 1.0)),  # drawn node by node
    (6, 0, PositionalBase(2)),
])
def test_digraph_inputs_are_a_read_only_int64_array(n, k, scheme):
    _, inputs = generate_random_digraph(n, k, scheme, False, 1)
    assert inputs.dtype == np.int64 and inputs.shape == (n, k)
    assert not inputs.flags.writeable
    if k:
        with pytest.raises(ValueError):
            inputs[0, 0] = 0


def test_digraph_degree_too_large():
    with pytest.raises(DegreeTooLarge):
        generate_random_digraph(4, 4, PositionalBase(2), False, 0)
    with pytest.raises(DegreeTooLarge):
        generate_random_digraph(4, 5, PositionalBase(2), True, 0)
    # allow_self admits in_degree == n
    m, _ = generate_random_digraph(4, 4, PositionalBase(2), True, 0)
    assert m.nnz == 16


def test_neighborhood_validation():
    with pytest.raises(ArgumentTooSmall):
        NeighborhoodSpec1D((0.0, 0.0), 0)
    with pytest.raises(ArgumentTooSmall):
        NeighborhoodSpec1D((1.0, 1.0), 2)
    with pytest.raises(ArgumentTooSmall):
        NeighborhoodSpec2D([[1.0]], (1, 0))
    with pytest.raises(ArgumentTooSmall):
        GridSpec(0, 1, True)


def test_digraph_exact_draws_match_fixture():
    # single exact-draw regression pin; filename records the parameters
    # (n=8, in_degree=2, positional base 2, no self loops, seed 42)
    import pathlib

    from latflow.sparse import load_matrix_market

    fixture = pathlib.Path(__file__).parent / "data" / "digraph_n8_k2_base2_noself_seed42.mtx"
    m, _ = generate_random_digraph(8, 2, PositionalBase(2), False, 42)
    pinned = load_matrix_market(fixture)
    assert np.array_equal(m.to_dense(), pinned.to_dense())


# -- construction against independent oracles --------------------------------

def _csr_from_rows(inputs, weights):
    """CSR arrays of a matrix whose row i has weights[i] at inputs[i]."""
    order = np.argsort(inputs, axis=1)
    n, k = inputs.shape
    return (
        np.arange(n + 1, dtype=np.int64) * k,
        np.take_along_axis(inputs, order, axis=1).ravel(),
        np.take_along_axis(weights, order, axis=1).ravel(),
    )


def _assert_matches_choice_oracle(n, k, allow_self, seed, scheme=PositionalBase(2), uniform=None):
    m, inputs = generate_random_digraph(n, k, scheme, allow_self, seed)
    want_inputs, want_weights = oracles.choice_digraph(n, k, allow_self, seed, uniform)
    _assert_inputs_equal(inputs, want_inputs)
    indptr, indices, data = _csr_from_rows(want_inputs, want_weights)
    assert m.indptr.tobytes() == indptr.tobytes()
    assert m.indices.tobytes() == indices.tobytes()
    assert m.data.tobytes() == data.tobytes()


DIGRAPH_GRID = [
    (n, k, allow_self, seed)
    for n in (2, 3, 10, 300, 10001, 10002, 100000)
    for k in (0, 1, 2, 3, 5, 10)
    for allow_self in (False, True)
    # three seeds each, one at n=1e5, where the per-node oracle is slow
    for seed in ((11,) if n == 100000 else (0, 1, 2))
    if k <= (n if allow_self else n - 1)
]


@pytest.mark.parametrize("n,k,allow_self,seed", DIGRAPH_GRID)
def test_digraph_matches_per_node_choice(n, k, allow_self, seed):
    _assert_matches_choice_oracle(n, k, allow_self, seed)


def test_digraph_stream_with_lemire_rejection():
    # RBN shape n=1e5, k=2, no self loops: a node's draws are bounded by
    # 99998 and 99999 (Floyd) and 2 (shuffle), one 32-bit word each unless
    # rejected.  Up to the first rejection the words align with those
    # bounds, so an aligned rejection proves the seed's stream has one.
    n, seed = 100000, 0
    spans = np.array([99998, 99999, 2], dtype=np.uint64)
    raw = np.random.default_rng(seed).bit_generator.random_raw(3 * n // 2)
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(n, 3)
    assert ((words * spans & 0xFFFFFFFF) < (2**32 - spans) % spans).any()
    _assert_matches_choice_oracle(n, 2, False, seed)


def test_digraph_tail_shuffle_and_uniform_weights_draw_per_node(monkeypatch):
    def refuse(*args):
        raise AssertionError("decoded from the raw stream")

    monkeypatch.setattr(topology, "_choice_rows", refuse)
    # numpy's tail shuffle: limit 10001 > 10000 and k = 201 > 10001 // 50
    _assert_matches_choice_oracle(10002, 201, False, 4)
    for allow_self in (False, True):
        _assert_matches_choice_oracle(
            300, 3, allow_self, 5, UniformWeights(-1.0, 1.0), (-1.0, 1.0)
        )


def _ca_cases():
    for height, width, weights, center in (
        (1, 16, [[4.0, 2.0, 1.0]], (0, 1)),
        (1, 5, [[0.0, 1.5, 0.0, -2.0, 3.0]], (0, 3)),  # zero weights, as wide as the grid
        (1, 3, [[1.0, 0.0, 2.0]], (0, 0)),
        (4, 5, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], (1, 1)),
        (6, 7, [[1, 1, 1], [1, 9, 1], [1, 1, 1]], (1, 1)),
        (3, 4, [[1.0, 2.0, 0.0, 3.0], [0.0, 5.0, 6.0, 7.0], [8.0, 0.0, 0.5, 1.0]], (2, 3)),
        (2, 2, [[0.25, 0.0], [-1.0, 2.0]], (0, 1)),
    ):
        for wrapped in (True, False):
            yield height, width, np.array(weights, dtype=float), center, wrapped


@pytest.mark.parametrize("height,width,weights,center,wrapped", list(_ca_cases()))
def test_ca_matches_dense_stencil_shift(height, width, weights, center, wrapped):
    want = oracles.stencil_dense(height, width, weights, center, wrapped)
    grid = GridSpec(width, height, wrapped)
    ms = [generate_ca_2d(grid, NeighborhoodSpec2D(weights, center))]
    if height == 1:
        ms.append(generate_ca_1d(grid, NeighborhoodSpec1D(weights[0], center[1])))
    for m in ms:
        assert np.array_equal(m.to_dense(), want)
        # no explicit zeros, and rows stored in column order
        assert m.nnz == np.count_nonzero(want)
        assert all(np.all(np.diff(m.indices[a:b]) > 0) for a, b in zip(m.indptr, m.indptr[1:]))


def _tap_triplets(height, width, weights, center, wrapped):
    """(rows, cols, vals) of a stencil matrix, tap by tap and cell by cell."""
    rows, cols, vals = [], [], []
    for (sr, sc), w in np.ndenumerate(weights):
        for r, c in np.ndindex(height, width):
            tr, tc = r + sr - center[0], c + sc - center[1]
            if wrapped:
                tr, tc = tr % height, tc % width
            if w != 0 and 0 <= tr < height and 0 <= tc < width:
                rows.append(r * width + c)
                cols.append(tr * width + tc)
                vals.append(w)
    return rows, cols, vals


@st.composite
def _lattices(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    sh, sw = draw(st.integers(1, height)), draw(st.integers(1, width))
    weights = draw(arrays(np.float64, (sh, sw), elements=st.sampled_from(
        [0.0, 0.0, 1.0, -1.0, 2.0, -3.0, 9.0, 0.5, -2.25, 200.0])))
    if not weights.any():
        weights[draw(st.integers(0, sh - 1)), draw(st.integers(0, sw - 1))] = 1.0
    center = (draw(st.integers(0, sh - 1)), draw(st.integers(0, sw - 1)))
    return height, width, weights, center, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_lattices())
def test_lattice_csr_matches_the_sorted_triplets_array_for_array(lattice):
    height, width, weights, center, wrapped = lattice
    n = height * width
    want = SparseMatrix.from_coo(n, n, *_tap_triplets(*lattice))
    grid = GridSpec(width, height, wrapped)
    ms = [generate_ca_2d(grid, NeighborhoodSpec2D(weights, center))]
    if height == 1:
        ms.append(generate_ca_1d(grid, NeighborhoodSpec1D(weights[0], center[1])))
    taps = weights[np.nonzero(weights)]
    view = None
    if np.array_equal(taps, np.rint(taps)) and np.abs(taps).sum() * 255 < 2**15:
        dr, dc = (np.nonzero(weights)[axis] - center[axis] for axis in (0, 1))
        view = (height, width, wrapped, dr.astype(np.int32), dc.astype(np.int32),
                taps.astype(np.int16))
    for m in ms:
        assert m.shape == (n, n)
        for name, dtype in (("indptr", np.int64), ("indices", np.int64), ("data", np.float64)):
            got, expected = getattr(m, name), getattr(want, name)
            assert got.dtype == dtype and got.tobytes() == expected.tobytes(), name
            assert got.flags.c_contiguous and not got.flags.writeable, name
        assert (m._stencil is None) == (view is None)
        if view is not None:
            assert m._stencil[:3] == view[:3]
            for got, expected in zip(m._stencil[3:], view[3:]):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_lattice_generators_build_no_coordinate_list(monkeypatch):
    def refuse(*args):
        raise AssertionError("from_coo called")

    monkeypatch.setattr(SparseMatrix, "from_coo", classmethod(refuse))
    # each cell of a 9x7 grid reads the cells of its 3x3 block on the grid
    assert game_of_life(9, 7, True).matrix.nnz == 9 * 7 * 9
    assert game_of_life(9, 7, False).matrix.nnz == (3 * 9 - 2) * (3 * 7 - 2)
    assert elementary_ca(10, 30, True).matrix.nnz == 30
    assert generate_ca_1d(GridSpec(10, 1, False), ECA).nnz == 28
    assert generate_ca_2d(GridSpec(4, 5, False), VON_NEUMANN).nnz == 2 * 4 * 4 + 2 * 3 * 5


@pytest.mark.parametrize("build", [
    lambda: generate_ca_2d(GridSpec(8, 8), NeighborhoodSpec2D([[1.0, np.inf]], (0, 0))),
    lambda: generate_ca_2d(GridSpec(8, 8, False), NeighborhoodSpec2D([[1.0], [-np.inf]], (0, 0))),
    lambda: generate_ca_1d(GridSpec(8), NeighborhoodSpec1D((1.0, np.nan, 1.0), 1)),
], ids=["inf", "-inf unwrapped", "nan 1d"])
def test_a_non_finite_stencil_weight_raises(build):
    with pytest.raises(NonFiniteWeight, match="non-finite weight"):
        build()


# sizes that numpy refuses to size (more than 2**63 bytes, or cells past
# int64) or that no address space holds (2**58 bytes and more): nothing is
# allocated, under any overcommit policy
@pytest.mark.parametrize("build", [
    lambda: generate_ca_1d(GridSpec(2**62), ECA),
    lambda: generate_ca_1d(GridSpec(2**54, 1, False), ECA),
    lambda: game_of_life(2**26, 2**26),
    lambda: generate_ca_2d(GridSpec(2**40, 2**40, False), VON_NEUMANN),
], ids=["numpy refuses", "beyond the address space", "life", "cells past int64"])
def test_a_grid_too_large_to_build_raises(build):
    with pytest.raises(IndexOutOfBounds, match="no memory for the"):
        build()
