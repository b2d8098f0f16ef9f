import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_symmetric
from latflow.errors import (
    DimensionMismatch,
    DuplicateEntry,
    FileFormatError,
    IndexOutOfBounds,
    NonFiniteWeight,
    NotSquare,
)
from latflow.sparse import (
    SparseMatrix,
    load_matrix_market,
    power_iteration,
    save_matrix_market,
    spectral_radius,
)
from latflow.systems import random_sparse_uniform
from latflow.topology import (
    GridSpec,
    NeighborhoodSpec1D,
    NeighborhoodSpec2D,
    PositionalBase,
    generate_ca_1d,
    generate_ca_2d,
    generate_random_digraph,
)


def random_triplets(rng, n_rows, n_cols, nnz):
    flat = rng.choice(n_rows * n_cols, size=nnz, replace=False)
    vals = rng.uniform(-2.0, 2.0, size=nnz)
    return [(int(f) // n_cols, int(f) % n_cols, v) for f, v in zip(flat, vals)]


def test_empty_matrix_is_all_zeros():
    m = SparseMatrix.from_triplets(2, 2, [])
    assert np.array_equal(m.to_dense(), np.zeros((2, 2)))
    assert m.nnz == 0


def test_identity_triplets():
    m = SparseMatrix.from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
    assert np.array_equal(m.to_dense(), np.eye(3))


def test_triplet_order_does_not_matter(rng):
    trips = random_triplets(rng, 6, 7, 12)
    a = SparseMatrix.from_triplets(6, 7, trips)
    shuffled = [trips[i] for i in rng.permutation(len(trips))]
    b = SparseMatrix.from_triplets(6, 7, shuffled)
    assert np.array_equal(a.to_dense(), b.to_dense())


def test_finalization_preserves_triplet_multiset(rng):
    trips = random_triplets(rng, 5, 5, 10)
    m = SparseMatrix.from_triplets(5, 5, trips)
    assert sorted(m.triplets()) == sorted(trips)


def test_duplicate_entry_rejected():
    with pytest.raises(DuplicateEntry):
        SparseMatrix.from_triplets(2, 2, [(0, 1, 1.0), (0, 1, 2.0)])


def test_out_of_bounds_rejected():
    with pytest.raises(IndexOutOfBounds):
        SparseMatrix.from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(IndexOutOfBounds):
        SparseMatrix.from_triplets(2, 2, [(0, -1, 1.0)])


def test_non_finite_weight_rejected():
    with pytest.raises(NonFiniteWeight):
        SparseMatrix.from_triplets(2, 2, [(0, 0, float("nan"))])
    with pytest.raises(NonFiniteWeight):
        SparseMatrix.from_triplets(2, 2, [(0, 0, float("inf"))])


def test_from_dense_round_trip(rng):
    dense = rng.uniform(-1, 1, (4, 6))
    dense[dense < 0.3] = 0.0
    m = SparseMatrix.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)


def test_matvec_matches_dense(rng):
    for _ in range(20):
        n_rows = int(rng.integers(1, 30))
        n_cols = int(rng.integers(1, 30))
        nnz = int(rng.integers(0, n_rows * n_cols + 1))
        m = SparseMatrix.from_triplets(n_rows, n_cols, random_triplets(rng, n_rows, n_cols, nnz))
        v = rng.uniform(-1, 1, n_cols)
        assert np.max(np.abs(m.matvec(v) - m.to_dense() @ v), initial=0.0) < 1e-12


def test_matvec_handles_empty_rows():
    m = SparseMatrix.from_triplets(4, 4, [(1, 2, 3.0)])
    out = m.matvec(np.array([1.0, 1.0, 2.0, 1.0]))
    assert np.array_equal(out, [0.0, 6.0, 0.0, 0.0])


def test_matvec_dimension_mismatch():
    m = SparseMatrix.from_triplets(3, 4, [(0, 0, 1.0)])
    with pytest.raises(DimensionMismatch):
        m.matvec(np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
)
def test_matvec_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    m = SparseMatrix.from_triplets(8, 8, random_triplets(rng, 8, 8, 16))
    u = rng.uniform(-1, 1, 8)
    v = rng.uniform(-1, 1, 8)
    lhs = m.matvec(a * u + b * v)
    rhs = a * m.matvec(u) + b * m.matvec(v)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_scaled_and_transpose(rng):
    m = SparseMatrix.from_triplets(5, 5, random_triplets(rng, 5, 5, 8))
    assert np.allclose(m.scaled(2.5).to_dense(), 2.5 * m.to_dense())
    assert np.array_equal(m.transpose().to_dense(), m.to_dense().T)


def test_is_symmetric():
    assert is_symmetric(SparseMatrix.from_triplets(3, 3, [(i, i, 1.0) for i in range(3)]))
    asym = SparseMatrix.from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 4.0)])
    assert not is_symmetric(asym)
    with pytest.raises(NotSquare):
        is_symmetric(SparseMatrix.from_triplets(2, 3, []))


def test_power_iteration_identity():
    m = SparseMatrix.from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    res = power_iteration(m, max_iters=100, tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_diagonal():
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 0.5)])
    res = power_iteration(m, max_iters=1000, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_power_iteration_swap_matrix():
    # eigenvalues +1 and -1; the all-ones start is itself the +1 eigenvector
    m = SparseMatrix.from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)])
    res = power_iteration(m, max_iters=100, tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_zero_matrix():
    m = SparseMatrix.from_triplets(3, 3, [])
    res = power_iteration(m, max_iters=10, tol=1e-10)
    assert res.value == 0.0


def test_power_iteration_restarts_on_orthogonal_start():
    # all-ones start is orthogonal to the dominant direction (+1, -1)
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, 3.0), (0, 1, -3.0), (1, 0, -3.0), (1, 1, 3.0)])
    res = power_iteration(m, max_iters=500, tol=1e-12)
    assert res.value == pytest.approx(6.0, abs=1e-8)


def test_spectral_radius_not_square():
    with pytest.raises(NotSquare):
        spectral_radius(SparseMatrix.from_triplets(2, 3, []))


def test_spectral_radius_homogeneity(rng):
    m = SparseMatrix.from_triplets(12, 12, random_triplets(rng, 12, 12, 30))
    base = spectral_radius(m, max_iters=1000, tol=1e-10)
    for c in (2.0, -0.5, 7.25):
        assert spectral_radius(m.scaled(c), max_iters=1000, tol=1e-10) == pytest.approx(
            abs(c) * base, abs=1e-8, rel=1e-8
        )


def test_matrix_market_round_trip(tmp_path, rng):
    m = SparseMatrix.from_triplets(9, 5, random_triplets(rng, 9, 5, 11))
    path = tmp_path / "m.mtx"
    save_matrix_market(path, m)
    m2 = load_matrix_market(path)
    assert m2.shape == (9, 5)
    assert np.array_equal(m2.to_dense(), m.to_dense())


def test_matrix_market_write_is_byte_stable(tmp_path, rng):
    m = SparseMatrix.from_triplets(6, 6, random_triplets(rng, 6, 6, 9))
    p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
    save_matrix_market(p1, m)
    save_matrix_market(p2, load_matrix_market(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_market_writer_sorted_one_based(tmp_path):
    m = SparseMatrix.from_triplets(3, 3, [(2, 0, 1.5), (0, 1, -2.0)])
    path = tmp_path / "m.mtx"
    save_matrix_market(path, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "3 3 2"
    assert lines[2] == "1 2 -2.0"
    assert lines[3] == "3 1 1.5"


def test_matrix_market_reader_accepts_any_order(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "2 2 2\n"
        "2 2 4.0\n"
        "1 1 3.0\n"
    )
    path = tmp_path / "m.mtx"
    path.write_text(text)
    m = load_matrix_market(path)
    assert np.array_equal(m.to_dense(), [[3.0, 0.0], [0.0, 4.0]])


def test_matrix_market_reader_accepts_integer_field(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"
    )
    assert load_matrix_market(path).to_dense()[0, 0] == 7.0


def test_matrix_market_bad_header(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
    with pytest.raises(FileFormatError):
        load_matrix_market(path)


def test_matrix_market_truncated_body(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
    with pytest.raises(FileFormatError):
        load_matrix_market(path)


def _outcome(build):
    try:
        m = build()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return m.shape, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-2, 4),
    st.integers(-2, 4),
    st.lists(
        st.tuples(
            st.integers(-1, 4),
            st.integers(-1, 4),
            st.sampled_from([1.0, -2.5, 0.0, float("nan"), float("inf"), -float("inf")]),
        ),
        max_size=8,
    ),
)
def test_from_coo_and_from_triplets_agree(n_rows, n_cols, triplets):
    rows, cols, vals = (
        np.array([t[i] for t in triplets], dtype=dtype)
        for i, dtype in enumerate((np.int64, np.int64, np.float64))
    )
    coo = _outcome(lambda: SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals))
    assert coo == _outcome(lambda: SparseMatrix.from_triplets(n_rows, n_cols, triplets))


def test_from_coo_rejects_arrays_of_unequal_length():
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_coo(2, 2, [0, 1], [0], [1.0, 2.0])


@pytest.mark.parametrize("c", [float("nan"), 1e308, -1e308, float("inf")])
def test_scaled_refuses_a_non_finite_product(c):
    m = SparseMatrix.from_triplets(3, 3, [(0, 0, 1.0), (1, 2, 10.0), (2, 1, 0.5)])
    with pytest.raises(NonFiniteWeight, match=r"at \((0, 0|1, 2)\)"):
        m.scaled(c)
    assert np.array_equal(m.scaled(1e307).data, [1e307, 1e308, 5e306])


@pytest.mark.parametrize("rows, cols", [([1.5], [0]), ([1], [0.25]), ([float("nan")], [0])])
def test_from_coo_refuses_a_coordinate_that_is_not_an_integer(rows, cols):
    with pytest.raises(IndexOutOfBounds, match="is not an integer"):
        SparseMatrix.from_coo(3, 3, rows, cols, [1.0])
    with pytest.raises(IndexOutOfBounds, match="is not an integer"):
        SparseMatrix.from_triplets(3, 3, [(rows[0], cols[0], 1.0)])
    # integral floats are coordinates, as before
    assert SparseMatrix.from_coo(3, 3, [1.0], [2.0], [4.0]).triplets() == [(1, 2, 4.0)]


@pytest.mark.parametrize("triplets", [[(1, 2)], [(0, 0, 1.0), (1, 1, 1.0, 2)], [3]])
def test_from_triplets_refuses_a_triplet_of_other_than_three_entries(triplets):
    with pytest.raises(DimensionMismatch, match="every triplet"):
        SparseMatrix.from_triplets(3, 3, triplets)


def test_values_that_are_not_numbers_raise_latflow_errors():
    with pytest.raises(NonFiniteWeight, match="not a number"):
        SparseMatrix.from_coo(3, 3, [1], [0], ["x"])
    with pytest.raises(NonFiniteWeight):  # None converts to nan
        SparseMatrix.from_triplets(3, 3, [(1, 0, None)])
    with pytest.raises(NonFiniteWeight, match="not a number"):
        SparseMatrix.from_dense([["x"]])
    with pytest.raises(IndexOutOfBounds, match="not a number"):
        SparseMatrix.from_coo(3, 3, ["x"], [0], [1.0])


def test_from_dense_keeps_entry_values_and_order(rng):
    dense = rng.uniform(-1, 1, (5, 7)) * (rng.uniform(size=(5, 7)) < 0.4)
    m = SparseMatrix.from_dense(dense)
    rows, cols = np.nonzero(dense)
    assert np.array_equal(m.indices, cols)
    assert m.data.tobytes() == dense[rows, cols].tobytes()
    assert np.array_equal(np.diff(m.indptr), np.count_nonzero(dense, axis=1))


def test_matrix_market_huge_declared_shape_refused_before_allocating(tmp_path):
    # 3e9 rows would need a 22.4 GiB row-pointer array
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3000000000 3000000000 0\n")
    with pytest.raises(FileFormatError, match="row pointers"):
        load_matrix_market(path)


MM_HEAD = "%%MatrixMarket matrix coordinate real general\n"


def test_matrix_market_write_matches_per_entry_formatting(tmp_path, rng):
    # repeated, signed-zero and full-precision weights, each formatted alone
    vals = np.concatenate([rng.uniform(-1, 1, 30), [0.0, -0.0, 1.0, 1.0, -0.0, 1e-300, 0.1]])
    flat = rng.choice(40 * 40, size=len(vals), replace=False)
    m = SparseMatrix.from_coo(40, 40, flat // 40, flat % 40, vals)
    path = tmp_path / "m.mtx"
    save_matrix_market(path, m)
    expect = MM_HEAD + f"{m.n_rows} {m.n_cols} {m.nnz}\n" + "".join(
        f"{r + 1} {c + 1} {w!r}\n" for r, c, w in m.triplets()
    )
    assert path.read_text() == expect


@pytest.mark.parametrize(
    "line, error",
    [
        ("99999999999999999999 1 1.0", FileFormatError),
        # fits int64, but its 0-based index wraps to the largest int64
        ("1 -9223372036854775808 1.0", IndexOutOfBounds),
    ],
)
def test_matrix_market_index_outside_int64_is_refused(tmp_path, line, error):
    path = tmp_path / "m.mtx"
    path.write_text(MM_HEAD + f"2 2 1\n{line}\n")
    with pytest.raises(error):
        load_matrix_market(path)


def test_matrix_market_percent_after_an_entry_starts_a_comment(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(MM_HEAD + "2 2 2\n1 2 3.5 % first\n2 1 -1%second\n")
    assert np.array_equal(load_matrix_market(path).to_dense(), [[0.0, 3.5], [-1.0, 0.0]])


@pytest.mark.parametrize("entry", ["1 1", "1 1 1 1", "1.0 1 1", "1 1 x", "1 1 1,", "1_0 1 1"])
def test_matrix_market_bad_entry_is_a_format_error(tmp_path, entry):
    path = tmp_path / "m.mtx"
    path.write_text(MM_HEAD + f"20 20 2\n1 1 1\n{entry}\n")
    with pytest.raises(FileFormatError):
        load_matrix_market(path)


def test_matrix_market_without_entries(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(MM_HEAD + "3 4 0\n% nothing\n\n")
    assert load_matrix_market(path).shape == (3, 4)
    path.write_text(MM_HEAD + "3 4 1\n")
    with pytest.raises(FileFormatError, match="expected 1 entries, found 0"):
        load_matrix_market(path)


def test_matrix_market_non_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(MM_HEAD.encode() + b"1 1 1\n1 1 \xff\n")
    with pytest.raises(FileFormatError, match="UTF-8"):
        load_matrix_market(path)


def test_row_outside_the_matrix_is_refused():
    m = SparseMatrix.from_dense(np.eye(3))
    assert m.row(2) == {2: 1.0}
    for i in (3, -1, 10**20):
        with pytest.raises(IndexOutOfBounds, match=f"row {i} outside 3 rows"):
            m.row(i)


@pytest.mark.parametrize("array", [np.zeros(3), np.zeros((2, 2, 2)), 5.0])
def test_from_dense_of_a_non_2d_array_is_refused(array):
    with pytest.raises(DimensionMismatch, match="not 2-D"):
        SparseMatrix.from_dense(array)


def _loaded_from_matrix_market(tmp_path):
    path = tmp_path / "m.mtx"
    save_matrix_market(path, SparseMatrix.from_dense(np.eye(4)))
    return load_matrix_market(path)


BUILDERS = {
    "from_coo": lambda _: SparseMatrix.from_coo(2, 3, [0, 1], [2, 0], [1.0, -1.0]),
    "from_dense": lambda _: SparseMatrix.from_dense(np.eye(3)),
    "generate_ca_1d": lambda _: generate_ca_1d(GridSpec(9), NeighborhoodSpec1D((4, 2, 1), 1)),
    "generate_ca_2d": lambda _: generate_ca_2d(
        GridSpec(5, 4, False), NeighborhoodSpec2D(np.ones((3, 3)), (1, 1))),
    "generate_random_digraph": lambda _: generate_random_digraph(
        30, 2, PositionalBase(), False, 1)[0],
    "load_matrix_market": _loaded_from_matrix_market,
    "scaled": lambda _: SparseMatrix.from_dense(np.eye(3)).scaled(2.0),
    "transpose": lambda _: SparseMatrix.from_coo(2, 3, [0, 1], [2, 0], [1.0, -1.0]).transpose(),
    "random_sparse_uniform": lambda _: random_sparse_uniform(20, 0.1, 4),
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_matrix_arrays_are_read_only(tmp_path, builder):
    m = BUILDERS[builder](tmp_path)
    for array in (m.indptr, m.indices, m.data):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0
