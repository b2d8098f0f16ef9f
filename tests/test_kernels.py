import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import oracles
from latflow import backend
from latflow.errors import DimensionMismatch, KeyOutOfTable, LatflowError, NonIntegerKey
from latflow.rules import (
    TableRule,
    apply_rule,
    elementary_rule,
    game_of_life_rule,
    random_boolean_tables,
)
from latflow.sparse import SparseMatrix, load_matrix_market, save_matrix_market
from latflow.systems import MOORE_COUNT_SELF, elementary_ca, game_of_life
from latflow.topology import GridSpec, NeighborhoodSpec2D, generate_ca_2d


def make_csr(rng, n, nnz):
    flat = rng.choice(n * n, size=nnz, replace=False)
    trips = [(int(f) // n, int(f) % n, v)
             for f, v in zip(flat, rng.uniform(-1, 1, nnz))]
    return SparseMatrix.from_triplets(n, n, trips)


def test_python_kernel_matches_dense(rng):
    m = make_csr(rng, 40, 200)
    v = rng.uniform(-1, 1, 40)
    out = backend.csr_matvec_python(m.data, m.indices, m.indptr, v)
    assert np.max(np.abs(out - m.to_dense() @ v)) < 1e-12


def test_backends_agree_exactly(rng):
    if not backend.compiled_available():
        pytest.skip("compiled kernel not built")
    for _ in range(10):
        n = int(rng.integers(2, 60))
        nnz = int(rng.integers(0, n * n))
        m = make_csr(rng, n, nnz)
        v = rng.uniform(-10, 10, n)
        py = backend.csr_matvec_python(m.data, m.indices, m.indptr, v)
        cy = backend.csr_matvec_compiled(m.data, m.indices, m.indptr, v)
        assert py.tobytes() == cy.tobytes()


def _float_csr(rng, n, ragged):
    """Raw float CSR arrays and an x whose first rows are the edge cases of
    summing in order: a lone -0.0 product, products all -0.0, a pair that
    cancels, and 1, 1e16, -1e16, whose sum in order is 0 (padded to three
    entries with 0.0 * -0.0 unless ``ragged``); then n random rows, empty
    ones among them when ``ragged``."""
    special = [([-1.0], [0]), ([-1.0, 2.0], [0, 2]), ([3.0, -3.0], [1, 1]),
               ([1.0, 1e16, -1e16], [1, 1, 1])]
    width = 3
    if not ragged:
        special = [(d + [0.0] * (width - len(d)), c + [2] * (width - len(c)))
                   for d, c in special]
    lengths = (rng.choice([0, 1, 2, 5, 8, 9, 17, 40], size=n) if ragged
               else np.full(n, width))
    n_cols = max(n, 3)
    data = [np.array(d, dtype=float) for d, _ in special]
    cols = [np.array(c) for _, c in special]
    for length in lengths:
        data.append(rng.uniform(-1, 1, length) * 10.0 ** rng.integers(-8, 9, length))
        cols.append(rng.integers(0, n_cols, length))
    indptr = np.concatenate([[0], np.cumsum([len(d) for d in data])]).astype(np.int64)
    x = rng.uniform(-10, 10, n_cols)
    x[:3] = 0.0, 1.0, -0.0
    return np.concatenate(data), np.concatenate(cols).astype(np.int64), indptr, x


def _sequential_rows(data, indices, indptr, x):
    out = []
    for i in range(len(indptr) - 1):
        acc = 0.0  # a Python float rounds after every multiply and add
        for j in range(indptr[i], indptr[i + 1]):
            acc += float(data[j]) * float(x[indices[j]])
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("ragged", [True, False])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_fallback_matvec_sums_each_row_in_order(rng, n, ragged):
    args = _float_csr(rng, n, ragged)
    want = _sequential_rows(*args)
    assert not np.signbit(want[:4]).any() and not want[:4].any()
    assert backend.csr_matvec_python(*args).tobytes() == want.tobytes()
    if backend.compiled_available():
        assert backend.csr_matvec_compiled(*args).tobytes() == want.tobytes()


def test_compiled_matvec_sums_each_row_in_order(rng):
    if not backend.compiled_available():
        pytest.skip("compiled kernel not built")
    for _ in range(20):
        n = int(rng.integers(2, 60))
        m = make_csr(rng, n, int(rng.integers(0, n * n)))
        v = rng.uniform(-10, 10, n)
        want = []
        for i in range(n):
            acc = 0.0  # a Python float rounds after every multiply and add
            for j in range(m.indptr[i], m.indptr[i + 1]):
                acc += float(m.data[j]) * float(v[m.indices[j]])
            want.append(acc)
        got = backend.csr_matvec_compiled(m.data, m.indices, m.indptr, v)
        assert got.tobytes() == np.array(want).tobytes()


def test_matvec_takes_a_strided_vector_on_both_backends(monkeypatch, rng):
    m = make_csr(rng, 8, 20)
    columns = rng.uniform(-1, 1, (8, 3))
    expected = m.to_dense() @ columns[:, 1]
    for name in ("python", "c") if backend.compiled_available() else ("python",):
        monkeypatch.setattr(backend, "BACKEND", name)
        assert np.allclose(m.matvec(columns[:, 1]), expected, rtol=0, atol=1e-12)


def test_kernel_handles_leading_and_trailing_empty_rows():
    m = SparseMatrix.from_triplets(5, 5, [(2, 1, 2.0), (2, 3, -1.0)])
    v = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    assert np.array_equal(m.matvec(v), [0.0, 0.0, -8.0, 0.0, 0.0])


def test_a_build_of_another_kernel_version_counts_as_absent(monkeypatch):
    # a build of older source has csr_matvec_u8 with the row width argument
    # that version 8 dropped
    stale = types.ModuleType("latflow._ckernels")
    stale.csr_matvec_u8 = lambda data, indices, indptr, x, out, width: None
    monkeypatch.setitem(sys.modules, "latflow._ckernels", stale)
    assert backend._import_compiled() is None
    # builds of version 3 exist with another interface, so the stencil
    # kernels came with version 4, builds of 4 lack the fused lattice
    # kernel of version 5, builds of 5 the fused network kernel of 6,
    # builds of 6 write float64 history rows where 7 writes bytes, and
    # builds of 7 take a row width in csr_matvec_u8, which 8 is not passed,
    # and builds of 8 lack the text kernels of 9, whose Matrix Market
    # scanner declines comment lines that 10 reads
    for version in (2, 3, 4, 5, 6, 7, 8, 9):
        stale.VERSION = version
        assert backend._import_compiled() is None
    stale.VERSION = 10
    assert backend._import_compiled() is stale
    if backend.compiled_available():
        monkeypatch.delitem(sys.modules, "latflow._ckernels")
        assert backend._import_compiled().VERSION == backend._KERNELS_VERSION


def test_env_override_forces_python_backend():
    code = (
        "import latflow.backend as b; "
        "print(b.BACKEND)"
    )
    env = dict(os.environ, LATFLOW_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "python"


def test_active_backend_reported():
    assert backend.BACKEND in ("c", "python")
    if backend.BACKEND == "c":
        assert backend.compiled_available()


# -- the table lookup, the same numpy code on both backends ----------------

needs_compiled = pytest.mark.skipif(
    not backend.compiled_available(), reason="compiled kernel not built"
)
BACKENDS = ("python", "c") if backend.compiled_available() else ("python",)


def outcome(rule, pre, dtype=np.float64):
    """The output's dtype and bytes, or the class and message of the error,
    for preactivations of the given dtype."""
    try:
        out = apply_rule(rule, np.asarray(pre, dtype=dtype))
    except LatflowError as exc:
        return type(exc), str(exc)
    return out.dtype, out.tobytes()


JUST_PAST = float(np.nextafter(1e-6, 1.0))
LIFE = game_of_life_rule()
RBN = random_boolean_tables(3, 2, seed=1)
HOLED = TableRule([0, -1, 1], center_weight=9)
RAGGED = TableRule([[0, 1, -1, -1], [1, 0, 0, 1]])
LOOKUP_CASES = [
    ("pattern non-integer", elementary_rule(110), [3.0, 1.5, 0.5], NonIntegerKey),
    ("pattern +1e-6", elementary_rule(110), [3.0, 1e-6], None),
    ("pattern -1e-6", elementary_rule(110), [3.0, -1e-6], None),
    ("pattern past +1e-6", elementary_rule(110), [3.0, JUST_PAST], NonIntegerKey),
    ("pattern past -1e-6", elementary_rule(110), [3.0, -JUST_PAST], NonIntegerKey),
    ("pattern below", elementary_rule(110), [3.0, -1.0, 9.0], KeyOutOfTable),
    ("pattern above", elementary_rule(110), [3.0, 8.0], KeyOutOfTable),
    ("pattern nan", elementary_rule(110), [3.0, np.nan], LatflowError),
    ("pattern inf", elementary_rule(110), [3.0, np.inf], LatflowError),
    ("count non-integer", LIFE, [3.0, 2.5], NonIntegerKey),
    ("count past +1e-6", LIFE, [3.0, 9.0 + 2e-6], NonIntegerKey),
    ("count below", LIFE, [3.0, -1.0], KeyOutOfTable),
    ("count above", LIFE, [3.0, 18.0], KeyOutOfTable),
    ("count hole", HOLED, [2.0, 1.0], KeyOutOfTable),
    ("count hole unreached", HOLED, [2.0, 0.0], None),
    ("pernode ragged", RAGGED, [1.0, 3.0], None),
    ("pernode ragged padding", RAGGED, [2.0, 3.0], KeyOutOfTable),
    ("pernode non-integer", RBN, [0.0, 1.5, 0.0], NonIntegerKey),
    ("pernode below", RBN, [0.0, -1.0, 0.0], KeyOutOfTable),
    ("pernode above", RBN, [0.0, 4.0, 0.0], KeyOutOfTable),
    ("pernode too few", RBN, [0.0, 1.0], DimensionMismatch),
    ("pernode too few, non-integer", RBN, [0.0, 1.5], NonIntegerKey),
]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize(
    "rule, pre, expected", [c[1:] for c in LOOKUP_CASES], ids=[c[0] for c in LOOKUP_CASES]
)
def test_lookup_cases_on_both_backends(monkeypatch, rule, pre, expected):
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        got = outcome(rule, pre)
        if expected is None:
            assert got[0] == np.uint8
        else:
            assert issubclass(got[0], expected)
        if np.all(np.isfinite(pre)) and np.array_equal(pre, np.rint(pre)):
            # integer keys give int32 preactivations the same outcome
            assert outcome(rule, pre, np.int32) == got

# the first key outside the table is named, or, when every key lies inside
# it, the first on a hole
KEY_MESSAGES = [
    (elementary_rule(110), [3.0, -1.0, 9.0], "key -1 at index 1"),
    (RBN, [0.0, 4.0, 0.0], "key 4 at index 1"),
    (HOLED, [2.0, 1.0], "key 1 at index 1"),
    (HOLED, [1.0, 5.0], "key 5 at index 1"),
    (RAGGED, [2.0, 3.0], "key 2 at index 0"),
    (RAGGED, [1.0, 4.0], "key 4 at index 1"),
]


@pytest.mark.parametrize("rule, pre, message", KEY_MESSAGES)
def test_a_key_out_of_the_table_is_named_on_both_backends(monkeypatch, rule, pre, message):
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        for dtype in (np.float64, np.int32):
            assert outcome(rule, pre, dtype) == (KeyOutOfTable, f"{message} is not in the table")


def random_table_rule(rng):
    """A random table rule and the same rule as dicts {key: next state}:
    a 1-D counting table from a nonzero key with holes, or a 2-D table of
    ragged rows padded with -1."""
    n_states = int(rng.integers(2, 6))
    if rng.random() < 0.5:
        lo, width = int(rng.integers(-20, 21)), int(rng.integers(1, 30))
        table = np.where(rng.random(width) < 0.3, -1, rng.integers(0, n_states, width))
        entries = {lo + j: int(v) for j, v in enumerate(table) if v >= 0}
        return TableRule(table, n_states, lo, center_weight=3), entries, lo, width, False
    # a row of length 0 is all padding: no key of its node has an entry
    lengths = rng.integers(0 if rng.random() < 0.3 else 1, 9, int(rng.integers(1, 20)))
    rows = [rng.integers(0, n_states, m) for m in lengths]
    table = [list(row) + [-1] * (max(lengths) - len(row)) for row in rows]
    entries = [dict(enumerate(int(v) for v in row)) for row in rows]
    return TableRule(table, n_states), entries, 0, max(lengths), True


@pytest.mark.parametrize("seed", range(40))
def test_table_lookup_matches_dict_oracle_on_both_backends(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    rule, entries, lo, width, per_node = random_table_rule(rng)
    for trial in range(25):
        # per-node: one preactivation short of the node count now and then
        cells = len(entries) - (trial % 8 == 7) if per_node else int(rng.integers(0, 40))
        pre = rng.integers(lo - 2, lo + width + 2, cells).astype(np.float64)
        if trial % 2:  # keys that have entries, so most lookups succeed
            tables = entries[:cells] if per_node else [entries] * cells
            pre = np.array([rng.choice(list(t)) if t else lo for t in tables], dtype=np.float64)
        pre += rng.uniform(-9e-7, 9e-7, cells)
        if trial % 5 == 4 and cells:
            pre[int(rng.integers(cells))] += 0.5
        for dtype in (np.float64, np.int32):
            keys = pre if dtype == np.float64 else np.rint(pre)
            assert_oracle_outcome(monkeypatch, rule, entries, keys, dtype, per_node)


def assert_oracle_outcome(monkeypatch, rule, entries, keys, dtype=np.int32, per_node=False):
    """apply_rule gives the dict oracle's next states, or its error, on
    every backend."""
    want = oracles.table_lookup(entries, keys, per_node)
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        got = outcome(rule, keys, dtype)
        if isinstance(want, str):
            assert got[0].__name__ == want, name
        else:
            assert got == (np.uint8, bytes(int(v) for v in want)), name


INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
# a key of each count is moved to a miss at the first key, inside a block
# of 16 keys and in the keys after the last full block
MISS_AT = {17: (0, 7, 16), 33: (0, 20, 32), 1000: (0, 500, 999)}


def misses(lo, width, key):
    """Keys that may miss a table of the given width from lo: just outside
    it, both ends of int32, and the key moved by multiples of 2**8 and
    2**16, which a truncating pack to bytes would bring back."""
    return [lo - 1, lo + width, INT32_MIN, INT32_MAX] + [
        key + d for d in (2**8, -(2**8), 2**16, -(2**16), 3 * 2**16)]


@pytest.mark.parametrize("width", range(1, 34))
def test_count_table_lookup_at_every_width_matches_the_dict_oracle(monkeypatch, width):
    # 1-D tables of 1 to 33 entries whose keys are int32 from lo to
    # lo + width - 1, each key's place in the table taken in int64; the
    # last two starts put a key past INT32_MAX and wrap modulo 2**32
    rng = np.random.default_rng(width)
    values = rng.integers(0, 3, width)
    holed = values.copy()
    holes = [h for h in (0, 15, 16, width - 1) if h < width]
    holed[holes] = -1
    for lo in (INT32_MIN, -5, 0, 2**31 - width, 2**31 - width + 1, 2**32):
        for table in (values, holed):
            rule = TableRule(table, 3, lo, center_weight=1)
            entries = {lo + j: int(v) for j, v in enumerate(table) if v >= 0}
            # keys with entries or, when no such key is int32, the int32
            # keys equal to the table's modulo 2**32
            found = [k for k in entries if INT32_MIN <= k <= INT32_MAX] or [
                (k + 2**31) % 2**32 - 2**31 for k in range(lo, lo + width)]
            for count in (0, 1, 15, 16, 17, 31, 33, 1000):
                keys = [int(k) for k in rng.choice(found, count)]
                assert_oracle_outcome(monkeypatch, rule, entries, keys)
                for at in MISS_AT.get(count, ()):
                    # on the holed table, a key on each hole
                    bad = misses(lo, width, keys[at]) if table is values else [
                        lo + h for h in holes]
                    for miss in (k for k in bad if INT32_MIN <= k <= INT32_MAX):
                        keys_with_miss = keys[:at] + [miss] + keys[at + 1:]
                        assert_oracle_outcome(monkeypatch, rule, entries, keys_with_miss)


@needs_compiled
def test_compiled_wrappers_reject_wrong_buffers(monkeypatch, rng):
    monkeypatch.setattr(backend, "BACKEND", "c")
    m = make_csr(rng, 6, 10)
    v = rng.uniform(-1, 1, 12)
    with pytest.raises(ValueError):
        backend.csr_matvec_compiled(m.data.astype(np.float32), m.indices, m.indptr, v[:6])
    with pytest.raises(ValueError):
        backend.csr_matvec_compiled(m.data, m.indices, m.indptr, v[::2])  # strided
    with pytest.raises(ValueError):
        backend.csr_matvec_compiled(m.data[:-1], m.indices[:-1], m.indptr, v[:6])
    d32, i32 = m.data.astype(np.int32), m.indices.astype(np.int32)
    x8 = np.zeros(12, dtype=np.uint8)
    with pytest.raises(ValueError):
        backend._csr_matvec_u8(m.data, i32, m.indptr, x8[:6])  # float64 weights
    with pytest.raises(ValueError):
        backend._csr_matvec_u8(d32, m.indices, m.indptr, x8[:6])  # int64 indices
    with pytest.raises(ValueError):
        backend._csr_matvec_u8(d32, i32, m.indptr, x8[::2])  # strided
    with pytest.raises(ValueError):
        backend._csr_matvec_u8(d32[:-1], i32[:-1], m.indptr, x8[:6])


@needs_compiled
def test_compiled_wrappers_reject_a_column_outside_x(monkeypatch):
    # the C loops would read past x: 999 and 500 against an x of length 2
    monkeypatch.setattr(backend, "BACKEND", "c")
    m = SparseMatrix.from_coo(2, 1000, [0, 1], [999, 500], [1.0, 1.0])
    with pytest.raises(ValueError, match="column index"):
        backend.csr_matvec_compiled(m.data, m.indices, m.indptr, np.ones(2))


@pytest.mark.parametrize("column", [-1, 2])
def test_public_matvec_wrappers_check_columns_on_both_backends(column):
    indptr = np.array([0, 1], dtype=np.int64)
    wrappers = [backend.csr_matvec_python]
    if backend.compiled_available():
        wrappers.append(backend.csr_matvec_compiled)
    for wrapper in wrappers:
        with pytest.raises(ValueError, match="column index"):
            wrapper(np.ones(1), np.array([column]), indptr, np.ones(2))


# -- the integer matvec over row pointers ------------------------------------


def rows_of_lengths(rng, lengths, n_cols=40):
    """A matrix whose row i holds lengths[i] entries in distinct random
    columns, with integer weights in [-99, 99]."""
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.concatenate(
        [rng.choice(n_cols, k, replace=False) for k in lengths] + [np.zeros(0, np.int64)])
    vals = rng.integers(-99, 100, len(rows))
    return SparseMatrix.from_coo(len(lengths), n_cols, rows, cols, vals)


def compiled_u8_calls(monkeypatch):
    """The list that gets one entry per call of the compiled integer kernel."""
    real, calls = backend._ckernels.csr_matvec_u8, []
    monkeypatch.setattr(backend._ckernels, "csr_matvec_u8",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def u8_products_agree(monkeypatch, m, x):
    """SparseMatrix.matvec gives the float product exactly, on every
    backend; returns the matrix's row width."""
    want = m.to_dense() @ x.astype(np.float64)
    m._int32 = None
    for name in ("python", "c") if backend.compiled_available() else ("python",):
        monkeypatch.setattr(backend, "BACKEND", name)
        data, indices, _ = m._int32_view()
        y = m.matvec(x)
        assert y.dtype == np.int32
        assert np.array_equal(y, want), name
        assert np.array_equal(y, backend.csr_matvec_python(data, indices, m.indptr, x))
    return m._int32[2]


LENGTH_CASES = {
    **{f"uniform {w}": [w] * 23 for w in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16)},
    "every row empty": [0] * 7,
    "no rows": [],
    "ragged": [3, 0, 9, 1, 4, 4, 2],
    "uniform 3 but the last row": [3] * 10 + [2],
    "uniform 9 but the last row": [9] * 10 + [10],
}


@pytest.mark.parametrize("case", LENGTH_CASES)
def test_u8_matvec_matches_the_float_product_on_every_row_shape(monkeypatch, rng, case):
    lengths = LENGTH_CASES[case]
    m = rows_of_lengths(rng, lengths)
    x = rng.integers(0, 256, m.n_cols).astype(np.uint8)
    calls = compiled_u8_calls(monkeypatch) if backend.compiled_available() else []
    width = lengths[0] if len(set(lengths)) == 1 else 0
    assert u8_products_agree(monkeypatch, m, x) == width
    # the product under the compiled backend is the C loop's
    assert len(calls) == backend.compiled_available()


def test_u8_matvec_on_life_wrapped_and_unwrapped(monkeypatch, rng):
    for wrapped, width in ((True, 9), (False, 0)):
        m = game_of_life(13, 11, wrapped).matrix
        x = rng.integers(0, 2, m.n_cols).astype(np.uint8)
        assert u8_products_agree(monkeypatch, m, x) == width


# -- the uint8 matvec of lattice matrices -----------------------------------

WIDE = [[1, 0, -2, 3, 0], [0, 4, 0, 0, -1], [2, 0, 0, 0, 0], [0, -3, 1, 0, 5]]
# |weights| summing to 128, the most that gets a stencil view: 128 * 255
# lies below 2**15
AT_BOUND = [[64, 32], [16, 16]]
OVER_BOUND = [[64, 32], [16, 17]]
FIVE_BY_FIVE = np.arange(25).reshape(5, 5) % 7 - 3

# name: (height, width, weights, center, wrapped, builder), the builder
# giving the matrix a preset or generate_ca_2d makes of that stencil
STENCIL_CASES = {
    "life 256x256 wrapped": (256, 256, MOORE_COUNT_SELF, (1, 1), True,
                             lambda: game_of_life(256, 256, True).matrix),
    "life 20x13 wrapped": (13, 20, MOORE_COUNT_SELF, (1, 1), True,
                           lambda: game_of_life(20, 13, True).matrix),
    "life 20x13 unwrapped": (13, 20, MOORE_COUNT_SELF, (1, 1), False,
                             lambda: game_of_life(20, 13, False).matrix),
    "eca 30": (1, 101, [[4, 2, 1]], (0, 1), True, lambda: elementary_ca(101, 30).matrix),
    "eca 110 unwrapped": (1, 101, [[4, 2, 1]], (0, 1), False,
                          lambda: elementary_ca(101, 110, False).matrix),
    **{
        f"{name} {'wrapped' if wrapped else 'unwrapped'}": (h, w, weights, center, wrapped, None)
        for name, h, w, weights, center in (
            ("as wide as the grid", 4, 5, WIDE, (1, 2)),
            ("one row", 1, 9, [[1, 2, 3]], (0, 0)),
            ("one column", 9, 1, [[1], [2], [3]], (2, 0)),
            ("one cell", 1, 1, [[3]], (0, 0)),
            ("negative weights", 6, 7, [[-3, 0, 2], [5, -1, 0], [0, 4, -6]], (1, 1)),
            ("at the int16 bound", 5, 6, AT_BOUND, (1, 0)),
            ("at the negative int16 bound", 5, 6, np.negative(AT_BOUND), (0, 1)),
            ("over the int16 bound", 5, 6, OVER_BOUND, (1, 0)),
            # widths on both sides of the 16- and 32-byte vectors, with
            # columns two cells off: a halo of 2 on each side of a row
            ("5x1 on width 1", 6, 1, FIVE_BY_FIVE[:, :1], (2, 0)),
            *((f"5x5 on width {w}", 6, w, FIVE_BY_FIVE, (2, 2)) for w in (7, 31, 33, 255, 257)),
        )
        for wrapped in (True, False)
    },
}


def stencil_case(name):
    height, width, weights, center, wrapped, build = STENCIL_CASES[name]
    weights = np.array(weights, dtype=np.float64)
    if build is None:
        grid = GridSpec(width, height, wrapped)
        m = generate_ca_2d(grid, NeighborhoodSpec2D(weights, center))
    else:
        m = build()
    return m, (height, width, weights, center, wrapped)


def uint8_products(monkeypatch, m, x):
    """m.matvec(x) under each backend, from a matrix without an int32 copy,
    which the product makes."""
    out = {}
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        m._int32 = None
        out[which] = m.matvec(x)
        assert out[which].dtype == np.int32
        assert isinstance(m._int32, tuple)
    return out


@pytest.mark.parametrize("name", STENCIL_CASES)
def test_uint8_matvec_of_a_lattice_matches_the_shifted_grid(monkeypatch, rng, name):
    m, stencil = stencil_case(name)
    over = name.startswith("over")
    for x in (rng.integers(0, 256, m.n_cols), np.full(m.n_cols, 255)):
        x = x.astype(np.uint8)
        want = oracles.stencil_apply(*stencil, x)
        for which, y in uint8_products(monkeypatch, m, x).items():
            assert np.array_equal(y, want), which
        # over the bound the matrix has no stencil view; the product is the
        # int32 CSR kernel's either way
        assert (m._stencil is None) == over
    if m.n_rows <= 400:
        assert np.array_equal(m.to_dense(), oracles.stencil_dense(*stencil))


@needs_compiled
def test_derived_and_loaded_lattice_matrices_keep_the_csr_kernel(monkeypatch, rng, tmp_path):
    monkeypatch.setattr(backend, "BACKEND", "c")
    m = game_of_life(20, 13, True).matrix
    save_matrix_market(tmp_path / "life.mtx", m)
    x = rng.integers(0, 256, m.n_cols).astype(np.uint8)
    want = m.to_dense() @ x.astype(np.float64)
    # life's stencil is symmetric, so its transpose is the same matrix
    for derived in (m.scaled(1.0), m.transpose(), load_matrix_market(tmp_path / "life.mtx"),
                    SparseMatrix(m.n_rows, m.n_cols, m.indptr, m.indices, m.data)):
        assert np.array_equal(derived.matvec(x), want)
        assert derived._stencil is None and isinstance(derived._int32, tuple)


def test_a_lattice_gets_its_stencil_view_when_built(monkeypatch):
    init = np.random.default_rng(3).integers(0, 2, 16 * 16).astype(np.float64)
    system = game_of_life(16, 16, True, init)
    height, width, wrapped, dr, dc, w = system.matrix._stencil
    assert (height, width, wrapped) == (16, 16, True)
    assert (dr.dtype, dc.dtype, w.dtype) == (np.int32, np.int32, np.int16)
    assert sorted(zip(dr.tolist(), dc.tolist())) == [(r, c) for r in (-1, 0, 1) for c in (-1, 0, 1)]
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system.matrix._int32 = None
        system.run(3)
        # the fused stencil lane needs no int32 copy of the entries
        assert (system.matrix._int32 is None) == (which == "c")


def fold_oracle(weights, width, entries, per_node):
    """The folded tables of rows of ``width`` weights against dict tables,
    pattern by pattern, and the first row with a pattern whose key has no
    entry, or None."""
    folded = []
    for i, row in enumerate(np.asarray(weights, dtype=np.int64).reshape(-1, width)):
        table = entries[i] if per_node else entries
        for p in range(2**width):
            key = sum(int(w) for j, w in enumerate(row) if p >> j & 1)
            if key not in table:
                return None, i
            folded.append(table[key])
    return folded, None


@needs_compiled
@pytest.mark.parametrize("seed", range(30))
def test_fold_matches_a_pattern_by_pattern_oracle(seed):
    rng = np.random.default_rng(seed)
    per_node = seed % 2 == 1
    for trial in range(8):
        width = int(rng.integers(1, 6))
        n, lo, row = int(rng.integers(0, 12)), int(rng.integers(-4, 1)), int(rng.integers(1, 24))
        # holes in a few trials, weights that mostly keep the keys inside
        # the table in most, and int32 weights of any size in the rest
        holes = rng.random((n if per_node else 1, row)) < (0.05 if trial % 4 == 1 else 0)
        table = np.where(holes, 255, rng.integers(0, 2, holes.shape)).astype(np.uint8)
        if trial % 4 == 3:
            weights = rng.integers(-2**31, 2**31, n * width) >> int(rng.integers(0, 32))
        else:
            weights = rng.integers(-1 if trial % 4 == 2 else 0, 4, n * width)
        weights = weights.astype(np.int32)
        entries = [{lo + k: int(v) for k, v in enumerate(t) if v != 255} for t in table]
        want, bad = fold_oracle(weights, width, entries if per_node else entries[0], per_node)
        if not per_node:
            table = table[0]
        got = backend._fold_tables(weights, width, table, lo)
        assert (None if got is None else got.tolist()) == want
        out = np.empty(n << width, dtype=np.uint8)
        first = backend._ckernels.fold_tables(weights, table.reshape(-1), lo, row,
                                              row if per_node else 0, width, out)
        assert first == (-1 if bad is None else bad)


@needs_compiled
def test_the_extension_exports_only_what_the_backend_calls():
    with open(backend.__file__) as f:
        called = set(re.findall(r"_ckernels\.(\w+)\(", f.read()))
    exported = {name for name in dir(backend._ckernels)
                if not name.startswith("_") and callable(getattr(backend._ckernels, name))}
    assert exported == called == {"assemble", "csr_matvec", "csr_matvec_u8", "fold_tables",
                                  "mm_entries", "network_steps_u8", "node_lines",
                                  "stencil_steps_u8"}
