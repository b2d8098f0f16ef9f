import os
import subprocess
import sys

import numpy as np
import pytest

from latflow import backend
from latflow.errors import DimensionMismatch, KeyOutOfTable, LatflowError, NonIntegerKey
from latflow.rules import (
    CountLUT,
    PerNodeLUT,
    apply_rule,
    elementary_rule,
    game_of_life_rule,
    random_boolean_tables,
)
from latflow.sparse import from_triplets


def make_csr(rng, n, nnz):
    flat = rng.choice(n * n, size=nnz, replace=False)
    trips = [(int(f) // n, int(f) % n, v)
             for f, v in zip(flat, rng.uniform(-1, 1, nnz))]
    return from_triplets(n, n, trips)


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
        # summation order differs (pairwise vs sequential), so ulp-level slack
        assert np.allclose(py, cy, rtol=1e-12, atol=1e-12)


def test_matvec_takes_a_strided_vector_on_both_backends(monkeypatch, rng):
    m = make_csr(rng, 8, 20)
    columns = rng.uniform(-1, 1, (8, 3))
    expected = m.to_dense() @ columns[:, 1]
    for name in ("python", "c") if backend.compiled_available() else ("python",):
        monkeypatch.setattr(backend, "BACKEND", name)
        assert np.allclose(m.matvec(columns[:, 1]), expected, rtol=0, atol=1e-12)


def test_kernel_handles_leading_and_trailing_empty_rows():
    m = from_triplets(5, 5, [(2, 1, 2.0), (2, 3, -1.0)])
    v = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    out = backend.csr_matvec(m.data, m.indices, m.indptr, v)
    assert np.array_equal(out, [0.0, 0.0, -8.0, 0.0, 0.0])


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


# -- the compiled table lookup against the numpy rule code -----------------

needs_compiled = pytest.mark.skipif(
    not backend.compiled_available(), reason="compiled kernel not built"
)


def outcome(rule, pre):
    """The output's dtype and bytes, or the class and message of the error."""
    try:
        out = apply_rule(rule, np.asarray(pre, dtype=np.float64))
    except LatflowError as exc:
        return type(exc), str(exc)
    return out.dtype, out.tobytes()


def on_both_backends(monkeypatch, rule, pre):
    """outcome() under the numpy and the compiled backend, and how many
    lookups the compiled kernel completed."""
    real = backend._ckernels.table_lookup
    completed = []

    def counting(*args):
        bad = real(*args)
        completed.append(bad < 0)
        return bad

    monkeypatch.setattr(backend._ckernels, "table_lookup", counting)
    results = []
    for name in ("python", "c"):
        monkeypatch.setattr(backend, "BACKEND", name)
        results.append(outcome(rule, pre))
    return results, sum(completed)


def noisy_keys(rng, hi, size=300):
    """Integer keys in [0, hi), each moved by less than the 1e-6 guard."""
    return rng.integers(0, hi, size=size) + rng.uniform(-9e-7, 9e-7, size=size)


@needs_compiled
def test_compiled_lookup_matches_numpy_on_all_elementary_rules(monkeypatch, rng):
    for number in range(256):
        (py, c), completed = on_both_backends(
            monkeypatch, elementary_rule(number), noisy_keys(rng, 8)
        )
        assert py == c and py[0] == np.float64
        assert completed == 1


@needs_compiled
@pytest.mark.parametrize("case", ["life", "rbn"])
def test_compiled_lookup_matches_numpy_on_count_and_per_node_tables(monkeypatch, rng, case):
    if case == "life":
        rule, pre = game_of_life_rule(), noisy_keys(rng, 18)
    else:
        rule, pre = random_boolean_tables(300, 3, seed=4), noisy_keys(rng, 8)
    (py, c), completed = on_both_backends(monkeypatch, rule, pre)
    assert py == c and py[0] == np.float64
    assert completed == 1


@needs_compiled
def test_ragged_per_node_tables_take_the_numpy_path(monkeypatch):
    rule = PerNodeLUT([[0, 1], [1, 0, 0, 1]])
    (py, c), completed = on_both_backends(monkeypatch, rule, [1.0, 3.0])
    assert py == c == (np.float64, np.array([1.0, 1.0]).tobytes())
    assert completed == 0


JUST_PAST = float(np.nextafter(1e-6, 1.0))
LIFE = game_of_life_rule()
RBN = random_boolean_tables(3, 2, seed=1)
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
    ("count hole", CountLUT(9, {0: 0, 2: 1}), [2.0, 1.0], KeyOutOfTable),
    ("pernode non-integer", RBN, [0.0, 1.5, 0.0], NonIntegerKey),
    ("pernode below", RBN, [0.0, -1.0, 0.0], KeyOutOfTable),
    ("pernode above", RBN, [0.0, 4.0, 0.0], KeyOutOfTable),
    ("pernode too few", RBN, [0.0, 1.0], DimensionMismatch),
    ("pernode too few, non-integer", RBN, [0.0, 1.5], NonIntegerKey),
]


@needs_compiled
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize(
    "rule, pre, expected", [c[1:] for c in LOOKUP_CASES], ids=[c[0] for c in LOOKUP_CASES]
)
def test_compiled_lookup_errors_match_numpy(monkeypatch, rule, pre, expected):
    (py, c), _ = on_both_backends(monkeypatch, rule, pre)
    assert py == c
    if expected is None:
        assert py[0] == np.float64
    else:
        assert issubclass(py[0], expected)


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
    with pytest.raises(ValueError):
        backend.table_lookup(np.zeros(2), np.zeros(8, dtype=np.int32), 0, 8, 0)
    with pytest.raises(ValueError):
        backend.table_lookup(np.zeros(2), np.zeros(8, dtype=np.int64), 0, 9, 0)
