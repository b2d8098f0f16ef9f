import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from latflow.analysis import (
    CycleReport,
    detect_cycle,
    pca_project,
    principal_components,
    train_linear_readout,
)
from latflow.engine import StateHistory
from latflow.errors import (
    ArgumentTooSmall,
    DimensionMismatch,
    SingularSystem,
    TooFewRows,
)
from latflow.systems import echo_state_network, game_of_life


# -- principal components --------------------------------------------------


def test_pca_analytic_line():
    data = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    comps, variances = principal_components(data, 2)
    assert np.allclose(comps[0], [1.0, 0.0], atol=1e-12)
    assert variances[0] == pytest.approx(4.0, abs=1e-12)
    assert variances[1] == 0.0
    traj = pca_project(StateHistory(data), 2)
    assert np.allclose(traj.points[:, 0], [-2.0, 0.0, 2.0], atol=1e-12)
    assert np.allclose(traj.points[:, 1], 0.0, atol=1e-12)


def test_pca_constant_history_gives_origin():
    data = np.full((5, 3), 1.7)
    traj = pca_project(StateHistory(data), 2)
    assert np.allclose(traj.points, 0.0)
    assert traj.explained_variance == (0.0, 0.0)


def test_pca_matches_dense_eigendecomposition(rng):
    X = rng.normal(size=(60, 7)) @ rng.normal(size=(7, 7))
    comps, variances = principal_components(X, 4)
    C = np.cov(X, rowvar=False, ddof=1)
    w, V = np.linalg.eigh(C)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    for i in range(4):
        v = V[:, i]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        assert np.max(np.abs(comps[i] - v)) < 1e-8
        assert variances[i] == pytest.approx(w[i], rel=1e-10, abs=1e-12)


def test_pca_flat_ones_direction_still_finds_dominant(rng):
    # Equal row sums put the all-ones start vector in the covariance null
    # space; the iteration must restart rather than report zero variance.
    X = rng.normal(size=(20, 6))
    X -= X.mean(axis=1, keepdims=True)
    comps, variances = principal_components(X, 2)
    C = np.cov(X, rowvar=False, ddof=1)
    w = np.sort(np.linalg.eigvalsh(C))[::-1]
    assert variances[0] >= variances[1] > 1e-3
    for got, want in zip(variances, w[:2]):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert np.max(np.abs(comps @ comps.T - np.eye(2))) < 1e-9


def _dense_eigenpairs(X):
    """Eigenpairs of np.cov by LAPACK, decreasing, each vector sign-fixed."""
    w, V = np.linalg.eigh(np.cov(X, rowvar=False, ddof=1))
    order = np.argsort(w)[::-1]
    V = V[:, order].T
    V *= np.sign(V[np.arange(len(V)), np.argmax(np.abs(V), axis=1)])[:, None]
    return w[order], V


@pytest.mark.parametrize("rows,dim", [(3, 50), (12, 200), (40, 41)])
def test_pca_fewer_rows_than_cells_matches_dense_eigh(rows, dim):
    X = np.random.default_rng(rows * dim).normal(size=(rows, dim))
    w, V = _dense_eigenpairs(X)
    k = min(rows - 1, 5)
    comps, variances = principal_components(X, k)
    assert np.max(np.abs(comps - V[:k])) < 1e-8
    assert np.max(np.abs(np.array(variances) - w[:k])) < 1e-8
    # rows points span rows - 1 directions: the last component has no variance
    comps, variances = principal_components(X, rows)
    assert np.max(np.abs(comps @ comps.T - np.eye(rows))) < 1e-9
    assert min(variances) >= 0.0
    assert variances[-1] < 1e-8
    assert np.max(np.abs(np.array(variances[:-1]) - w[: rows - 1])) < 1e-8


def test_pca_flat_ones_direction_restarts_with_fewer_rows_than_cells(rng):
    X = rng.normal(size=(8, 30))
    X -= X.mean(axis=1, keepdims=True)
    w, V = _dense_eigenpairs(X)
    comps, variances = principal_components(X, 3)
    assert variances[2] > 1e-3
    assert np.max(np.abs(comps - V[:3])) < 1e-8
    assert np.max(np.abs(np.array(variances) - w[:3])) < 1e-8


def test_pca_short_history_allocates_no_cells_by_cells_array():
    init = (np.random.default_rng(7).random(5000) < 0.3).astype(float)
    X = game_of_life(100, 50, init=init).run(19, record=True).states
    tracemalloc.start()
    try:
        principal_components(X, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 5000 x 5000 float64 covariance alone would be 200 MB
    assert peak < 32 * 2**20


def test_pca_near_equal_variances_match_svd():
    # 19 nearly equal leading variances stalled the old power iteration
    X = np.random.default_rng(7).normal(size=(20, 5000))
    comps, variances = principal_components(X, 2)
    centered = X - X.mean(axis=0)
    _, sv, Vt = np.linalg.svd(centered, full_matrices=False)
    assert np.max(np.abs(np.array(variances) - sv[:2] ** 2 / 19)) < 1e-9
    assert np.max(np.abs(np.abs(np.sum(comps * Vt[:2], axis=1)) - 1.0)) < 1e-9


@pytest.mark.parametrize("dim", [3, 8])
def test_pca_sign_takes_the_first_of_tied_magnitudes(dim):
    # |d[1]| exceeds |d[0]| by 4e-15, within the 1e-12 tie window: d[0],
    # the first of the tied coordinates, decides the sign
    d = np.zeros(dim)
    d[:3] = [-1.0, 1.0 + 4e-15, 0.5]
    X = np.outer([-2.0, -1.0, 0.0, 1.0, 2.0], d)
    comps, _ = principal_components(X, 1)
    assert np.max(np.abs(comps[0] + d / np.linalg.norm(d))) < 1e-12
    assert comps[0, 0] > 0


def test_pca_completes_zero_variance_components_to_an_orthonormal_basis():
    # 10 rows repeating two states: one direction of variance, nine of none
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 30))
    X = np.array([a, b] * 5)
    comps, variances = principal_components(X, 10)
    assert np.max(np.abs(comps @ comps.T - np.eye(10))) < 1e-9
    centered = X - X.mean(axis=0)
    assert variances[0] == pytest.approx(np.sum((a - b) ** 2) * 10 / 4 / 9, rel=1e-12)
    assert np.max(np.abs(centered @ comps[1:].T)) < 1e-9
    assert all(0.0 <= v < 1e-12 for v in variances[1:])


def test_pca_sign_convention(rng):
    X = rng.normal(size=(30, 5))
    comps, _ = principal_components(X, 3)
    for comp in comps:
        assert comp[np.argmax(np.abs(comp))] > 0


def test_pca_components_orthonormal(rng):
    X = rng.normal(size=(40, 6))
    comps, _ = principal_components(X, 5)
    gram = comps @ comps.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9


def test_pca_variances_non_increasing(rng):
    for _ in range(5):
        X = rng.normal(size=(25, 6)) * rng.uniform(0.1, 3.0, size=6)
        _, variances = principal_components(X, 6)
        assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))
        assert all(v >= 0 for v in variances)


def test_pca_reconstruction_error_non_increasing(rng):
    X = rng.normal(size=(30, 6))
    centered = X - X.mean(axis=0)
    errors = []
    for k in range(1, 7):
        comps, _ = principal_components(X, k)
        recon = centered @ comps.T @ comps
        errors.append(float(np.sum((centered - recon) ** 2)))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def test_pca_shift_invariance(rng):
    X = rng.normal(size=(20, 4))
    t1 = pca_project(StateHistory(X), 2)
    t2 = pca_project(StateHistory(X + 13.5), 2)
    assert np.allclose(t1.points, t2.points, atol=1e-8)


def test_pca_validation(rng):
    with pytest.raises(TooFewRows):
        principal_components(np.zeros((1, 4)), 1)
    with pytest.raises(ArgumentTooSmall):
        principal_components(rng.normal(size=(5, 3)), 0)
    with pytest.raises(ArgumentTooSmall):
        principal_components(rng.normal(size=(5, 3)), 4)


def test_trajectory_invariants(rng):
    X = rng.normal(size=(9, 5))
    traj = pca_project(StateHistory(X), 2)
    assert len(traj.points) == 9
    v1, v2 = traj.explained_variance
    assert v1 >= v2 >= 0


def test_trajectory_csv_and_svg(tmp_path, rng):
    traj = pca_project(StateHistory(rng.normal(size=(6, 4))), 2)
    csv_path = tmp_path / "t.csv"
    traj.save_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "step,pc1,pc2"
    assert len(lines) == 7
    step, pc1, pc2 = lines[3].split(",")
    assert int(step) == 2
    assert float(pc1) == traj.points[2, 0]  # repr round-trips exactly
    svg_path = tmp_path / "t.svg"
    traj.save_svg(svg_path)
    from xml.dom import minidom

    doc = minidom.parse(str(svg_path))
    polylines = doc.getElementsByTagName("polyline")
    assert len(polylines) == 1
    assert repr(float(traj.points[0, 0])) in polylines[0].getAttribute("points")


# -- cycle detection -------------------------------------------------------


def test_cycle_constant_history():
    h = StateHistory(np.ones((4, 2)))
    assert detect_cycle(h) == CycleReport(0, 1)


def test_cycle_transient_then_period():
    h = StateHistory(np.array([[0.0], [1.0], [2.0], [1.0], [2.0], [1.0]]))
    assert detect_cycle(h) == CycleReport(1, 2)


def test_cycle_none_found():
    h = StateHistory(np.array([[0.0], [1.0], [2.0], [3.0]]))
    assert detect_cycle(h) == CycleReport(0, 0)


def test_cycle_single_row():
    assert detect_cycle(StateHistory(np.zeros((1, 3)))) == CycleReport(0, 0)


def test_cycle_smallest_pair_wins():
    # both (1, 2) and (3, 2) close; first recurrence is reported
    h = StateHistory(np.array([[9.0], [1.0], [2.0], [1.0], [2.0], [1.0], [2.0]]))
    assert detect_cycle(h) == CycleReport(1, 2)


def test_cycle_exact_requires_exact_match():
    h = StateHistory(np.array([[1.0], [1.0 + 1e-12], [1.0]]))
    report = detect_cycle(h)
    assert (report.transient_length, report.period) == (0, 2)


def test_cycle_with_tolerance():
    h = StateHistory(np.array([[0.0], [1.0], [2.0], [1.0 + 1e-7], [2.0 - 1e-7]]))
    assert detect_cycle(h) == CycleReport(0, 0)
    assert detect_cycle(h, tol=1e-6) == CycleReport(1, 2)


def test_cycle_tail_must_verify():
    # rows 0 and 2 match but row 3 breaks period 2; the next verifying
    # candidate is (0, 4), whose continuation is vacuously consistent
    h = StateHistory(np.array([[0.0], [1.0], [0.0], [5.0], [0.0]]))
    assert detect_cycle(h) == CycleReport(0, 4)


@pytest.mark.parametrize(
    "rows, expected",
    [
        # rows 0 and 2 match but fail to verify; rows 2 and 3 close the cycle
        ([[0.0], [1.0], [0.0], [0.0], [0.0]], (2, 1)),
        # rows 0 and 2 fail; 2 and 4 are the next equal pair, before 3 and 5
        ([[1.0], [0.0], [1.0], [2.0], [1.0], [2.0]], (2, 2)),
    ],
)
def test_cycle_exact_tries_every_earlier_equal_row(rows, expected):
    h = np.array(rows)
    report = detect_cycle(StateHistory(h))
    assert (report.transient_length, report.period) == expected
    assert oracles.first_cycle_within(h, 0.0) == expected


@settings(max_examples=300, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
              elements=st.integers(0, 2)))
def test_cycle_exact_matches_brute_force(h):
    report = detect_cycle(StateHistory(h))
    assert (report.transient_length, report.period) == oracles.first_cycle_within(h, 0.0)


@pytest.mark.parametrize("rho", [0.5, 0.9, 1.5])
@pytest.mark.parametrize("tol", [1e-2, 1e-5, 1e-9])
def test_cycle_with_tolerance_matches_brute_force(rho, tol):
    for seed in range(4):
        init = np.random.default_rng(seed).uniform(-1.0, 1.0, 10)
        system = echo_state_network(10, 0.4, rho, seed, init=init)
        states = system.run(60, record=True).states
        # and a copy whose second half repeats its first, within 1e-6
        repeated = np.vstack([states[:30], states[:30] + 1e-6])
        for h in (states, repeated):
            got = detect_cycle(StateHistory(h), tol=tol)
            expected = oracles.first_cycle_within(h, tol)
            assert (got.transient_length, got.period) == expected


def test_cycle_deterministic_map_property(rng):
    # on a genuine trajectory the reported (s, p) always verifies exhaustively
    from latflow.systems import random_boolean_network

    system = random_boolean_network(8, 2, seed=13)
    system.set_state(rng.integers(0, 2, 8).astype(float))
    h = system.run(300, record=True)
    report = detect_cycle(h)
    assert report.period > 0
    s, p = report.transient_length, report.period
    for m in range(len(h) - s - p):
        assert np.array_equal(h.states[s + m], h.states[s + p + m])


# -- linear readout --------------------------------------------------------


def test_readout_exact_fit_single_coordinate(rng):
    X = rng.normal(size=(12, 4))
    model = train_linear_readout(StateHistory(X), X[:, 2].copy(), 0.0)
    assert model.training_residual == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(model.predict(X), X[:, 2], atol=1e-9)


def test_readout_matches_gradient_descent_oracle(rng):
    X = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    model = train_linear_readout(StateHistory(X), y, 0.1)
    w = oracles.ridge_gd(X, y, 0.1)
    assert np.max(np.abs(model.weights - w)) < 1e-6


def test_readout_residual_definition(rng):
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    model = train_linear_readout(StateHistory(X), y, 0.5)
    sse = float(np.sum((model.predict(X) - y) ** 2))
    assert model.training_residual == pytest.approx(sse, rel=1e-12)


def test_readout_optimality_spot_checks(rng):
    X = rng.normal(size=(18, 4))
    y = rng.normal(size=18)
    model = train_linear_readout(StateHistory(X), y, 0.0)
    zero_residual = float(np.sum(y ** 2))
    assert model.training_residual <= zero_residual + 1e-12
    for _ in range(10):
        w = rng.normal(size=5)
        pred = X @ w[:-1] + w[-1]
        assert model.training_residual <= np.sum((pred - y) ** 2) + 1e-12


def test_readout_validation(rng):
    X = rng.normal(size=(10, 3))
    with pytest.raises(ArgumentTooSmall):
        train_linear_readout(StateHistory(X), np.zeros(10), -0.1)
    with pytest.raises(DimensionMismatch):
        train_linear_readout(StateHistory(X), np.zeros(9), 0.1)


def test_readout_singular_at_ridge_zero():
    X = np.zeros((6, 3))
    with pytest.raises(SingularSystem):
        train_linear_readout(StateHistory(X), np.arange(6.0), 0.0)
    # same degenerate history is fine with ridge > 0
    model = train_linear_readout(StateHistory(X), np.arange(6.0), 0.1)
    assert np.isfinite(model.weights).all()


def test_readout_separates_reservoir_classes():
    # two input classes embedded as distinct initial states; features are
    # the reservoir states after a short run, one row per sample
    n, steps = 50, 10
    rng = np.random.default_rng(77)
    pattern_a = rng.uniform(-1, 1, n)
    pattern_b = rng.uniform(-1, 1, n)
    rows, labels = [], []
    for label, pattern in ((1.0, pattern_a), (-1.0, pattern_b)):
        for _ in range(10):
            system = echo_state_network(n, 0.1, 0.9, seed=1)
            system.set_state(np.clip(pattern + rng.normal(0, 0.05, n), -1, 1))
            system.run(steps)
            rows.append(system.state.copy())
            labels.append(label)
    model = train_linear_readout(
        StateHistory(np.array(rows)), np.array(labels), 0.01
    )
    pred = np.sign(model.predict(np.array(rows)))
    assert np.array_equal(pred, np.array(labels))  # 100% training accuracy
