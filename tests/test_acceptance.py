"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single `criterion NN <label>: PASS/FAIL` line (visible
with `pytest -s`).  Tolerances and sizes are part of the criterion and are
asserted, not merely reported; timing budgets are asserted where stated.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from latflow.analysis import detect_cycle, pca_project, principal_components, train_linear_readout
from latflow.engine import StateHistory
from latflow.sparse import spectral_radius
from latflow.systems import (
    echo_state_network,
    elementary_ca,
    game_of_life,
    coupled_map_lattice,
    random_boolean_network,
    random_sparse_uniform,
)
from latflow.topology import (
    GridSpec,
    NeighborhoodSpec1D,
    NeighborhoodSpec2D,
    generate_ca_1d,
    generate_ca_2d,
)

GLIDER_CELLS = ((0, 1), (1, 2), (2, 0), (2, 1), (2, 2))


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {num:02d} {label}: FAIL (took {elapsed:.2f} s, budget {budget} s)")
        raise AssertionError(f"criterion {num} exceeded {budget} s ({elapsed:.2f} s)")
    print(f"criterion {num:02d} {label}: PASS ({elapsed:.2f} s)")


def glider_history(steps=28):
    system = game_of_life(7, 7)
    init = np.zeros(49)
    for r, c in GLIDER_CELLS:
        init[r * 7 + c] = 1.0
    system.set_state(init)
    return system.run(steps, record=True)


def test_c01_ca1d_generator_known_rows():
    with criterion(1, "1d lattice matrix rows", budget=1.0):
        m = generate_ca_1d(
            GridSpec(16, 1, True), NeighborhoodSpec1D((4.0, 2.0, 1.0), 1)
        )
        assert m.row(0) == {15: 4.0, 0: 2.0, 1: 1.0}
        assert m.row(15) == {14: 4.0, 15: 2.0, 0: 1.0}


def test_c02_ca2d_generator_known_rows():
    with criterion(2, "2d lattice matrix rows", budget=1.0):
        nb = NeighborhoodSpec2D(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], (1, 1)
        )
        m = generate_ca_2d(GridSpec(4, 4, True), nb)
        assert m.row(5) == {1: 1.0, 4: 1.0, 6: 1.0, 9: 1.0}
        assert m.row(0) == {1: 1.0, 3: 1.0, 4: 1.0, 12: 1.0}
        assert all(w == 1.0 for _, _, w in m.triplets())
        assert oracles.is_symmetric(m)


def test_c03_all_elementary_rules_match_direct_simulation():
    with criterion(3, "256 elementary rules vs direct oracle", budget=30.0):
        rng = np.random.default_rng(2025)
        width, steps = 16, 16
        for rule_number in range(256):
            system = elementary_ca(width, rule_number)
            for _ in range(10):
                init = rng.integers(0, 2, width).astype(float)
                system.set_state(init.copy())
                h = system.run(steps, record=True)
                assert np.array_equal(
                    h.states, oracles.eca_run(init, rule_number, steps)
                )


def test_c04_life_matches_direct_simulation():
    with criterion(4, "game of life vs direct oracle", budget=30.0):
        rng = np.random.default_rng(404)
        for _ in range(10):
            grid = rng.integers(0, 2, (16, 16)).astype(float)
            system = game_of_life(16, 16)
            system.set_state(grid.ravel().copy())
            h = system.run(64, record=True)
            frames = oracles.life_run(grid, 64)
            for t, frame in enumerate(frames):
                assert np.array_equal(h.states[t], frame.ravel())


def test_c05_glider_cycle_and_projection_closure():
    with criterion(5, "glider period 28 and trajectory closure"):
        h = glider_history(28)
        report = detect_cycle(h)
        assert (report.transient_length, report.period) == (0, 28)
        # the period comes from the independent oracle too, not just our engine
        grid = np.zeros((7, 7))
        for r, c in GLIDER_CELLS:
            grid[r, c] = 1.0
        frames = oracles.life_run(grid, 28)
        assert np.array_equal(frames[28], frames[0])
        assert all(not np.array_equal(frames[t], frames[0]) for t in range(1, 28))
        traj = pca_project(h, 2)
        assert np.linalg.norm(traj.points[28] - traj.points[0]) <= 1e-9


def test_c06_sparse_dense_agreement():
    with criterion(6, "sparse vs dense matvec on 1000 matrices"):
        rng = np.random.default_rng(66)
        densities = (0.01, 0.1, 1.0)
        worst = 0.0
        for i in range(1000):
            n = int(rng.integers(16, 257))
            m = random_sparse_uniform(n, densities[i % 3], seed=int(rng.integers(2**31)))
            v = rng.uniform(-1.0, 1.0, n)
            diff = float(np.max(np.abs(m.matvec(v) - m.to_dense() @ v)))
            worst = max(worst, diff)
        assert worst <= 1e-12, f"worst deviation {worst:.3e}"


def test_c07_sparse_faster_than_dense_at_high_sparsity():
    n, density, repeats = 4096, 0.001, 10
    m = random_sparse_uniform(n, density, seed=7)
    dense = m.to_dense()
    v = np.random.default_rng(7).uniform(-1.0, 1.0, n)
    m.matvec(v)
    dense @ v
    start = time.perf_counter()
    for _ in range(repeats):
        m.matvec(v)
    sparse_mean = (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        dense @ v
    dense_mean = (time.perf_counter() - start) / repeats
    assert np.max(np.abs(m.matvec(v) - dense @ v)) <= 1e-12
    with criterion(7, f"sparse speedup at n=4096 (ratio {dense_mean / sparse_mean:.1f}x)"):
        assert sparse_mean < dense_mean


def test_c08_esn_spectral_radius_hits_target():
    with criterion(8, "esn spectral radius within 1e-6 over 20 seeds"):
        for seed in range(20):
            system = echo_state_network(200, 0.05, 0.9, seed=seed)
            assert abs(spectral_radius(system.matrix) - 0.9) <= 1e-6


def test_c09_rbn_cycles_match_exhaustive_oracle():
    with criterion(9, "rbn cycles vs exhaustive oracle over 20 seeds"):
        horizon = 2 ** 12
        rng = np.random.default_rng(909)
        for seed in range(20):
            system = random_boolean_network(12, 2, seed=seed)
            init = rng.integers(0, 2, 12).astype(float)
            system.set_state(init.copy())
            h = system.run(horizon, record=True)
            report = detect_cycle(h)
            expect = oracles.rbn_first_repeat(
                init, system.node_inputs, system.rule.table, horizon
            )
            assert (report.transient_length, report.period) == expect
            assert report.period > 0  # must cycle within 2^12 steps


def test_c10_pca_matches_analytic_eigenstructure():
    with criterion(10, "pca vs analytic 3d eigenstructure"):
        # exact rational rotation; columns are the true components
        Q = np.array(
            [
                [2 / 3, -2 / 3, 1 / 3],
                [2 / 3, 1 / 3, -2 / 3],
                [1 / 3, 2 / 3, 2 / 3],
            ]
        )
        a, b, c = 3.0, 2.0, 1.0
        signs = np.array(
            [(sa, sb, sc) for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)]
        , dtype=float)
        U = signs * np.array([a, b, c])
        X = U @ Q.T  # rows are Q @ u
        comps, variances = principal_components(X, 3)
        expected_vars = np.array([a * a, b * b, c * c]) * 8.0 / 7.0
        for i in range(3):
            v = Q[:, i].copy()
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            assert np.max(np.abs(comps[i] - v)) <= 1e-8
            assert abs(variances[i] - expected_vars[i]) <= 1e-8
        # ordering property on random instances
        rng = np.random.default_rng(1010)
        for _ in range(5):
            data = rng.normal(size=(30, 6)) * rng.uniform(0.2, 2.0, size=6)
            _, vs = principal_components(data, 6)
            assert all(x >= y - 1e-12 for x, y in zip(vs, vs[1:]))


def test_c11_readout_matches_gradient_descent():
    with criterion(11, "ridge readout vs gradient descent on 50 instances"):
        rng = np.random.default_rng(1111)
        ridges = (0.1, 1.0)
        for i in range(50):
            T = int(rng.integers(10, 31))
            N = int(rng.integers(2, 9))
            X = rng.normal(size=(T, N))
            y = rng.normal(size=T)
            ridge = ridges[i % 2]
            model = train_linear_readout(StateHistory(X), y, ridge)
            w = oracles.ridge_gd(X, y, ridge)
            assert np.max(np.abs(model.weights - w)) <= 1e-6


def test_c12_cml_bounded_and_decoupled_exact():
    with criterion(12, "cml bounds and decoupled exactness"):
        rng = np.random.default_rng(1212)
        init = rng.uniform(0.0, 1.0, 64)
        for eps in (0.0, 0.3, 1.0):
            system = coupled_map_lattice(64, eps, 4.0, init=init.copy())
            h = system.run(1000, record=True)
            assert h.states.min() >= 0.0
            assert h.states.max() <= 1.0
        system = coupled_map_lattice(64, 0.0, 4.0, init=init.copy())
        system.run(1000)
        assert np.array_equal(system.state, oracles.logistic_run(init, 4.0, 1000))
