import hashlib

import numpy as np
import pytest

import oracles
from latflow import backend
from latflow.analysis import detect_cycle
from latflow.errors import ArgumentTooSmall, ConfigError
from latflow.rules import MAP_THEN_MIX, ContinuousMap, TableRule, random_boolean_tables
from latflow.sparse import spectral_radius
from latflow.systems import (
    SystemConfig,
    build_system,
    coupled_map_lattice,
    echo_state_network,
    elementary_ca,
    game_of_life,
    random_boolean_network,
    random_sparse_uniform,
)
from latflow.topology import PositionalBase, generate_random_digraph


def test_elementary_ca_wiring():
    system = elementary_ca(16, 110)
    assert system.matrix.shape == (16, 16)
    assert system.matrix.row(0) == {15: 4.0, 0: 2.0, 1: 1.0}
    assert isinstance(system.rule, TableRule)
    assert np.array_equal(system.state, np.zeros(16))


def test_elementary_ca_rule90_xor_step():
    system = elementary_ca(5, 90)
    system.set_state(np.array([0.0, 0, 1, 0, 0]))
    system.step()
    assert np.array_equal(system.state, [0, 1, 0, 1, 0])


def test_elementary_ca_rule204_is_identity(rng):
    system = elementary_ca(4, 204)
    init = rng.integers(0, 2, 4).astype(float)
    system.set_state(init.copy())
    system.run(5)
    assert np.array_equal(system.state, init)


def test_life_blinker_period_two():
    system = game_of_life(5, 5)
    init = np.zeros(25)
    init[[11, 12, 13]] = 1.0
    system.set_state(init)
    h = system.run(6, record=True)
    assert np.array_equal(h.states[1].reshape(5, 5).sum(axis=1), [0, 1, 1, 1, 0])
    report = detect_cycle(h)
    assert (report.transient_length, report.period) == (0, 2)


def test_life_block_is_fixed_point():
    system = game_of_life(4, 4)
    init = np.zeros(16)
    init[[5, 6, 9, 10]] = 1.0
    system.set_state(init.copy())
    system.run(3)
    assert np.array_equal(system.state, init)


def test_life_empty_grid_fixed_point():
    system = game_of_life(6, 6)
    system.run(3)
    assert np.array_equal(system.state, np.zeros(36))


def test_life_matches_roll_oracle(rng):
    system = game_of_life(8, 8)
    grid = rng.integers(0, 2, (8, 8)).astype(float)
    system.set_state(grid.ravel().copy())
    h = system.run(20, record=True)
    frames = oracles.life_run(grid, 20)
    for t, frame in enumerate(frames):
        assert np.array_equal(h.states[t], frame.ravel())


def test_rbn_enters_cycle_within_state_space(rng):
    system = random_boolean_network(8, 2, seed=11)
    system.set_state(rng.integers(0, 2, 8).astype(float))
    h = system.run(2 ** 8, record=True)
    assert detect_cycle(h).period > 0


def test_rbn_matches_direct_oracle(rng):
    system = random_boolean_network(20, 3, seed=4)
    init = rng.integers(0, 2, 20).astype(float)
    system.set_state(init.copy())
    h = system.run(40, record=True)
    x = init.copy()
    for t in range(40):
        x = oracles.rbn_step(x, system.node_inputs, system.rule.table)
        assert np.array_equal(h.states[t + 1], x)


def test_rbn_in_degree_zero_is_constant_after_one_step():
    system = random_boolean_network(4, 0, seed=2)
    system.set_state(np.array([1.0, 0, 1, 0]))
    system.step()
    frozen = system.state.copy()
    system.run(5)
    assert np.array_equal(system.state, frozen)


def test_rbn_deterministic_per_seed():
    a = random_boolean_network(10, 2, seed=6)
    b = random_boolean_network(10, 2, seed=6)
    assert np.array_equal(a.matrix.to_dense(), b.matrix.to_dense())
    assert all(np.array_equal(x, y) for x, y in zip(a.rule.table, b.rule.table))
    assert a.node_inputs.dtype == b.node_inputs.dtype == np.int64
    assert a.node_inputs.shape == b.node_inputs.shape == (10, 2)
    assert np.array_equal(a.node_inputs, b.node_inputs)


def test_rbn_node_inputs_are_read_only():
    inputs = random_boolean_network(10, 2, seed=6).node_inputs
    assert not inputs.flags.writeable
    with pytest.raises(ValueError):
        inputs[0, 0] = 1


@pytest.mark.parametrize("k", [2, 3])
def test_rbn_node_inputs_name_the_columns_of_each_digit(k):
    # read off the CSR arrays: in row i the entry of weight 2^m sits in
    # column node_inputs[i, m]
    n = 100000
    system = random_boolean_network(n, k, seed=7)
    m = system.matrix
    assert np.array_equal(m.indptr, np.arange(n + 1) * k)
    data, columns = m.data.reshape(n, k), m.indices.reshape(n, k)
    inputs = system.node_inputs
    assert inputs.dtype == np.int64 and inputs.shape == (n, k)
    for digit in range(k):
        at = data == 2.0 ** digit
        assert np.all(at.sum(axis=1) == 1)
        assert np.array_equal(columns[at], inputs[:, digit])


def test_cml_row_sums_are_one():
    system = coupled_map_lattice(16, 0.3, 3.8)
    sums = system.matrix.to_dense().sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_cml_uniform_state_maps_uniformly():
    system = coupled_map_lattice(12, 0.4, 3.5, init=np.full(12, 0.3))
    system.step()
    expect = 3.5 * 0.3 * (1.0 - 0.3)
    assert np.max(np.abs(system.state - expect)) < 1e-12


def test_cml_eps_zero_is_exact_logistic(rng):
    init = rng.uniform(0, 1, 32)
    system = coupled_map_lattice(32, 0.0, 3.7, init=init.copy())
    system.run(200)
    assert np.array_equal(system.state, oracles.logistic_run(init, 3.7, 200))


def test_cml_stays_in_unit_interval(rng):
    init = rng.uniform(0, 1, 32)
    system = coupled_map_lattice(32, 0.3, 4.0, init=init.copy())
    for _ in range(200):
        system.step()
        assert system.state.min() >= 0.0 and system.state.max() <= 1.0


def test_cml_parameter_validation():
    with pytest.raises(ArgumentTooSmall):
        coupled_map_lattice(8, -0.1, 3.0)
    with pytest.raises(ArgumentTooSmall):
        coupled_map_lattice(8, 1.1, 3.0)
    with pytest.raises(ArgumentTooSmall):
        coupled_map_lattice(8, 0.5, 4.5)


def test_cml_uses_map_then_mix():
    system = coupled_map_lattice(8, 0.2, 3.0)
    assert isinstance(system.rule, ContinuousMap)
    assert system.rule.order == MAP_THEN_MIX


@pytest.mark.parametrize("args", [(200, 0.05, 0.9, 1), (2000, 0.01, 0.9, 3)])
def test_esn_weights_are_the_same_bits_on_both_backends(monkeypatch, args):
    if not backend.compiled_available():
        pytest.skip("compiled kernel not built")
    digests = []
    for name in ("c", "python"):
        monkeypatch.setattr(backend, "BACKEND", name)
        m = echo_state_network(*args).matrix
        digests.append(hashlib.sha256(
            m.indptr.tobytes() + m.indices.tobytes() + m.data.tobytes()
        ).hexdigest())
    assert digests[0] == digests[1]


def test_esn_radius_hits_target():
    system = echo_state_network(200, 0.05, 0.9, seed=5)
    assert spectral_radius(system.matrix) == pytest.approx(0.9, abs=1e-6)


def test_esn_true_radius_hits_the_target_by_a_dense_oracle():
    for n, density in ((200, 0.05), (300, 0.03)):
        for seed in range(20):
            dense = echo_state_network(n, density, 0.9, seed).matrix.to_dense()
            radius = np.abs(np.linalg.eigvals(dense)).max()
            assert abs(radius - 0.9) <= 1e-6, (n, seed, radius)


def test_esn_of_a_nilpotent_matrix_cannot_be_rescaled():
    # a single weight off the diagonal: the radius is 0
    with pytest.raises(ArgumentTooSmall, match="spectral radius is zero"):
        echo_state_network(100, 1e-4, 0.9, seed=1)


def test_esn_zero_state_is_fixed_point():
    system = echo_state_network(50, 0.1, 0.8, seed=1)
    system.run(5)
    assert np.array_equal(system.state, np.zeros(50))


def test_esn_step_is_tanh_of_matvec(rng):
    system = echo_state_network(50, 0.1, 0.8, seed=1)
    x = rng.uniform(-1, 1, 50)
    system.set_state(x.copy())
    system.step()
    assert np.allclose(
        system.state, np.tanh(system.matrix.to_dense() @ x), rtol=0, atol=1e-12
    )


def test_esn_fading_memory_smoke():
    # fixed seed chosen so the scaled matrix genuinely contracts under tanh
    system = echo_state_network(200, 0.05, 0.9, seed=1)
    rng = np.random.default_rng(2024)
    a, b = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
    d0 = np.linalg.norm(a - b)
    sa = echo_state_network(200, 0.05, 0.9, seed=1)
    sa.set_state(a)
    sb = echo_state_network(200, 0.05, 0.9, seed=1)
    sb.set_state(b)
    sa.run(200)
    sb.run(200)
    assert np.linalg.norm(sa.state - sb.state) < 1e-6 * d0


def test_esn_validation():
    with pytest.raises(ArgumentTooSmall):
        echo_state_network(50, 0.1, 0.0, seed=1)
    with pytest.raises(ArgumentTooSmall):
        echo_state_network(3, 0.01, 0.9, seed=1)  # density*n*n < 1


def test_random_sparse_uniform_structure():
    m = random_sparse_uniform(40, 0.05, seed=8)
    assert m.shape == (40, 40)
    assert m.nnz == round(0.05 * 40 * 40)
    vals = [w for _, _, w in m.triplets()]
    assert all(-1.0 <= w < 1.0 for w in vals)
    again = random_sparse_uniform(40, 0.05, seed=8)
    assert np.array_equal(m.to_dense(), again.to_dense())


@pytest.mark.parametrize("n", [0, -3])
def test_random_sparse_uniform_needs_a_node(n):
    with pytest.raises(ArgumentTooSmall, match=f"n = {n} "):
        random_sparse_uniform(n, 0.5, seed=1)


def test_random_sparse_uniform_dense_limit():
    m = random_sparse_uniform(10, 1.0, seed=0)
    assert m.nnz == 100


@pytest.mark.parametrize("n,density,seed", [(40, 0.05, 8), (300, 0.2, 1), (2000, 0.01, 3), (7, 0.5, 2)])
def test_random_sparse_uniform_matches_set_sampler(n, density, seed):
    nnz = max(1, round(density * n * n))
    positions, weights = oracles.distinct_positions(n * n, nnz, seed)
    dense = np.zeros(n * n)
    dense[positions] = weights
    m = random_sparse_uniform(n, density, seed)
    assert m.nnz == nnz
    assert m.to_dense().tobytes() == dense.reshape(n, n).tobytes()


# -- SystemConfig ----------------------------------------------------------


def test_config_builds_every_kind():
    cases = [
        SystemConfig(kind="elementary_ca", width=8, rule_number=110),
        SystemConfig(kind="life", width=5, height=4),
        SystemConfig(kind="rbn", nodes=10, in_degree=2, seed=3),
        SystemConfig(kind="cml", width=8, eps=0.2, r=3.5),
        SystemConfig(kind="esn", nodes=30, density=0.1, rho=0.8, seed=3),
    ]
    for config in cases:
        config.validate()
        system = build_system(config)
        assert system.matrix.n_rows == config.n_cells


BUILD_CASES = {
    "elementary_ca": (SystemConfig(kind="elementary_ca", width=9, rule_number=110,
                                   wrapped=False), elementary_ca, (9, 110, False)),
    "life": (SystemConfig(kind="life", width=5, height=4, wrapped=False),
             game_of_life, (5, 4, False)),
    "rbn": (SystemConfig(kind="rbn", nodes=10, in_degree=2, seed=3),
            random_boolean_network, (10, 2, 3)),
    "cml": (SystemConfig(kind="cml", width=8, eps=0.2, r=3.5, wrapped=False),
            coupled_map_lattice, (8, 0.2, 3.5, False)),
    "esn": (SystemConfig(kind="esn", nodes=30, density=0.1, rho=0.8, seed=3),
            echo_state_network, (30, 0.1, 0.8, 3)),
}


@pytest.mark.parametrize("kind", BUILD_CASES)
def test_config_builds_what_the_preset_call_builds(kind):
    config, preset, args = BUILD_CASES[kind]
    init = np.arange(config.n_cells) % 2
    for built, direct in ((build_system(config), preset(*args)),
                          (build_system(config, init), preset(*args, init=init))):
        for name in ("data", "indices", "indptr"):
            assert getattr(built.matrix, name).tobytes() == getattr(direct.matrix, name).tobytes()
        assert repr(built.rule) == repr(direct.rule)
        if isinstance(direct.rule, TableRule):
            assert np.array_equal(built.rule.table, direct.rule.table)
        assert built.state.tobytes() == direct.state.tobytes()


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        SystemConfig(kind="turing_machine", width=8).validate()


def test_config_rejects_missing_fields():
    with pytest.raises(ConfigError):
        SystemConfig(kind="elementary_ca", width=8).validate()  # no rule
    with pytest.raises(ConfigError):
        SystemConfig(kind="rbn", nodes=10, in_degree=2).validate()  # no seed
    with pytest.raises(ConfigError):
        SystemConfig(kind="cml", width=8, eps=1.5, r=3.0).validate()
    with pytest.raises(ConfigError):
        SystemConfig(kind="esn", nodes=10, density=2.0, rho=0.9, seed=1).validate()
    for config in (SystemConfig(kind="elementary_ca", width=-3, rule_number=30),
                   SystemConfig(kind="life", width=4, height=-1),
                   SystemConfig(kind="esn", nodes=-1, density=0.5, rho=0.9, seed=1)):
        with pytest.raises(ConfigError, match="is negative"):
            config.validate()


@pytest.mark.parametrize("call", [
    lambda: random_boolean_network(5, 2, -1),
    lambda: echo_state_network(5, 0.5, 0.9, -1),
    lambda: random_sparse_uniform(5, 0.5, -1),
    lambda: random_boolean_tables(5, 2, -1),
    lambda: generate_random_digraph(5, -1, PositionalBase(2), False, 1),
    lambda: random_boolean_network(5, -1, 1),
], ids=["rbn seed", "esn seed", "sparse seed", "tables seed", "digraph degree", "rbn degree"])
def test_negative_seeds_and_degrees_are_refused(call):
    with pytest.raises(ArgumentTooSmall, match="is negative"):
        call()


def test_config_n_cells():
    assert SystemConfig(kind="life", width=6, height=4).n_cells == 24
    assert SystemConfig(kind="elementary_ca", width=9, rule_number=0).n_cells == 9
    assert SystemConfig(kind="rbn", nodes=7, in_degree=1, seed=0).n_cells == 7
