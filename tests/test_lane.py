"""The integer lane of discrete systems: uint8 state, an int32 matvec over a
cached int32 view of the matrix and one integer-keyed table lookup, or a
fused kernel that runs whole steps of a two-state system.

The lane must give the histories of the float64 engine bit for bit, raise
the same errors with the same messages, and leave every system it cannot
run exactly on the float path.
"""

import hashlib
import itertools
import os
import stat
import tracemalloc

import numpy as np
import pytest

import oracles
from latflow import backend
from latflow.engine import DynamicalSystem, load_history
from latflow.errors import BadStateValue, DimensionMismatch, KeyOutOfTable, NonIntegerKey
from latflow.rules import (
    ContinuousMap,
    TableRule,
    apply_rule,
    elementary_rule,
    game_of_life_rule,
    random_boolean_tables,
    rule_from_text,
)
from latflow.sparse import SparseMatrix
from latflow.systems import (
    coupled_map_lattice,
    echo_state_network,
    elementary_ca,
    game_of_life,
    random_boolean_network,
)
from latflow.topology import (
    GridSpec,
    NeighborhoodSpec1D,
    NeighborhoodSpec2D,
    generate_ca_1d,
    generate_ca_2d,
)

HEADER = "# latflow rule v1 tables=index0first\n"
# count keys are the neighbor count plus 4 * own state: 0-2 and 4-6, so key 3
# is a hole that the dynamics never reach
HOLEY_COUNT = HEADER + "rule count center_weight=4 table=0:0,1:1,2:1,4:1,5:0,6:0\n"


def ring(width, weights):
    """Wrapped 1-D ring: row i takes weights[j] from cell i + j - 1."""
    cells = np.arange(width)
    rows = np.concatenate([cells] * len(weights))
    cols = np.concatenate([(cells + j - 1) % width for j in range(len(weights))])
    vals = np.repeat(np.asarray(weights, dtype=np.float64), width)
    return SparseMatrix.from_coo(width, width, rows, cols, vals)


def ragged_network(n, seed):
    """Node i reads 1 to 3 random inputs with weights 1, 2, 4 and has a
    random table of 2^k_i entries, padded with -1 to 8."""
    rng = np.random.default_rng(seed)
    degrees = rng.integers(1, 4, n)
    rows = np.repeat(np.arange(n), degrees)
    cols = np.concatenate([rng.choice(n, k, replace=False) for k in degrees])
    vals = np.concatenate([2.0 ** np.arange(k) for k in degrees])
    table = np.full((n, 8), -1)
    for i, k in enumerate(degrees):
        table[i, : 2**k] = rng.integers(0, 2, 2**k)
    return SparseMatrix.from_coo(n, n, rows, cols, vals), TableRule(table)


def init_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.float64)


def ragged_system():
    matrix, rule = ragged_network(300, 5)
    return DynamicalSystem(matrix, rule, init_bits(300, 7))


# name: (system, steps, SHA-256 of the recorded float64 history), the
# digests taken with the float64 engine that preceded the integer lane
PINNED = {
    "life 64x64 wrapped": (
        lambda: game_of_life(64, 64, True, init_bits(64 * 64, 1)), 120,
        "ace7c7867f0c3afda35aef6febb5c37bdda3eb07f76f4caaef363a1edf8990d7"),
    "life 20x13 unwrapped": (
        lambda: game_of_life(20, 13, False, init_bits(20 * 13, 2)), 60,
        "aa8d587c148e55e85faea22f2cd7a8c7d568f9a53612540f3f26654a6fe95f8b"),
    "eca 30": (
        lambda: elementary_ca(101, 30, True, init_bits(101, 3)), 100,
        "774c605cbc98994d128a6387d28f93dcd03aeed2a32d57f16a2c9e3719100a92"),
    "eca 110": (
        lambda: elementary_ca(101, 110, False, init_bits(101, 4)), 100,
        "0f6f095884b1241987c571bc29dfde058d1e0f8a64e96fe0e54c22626c182d8f"),
    "rbn 2000 k3": (
        lambda: random_boolean_network(2000, 3, 7, init_bits(2000, 5)), 80,
        "0bb915c6bb28cb7ab74f92ef3c6a8d35824dfd2bf1580ec7db1542c716d6ed73"),
    "count rule with holes": (
        lambda: DynamicalSystem(ring(97, [1, 4, 1]), rule_from_text(HOLEY_COUNT), init_bits(97, 6)),
        80, "f5b5248e8ffa09dc7634f3271e0c98a36a0811a772c78c2b9a929908ab59a268"),
    "ragged per-node": (
        ragged_system, 60,
        "4a306dd6e7d1d8eeb0c2247519844a789aaae6f767453ab7eea0e43b46eda322"),
}

BACKENDS = ("python", "c") if backend.compiled_available() else ("python",)


@pytest.mark.parametrize("name", PINNED)
def test_pinned_histories_on_both_backends(monkeypatch, name):
    make, steps, digest = PINNED[name]
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = make()
        history = system.run(steps, record=True)
        assert system._state.dtype == np.uint8
        if which == "c" and name.startswith(("life", "eca")):
            # a lattice takes the fused stencil lane and needs no int32 copy
            assert isinstance(system.matrix._stencil, tuple)
            assert system.matrix._int32 is None
        else:
            assert isinstance(system.matrix._int32, tuple)
        assert hashlib.sha256(history.states.tobytes()).hexdigest() == digest, which


# systems whose first step fails, with the error class and message of the
# float64 engine
LANE_ERRORS = {
    "key beyond the table": (
        lambda: DynamicalSystem(SparseMatrix.from_dense(20 * np.eye(3)), game_of_life_rule(),
                                [0, 1, 0]),
        KeyOutOfTable, "key 20 at index 1 is not in the table"),
    "count-table hole": (
        lambda: DynamicalSystem(ring(7, [1, 2, 1]), rule_from_text(HOLEY_COUNT),
                                [0, 0, 1, 1, 0, 0, 0]),
        KeyOutOfTable, "key 3 at index 2 is not in the table"),
    "per-node row count": (
        lambda: DynamicalSystem(ring(5, [1, 2]), random_boolean_tables(6, 2, seed=1),
                                [0, 1, 1, 0, 1]),
        DimensionMismatch, "5 preactivations for 6 node tables"),
}


@pytest.mark.parametrize("name", LANE_ERRORS)
def test_lane_errors_keep_their_class_and_message(monkeypatch, name):
    make, error, message = LANE_ERRORS[name]
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = make()
        assert system._state.dtype == np.uint8
        with pytest.raises(error) as info:
            system.step()
        assert str(info.value) == message
        assert isinstance(system.matrix._int32, tuple)


def test_non_integer_weights_stay_on_the_float_path(monkeypatch):
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = DynamicalSystem(ring(7, [4, 2.5, 1]), elementary_rule(30), [0, 0, 1, 0, 0, 0, 0])
        with pytest.raises(NonIntegerKey) as info:
            system.step()
        assert str(info.value) == "preactivation 2.5 at index 2 is not an integer key"
        assert system.matrix._int32 is False


def test_a_row_sum_over_the_bound_stays_on_the_float_path(monkeypatch):
    # a uint8 state of 255 against a row whose |weights| sum to s gives a key
    # of 255 * s, which int32 holds exactly only below 2**31
    bound = (2**31 - 1) // 255
    for row_sum, exact in ((bound, True), (bound + 1, False)):
        m = SparseMatrix.from_coo(2, 3, [0, 0, 1], [0, 2, 1], [-(row_sum - 1), 1, 7])
        x = np.array([255, 3, 255], dtype=np.uint8)
        for which in BACKENDS:
            monkeypatch.setattr(backend, "BACKEND", which)
            m._int32 = None
            y = m.matvec(x)
            assert y.dtype == (np.int32 if exact else np.float64)
            assert y.tolist() == [-255 * (row_sum - 1) + 255, 21]
    system = DynamicalSystem(ring(7, [4e6, 4e6, 1e6]), elementary_rule(30), [0, 0, 1, 0, 0, 0, 0])
    with pytest.raises(KeyOutOfTable) as info:
        system.step()
    assert str(info.value) == "key 1000000 at index 1 is not in the table"
    assert system.matrix._int32 is False


def test_columns_beyond_int32_stay_on_the_float_path():
    assert SparseMatrix.from_coo(1, 2**31, [0], [5], [1.0])._int32_view() is False


def reversing(n_states):
    """A pattern rule of n_states states, key k -> n_states - 1 - k, and a
    state holding every seventh state and the last."""
    rule = TableRule(np.arange(n_states)[::-1], n_states=n_states)
    return rule, np.append(np.arange(0, n_states - 1, 7), n_states - 1).astype(np.float64)


def test_more_than_255_states_stay_on_the_float_path(monkeypatch):
    rule, init = reversing(256)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = DynamicalSystem(SparseMatrix.from_dense(np.eye(len(init))), rule, init)
        assert system._state.dtype == np.float64
        history = system.run(2, record=True)
        assert np.array_equal(history.states, [init, 255 - init, init])
        assert apply_rule(rule, np.array([3.0])).dtype == np.float64
        assert system.matrix._int32 is None  # never asked for


@pytest.mark.parametrize("n_states", [128, 129, 200, 254, 255])
def test_up_to_255_states_run_on_the_lane(monkeypatch, n_states):
    rule, init = reversing(n_states)
    top = n_states - 1
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = DynamicalSystem(SparseMatrix.from_dense(np.eye(len(init))), rule, init)
        assert system._state.dtype == np.uint8
        history = system.run(2, record=True)
        assert history.states.dtype == np.float64
        assert np.array_equal(history.states, [init, top - init, init])
        assert isinstance(system.matrix._int32, tuple)
        assert apply_rule(rule, np.array([3.0])).tolist() == [top - 3]
        assert apply_rule(rule, np.array([3.0])).dtype == np.uint8


def test_a_hole_in_a_255_state_table_is_not_a_state(monkeypatch):
    # the uint8 table marks a hole with 255, one above the largest state
    rule = TableRule([254, -1, 0], n_states=255, center_weight=1)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        assert apply_rule(rule, np.array([0, 2, 0], dtype=np.int32)).tolist() == [254, 0, 254]
        with pytest.raises(KeyOutOfTable) as info:
            apply_rule(rule, np.array([0, 1], dtype=np.int32))
        assert str(info.value) == "key 1 at index 1 is not in the table"


def test_int32_view_is_built_on_the_first_uint8_matvec():
    # life's matrix without the taps of its stencil, which would take the
    # fused stencil lane instead
    life = game_of_life(8, 8, True)
    matrix = SparseMatrix.from_dense(life.matrix.to_dense())
    system = DynamicalSystem(matrix, life.rule, init_bits(64, 3))
    assert system.matrix._int32 is None
    system.matrix.matvec(system.state)
    assert system.matrix._int32 is None
    system.step()
    data, indices, width = system.matrix._int32
    assert data.dtype == indices.dtype == np.int32
    assert width == 9
    assert np.array_equal(data, system.matrix.data)
    assert np.array_equal(indices, system.matrix.indices)


def test_uint8_matvec_is_the_exact_integer_product_on_both_backends(monkeypatch, rng):
    for _ in range(20):
        rows, cols = (int(v) for v in rng.integers(1, 40, 2))
        dense = np.where(rng.random((rows, cols)) < 0.3, rng.integers(-99, 100, (rows, cols)), 0)
        x = rng.integers(0, 256, cols).astype(np.uint8)
        m = SparseMatrix.from_dense(dense)
        for which in BACKENDS:
            monkeypatch.setattr(backend, "BACKEND", which)
            y = m.matvec(x)
            assert y.dtype == np.int32
            assert np.array_equal(y, dense @ x.astype(np.int64))


def test_state_is_a_float64_copy_for_discrete_systems():
    system = elementary_ca(9, 30, True, init_bits(9, 2))
    state = system.state
    assert state.dtype == np.float64
    state[:] = 7.0
    assert np.array_equal(system.state, init_bits(9, 2))
    with pytest.raises(AttributeError):
        system.state = np.zeros(9)
    system.step()
    assert system.state.dtype == np.float64
    assert apply_rule(system.rule, np.array([3.0, 4.0])).dtype == np.uint8
    esn = echo_state_network(20, 0.2, 0.9, seed=1, init=np.full(20, 0.5))
    assert esn.state.dtype == np.float64


@pytest.mark.parametrize("rule", [elementary_rule(30), ContinuousMap("tanh")], ids=["table", "map"])
def test_an_empty_system_runs(rule):
    empty = SparseMatrix.from_coo(0, 0, [], [], [])
    system = DynamicalSystem(empty, rule, [])
    assert system.run(3, record=True).states.shape == (4, 0)
    system.set_state(np.zeros(0))
    assert system.t == 0 and system.state.shape == (0,)


@pytest.mark.parametrize("steps", [2.5, "3", None, 2.0])
def test_a_step_count_that_is_not_an_integer_is_refused(steps):
    system = elementary_ca(9, 30, True, init_bits(9, 2))
    with pytest.raises(BadStateValue, match="not an integer"):
        system.run(steps)
    assert system.t == 0


@pytest.mark.parametrize("steps", [3, np.int64(3), np.uint8(3), np.int32(3)])
def test_integer_step_counts_of_any_integer_type_run(steps):
    system = elementary_ca(9, 30, True, init_bits(9, 2))
    assert len(system.run(steps, record=True)) == 4
    assert system.t == 3


# -- the fused kernel of two-state lattice automata --------------------------

needs_compiled = pytest.mark.skipif("c" not in BACKENDS, reason="the extension is not built")


def step_loop(system, steps):
    """The history of ``steps`` calls of system.step()."""
    rows = [system.state]
    for _ in range(steps):
        system.step()
        rows.append(system.state)
    return np.array(rows)


def stepped(system, steps):
    """step_loop under the numpy backend, whose step is the matvec and the
    lookup: a reference that no fused kernel takes part in."""
    which, backend.BACKEND = backend.BACKEND, "python"
    try:
        return step_loop(system, steps)
    finally:
        backend.BACKEND = which


def assert_fused_matches_per_step(monkeypatch, make, steps):
    """run() and a loop of step() on each backend, and run() without a
    history, give the bytes, final state and t of the numpy per-step path;
    under the compiled backend both take the fused kernel."""
    want = stepped(make(), steps)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = make()
        assert (system._fused_lane() is not None) == (which == "c")
        history = system.run(steps, record=True)
        assert history.states.tobytes() == want.tobytes(), which
        assert step_loop(make(), steps).tobytes() == want.tobytes(), which
        assert system._state.dtype == np.uint8 and system.t == steps
        again = make()
        assert again.run(steps) is None
        assert again.state.tobytes() == want[-1].tobytes() and again.t == steps


WIDTHS = (31, 32, 33, 257, 301)


@pytest.mark.parametrize("wrapped", [True, False], ids=["wrapped", "unwrapped"])
@pytest.mark.parametrize("width", WIDTHS)
def test_fused_elementary_rules_match_the_per_step_path(monkeypatch, width, wrapped):
    init = init_bits(width, width)
    for number in range(256):
        assert_fused_matches_per_step(
            monkeypatch, lambda: elementary_ca(width, number, wrapped, init), 12)


@pytest.mark.parametrize("wrapped", [True, False], ids=["wrapped", "unwrapped"])
@pytest.mark.parametrize("width", WIDTHS)
def test_fused_life_matches_the_per_step_path(monkeypatch, width, wrapped):
    for height in (3, 19):
        init = init_bits(width * height, height)
        assert_fused_matches_per_step(
            monkeypatch, lambda: game_of_life(width, height, wrapped, init), 30)


def signed_stencil_system(width, height, wrapped, seed):
    """A binary stencil with negative weights, whose keys run from -10 to
    11, and a random two-state table over them: the byte sums wrap modulo
    256 below zero."""
    weights = np.array([[-3, 0, 2], [5, -1, 0], [0, 4, -6]], dtype=np.float64)
    matrix = generate_ca_2d(GridSpec(width, height, wrapped), NeighborhoodSpec2D(weights, (1, 1)))
    table = np.random.default_rng(seed).integers(0, 2, 22)
    rule = TableRule(table, lo=-10, center_weight=1)
    return DynamicalSystem(matrix, rule, init_bits(width * height, seed))


@pytest.mark.parametrize("wrapped", [True, False], ids=["wrapped", "unwrapped"])
@pytest.mark.parametrize("width", WIDTHS)
def test_fused_signed_stencil_matches_the_per_step_path(monkeypatch, width, wrapped):
    for seed in range(4):
        assert_fused_matches_per_step(
            monkeypatch, lambda: signed_stencil_system(width, 7, wrapped, seed), 20)


def gapped_system(width, wrapped, seed):
    """A count rule on a ring with weights (1, 10, 1): the keys that cells
    of 0 or 1 give are 0-2 and 10-12, so keys 3-9 are holes that no cell
    reaches, and the system keeps the fused kernel."""
    matrix = generate_ca_1d(GridSpec(width, wrapped=wrapped), NeighborhoodSpec1D((1, 10, 1), 1))
    table = np.full(13, -1)
    table[[0, 1, 2, 10, 11, 12]] = np.random.default_rng(seed).integers(0, 2, 6)
    return DynamicalSystem(matrix, TableRule(table, center_weight=10), init_bits(width, seed))


@pytest.mark.parametrize("wrapped", [True, False], ids=["wrapped", "unwrapped"])
@pytest.mark.parametrize("width", WIDTHS)
def test_fused_gapped_rule_matches_the_per_step_path(monkeypatch, width, wrapped):
    for seed in range(4):
        assert_fused_matches_per_step(
            monkeypatch, lambda: gapped_system(width, wrapped, seed), 20)


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 6, 7, 20])
def test_fused_runs_of_any_length_against_the_chunk(monkeypatch, steps):
    from latflow import engine

    # a chunk of 3 steps of the 33 x 5 grid
    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 3 * 33 * 5 + 2)
    init = init_bits(33 * 5, 8)
    assert_fused_matches_per_step(monkeypatch, lambda: game_of_life(33, 5, True, init), steps)


def test_a_wrapped_lattice_the_stencil_lane_declines_takes_the_network_lane(monkeypatch):
    # 3 taps whose |weights| sum to 33, past the stencil lane's 32 keys; an
    # unwrapped row is ragged at its ends, which the network lane declines
    def make():
        matrix = generate_ca_1d(GridSpec(301, wrapped=True), NeighborhoodSpec1D((20, 10, 3), 1))
        rule = TableRule(np.arange(34) * 7 // 3 % 2, center_weight=10)
        return DynamicalSystem(matrix, rule, init_bits(301, 25))

    assert_fused_matches_per_step(monkeypatch, make, 20)
    if "c" in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", "c")
        assert make()._fused_lane()[0] is backend._network_steps_u8


def growing_block(width):
    """Rule 'left or own' on a wrapped ring from one live cell: the live
    block grows by a cell a step, and the key of left and right alive
    around a dead cell, 3, is a hole.  The block first leaves a gap of one
    cell after width - 2 steps, so step width - 1 raises."""
    matrix = generate_ca_1d(GridSpec(width), NeighborhoodSpec1D((1, 4, 2), 1))
    rule = TableRule([0, 1, 0, -1, 1, 1, 1, 1], center_weight=4)
    init = np.zeros(width)
    init[0] = 1
    return DynamicalSystem(matrix, rule, init)


@pytest.mark.parametrize("chunk", [1, 4, 29, 1000])
@pytest.mark.parametrize("record", [False, True])
def test_a_hole_hit_in_a_fused_run_raises_as_the_per_step_path(monkeypatch, chunk, record):
    from latflow import engine

    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", chunk * 31)
    want = growing_block(31)
    with pytest.raises(KeyOutOfTable) as expected:
        stepped(want, 40)
    assert want.t == 29
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = growing_block(31)
        # key 3 is reachable and a hole, so run() steps by step()
        assert system._fused_lane() is None
        with pytest.raises(KeyOutOfTable) as info:
            system.run(40, record=record)
        assert str(info.value) == str(expected.value)
        assert system.t == want.t
        assert system.state.tobytes() == want.state.tobytes()


def three_state_count(width):
    """A three-state count rule on a wrapped ring from one cell of 1, whose
    key 9, both neighbors 2 around a cell of 1, is a hole first reached at
    step 17."""
    matrix = generate_ca_1d(GridSpec(width), NeighborhoodSpec1D((1, 5, 1), 1))
    table = (np.arange(15) * 7 + 1) % 3
    table[9] = -1
    init = np.zeros(width)
    init[0] = 1
    return DynamicalSystem(matrix, TableRule(table, n_states=3, center_weight=5), init)


@pytest.mark.parametrize("make, t", [(lambda: growing_block(31), 29),
                                     (lambda: three_state_count(31), 17)],
                         ids=["reachable hole", "three states"])
def test_a_step_loop_without_a_lane_raises_as_the_numpy_path(monkeypatch, make, t):
    outcomes = []
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = make()
        assert system._fused_lane() is None
        with pytest.raises(KeyOutOfTable) as info:
            step_loop(system, 40)
        outcomes.append((str(info.value), system.t, system.state.tobytes()))
    assert outcomes[0][1] == t
    assert outcomes == outcomes[:1] * len(BACKENDS)


@needs_compiled
def test_the_fused_kernel_is_called_in_chunks(monkeypatch):
    from latflow import engine

    monkeypatch.setattr(backend, "BACKEND", "c")
    calls = []
    kernel = backend._stencil_steps_u8

    def counted(x, steps, *args):
        calls.append(steps)
        return kernel(x, steps, *args)

    monkeypatch.setattr(backend, "_stencil_steps_u8", counted)
    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 10 * 64)
    system = game_of_life(8, 8, True, init_bits(64, 9))
    system.run(25)
    assert calls == [10, 10, 5]


def test_run_calls_an_overriding_step_once_per_step(monkeypatch):
    class Counting(DynamicalSystem):
        def step(self):
            self.calls += 1
            return super().step()

    life = game_of_life(16, 16, True, init_bits(256, 4))
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = Counting(life.matrix, life.rule, life.state)
        system.calls = 0
        history = system.run(9, record=True)
        assert system.calls == 9 and system._fused_lane() is None
        assert history.states.tobytes() == stepped(game_of_life(16, 16, True, life.state),
                                                   9).tobytes()


def test_run_asks_for_the_lane_once(monkeypatch):
    # a system without a lane steps by the matvec and the lookup in run()
    # without asking step by step whether it has one
    calls, lane = [], DynamicalSystem._fused_lane
    monkeypatch.setattr(DynamicalSystem, "_fused_lane",
                        lambda self: calls.append(self.t) or lane(self))
    three = np.random.default_rng(8).integers(0, 3, 64).astype(np.float64)
    rule = TableRule(np.arange(27) % 3, n_states=3)
    makes = (lambda: echo_state_network(40, 0.2, 0.9, 3),
             lambda: DynamicalSystem(ring(64, [1, 3, 9]), rule, three))
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        for make in makes:
            want = stepped(make(), 50)
            system = make()
            calls.clear()
            history = system.run(50, record=True)
            assert calls == [0], which
            assert history.states.tobytes() == want.tobytes() and system.t == 50


def test_run_calls_a_step_wrapped_on_the_class_once_per_step(monkeypatch):
    # as a tracer that replaces DynamicalSystem.step, SparseMatrix.matvec and
    # the engine's apply_rule does: the step it wraps takes no fused kernel,
    # so each step has a matvec and a lookup for the tracer to time
    from latflow import engine

    calls = []
    step, matvec, apply = DynamicalSystem.step, SparseMatrix.matvec, engine.apply_rule

    def wrapped(self):
        calls.append(self.t)
        return step(self)

    monkeypatch.setattr(DynamicalSystem, "step", wrapped)
    monkeypatch.setattr(SparseMatrix, "matvec",
                        lambda self, v: calls.append("matvec") or matvec(self, v))
    monkeypatch.setattr(engine, "apply_rule",
                        lambda rule, pre: calls.append("apply_rule") or apply(rule, pre))
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        for system in (game_of_life(16, 16, True, init_bits(256, 4)),
                       random_boolean_network(300, 2, 3, init_bits(300, 4))):
            calls.clear()
            system.run(6)
            system.step()
            assert calls == [x for t in range(7) for x in (t, "matvec", "apply_rule")], which


@pytest.mark.parametrize("record", [False, True])
def test_a_fused_run_uses_the_rule_and_matrix_assigned_last(monkeypatch, record):
    init = init_bits(64, 11)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = elementary_ca(64, 30, True, init)
        system.run(5)
        system.rule = elementary_rule(90)
        state = system.state
        got = system.run(8, record=record)
        want = stepped(elementary_ca(64, 90, True, state), 8)
        assert got is None or got.states.tobytes() == want.tobytes()
        assert system.state.tobytes() == want[-1].tobytes()
        system.matrix = elementary_ca(64, 90, False).matrix
        state = system.state
        system.run(8)
        assert system.state.tobytes() == stepped(elementary_ca(64, 90, False, state),
                                                 8)[-1].tobytes()


@needs_compiled
def test_only_two_state_systems_take_a_fused_kernel(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    wide = np.ones((5, 7))  # |w| summing to 35: keys span 36 values
    block, gapped = growing_block(9), gapped_system(9, True, 0)
    stencil, network = backend._stencil_steps_u8, backend._network_steps_u8
    three_states = TableRule(np.arange(27) % 3, n_states=3)
    cases = {
        "life": (game_of_life(8, 8).matrix, game_of_life_rule(), stencil),
        "elementary": (elementary_ca(9, 30).matrix, elementary_rule(30), stencil),
        "three states": (generate_ca_1d(GridSpec(9), NeighborhoodSpec1D((9, 3, 1), 1)),
                         three_states, None),
        "keys spanning 36": (generate_ca_2d(GridSpec(9, 9), NeighborhoodSpec2D(wide, (2, 3))),
                             TableRule(np.arange(36) % 2, center_weight=1), None),
        "a reachable hole": (block.matrix, block.rule, None),
        "an unreachable hole": (gapped.matrix, gapped.rule, stencil),
        "per-node tables on a stencil": (elementary_ca(9, 30).matrix,
                                         random_boolean_tables(9, 3, 1), network),
        "no stencil view": (ring(9, [4, 2, 1]), elementary_rule(30), network),
        "per-node tables": (ring(9, [4, 2, 1]), random_boolean_tables(9, 3, 1), network),
        "a network of three states": (ring(9, [9, 3, 1]), three_states, None),
        "ragged rows": (*ragged_network(9, 1), None),
        "a table row too many": (ring(9, [4, 2, 1]), random_boolean_tables(10, 3, 1), None),
        "a reachable network hole": (ring(9, [1, 2, 1]), rule_from_text(HOLEY_COUNT), None),
        "an unreachable network hole": (ring(9, [1, 4, 1]), rule_from_text(HOLEY_COUNT), network),
        "non-integer weights": (ring(9, [4, 2.5, 1]), elementary_rule(30), None),
        # 9 * 2**5 folded entries against 32 table entries and 9 * 5 weights
        "a folded table over its bound": (ring(9, [1, 2, 4, 8, 16]),
                                          TableRule(np.arange(32) % 2), None),
        "a folded table at its bound": (ring(9, [1, 2, 4, 8]), TableRule(np.arange(16) % 2),
                                        network),
    }
    for name, (matrix, rule, kernel) in cases.items():
        system = DynamicalSystem(matrix, rule, np.zeros(matrix.n_rows))
        lane = system._fused_lane()
        assert (lane and lane[0]) == kernel, name
    # a matrix assigned that does not fit the state is left to step()
    for matrix in (elementary_ca(16, 30).matrix, ring(10, [4, 2, 1]),
                   SparseMatrix.from_coo(9, 10, np.arange(9), np.arange(1, 10), np.ones(9))):
        system = DynamicalSystem(ring(9, [4, 2, 1]), elementary_rule(30), np.zeros(9))
        system.matrix = matrix
        assert system._fused_lane() is None
        with pytest.raises(DimensionMismatch):
            system.run(1)
    monkeypatch.setattr(backend, "BACKEND", "python")
    assert game_of_life(8, 8)._fused_lane() is None
    assert random_boolean_network(9, 2, 1)._fused_lane() is None


@needs_compiled
def test_every_two_state_preset_takes_a_fused_lane(monkeypatch):
    # the per-step path, matvec then lookup, is the slow one: no preset may
    # fall back to it
    monkeypatch.setattr(backend, "BACKEND", "c")
    cases = [(elementary_ca(33, number, wrapped), backend._stencil_steps_u8)
             for number in range(256) for wrapped in (True, False)]
    cases += [(game_of_life(12, 9, wrapped), backend._stencil_steps_u8)
              for wrapped in (True, False)]
    cases += [(random_boolean_network(64, k, seed=k), backend._network_steps_u8)
              for k in (1, 2, 3, 4)]
    for system, kernel in cases:
        lane = system._fused_lane()
        assert lane is not None and lane[0] is kernel


@pytest.mark.parametrize("matrix", [elementary_ca(16, 30).matrix, ring(16, [4, 2, 1])],
                         ids=["stencil", "network"])
def test_a_state_left_by_a_rule_of_more_states_runs_as_the_per_step_path(monkeypatch, matrix):
    # the kernels take a cell for its low bit: a cell of 2 must reach step()
    init = np.zeros(16)
    init[3] = 2
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        errors = []
        for advance in (DynamicalSystem.step, lambda system: system.run(1)):
            system = DynamicalSystem(matrix, TableRule(np.arange(27) % 3, n_states=3), init)
            system.rule = elementary_rule(30)
            with pytest.raises(KeyOutOfTable) as info:
                advance(system)
            errors.append(str(info.value))
        assert errors == ["key 8 at index 4 is not in the table"] * 2, which


@needs_compiled
def test_fused_wrapper_rejects_wrong_buffers(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    system = game_of_life(8, 8, True, init_bits(64, 1))
    kernel, lane = system._fused_lane()
    assert kernel is backend._stencil_steps_u8
    x = system._state
    for args in (
        (x[:63], 2, None, *lane),
        (x.astype(np.int32), 2, None, *lane),
        (x, 2, np.zeros((3, 64), dtype=np.uint8), *lane),
        (x, 2, np.zeros((2, 64)), *lane),
        (x, 2, np.zeros((2, 64), dtype=np.int8), *lane),
        (x, 2, np.zeros((2, 128), dtype=np.uint8)[:, ::2], *lane),
        (x, 2, None, *lane[:6], lane[6][:31], lane[7]),
        (x, 2, None, *lane[:5], lane[5].astype(np.int32), *lane[6:]),
        (x, 2, None, *lane[:3], lane[3].astype(np.int64), *lane[4:]),
        (x, 2, None, *lane[:3], lane[3][:-1], *lane[4:]),
    ):
        with pytest.raises(ValueError):
            backend._stencil_steps_u8(*args)
    history = np.zeros((2, 64), dtype=np.uint8)
    backend._stencil_steps_u8(x, 2, history, *lane)
    assert np.array_equal(history.astype(np.float64), stepped(system, 2)[1:])
    far = lane[3].copy()
    far[0] = 8
    with pytest.raises(ValueError, match="past the grid"):
        backend._stencil_steps_u8(x, 2, None, *lane[:3], far, *lane[4:])


@needs_compiled
@pytest.mark.parametrize("width", [9, 33, 130])
@pytest.mark.parametrize("holes", ["all", "reachable", "any byte"])
def test_a_table_that_breaks_the_coverage_guarantee_stays_in_bounds(monkeypatch, width, holes):
    # the kernel checks no key; with 255 at keys that occur, or next states
    # other than 0 and 1, its cells leave 0 and 1 and its keys leave the
    # table's 32 entries, and it must still read and write inside its
    # buffers (tests/test_sanitizers.py runs this)
    monkeypatch.setattr(backend, "BACKEND", "c")
    for system in (game_of_life(width, 5, True, init_bits(width * 5, 1)),
                   signed_stencil_system(width, 5, False, 2)):
        _, lane = system._fused_lane()
        table = lane[6].copy()
        if holes == "all":
            table[:] = 255
        elif holes == "reachable":
            table[: int(np.abs(lane[5]).sum()) + 1 : 2] = 255
        else:
            table[:] = np.random.default_rng(width).integers(0, 256, 32)
        history = np.empty((7, system.n), dtype=np.uint8)
        state = backend._stencil_steps_u8(system._state, 7, history, *lane[:6], table, lane[7])
        assert np.array_equal(history[-1], state)
        assert state.shape == system._state.shape and state.dtype == np.uint8


# -- the fused kernel of two-state networks ----------------------------------

def rbn_oracle_history(system, steps):
    """The history of ``steps`` steps that oracles.rbn_step replays from a
    network's node_inputs and per-node tables, not from its matrix."""
    rows = [system.state]
    for _ in range(steps):
        rows.append(oracles.rbn_step(rows[-1], system.node_inputs, system.rule.table))
    return np.array(rows)


@pytest.mark.parametrize("k", range(1, 7))
def test_fused_networks_match_the_rbn_oracle(monkeypatch, k):
    from latflow import engine

    n, steps = 301, 23
    init = init_bits(n, k)
    want = rbn_oracle_history(random_boolean_network(n, k, k, init), steps)
    # chunks of 4 steps, so that every run crosses chunk boundaries
    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 4 * n + 3)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = random_boolean_network(n, k, k, init)
        lane = system._fused_lane()
        assert (lane and lane[0]) == (backend._network_steps_u8 if which == "c" else None)
        history = system.run(steps, record=True)
        assert history.states.tobytes() == want.tobytes(), which
        assert system._state.dtype == np.uint8 and system.t == steps
        again = random_boolean_network(n, k, k, init)
        assert again.run(steps) is None
        assert again.state.tobytes() == want[-1].tobytes() and again.t == steps
        # runs of 0, 1 and 9 steps and then the rest continue one another
        split = random_boolean_network(n, k, k, init)
        rows = [split.run(m, record=True).states[1:] for m in (0, 1, 9, steps - 10)]
        assert np.concatenate(rows).tobytes() == want[1:].tobytes(), which


def signed_network(n, seed):
    """Three inputs a node, weights from -4 to 4, and one count table from
    the lowest key that rows of such weights can give, with a hole at every
    key that no node can produce."""
    rng = np.random.default_rng(seed)
    cols = np.concatenate([rng.choice(n, 3, replace=False) for _ in range(n)])
    vals = rng.integers(-4, 5, 3 * n).astype(np.float64)
    matrix = SparseMatrix.from_coo(n, n, np.repeat(np.arange(n), 3), cols, vals)
    w = matrix.data.reshape(n, 3).astype(np.int64)
    keys = w @ ((np.arange(8)[:, None] >> np.arange(3)) & 1).T  # (n, 8): every pattern
    table = np.full(25, -1)
    table[keys.ravel() + 12] = rng.integers(0, 2, 25)[keys.ravel() + 12]
    return matrix, TableRule(table, lo=-12, center_weight=1)


def test_fused_signed_networks_match_a_dense_oracle(monkeypatch):
    from latflow import engine

    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 5 * 200)
    for seed in range(4):
        matrix, rule = signed_network(200, seed)
        dense, table = matrix.to_dense(), rule.table
        want = [init_bits(200, seed)]
        for _ in range(17):
            want.append(table[(dense @ want[-1]).astype(np.int64) - rule.lo].astype(np.float64))
        for which in BACKENDS:
            monkeypatch.setattr(backend, "BACKEND", which)
            system = DynamicalSystem(matrix, rule, want[0])
            assert (system._fused_lane() is not None) == (which == "c")
            history = system.run(17, record=True)
            assert history.states.tobytes() == np.array(want).tobytes(), (seed, which)


def growing_ring(width):
    """growing_block on a ring matrix with no stencil view."""
    block = growing_block(width)
    return DynamicalSystem(ring(width, [1, 4, 2]), block.rule, block.state)


@pytest.mark.parametrize("record", [False, True])
def test_a_hole_hit_in_a_fused_network_run_raises_as_the_per_step_path(monkeypatch, record):
    from latflow import engine

    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 4 * 31)
    want = growing_ring(31)
    with pytest.raises(KeyOutOfTable) as expected:
        stepped(want, 40)
    assert want.t == 29
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = growing_ring(31)
        # key 3 is a hole that a pattern of the inputs gives, so the fold
        # declines and run() steps by step()
        assert system._fused_lane() is None
        with pytest.raises(KeyOutOfTable) as info:
            system.run(40, record=record)
        assert str(info.value) == str(expected.value)
        assert system.t == want.t
        assert system.state.tobytes() == want.state.tobytes()


@pytest.mark.parametrize("record", [False, True])
def test_a_fused_network_run_uses_the_rule_and_matrix_assigned_last(monkeypatch, record):
    init = init_bits(300, 12)
    first, second = random_boolean_network(300, 3, 1), random_boolean_network(300, 2, 2)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = DynamicalSystem(first.matrix, first.rule, init)
        system.run(5)
        system.rule = random_boolean_tables(300, 3, seed=9)
        state = system.state
        got = system.run(8, record=record)
        want = stepped(DynamicalSystem(first.matrix, system.rule, state), 8)
        assert got is None or got.states.tobytes() == want.tobytes()
        assert system.state.tobytes() == want[-1].tobytes()
        system.matrix, system.rule = second.matrix, second.rule
        state = system.state
        system.run(8)
        assert system.state.tobytes() == stepped(
            DynamicalSystem(second.matrix, second.rule, state), 8)[-1].tobytes()


def count_folds(monkeypatch):
    """The list that gets one entry per call of backend._fold_tables."""
    calls, fold = [], backend._fold_tables
    monkeypatch.setattr(backend, "_fold_tables", lambda *args: calls.append(1) or fold(*args))
    return calls


@needs_compiled
def test_a_loop_of_single_step_runs_folds_the_tables_once(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    calls = count_folds(monkeypatch)
    init = init_bits(100000, 4)
    system = random_boolean_network(100000, 2, 7, init)
    for _ in range(6):
        system.run(1)
    assert len(calls) == 1
    want = stepped(random_boolean_network(100000, 2, 7, init), 6)
    assert system.state.tobytes() == want[-1].tobytes() and system.t == 6


def fused_calls(monkeypatch):
    """The list that gets (kernel name, step count) per call of a fused
    kernel of the backend."""
    calls = []
    for name in ("_stencil_steps_u8", "_network_steps_u8"):
        kernel = getattr(backend, name)
        monkeypatch.setattr(backend, name, lambda x, steps, *args, name=name, kernel=kernel:
                            calls.append((name, steps)) or kernel(x, steps, *args))
    return calls


@needs_compiled
def test_a_loop_of_steps_calls_the_fused_kernel_one_step_a_call(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    calls, folds = fused_calls(monkeypatch), count_folds(monkeypatch)
    rbn = random_boolean_network(500, 3, 4, init_bits(500, 2))
    cases = (
        (game_of_life(24, 17, True, init_bits(24 * 17, 1)), "_stencil_steps_u8",
         lambda s: oracles.life_step(s.reshape(17, 24)).reshape(-1)),
        (elementary_ca(101, 30, True, init_bits(101, 3)), "_stencil_steps_u8",
         lambda s: oracles.eca_step(s, 30)),
        (rbn, "_network_steps_u8",
         lambda s: oracles.rbn_step(s, rbn.node_inputs, rbn.rule.table)),
    )
    for system, kernel, oracle in cases:
        calls.clear()
        want = system.state
        for t in range(1, 13):
            system.step()
            want = oracle(want)
            assert system.state.tobytes() == want.tobytes() and system.t == t, kernel
        assert calls == [(kernel, 1)] * 12
    assert len(folds) == 1


@needs_compiled
def test_assigning_a_rule_or_matrix_folds_the_tables_again(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    calls = count_folds(monkeypatch)
    first, second = random_boolean_network(300, 3, 1), random_boolean_network(300, 3, 2)
    system = DynamicalSystem(first.matrix, first.rule, init_bits(300, 5))
    for assign, folds in ((None, 1), (("rule", second.rule), 2), (None, 2),
                          (("matrix", second.matrix), 3), (("rule", first.rule), 4)):
        if assign:
            setattr(system, *assign)
        state = system.state
        system.run(3)
        assert len(calls) == folds, assign
        want = stepped(DynamicalSystem(system.matrix, system.rule, state), 3)
        assert system.state.tobytes() == want[-1].tobytes(), assign
    # every key is 0 or more, so from lo = 1 key 0 has no next state
    system.rule.lo = 1
    with pytest.raises(KeyOutOfTable):
        system.run(3)
    assert len(calls) == 5


@needs_compiled
def test_network_wrappers_reject_wrong_buffers(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    system = random_boolean_network(64, 3, 1, init_bits(64, 1))
    kernel, (indices, width, folded) = system._fused_lane()
    assert kernel is backend._network_steps_u8 and width == 3
    x = system._state
    for args in (
        (x[:63], 2, None, indices, width, folded),
        (x.astype(np.int32), 2, None, indices, width, folded),
        (x, 2, np.zeros((3, 64), dtype=np.uint8), indices, width, folded),
        (x, 2, np.zeros((2, 64)), indices, width, folded),
        (x, 2, np.zeros((2, 64), dtype=np.int8), indices, width, folded),
        (x, 2, np.zeros((2, 128), dtype=np.uint8)[:, ::2], indices, width, folded),
        (x, 2, None, indices.astype(np.int64), width, folded),
        (x, 2, None, indices[:-1], width, folded),
        (x, 2, None, indices, 2, folded),
        (x, 2, None, indices, 0, folded),
        (x, 2, None, indices, width, folded[:-1]),
        (x, 2, None, indices, width, folded.astype(np.int32)),
    ):
        with pytest.raises(ValueError):
            backend._network_steps_u8(*args)
    history = np.zeros((2, 64), dtype=np.uint8)
    backend._network_steps_u8(x, 2, history, indices, width, folded)
    assert np.array_equal(history.astype(np.float64), stepped(system, 2)[1:])
    weights, table = system.matrix._int32[0], system.rule._table8
    assert np.array_equal(backend._fold_tables(weights, width, table, 0), folded)
    for args in (
        (weights.astype(np.int64), width, table, 0),
        (weights[:-1], width, table, 0),
        (weights, 0, table, 0),
        (weights, 63, table, 0),
        (weights, width, table[:-1], 0),
        (weights, width, table.astype(np.int32), 0),
        (weights, width, table[:, ::2], 0),
    ):
        with pytest.raises(ValueError):
            backend._fold_tables(*args)


@needs_compiled
@pytest.mark.parametrize("n", [1, 9, 130])
@pytest.mark.parametrize("broken", ["holes", "any byte", "state"])
def test_a_folded_table_that_breaks_its_guarantee_stays_in_bounds(monkeypatch, n, broken):
    # the kernel checks no pattern: with 255 in the folded tables, next
    # states other than 0 and 1 or such a state, its cells leave 0 and 1,
    # and it must still read and write inside its buffers
    # (tests/test_sanitizers.py runs this)
    monkeypatch.setattr(backend, "BACKEND", "c")
    rng = np.random.default_rng(n)
    for k in (1, 2, 5):
        system = random_boolean_network(n + k, k, n, init_bits(n + k, 3))
        kernel, (indices, width, folded) = system._fused_lane()
        x = system._state
        if broken == "holes":
            folded = np.full_like(folded, 255)
        elif broken == "any byte":
            folded = rng.integers(0, 256, len(folded)).astype(np.uint8)
        else:
            x = rng.integers(0, 256, len(x)).astype(np.uint8)
        history = np.empty((7, len(x)), dtype=np.uint8)
        state = kernel(x, 7, history, indices, width, folded)
        assert np.array_equal(history[-1], state)
        assert state.shape == x.shape and state.dtype == np.uint8


# -- `latflow run` streams its rows through one chunk ----------------------

class OverridingStep(DynamicalSystem):
    """A subclass that replaces ``step``: it steps by step() and records
    float64 rows of its uint8 state."""

    def step(self):
        return super().step()


def streamed_float(make):
    init = np.random.default_rng(12).uniform(0.0, 1.0, 40)
    return lambda: make(init)


THREE = np.random.default_rng(8).integers(0, 3, 64).astype(np.float64)
# name: a system maker; the lanes, the per-step byte and float rows
STREAMED = {
    "stencil lane": lambda: game_of_life(12, 9, True, init_bits(108, 21)),
    "network lane": lambda: random_boolean_network(50, 3, 5, init_bits(50, 22)),
    "three states": lambda: DynamicalSystem(ring(64, [1, 3, 9]),
                                            TableRule(np.arange(27) % 3, n_states=3), THREE),
    "overriding step": lambda: OverridingStep(elementary_ca(33, 110).matrix,
                                              elementary_rule(110), init_bits(33, 23)),
    "esn": streamed_float(lambda init: echo_state_network(40, 0.2, 0.9, 3, init)),
    "cml": streamed_float(lambda init: coupled_map_lattice(40, 0.3, 3.9, True, init)),
}
# any config that validates: cli.build_system is replaced by the system's maker
STREAM_CONF = "system = elementary_ca\nwidth = 8\nrule = 30\nsteps = {steps}\n"


def run_streamed(monkeypatch, tmp_path, make, steps, record=None):
    """main(["run", ...]) of ``make()`` for ``steps`` steps, recorded to the
    file ``record`` in tmp_path or to stdout without one."""
    from latflow import cli

    monkeypatch.setattr(cli, "build_system", lambda config, init: make())
    conf = tmp_path / "run.conf"
    conf.write_text(STREAM_CONF.format(steps=steps) + (f"record = {record}\n" if record else ""))
    monkeypatch.chdir(tmp_path)
    return cli.main(["run", "--config", str(conf)])


@pytest.mark.parametrize("steps", [0, 2, 6, 7])
@pytest.mark.parametrize("name", STREAMED)
def test_a_streamed_run_writes_the_bytes_of_its_recorded_history(
        monkeypatch, tmp_path, capsys, name, steps):
    from latflow import engine

    make = STREAMED[name]
    n = make().n
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 1 << 22)
        want = make().run(steps, record=True)
        want.save_binary(tmp_path / "want.lfst")
        want.save_csv(tmp_path / "want.csv")
        want_csv = want.to_csv()
        # reading the states widens a byte history, so they are read last
        assert want.states.tobytes() == stepped(make(), steps).tobytes()
        # chunks of 3 steps, whose rows take 3 * n bytes or float64 values:
        # 6 steps are two chunks, 7 are three, 2 are one
        monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 3 * n * want._rows.itemsize)
        for record in ("got.lfst", "got.csv"):
            assert run_streamed(monkeypatch, tmp_path, make, steps, record) == 0
            assert (tmp_path / record).read_bytes() == (tmp_path / f"want{record[3:]}").read_bytes()
            out = capsys.readouterr().out
            assert out == f"recorded {steps + 1} states of {n} cells to {record}\n", which
        assert run_streamed(monkeypatch, tmp_path, make, steps) == 0
        assert capsys.readouterr().out == want_csv, which


def raising_on_call(n, raised, f):
    """``f``, except that its n-th call raises ``raised``."""
    count = itertools.count(1)

    def call(*args):
        if next(count) == n:
            raise raised("stopped")
        return f(*args)

    return call


def raise_on_the_third_chunk(monkeypatch, raised):
    """The stencil lane's life of STREAMED, in chunks of 2 steps, raising
    ``raised`` in the third call of the fused kernel (steps 5 and 6) or in
    the third step."""
    from latflow import engine

    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 2 * 108)
    monkeypatch.setattr(backend, "_stencil_steps_u8",
                        raising_on_call(3, raised, backend._stencil_steps_u8))
    monkeypatch.setattr(engine, "apply_rule", raising_on_call(3, raised, engine.apply_rule))
    return STREAMED["stencil lane"]


@pytest.mark.parametrize("earlier", [None, b"an earlier record"], ids=["new", "earlier"])
@pytest.mark.parametrize("record", ["h.lfst", "h.csv"])
@pytest.mark.parametrize("raised", [OSError, KeyboardInterrupt, KeyOutOfTable])
def test_a_streamed_run_that_raises_partway_leaves_no_record_file(
        monkeypatch, tmp_path, capsys, raised, record, earlier):
    from latflow import engine

    if raised is KeyOutOfTable:
        # the per-step path reaches a hole at step 29, in the eighth chunk
        monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 4 * 31)
        make = lambda: growing_block(31)  # noqa: E731
    else:
        make = raise_on_the_third_chunk(monkeypatch, raised)
    if earlier is not None:
        (tmp_path / record).write_bytes(earlier)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        if raised is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run_streamed(monkeypatch, tmp_path, make, 40, record)
        else:
            assert run_streamed(monkeypatch, tmp_path, make, 40, record) == 3
        # the earlier file as it was, or none; and no partial file beside it
        if earlier is None:
            assert sorted(os.listdir(tmp_path)) == ["run.conf"], which
        else:
            assert sorted(os.listdir(tmp_path)) == [record, "run.conf"], which
            assert (tmp_path / record).read_bytes() == earlier, which
        assert capsys.readouterr().out == ""


def test_a_streamed_run_writes_a_device_or_a_pipe_in_place_and_keeps_it(
        monkeypatch, tmp_path, capsys):
    assert run_streamed(monkeypatch, tmp_path, STREAMED["stencil lane"], 6, os.devnull) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    if not hasattr(os, "mkfifo"):
        return
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    # a reader first, so that opening the pipe to write does not block
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        make = raise_on_the_third_chunk(monkeypatch, OSError)
        assert run_streamed(monkeypatch, tmp_path, make, 40, fifo.name) == 3
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        # the rows before the raise went into the pipe: two chunks, or a
        # chunk and the step before the third
        rows = {"c": 5, "python": 3}[backend.BACKEND]
        assert os.read(reader, 1 << 16).count(b"\n") == rows
    finally:
        os.close(reader)
    assert capsys.readouterr().err == "error: stopped\n"


@pytest.mark.parametrize("record", ["h.lfst", "h.csv"])
def test_a_long_streamed_run_holds_one_chunk_of_rows(monkeypatch, tmp_path, record):
    from latflow import engine

    # chunks of 16 steps of 4096 cells, 64 KiB, against a history of 12 MB;
    # the rest is the system and the writers' temporaries
    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 16 * 4096)
    make = lambda: elementary_ca(4096, 30, True, init_bits(4096, 24))  # noqa: E731
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        tracemalloc.start()
        try:
            assert run_streamed(monkeypatch, tmp_path, make, 3000, record) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20, (which, peak)
        assert len(load_history(tmp_path / record)) == 3001
