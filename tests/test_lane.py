"""The integer lane of discrete systems: uint8 state, an int32 matvec over a
cached int32 view of the matrix, or over the stencil view of a lattice
matrix, and one integer-keyed table lookup.

The lane must give the histories of the float64 engine bit for bit, raise
the same errors with the same messages, and leave every system it cannot
run exactly on the float path.
"""

import hashlib

import numpy as np
import pytest

from latflow import backend
from latflow.engine import DynamicalSystem
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
from latflow.systems import echo_state_network, elementary_ca, game_of_life, random_boolean_network
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
            # a lattice matrix takes the stencil kernel and needs no int32 copy
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
    # stencil kernel instead (tests/test_kernels.py)
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


def stepped(system, steps):
    """The history of ``steps`` calls of system.step(), the per-step path."""
    rows = [system.state]
    for _ in range(steps):
        system.step()
        rows.append(system.state)
    return np.array(rows)


def assert_fused_matches_per_step(monkeypatch, make, steps):
    """run() on each backend, and run() without a history, give the bytes,
    final state and t of step() called in a loop; under the compiled
    backend run() takes the fused kernel."""
    want = stepped(make(), steps)
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        system = make()
        assert (system._fused_lane() is not None) == (which == "c")
        history = system.run(steps, record=True)
        assert history.states.tobytes() == want.tobytes(), which
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


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 6, 7, 20])
def test_fused_runs_of_any_length_against_the_chunk(monkeypatch, steps):
    from latflow import engine

    # a chunk of 3 steps of the 33 x 5 grid
    monkeypatch.setattr(engine, "_FUSED_CELL_UPDATES", 3 * 33 * 5 + 2)
    init = init_bits(33 * 5, 8)
    assert_fused_matches_per_step(monkeypatch, lambda: game_of_life(33, 5, True, init), steps)


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
        with pytest.raises(KeyOutOfTable) as info:
            system.run(40, record=record)
        assert str(info.value) == str(expected.value)
        assert system.t == want.t
        assert system.state.tobytes() == want.state.tobytes()


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


def test_run_calls_a_step_wrapped_on_the_class_once_per_step(monkeypatch):
    # as a tracer that replaces DynamicalSystem.step does
    calls = []
    step = DynamicalSystem.step

    def wrapped(self):
        calls.append(self.t)
        return step(self)

    monkeypatch.setattr(DynamicalSystem, "step", wrapped)
    game_of_life(16, 16, True, init_bits(256, 4)).run(6)
    assert calls == [0, 1, 2, 3, 4, 5]


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
def test_only_two_state_stencil_systems_take_the_fused_kernel(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    wide = np.ones((5, 7))  # |w| summing to 35: keys span 36 values
    cases = {
        "life": (game_of_life(8, 8).matrix, game_of_life_rule(), True),
        "elementary": (elementary_ca(9, 30).matrix, elementary_rule(30), True),
        "three states": (generate_ca_1d(GridSpec(9), NeighborhoodSpec1D((9, 3, 1), 1)),
                         TableRule(np.arange(27) % 3, n_states=3), False),
        "keys spanning 36": (generate_ca_2d(GridSpec(9, 9), NeighborhoodSpec2D(wide, (2, 3))),
                             TableRule(np.arange(36) % 2, center_weight=1), False),
        "no stencil view": (ring(9, [4, 2, 1]), elementary_rule(30), False),
        "per-node tables": (elementary_ca(9, 30).matrix, random_boolean_tables(9, 3, 1), False),
    }
    for name, (matrix, rule, fused) in cases.items():
        system = DynamicalSystem(matrix, rule, np.zeros(matrix.n_rows))
        assert (system._fused_lane() is not None) == fused, name
    monkeypatch.setattr(backend, "BACKEND", "python")
    assert game_of_life(8, 8)._fused_lane() is None


@needs_compiled
def test_fused_wrapper_rejects_wrong_buffers(monkeypatch):
    monkeypatch.setattr(backend, "BACKEND", "c")
    system = game_of_life(8, 8, True, init_bits(64, 1))
    lane = system._fused_lane()
    x = system._state
    for args in (
        (x[:63], 2, None, *lane),
        (x.astype(np.int32), 2, None, *lane),
        (x, 2, np.zeros((3, 64)), *lane),
        (x, 2, np.zeros((2, 64), dtype=np.float32), *lane),
        (x, 2, np.zeros((2, 128))[:, ::2], *lane),
        (x, 2, None, *lane[:6], lane[6][:31], lane[7]),
        (x, 2, None, *lane[:5], lane[5].astype(np.int32), *lane[6:]),
    ):
        with pytest.raises(ValueError):
            backend._stencil_steps_u8(*args)
    far = lane[3].copy()
    far[0] = 8
    with pytest.raises(ValueError, match="past the grid"):
        backend._stencil_steps_u8(x, 2, None, *lane[:3], far, *lane[4:])
