import numpy as np
import pytest

import oracles
from latflow.engine import DynamicalSystem, StateHistory, load_history
from latflow.errors import (
    BadStateValue,
    DimensionMismatch,
    FileFormatError,
    NotSquare,
)
from latflow.rules import ContinuousMap, elementary_rule
from latflow.sparse import from_triplets
from latflow.systems import elementary_ca, game_of_life


def identity_matrix(n):
    return from_triplets(n, n, [(i, i, 1.0) for i in range(n)])


def test_rule_zero_steps_to_all_dead():
    sys0 = elementary_ca(8, 0)
    sys0.set_state(np.array([1.0, 0, 1, 1, 0, 0, 1, 0]))
    sys0.step()
    assert np.array_equal(sys0.state, np.zeros(8))


def test_identity_matrix_identity_map_is_fixed_point(rng):
    state = rng.uniform(-3, 3, 6)
    system = DynamicalSystem(identity_matrix(6), ContinuousMap("identity"), state.copy())
    system.run(10)
    assert np.array_equal(system.state, state)


def test_step_matches_direct_oracle_rule30(rng):
    system = elementary_ca(16, 30)
    init = rng.integers(0, 2, 16).astype(float)
    system.set_state(init.copy())
    h = system.run(16, record=True)
    expect = oracles.eca_run(init, 30, 16)
    assert np.array_equal(h.states, expect)


def test_rule90_width65_one_hot_matches_oracle():
    system = elementary_ca(65, 90)
    init = np.zeros(65)
    init[32] = 1.0
    system.set_state(init.copy())
    h = system.run(32, record=True)
    assert np.array_equal(h.states, oracles.eca_run(init, 90, 32))


def test_unwrapped_evolution_matches_oracle(rng):
    system = elementary_ca(16, 110, wrapped=False)
    init = rng.integers(0, 2, 16).astype(float)
    system.set_state(init.copy())
    h = system.run(16, record=True)
    assert np.array_equal(h.states, oracles.eca_run(init, 110, 16, wrapped=False))


def test_glider_cycle_rows():
    system = game_of_life(7, 7)
    init = np.zeros(49)
    for r, c in ((0, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        init[r * 7 + c] = 1.0
    system.set_state(init)
    h = system.run(29, record=True)
    assert np.array_equal(h.states[28], h.states[0])
    seen = {h.states[t].tobytes() for t in range(28)}
    assert len(seen) == 28  # rows 0..27 all distinct
    assert np.array_equal(h.states[29], h.states[1])


def test_run_zero_steps_records_initial_only(rng):
    system = elementary_ca(8, 110)
    init = rng.integers(0, 2, 8).astype(float)
    system.set_state(init.copy())
    h = system.run(0, record=True)
    assert len(h) == 1
    assert np.array_equal(h[0], init)


def test_run_without_record_returns_none():
    system = elementary_ca(8, 110)
    assert system.run(3) is None
    assert system.t == 3


def test_set_state_resets_step_counter():
    system = elementary_ca(8, 110)
    system.run(5)
    system.set_state(np.zeros(8))
    assert system.t == 0


def test_set_state_validation():
    system = elementary_ca(8, 110)
    with pytest.raises(BadStateValue):
        system.set_state(np.array([2.0] + [0.0] * 7))
    with pytest.raises(BadStateValue):
        system.set_state(np.array([0.5] + [0.0] * 7))
    with pytest.raises(BadStateValue):
        system.set_state(np.array([np.nan] + [0.0] * 7))
    with pytest.raises(DimensionMismatch):
        system.set_state(np.zeros(9))


def test_continuous_rule_accepts_any_finite_state():
    system = DynamicalSystem(identity_matrix(3), ContinuousMap("tanh"), np.zeros(3))
    system.set_state(np.array([-7.5, 0.25, 3.0]))
    with pytest.raises(BadStateValue):
        system.set_state(np.array([np.inf, 0.0, 0.0]))


def test_not_square_matrix_rejected():
    with pytest.raises(NotSquare):
        DynamicalSystem(from_triplets(2, 3, []), elementary_rule(0), np.zeros(3))


def test_determinism_same_inputs_same_trajectory(rng):
    init = rng.integers(0, 2, 12).astype(float)
    runs = []
    for _ in range(2):
        system = elementary_ca(12, 54)
        system.set_state(init.copy())
        runs.append(system.run(20, record=True).states)
    assert np.array_equal(runs[0], runs[1])


def test_discrete_closure(rng):
    system = elementary_ca(10, 150)
    system.set_state(rng.integers(0, 2, 10).astype(float))
    for _ in range(30):
        system.step()
        assert set(np.unique(system.state)).issubset({0.0, 1.0})


def test_wrapped_equivariance(rng):
    init = rng.integers(0, 2, 14).astype(float)
    a = elementary_ca(14, 110)
    a.set_state(np.roll(init, 3))
    b = elementary_ca(14, 110)
    b.set_state(init.copy())
    a.run(10)
    b.run(10)
    assert np.array_equal(a.state, np.roll(b.state, 3))


# -- StateHistory persistence ---------------------------------------------


def test_history_indexing(rng):
    data = rng.uniform(0, 1, (4, 3))
    h = StateHistory(data)
    assert len(h) == 4
    assert h.n == 3
    assert np.array_equal(h[2], data[2])


def test_csv_round_trip_exact(tmp_path, rng):
    data = rng.uniform(-1, 1, (6, 5))
    h = StateHistory(data)
    path = tmp_path / "h.csv"
    h.save_csv(path)
    back = StateHistory.load_csv(path)
    assert np.array_equal(back.states, data)


def test_binary_round_trip_exact(tmp_path, rng):
    data = rng.uniform(-1, 1, (7, 4))
    path = tmp_path / "h.lfst"
    StateHistory(data).save_binary(path)
    back = StateHistory.load_binary(path)
    assert np.array_equal(back.states, data)


def test_load_history_sniffs_format(tmp_path, rng):
    data = rng.uniform(0, 1, (3, 3))
    pc = tmp_path / "h.csv"
    pb = tmp_path / "h.bin"
    StateHistory(data).save_csv(pc)
    StateHistory(data).save_binary(pb)
    assert np.array_equal(load_history(pc).states, data)
    assert np.array_equal(load_history(pb).states, data)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError):
        StateHistory.load_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_rejected(value):
    with pytest.raises(FileFormatError):
        StateHistory.from_csv(f"1.0,2.0\n3.0,{value}\n")


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("")
    with pytest.raises(FileFormatError):
        StateHistory.load_csv(path)


def test_binary_truncated_rejected(tmp_path, rng):
    path = tmp_path / "h.lfst"
    StateHistory(rng.uniform(0, 1, (3, 3))).save_binary(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError):
        StateHistory.load_binary(path)


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "h.lfst"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        StateHistory.load_binary(path)
