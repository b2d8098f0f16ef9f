import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from latflow import backend
from latflow.analysis import CycleReport, detect_cycle
from latflow.engine import DynamicalSystem, StateHistory, load_history
from latflow.errors import (
    BadStateValue,
    DimensionMismatch,
    FileFormatError,
    NotSquare,
)
from latflow.rules import ContinuousMap, elementary_rule
from latflow.sparse import SparseMatrix
from latflow.systems import elementary_ca, game_of_life


BACKENDS = ("python", "c") if backend.compiled_available() else ("python",)


def identity_matrix(n):
    return SparseMatrix.from_triplets(n, n, [(i, i, 1.0) for i in range(n)])


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


# 2**62 rows numpy refuses to size; 2**52 rows of 64 bytes or more exceed any
# address space, so malloc refuses them whatever the host overcommits
@pytest.mark.parametrize("steps", [2**62, 2**52])
@pytest.mark.parametrize("rule", [elementary_rule(30), ContinuousMap("tanh")],
                         ids=["bytes", "float64"])
def test_a_history_too_large_to_allocate_raises_before_any_step(steps, rule):
    system = DynamicalSystem(elementary_ca(64, 30).matrix, rule, np.zeros(64))
    with pytest.raises(BadStateValue, match="no memory to record"):
        system.run(steps, record=True)
    assert system.t == 0


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
        DynamicalSystem(SparseMatrix.from_triplets(2, 3, []), elementary_rule(0), np.zeros(3))


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


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1.0]
)


# integer values, which the writer lays out as digits, around the largest
# below 1e16, from which repr takes the exponent form
INTEGRAL = st.integers(-(10**17), 10**17).map(float) | st.sampled_from(
    [-0.0, 0.0, 1.0, -1.0, 9.0, 10.0, 4294967295.0, 4294967296.0, 9999999999999998.0,
     -9999999999999998.0, 1e16, -1e16]
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=FINITE)
       | arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=9),
                elements=INTEGRAL))
def test_csv_is_repr_per_value_and_reads_back_exactly(x):
    text = StateHistory(x).to_csv()
    assert text == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x)
    back = StateHistory.from_csv(text).states
    assert back.shape == x.shape
    assert back.tobytes() == x.tobytes()  # -0.0 keeps its sign


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11.5", "\u0661.\u0665", "0x10"])
def test_csv_accepts_only_ascii_decimal_numbers(field):
    # float() reads the first four (10.0, 1.0, 1.5, 1.5); the reader does not
    with pytest.raises(FileFormatError):
        StateHistory.from_csv(f"1.0,2.0\n3.0,{field}\n")


# -- the two LFST layouts: float64 rows as LFST, uint8 rows as LFS8 ----------

LAYOUTS = ((b"LFST", np.dtype("<f8")), (b"LFS8", np.dtype(np.uint8)))

# uint8 payloads: any bytes, bytes that repeat often, and single rows
BYTE_PAYLOADS = (
    arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9))
    | arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
             elements=st.sampled_from([0, 1, 255]))
    | arrays(np.uint8, array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=9))
)
FLOAT_PAYLOADS = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


def lfst_oracle(magic, payload):
    """The LFST file of the 2-D array ``payload``, written field by field."""
    return struct.pack("<4sII", magic, *payload.shape) + payload.tobytes()


def saved_in_each_layout(monkeypatch, path):
    """Save a 3 x 4 history to ``path`` in each layout on each backend,
    yielding the file's bytes and the size of its payload."""
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        for _, dtype in LAYOUTS:
            StateHistory(np.arange(12, dtype=dtype).reshape(3, 4)).save_binary(path)
            yield path.read_bytes(), 12 * dtype.itemsize


def refused_by_both_loaders(path, message):
    for load in (StateHistory.load_binary, load_history):
        with pytest.raises(FileFormatError, match=message):
            load(path)


@settings(max_examples=200, deadline=None)
@given(BYTE_PAYLOADS | FLOAT_PAYLOADS)
def test_binary_round_trip_exact(payload):
    rows = np.atleast_2d(payload)
    magic, layout = LAYOUTS[1] if payload.dtype == np.uint8 else LAYOUTS[0]
    for which in BACKENDS:
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(backend, "BACKEND", which)
            path = os.path.join(tmp, "h.lfst")
            StateHistory(payload).save_binary(path)
            with open(path, "rb") as f:
                assert f.read() == lfst_oracle(magic, rows.astype(layout))
            for load in (StateHistory.load_binary, load_history):
                back = load(path)
                assert back._rows.dtype == payload.dtype
                assert back._rows.shape == rows.shape
                assert back._rows.tobytes() == rows.tobytes()


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


def test_binary_truncated_rejected(monkeypatch, tmp_path):
    path = tmp_path / "h.lfst"
    for raw, size in saved_in_each_layout(monkeypatch, path):
        path.write_bytes(raw[:-1])
        refused_by_both_loaders(path, f"expected {size} payload bytes, found {size - 1}")
        path.write_bytes(raw[:8])
        refused_by_both_loaders(path, "truncated state file")


def test_binary_extra_payload_bytes_rejected(monkeypatch, tmp_path):
    path = tmp_path / "h.lfst"
    for raw, size in saved_in_each_layout(monkeypatch, path):
        path.write_bytes(raw + b"\x00")
        refused_by_both_loaders(path, f"expected {size} payload bytes, found {size + 1}")


def test_binary_huge_declared_shape_refused_before_allocating(monkeypatch, tmp_path):
    path = tmp_path / "h.lfst"
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        for magic, _ in LAYOUTS:
            path.write_bytes(struct.pack("<4sII", magic, 2**32 - 1, 2**32 - 1))
            tracemalloc.start()
            try:
                refused_by_both_loaders(path, "found 0")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


def test_binary_load_holds_the_payload_about_once(monkeypatch, tmp_path):
    # 380 random rows, then rows 360-379 once more: transient 360, period 20
    rows = np.random.default_rng(4).integers(0, 256, (400, 1000), dtype=np.uint8)
    rows[380:] = rows[360:380]
    path = tmp_path / "h.lfst"
    for which in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", which)
        for _, dtype in LAYOUTS:
            states = rows.astype(dtype)
            StateHistory(states).save_binary(path)
            tracemalloc.start()
            try:
                back = StateHistory.load_binary(path)
                report = detect_cycle(back)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report == CycleReport(360, 20)
            assert back._rows.dtype == dtype  # bytes stay bytes, not widened
            assert peak < 1.5 * states.nbytes
            assert np.array_equal(back.states, states)


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "h.lfst"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        StateHistory.load_binary(path)


def test_binary_non_finite_rejected_naming_the_row(tmp_path):
    path = tmp_path / "h.lfst"
    StateHistory([[1.0, np.nan], [np.inf, 0.0]]).save_binary(path)
    with pytest.raises(FileFormatError, match="row 0"):
        StateHistory.load_binary(path)
    StateHistory([[1.0, 0.0], [-np.inf, 0.0]]).save_binary(path)
    with pytest.raises(FileFormatError, match="row 1"):
        load_history(path)


def test_non_utf8_state_text_is_a_format_error(tmp_path):
    # sniffed as text, since the magic is not LFST
    path = tmp_path / "h.csv"
    path.write_bytes(b"LFSX\x85\x00\x00\x00\xff\xfe")
    with pytest.raises(FileFormatError, match="UTF-8"):
        StateHistory.load_csv(path)
    with pytest.raises(FileFormatError, match="UTF-8"):
        load_history(path)


# -- histories recorded as bytes --------------------------------------------


def lfst_bytes(history):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.lfst")
        history.save_binary(path)
        with open(path, "rb") as f:
            return f.read()


def loaded_back(history):
    """The ``states`` of the history that an LFST file of ``history`` gives."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.lfst")
        history.save_binary(path)
        states = StateHistory.load_binary(path).states
    return states.dtype, states.shape, states.tobytes()


def readings(history):
    """What every reader of a history but ``states`` gives."""
    rows = [history[i] for i in range(len(history))]
    return (len(history), history.n, [(r.dtype, r.tobytes()) for r in rows],
            loaded_back(history), history.to_csv(), detect_cycle(history))


@settings(max_examples=200, deadline=None)
@given(BYTE_PAYLOADS)
def test_a_byte_history_reads_as_its_float64_copy(payload):
    for which in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backend, "BACKEND", which)
            history, wide = StateHistory(payload), StateHistory(payload.astype(np.float64))
            assert readings(history) == readings(wide)
            # none of those readers made the float64 array
            assert history._rows.dtype == np.uint8
            assert history.states.dtype == np.float64
            assert history.states.tobytes() == wide.states.tobytes()


@pytest.mark.parametrize("which", BACKENDS)
def test_edits_to_the_states_of_a_byte_history_reach_every_reader(monkeypatch, which):
    monkeypatch.setattr(backend, "BACKEND", which)
    init = np.random.default_rng(8).integers(0, 2, 31).astype(np.float64)
    history = elementary_ca(31, 30, True, init).run(6, record=True)
    assert history._rows.dtype == np.uint8
    assert detect_cycle(history) == CycleReport(0, 0)
    history.states[6] = history.states[2]
    history.states[0, 0] = 0.5
    edited = StateHistory(history.states.copy())
    assert detect_cycle(history) == detect_cycle(edited) == CycleReport(2, 4)
    assert history.to_csv() == edited.to_csv()
    assert history.to_csv().startswith("0.5,")
    assert lfst_bytes(history) == lfst_bytes(edited)
    assert history[0][0] == 0.5


def test_a_byte_history_is_written_through_a_small_buffer(tmp_path):
    history = StateHistory(np.random.default_rng(2).integers(0, 2, (200, 10000), dtype=np.uint8))
    tracemalloc.start()
    try:
        history.save_binary(tmp_path / "h.lfst")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history._rows.dtype == np.uint8
    assert peak < 1 << 20  # written from the array's own buffer, not as 16 MB of float64
    assert np.array_equal(StateHistory.load_binary(tmp_path / "h.lfst").states, history.states)

