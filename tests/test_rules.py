import numpy as np
import pytest

from latflow.errors import (
    ArgumentTooSmall,
    FileFormatError,
    KeyOutOfTable,
    NonIntegerKey,
    RuleOutOfRange,
)
from latflow.rules import (
    MAP_THEN_MIX,
    MIX_THEN_MAP,
    ContinuousMap,
    CountLUT,
    PatternLUT,
    PerNodeLUT,
    apply_rule,
    elementary_rule,
    game_of_life_rule,
    load_rule,
    random_boolean_tables,
    rule_from_text,
    rule_to_text,
    save_rule,
)


def test_elementary_rule_zero_is_all_dead():
    rule = elementary_rule(0)
    out = apply_rule(rule, np.array([0.0, 3.0, 7.0, 5.0]))
    assert np.array_equal(out, np.zeros(4))


def test_elementary_rule_90_table():
    assert list(elementary_rule(90).table) == [0, 1, 0, 1, 1, 0, 1, 0]


def test_elementary_rule_table_is_bit_p_of_number():
    for number in (30, 110, 184, 255):
        table = elementary_rule(number).table
        for p in range(8):
            assert table[p] == (number >> p) & 1


def test_elementary_rule_bounds():
    with pytest.raises(RuleOutOfRange):
        elementary_rule(-1)
    with pytest.raises(RuleOutOfRange):
        elementary_rule(256)


def test_pattern_lut_key_range_check():
    rule = elementary_rule(110)
    with pytest.raises(KeyOutOfTable):
        apply_rule(rule, np.array([8.0]))
    with pytest.raises(KeyOutOfTable):
        apply_rule(rule, np.array([-1.0]))


def test_non_integer_key_is_an_error():
    rule = elementary_rule(110)
    with pytest.raises(NonIntegerKey):
        apply_rule(rule, np.array([1.5]))
    # within the 1e-6 guard the key still rounds cleanly
    out = apply_rule(rule, np.array([3.0 + 5e-7]))
    assert out[0] == elementary_rule(110).table[3]


def test_pattern_lut_table_length_enforced():
    with pytest.raises(ArgumentTooSmall):
        PatternLUT(2, [0, 1, 0])  # not a power of n_states for any k
    with pytest.raises(RuleOutOfRange):
        PatternLUT(2, [0, 1, 2, 0, 0, 0, 0, 0])  # value out of range


def test_game_of_life_rule_semantics():
    rule = game_of_life_rule()
    assert rule.center_weight == 9
    # preactivation [3, 11, 0] -> [birth, survival, dead]
    assert np.array_equal(apply_rule(rule, np.array([3.0, 11.0, 0.0])), [1, 1, 0])
    for count in range(9):
        dead_next = 1.0 if count == 3 else 0.0
        alive_next = 1.0 if count in (2, 3) else 0.0
        assert apply_rule(rule, np.array([float(count)]))[0] == dead_next
        assert apply_rule(rule, np.array([float(count + 9)]))[0] == alive_next


def test_game_of_life_key_decoding_is_injective():
    keys = {count + 9 * own for count in range(9) for own in (0, 1)}
    assert len(keys) == 18


def test_count_lut_missing_key():
    rule = CountLUT(9, {0: 0, 3: 1})
    with pytest.raises(KeyOutOfTable):
        apply_rule(rule, np.array([5.0]))


def test_per_node_lut_uses_each_nodes_table():
    rule = PerNodeLUT([np.array([0, 1]), np.array([1, 0])])
    out = apply_rule(rule, np.array([1.0, 1.0]))
    assert np.array_equal(out, [1.0, 0.0])
    with pytest.raises(KeyOutOfTable):
        apply_rule(rule, np.array([2.0, 0.0]))


def test_random_boolean_tables_structure():
    rule = random_boolean_tables(4, 2, seed=1)
    assert len(rule.tables) == 4
    for t in rule.tables:
        assert len(t) == 4
        assert set(np.unique(t)).issubset({0.0, 1.0})


def test_random_boolean_tables_in_degree_zero():
    rule = random_boolean_tables(4, 0, seed=1)
    assert all(len(t) == 1 for t in rule.tables)


def test_random_boolean_tables_deterministic():
    a = random_boolean_tables(6, 3, seed=9)
    b = random_boolean_tables(6, 3, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.tables, b.tables))


def test_lut_outputs_stay_in_state_range():
    rng = np.random.default_rng(5)
    for number in rng.integers(0, 256, size=16):
        rule = elementary_rule(int(number))
        keys = rng.integers(0, 8, size=50).astype(float)
        out = apply_rule(rule, keys)
        assert np.all((out >= 0) & (out < 2))


def test_continuous_map_values():
    x = np.array([-2.0, 0.0, 0.5, 2.0])
    assert np.array_equal(apply_rule(ContinuousMap("tanh"), x), np.tanh(x))
    assert np.array_equal(apply_rule(ContinuousMap("identity"), x), x)
    logi = ContinuousMap("logistic", r=3.7)
    assert np.array_equal(logi.map_values(x), 3.7 * x * (1.0 - x))


def test_continuous_map_validation():
    with pytest.raises(ArgumentTooSmall):
        ContinuousMap("logistic", r=4.5)
    with pytest.raises(ArgumentTooSmall):
        ContinuousMap("nosuch")
    assert ContinuousMap("tanh").order == MIX_THEN_MAP
    assert ContinuousMap("logistic", r=4.0, order=MAP_THEN_MIX).order == MAP_THEN_MIX


def test_rule_110_serializes_index0first():
    text = rule_to_text(elementary_rule(110))
    lines = text.splitlines()
    assert lines[0] == "# latflow rule v1 tables=index0first"
    assert lines[1] == "rule pattern n=2 k=3 table=01110110"


def test_rule_serialization_round_trips(tmp_path):
    cases = [
        elementary_rule(30),
        game_of_life_rule(),
        random_boolean_tables(5, 2, seed=3),
        ContinuousMap("logistic", r=3.9, order=MAP_THEN_MIX),
    ]
    for i, rule in enumerate(cases):
        path = tmp_path / f"rule_{i}.txt"
        save_rule(path, rule)
        back = load_rule(path)
        assert type(back) is type(rule)
        assert rule_to_text(back) == rule_to_text(rule)


def test_rule_text_parse_errors():
    with pytest.raises(FileFormatError):
        rule_from_text("rule pattern n=2 k=3 table=01110110\n")  # missing header
    with pytest.raises(FileFormatError):
        rule_from_text("# latflow rule v1 tables=index0first\nrule wat\n")
    with pytest.raises(FileFormatError):
        rule_from_text(
            "# latflow rule v1 tables=index0first\nrule pattern n=2 k=3 table=0111\n"
        )


PERNODE_HEAD = "# latflow rule v1 tables=index0first\nrule pernode n=2 nodes=2 k=1\n"


def test_pernode_text_rejects_negative_node():
    with pytest.raises(FileFormatError, match="outside"):
        rule_from_text(PERNODE_HEAD + "node 0 table=01\nnode -1 table=10\n")


def test_pernode_text_rejects_duplicate_node():
    with pytest.raises(FileFormatError, match="second table"):
        rule_from_text(PERNODE_HEAD + "node 0 table=01\nnode 0 table=10\n")


def test_pernode_text_rejects_table_not_n_to_the_k():
    with pytest.raises(FileFormatError, match="does not match"):
        rule_from_text(PERNODE_HEAD + "node 0 table=01\nnode 1 table=0110\n")


def test_pernode_text_round_trips_in_degree_zero_and_ragged_tables():
    for rule in (random_boolean_tables(3, 0, seed=2), PerNodeLUT([[0, 1], [1, 0, 0, 1]])):
        back = rule_from_text(rule_to_text(rule))
        assert all(np.array_equal(x, y) for x, y in zip(back.tables, rule.tables))
        assert rule_to_text(back) == rule_to_text(rule)
