import numpy as np
import pytest

import oracles
from latflow.engine import DynamicalSystem
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
    TableRule,
    apply_rule,
    elementary_rule,
    game_of_life_rule,
    load_rule,
    random_boolean_tables,
    rule_from_text,
    rule_to_text,
    save_rule,
)
from latflow.sparse import SparseMatrix


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
        TableRule([0, 1, 0])  # not a power of n_states for any k
    with pytest.raises(RuleOutOfRange):
        TableRule([0, 1, 2, 0, 0, 0, 0, 0])  # value out of range


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
    rule = TableRule([0, -1, -1, 1], center_weight=9)
    with pytest.raises(KeyOutOfTable):
        apply_rule(rule, np.array([5.0]))


def test_per_node_lut_uses_each_nodes_table():
    rule = TableRule([[0, 1], [1, 0]])
    out = apply_rule(rule, np.array([1.0, 1.0]))
    assert np.array_equal(out, [1.0, 0.0])
    with pytest.raises(KeyOutOfTable):
        apply_rule(rule, np.array([2.0, 0.0]))


def test_random_boolean_tables_structure():
    rule = random_boolean_tables(4, 2, seed=1)
    assert len(rule.table) == 4
    for t in rule.table:
        assert len(t) == 4
        assert set(np.unique(t)).issubset({0.0, 1.0})


def test_random_boolean_tables_in_degree_zero():
    rule = random_boolean_tables(4, 0, seed=1)
    assert all(len(t) == 1 for t in rule.table)


def test_random_boolean_tables_deterministic():
    a = random_boolean_tables(6, 3, seed=9)
    b = random_boolean_tables(6, 3, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.table, b.table))


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
    for rule in (random_boolean_tables(3, 0, seed=2), TableRule([[0, 1, -1, -1], [1, 0, 0, 1]])):
        back = rule_from_text(rule_to_text(rule))
        assert all(np.array_equal(x, y) for x, y in zip(back.table, rule.table))
        assert rule_to_text(back) == rule_to_text(rule)


@pytest.mark.parametrize("n,k,seed", [(0, 2, 1), (1, 0, 3), (7, 3, 5), (300, 2, 9), (1001, 5, 2)])
def test_random_boolean_tables_match_per_node_integers(n, k, seed):
    want = oracles.boolean_tables(n, k, seed)
    rule = random_boolean_tables(n, k, seed=seed)
    assert len(rule.table) == n
    assert all(np.asarray(t).tobytes() == w.tobytes() for t, w in zip(rule.table, want))
    # the 2-D form gives the same rule as a list of the same tables
    if n:
        assert rule_to_text(rule) == rule_to_text(TableRule(want))


@pytest.mark.parametrize("kind", ["pattern", "pernode"])
@pytest.mark.parametrize("k", [-1, 64, 3000000])
def test_rule_text_k_bounded_before_any_power(kind, k):
    head = f"# latflow rule v1 tables=index0first\nrule {kind} n=3 "
    text = (
        head + f"k={k} table=012\n" if kind == "pattern"
        else head + f"nodes=1 k={k}\nnode 0 table=012\n"
    )
    with pytest.raises(FileFormatError, match=r"outside \[0, 64\)"):
        rule_from_text(text)


HEADER = "# latflow rule v1 tables=index0first\n"
LIFE_TEXT = (
    "rule count center_weight=9 table=0:0,1:0,2:0,3:1,4:0,5:0,6:0,7:0,8:0,"
    "9:0,10:0,11:1,12:1,13:0,14:0,15:0,16:0,17:0\n"
)
# v1 rule text that must be written and read back byte for byte
GOLDEN_TEXT = [
    (game_of_life_rule, LIFE_TEXT),
    (lambda: elementary_rule(110), "rule pattern n=2 k=3 table=01110110\n"),
    (lambda: random_boolean_tables(0, 2, seed=1), "rule pernode n=2 nodes=0\n"),
    (lambda: random_boolean_tables(1, 0, seed=3), "rule pernode n=2 nodes=1 k=0\nnode 0 table=1\n"),
    (
        lambda: random_boolean_tables(5, 2, seed=3),
        "rule pernode n=2 nodes=5 k=2\nnode 0 table=1000\nnode 1 table=0111\n"
        "node 2 table=0000\nnode 3 table=1000\nnode 4 table=1100\n",
    ),
    (
        lambda: TableRule([[0, 1, -1, -1], [1, 0, 0, 1]]),
        "rule pernode n=2 nodes=2\nnode 0 table=01\nnode 1 table=1001\n",
    ),
]


@pytest.mark.parametrize("make, text", GOLDEN_TEXT)
def test_rule_text_matches_golden(make, text):
    assert rule_to_text(make()) == HEADER + text
    assert rule_to_text(rule_from_text(HEADER + text)) == HEADER + text


def test_count_rule_text_next_states_set_n_states():
    rule = rule_from_text(HEADER + "rule count center_weight=1 table=0:0,1:2,2:1\n")
    assert rule.n_states == 3
    system = DynamicalSystem(SparseMatrix.from_dense(np.eye(3)), rule, [1, 0, 1])
    system.step()
    assert np.array_equal(system.state, [2.0, 0.0, 2.0])
    system.set_state(system.state)  # every state the rule reaches is a valid state


def test_count_rule_text_rejects_a_repeated_key():
    with pytest.raises(FileFormatError, match="twice"):
        rule_from_text(HEADER + "rule count center_weight=9 table=3:1,3:0\n")


def test_count_rule_text_key_span_bounded_before_allocating():
    # 1e15 keys would need a 7.1 PiB table
    with pytest.raises(FileFormatError, match="span"):
        rule_from_text(HEADER + "rule count center_weight=9 table=0:0,1000000000000000:1\n")


def test_pernode_text_padding_bounded_before_allocating():
    # 1e5 tables padded to 1e6 entries would take 800 GB, more than any
    # host has, so even without the bound nothing this large is touched
    nodes = 100000
    lines = [f"node {i} table={'0' * (1000000 if i == 0 else 1)}" for i in range(nodes)]
    text = HEADER + f"rule pernode n=2 nodes={nodes}\n" + "\n".join(lines) + "\n"
    with pytest.raises(FileFormatError, match="padding"):
        rule_from_text(text)


def test_non_utf8_rule_file_is_a_format_error(tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes(b"# latflow rule v1 tables=index0first\nrule pattern n=2 table=0\xff\n")
    with pytest.raises(FileFormatError, match="UTF-8"):
        load_rule(path)
