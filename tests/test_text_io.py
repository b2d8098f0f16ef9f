"""The rule text and Matrix Market codecs against the per-line reference
code in oracles.py, and the bytes they write pinned by SHA-256."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from latflow import _textcodec, backend, rules
from latflow.engine import StateHistory
from latflow.errors import FileFormatError, LatflowError
from latflow.rules import TableRule, rule_from_text, rule_to_text, save_rule
from latflow.sparse import SparseMatrix, load_matrix_market, save_matrix_market
from latflow.systems import game_of_life, random_boolean_network, random_sparse_uniform

HEADER = oracles.PERNODE_HEADER + "\n"
BACKENDS = ("python", "c") if backend.compiled_available() else ("python",)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _buf(text):
    return np.frombuffer(text.encode(), dtype=np.uint8)


# -- the codec -------------------------------------------------------------

def test_tokenize_gives_spans_and_lines():
    text = "  ab\tc\r\n\n d \re\n"
    starts, ends, lines = _textcodec.tokenize(_buf(text))
    assert [text[s:e] for s, e in zip(starts, ends)] == ["ab", "c", "d", "e"]
    assert lines.tolist() == [0, 0, 1, 2]
    assert all(len(a) == 0 for a in _textcodec.tokenize(_buf(" \n\t")))


@pytest.mark.parametrize("token", [
    "0", "7", "-0", "-12", "00042", "999999999999999999", "-999999999999999999",
    "-", "+1", "1_0", "1-", "--1", "1a", "1000000000000000000", "\u0661",
])
def test_decimals_take_ascii_digits_within_the_bound(token):
    buf = _buf(token)
    values, ok = _textcodec.decimals(buf, np.array([0]), np.array([len(buf)]))
    want = re.fullmatch("-?[0-9]{1,18}", token) is not None
    assert ok.tolist() == [want]
    assert values.tolist() == [int(token) if want else 0]


@pytest.mark.parametrize("values", [
    [0, 9, 10, 99, 100, 2**32 - 1, 2**32, 10**18 - 1, 10**18, 2**63 - 1],
    [5, 123, 0, 40],
    [],
])
def test_assemble_writes_digits_bytes_and_pooled_fields(values):
    v = np.array(values, dtype=np.int64)
    pool = np.frombuffer(b"abcde", dtype=np.uint8)
    lengths = np.arange(len(v)) % 4
    offsets = np.arange(len(v)) % 2
    out = _textcodec.assemble(len(v), b"<", v, b" ", (pool, offsets, lengths), b"\n")
    want = "".join(
        f"<{x} {'abcde'[o:o + n]}\n" for x, o, n in zip(values, offsets, lengths)
    )
    assert out.tobytes().decode() == want


# -- per-node rule text against the per-line reader ------------------------

@st.composite
def pernode_rules(draw):
    """(n_states, list of table rows) of a valid per-node rule."""
    n = draw(st.sampled_from([2, 3, 10, 11, 12, 16]))
    nodes = draw(st.integers(0, 10))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        lengths = [n**k] * nodes
    else:
        # an n > 10 table is comma-separated, so it cannot be empty
        lengths = draw(st.lists(st.integers(n > 10, 6), min_size=nodes, max_size=nodes))
    rows = [draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)) for m in lengths]
    return n, rows


@st.composite
def pernode_texts(draw):
    """(n_states, rows, text): the rule written with varied whitespace, CR,
    LF or CRLF line ends, blank and comment lines, and nodes in any order."""
    n, rows = draw(pernode_rules())
    gap = st.text(" \t", min_size=1, max_size=3)
    pad = st.text(" \t", max_size=2)
    end = st.sampled_from(["\n", "\r\n", "\r"])
    filler = st.lists(st.sampled_from(["", "#", "# a comment", " \t#x y", "\t"]), max_size=2)

    def line(*tokens, lead=filler):
        extra = "".join(f + draw(end) for f in draw(lead))
        return extra + draw(pad) + draw(gap).join(tokens) + draw(pad) + draw(end)

    sep = "," if n > 10 else ""
    head = ["rule", "pernode", f"n={n}", f"nodes={len(rows)}"]
    widths = {len(row) for row in rows}
    if len(widths) == 1 and draw(st.booleans()):
        (width,) = widths
        k = next((k for k in range(4) if n**k == width), None)
        if k is not None:
            head.append(f"k={k}")
    # only blank lines come before the header
    text = line(oracles.PERNODE_HEADER, lead=st.lists(st.just(" "), max_size=1)) + line(*head)
    for i in draw(st.permutations(range(len(rows)))):
        text += line("node", str(i), "table=" + sep.join(map(str, rows[i])))
    return n, rows, text


@st.composite
def written_pernode_texts(draw):
    """(n_states, rows, text): the rule in the shape the writer emits, the
    one the compiled scanner reads, with nodes in any order and LF or CRLF
    line ends."""
    n, rows = draw(pernode_rules())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    sep = "," if n > 10 else ""
    lines = [oracles.PERNODE_HEADER, f"rule pernode n={n} nodes={len(rows)}"]
    lines += [f"node {i} table={sep.join(map(str, rows[i]))}"
              for i in draw(st.permutations(range(len(rows))))]
    return n, rows, end.join(lines) + end


PERNODE_TEXTS = st.one_of(pernode_texts(), written_pernode_texts())


def _padded(rows):
    width = max((len(row) for row in rows), default=0)
    table = np.full((len(rows), width), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        table[i, : len(row)] = row
    return table


@FUZZ
@given(PERNODE_TEXTS)
def test_pernode_reader_matches_the_per_line_reader(monkeypatch, case):
    n, rows, text = case
    n_ref, table_ref = oracles.pernode_table_from_text(text)
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        rule = rule_from_text(text)
        assert rule.n_states == n_ref == n
        assert np.array_equal(rule.table, table_ref)
        assert np.array_equal(rule.table, _padded(rows))


# what a mutation inserts or writes: the tokens of the format, and what
# str.split(), str.splitlines() or int() took that the reader refuses
MUTATION_TEXT = [*"0123456789 \t\r\n#=,-+_x", "node", "table=", "\v", "\f", "\x1c", "\x1f",
                 "\x85", "\xa0", "\u2028", "\u3000", "\u0661", "\ud800"]


@st.composite
def edits(draw):
    return draw(st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.sampled_from(["insert", "replace", "delete"]),
            st.sampled_from(MUTATION_TEXT),
        ),
        min_size=1,
        max_size=3,
    ))


def _mutate(text, edits):
    for frac, op, piece in edits:
        k = min(int(frac * len(text)), len(text))
        if op == "insert":
            text = text[:k] + piece + text[k:]
        elif op == "replace":
            text = text[:k] + piece + text[k + 1 :]
        else:
            text = text[:k] + text[k + 1 :]
    return text


def _narrowed(text):
    """True when the text uses what the per-node reader refuses although
    the per-line reader took it: whitespace other than space, tab, CR and
    LF, or a node index other than an optional "-" and ASCII digits."""
    if any(c.isspace() and c not in " \t\r\n" for c in text):
        return True
    for line in text.splitlines():
        toks = line.split()
        if len(toks) == 3 and toks[0] == "node" and not re.fullmatch("-?[0-9]+", toks[1]):
            return True
    return False


def _read(read, *args):
    """What ``read(*args)`` gives: a comparable form of its value, or the
    class and message of the LatflowError it raised."""
    try:
        value = read(*args)
    except LatflowError as exc:
        return type(exc), str(exc)
    if isinstance(value, SparseMatrix):
        return value.shape, value.indptr.tobytes(), value.indices.tobytes(), value.data.tobytes()
    if value.n_states is None:
        return rule_to_text(value)
    return value.n_states, value.table.shape, value.table.tobytes(), rule_to_text(value)


@FUZZ
@given(PERNODE_TEXTS, edits())
def test_mutated_pernode_text_is_read_as_the_per_line_reader_reads_it(monkeypatch, case, mutation):
    text = _mutate(case[2], mutation)
    try:
        want = oracles.pernode_table_from_text(text)
    except oracles.Refused:
        want = None
    read = []
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        read.append(_read(rule_from_text, text))
    # the node-line scanner gives the numpy reader's table, or its error
    assert read.count(read[0]) == len(read), text
    if isinstance(read[0][0], type):
        assert want is None or _narrowed(text), text
    else:
        assert want is not None, text
        assert read[0][:3] == (want[0], want[1].shape, want[1].tobytes())


@pytest.mark.parametrize("line", [
    "node +1 table=01", "node 1_0 table=01", "node \u0661 table=01", "node 0x1 table=01",
])
def test_node_index_must_be_ascii_decimal(line):
    # int() takes the first three, the per-node reader does not
    text = HEADER + "rule pernode n=2 nodes=2\nnode 0 table=10\n" + line + "\n"
    with pytest.raises(FileFormatError, match="not ASCII decimal digits"):
        rule_from_text(text)


OTHER_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in " \t\r\n"]


def test_the_refused_whitespace_is_all_that_str_split_took():
    assert set(rules._OTHER_SPACES) == set(OTHER_SPACES)


@pytest.mark.parametrize("space", OTHER_SPACES)
def test_whitespace_other_than_space_tab_cr_and_lf_is_refused(space):
    text = HEADER + "# a comment" + space + "rule pernode n=2 nodes=1\nnode 0 table=10\n"
    with pytest.raises(FileFormatError, match="only space, tab, CR and LF"):
        rule_from_text(text)


def test_node_index_of_many_digits_is_read_as_int():
    text = HEADER + "rule pernode n=2 nodes=2\nnode 1 table=01\nnode " + "0" * 30 + " table=10\n"
    assert rule_from_text(text).table.tolist() == [[1, 0], [0, 1]]
    with pytest.raises(FileFormatError, match="node 10000000000000000000 outside"):
        rule_from_text(text.replace("0" * 30, "1" + "0" * 19))


@pytest.mark.parametrize("line, match", [
    ("node 1 table=01 x", "bad node line: 'node 1 table=01 x'"),
    ("nodes 1 table=01", "bad node line"),
    ("node 3 table=01", r"node 3 outside \[0, 3\)"),
    ("node 0 table=01", "second table for node 0"),
    ("node 1 tables", "expected key=value, got 'tables'"),
    ("node 1 tables=01", "malformed rule text: 'table'"),
])
def test_first_bad_node_line_gives_the_message_of_its_first_failed_check(line, match):
    text = HEADER + "rule pernode n=2 nodes=3\nnode 0 table=10\n" + line + "\nnode 9 table=1\n"
    with pytest.raises(FileFormatError, match=match):
        rule_from_text(text)


# -- the compiled text kernels against the numpy path ----------------------

needs_c = pytest.mark.skipif("c" not in BACKENDS, reason="compiled kernels not built")
DIGITS = st.one_of(st.sampled_from([0, 9, 10, 10**18 - 1, 10**18, 2**63 - 1]),
                   st.integers(0, 2**63 - 1))


@st.composite
def line_fields(draw):
    """(n, fields) for assemble: constant, decimal and pooled fields."""
    n = draw(st.sampled_from([0, 1, 2, 7]))
    fields = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["bytes", "digits", "pool"]))
        if kind == "bytes":
            fields.append(draw(st.binary(max_size=4)))
        elif kind == "digits":
            fields.append(np.array(draw(st.lists(DIGITS, min_size=n, max_size=n)), dtype=np.int64))
        else:
            pool = np.frombuffer(draw(st.binary(max_size=12)), dtype=np.uint8)
            spans = draw(st.lists(
                st.tuples(st.integers(0, len(pool)), st.integers(0, len(pool))),
                min_size=n, max_size=n,
            ))
            offsets = np.array([min(a, b) for a, b in spans], dtype=np.int64)
            lengths = np.array([abs(a - b) for a, b in spans], dtype=np.int64)
            fields.append((pool, offsets, lengths))
    return n, fields


@needs_c
@FUZZ
@given(line_fields())
def test_compiled_assemble_gives_the_numpy_bytes(monkeypatch, case):
    n, fields = case
    monkeypatch.setattr(backend, "BACKEND", "python")
    want = _textcodec.assemble(n, *fields)
    assert backend.assemble(n, fields).tobytes() == want.tobytes()


class _Unreachable:
    def __getattr__(self, name):
        raise AssertionError(f"_ckernels.{name} was called")


@pytest.mark.parametrize("fields", [
    [(np.zeros(4, np.uint8), np.array([0, 3]), np.array([1, 2]))],  # past the pool
    [(np.zeros(4, np.uint8), np.array([5, 0]), np.array([0, 0]))],  # offset past it
    [(np.zeros(4, np.uint8), np.array([-1, 0]), np.array([1, 1]))],
    [(np.zeros(4, np.uint8), np.array([0, 0]), np.array([-1, 1]))],
    [(np.zeros(4, np.uint8), np.array([2**62, 0]), np.array([2**62, 0]))],  # wraps int64
    [(np.zeros(4, np.int8), np.array([0, 0]), np.array([1, 1]))],
    [(np.zeros(4, np.uint8), np.array([0, 0], np.int32), np.array([1, 1]))],
    [np.array([1, 2], np.int32)],
    [np.array([1.0, 2.0])],
    [np.array([1, -2])],
    [np.array([1, 2, 3])],
    [np.arange(4)[::2]],
])
def test_assemble_wrapper_refuses_bad_fields_before_the_kernel(monkeypatch, fields):
    monkeypatch.setattr(backend, "_ckernels", _Unreachable())
    with pytest.raises(ValueError):
        backend.assemble(2, [b"x", *fields, b"\n"])


MM_REAL = "%%MatrixMarket matrix coordinate real general\n"


def _mm_read(monkeypatch, tmp_path, text):
    """What load_matrix_market gives on each backend for the file ``text``."""
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode())
    read = []
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        read.append(_read(load_matrix_market, path))
    return read


@pytest.mark.parametrize("body, nnz, scanned", [
    ("1 1 .5\n", 1, True),
    ("1 1 5.\n", 1, True),
    ("1 1 +1.5\n", 1, True),
    ("1 1 1e500\n", 1, True),  # inf, refused as a weight on both paths
    ("1 1 4.9e-324\n", 1, True),
    ("1 1 -0\r\n2\t2\t0.1\r\n", 2, True),
    ("1 1 1\n2 2 2.5", 2, True),  # no newline after the last line
    ("1 1 1\n2 2 2", 2, False),  # under 6 bytes an entry
    ("-1 1 1\n", 1, True),
    ("1 1 1_0\n", 1, False),
    ("1 1 0x10\n", 1, False),
    ("1 1 nan\n", 1, False),
    ("1 1 1\r2 2 2\r", 2, False),
    ("1\v1\v1.5\n", 1, False),
    ("1 1 1 % a comment\n", 1, False),
    ("1 1 1%\n", 1, False),
    # whole-line comments and empty lines, passed as loadtxt passes them
    ("% a comment\n1 1 1\n", 1, True),
    ("1 1 1\n\n2 2 2\n", 2, True),
    ("1 1 1\n% a trailing comment\n", 1, True),
    ("1 1 1\n%", 1, True),  # no newline after the comment
    ("%\n\n%%x\n1 1 1\r\n\r\n% c\r\n2 2 2\n\n", 2, True),
    ("% only a comment\n", 0, True),
    ("1 1 1\n%\n2 2 2\n", 1, False),  # more entries than declared
    ("1 1 1\n%\n", 2, False),  # fewer
    ("  % an indented comment\n1 1 1\n", 1, False),
    ("1 1 1\n \n", 1, False),  # a line of blanks
    ("1 1 1\n\r\r\n", 1, False),
    (" 1 1 1\n", 1, False),
    ("1  1 1\n", 1, False),
    ("1 1 1 \n", 1, False),
    ("+1 1 1\n", 1, False),
    ("1 1.0 1\n", 1, False),
    ("1000000000000000001 1 1\n", 1, False),  # 19 digits
    ("1 1 1." + "0" * 62 + "\n", 1, False),  # a weight of 64 bytes
    ("1 1 1e5e5\n", 1, False),
    ("1 1 -\n", 1, False),
    ("1 1 1\n2 2 2\n", 1, False),  # more lines than entries
    ("1 1 1\n", 2, False),  # fewer
    ("1 1 1\n", -1, False),
])
def test_matrix_market_scanner_reads_what_loadtxt_reads(monkeypatch, tmp_path, body, nnz,
                                                        scanned):
    head = MM_REAL + f"3 3 {nnz}\n"
    read = _mm_read(monkeypatch, tmp_path, head + body)
    assert read.count(read[0]) == len(read), read
    if "c" in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", "c")
        assert (backend.mm_entries(head + body, len(head), nnz) is not None) == scanned


PERNODE_2 = HEADER + "rule pernode n=2 nodes=2\n"


@pytest.mark.parametrize("text, scanned", [
    (PERNODE_2 + "node 1 table=01\nnode 0 table=10\n", True),
    (PERNODE_2 + "node 1\ttable=01\r\nnode\t0 table=\r\n", True),
    (PERNODE_2 + "node 1 table=01\nnode -0 table=10", True),
    (HEADER + "# c\n\n\trule pernode n=2 nodes=1\nnode 0 table=01\n", True),
    (PERNODE_2 + "node 1 table=01\n# a comment\nnode 0 table=10\n", False),
    (PERNODE_2 + "node 1 table=01\n\nnode 0 table=10\n", False),
    (PERNODE_2 + "node 1 table=01\n node 0 table=10\n", False),
    (PERNODE_2 + " node 1 table=01\nnode 0 table=10\n", False),
    (PERNODE_2 + "node 1 table=01\nnode 0 table=10 \n", False),
    (PERNODE_2 + "node 1 table=01\nnode 0  table=10\n", False),
    (PERNODE_2 + "node 1 table=01\nnode 1 table=10\n", False),  # a second table for node 1
    (PERNODE_2 + "node 1 table=01\nnode 2 table=10\n", False),
    (PERNODE_2 + "node 1 table=01\nnode 0 table=1x\n", False),
    (PERNODE_2 + "node 1 table=01\nnode 0 tables=10\n", False),
    (PERNODE_2 + "node 1 table=01\nnode 0 table=10\rnode 2 table=1\r", False),
    (PERNODE_2 + "node 1 table=01\nnode 0 table=10\nnode 2 table=1\n", False),
    (PERNODE_2 + "node 1 table=01\n", False),
    (HEADER + "rule pernode n=2 nodes=0\nnode 0 table=01\n", False),
    (HEADER + "rule pernode n=12 nodes=1\nnode 0 table=1,11\n", False),
    # lines before the first node line that the whole text is read for
    (HEADER + "node 0 table=01\nrule pernode n=2 nodes=1\n", False),
    ("\n\nnode 0 table=01\n" + HEADER, False),
    (HEADER + "rule pattern n=2 k=1 table=01\nnode 0 table=1\n", False),
    (HEADER + "rule count center_weight=1 table=0:1\nnode 0 table=1\n", False),
])
def test_node_line_scanner_reads_what_the_numpy_reader_reads(monkeypatch, text, scanned):
    taken, compiled_node_lines = [], backend.node_lines

    def node_lines(*args):
        taken.append(compiled_node_lines(*args))
        return taken[-1]

    monkeypatch.setattr(backend, "node_lines", node_lines)
    read = []
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        read.append(_read(rule_from_text, text))
    assert read.count(read[0]) == len(read), read
    if "c" in BACKENDS:
        assert any(spans is not None for spans in taken) == scanned


def test_integer_matrix_market_refuses_a_weight_that_is_not_whole(monkeypatch, tmp_path):
    head = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n"
    for weight in ("1.5", "1e-3", "nan"):
        read = _mm_read(monkeypatch, tmp_path, head + f"1 1 {weight}\n")
        assert read == [(FileFormatError, f"weight {float(weight)} of an integer matrix "
                                          "is not an integer")] * len(BACKENDS)
    read = _mm_read(monkeypatch, tmp_path, head + "1 1 -3.0\n")
    assert read[0][0] == (2, 2) and read.count(read[0]) == len(read)


@pytest.mark.parametrize("text, match", [
    (MM_REAL + "2 2 1000000000000\n1 1 1\n", "expected 1000000000000 entries, found 1"),
    (HEADER + "rule pernode n=2 nodes=1000000000000\nnode 0 table=01\n",
     "1 node lines for nodes=1000000000000"),
])
def test_a_declared_count_the_text_cannot_hold_allocates_nothing(monkeypatch, tmp_path, text,
                                                                  match):
    path = tmp_path / "f"
    path.write_text(text)
    read = load_matrix_market if text.startswith(MM_REAL) else rules.load_rule
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match=match):
                read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# -- Matrix Market writer against the %-format writer ----------------------

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0, -3.0, 7.0, 1e16, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@FUZZ
@given(
    st.integers(1, 10**6),
    st.one_of(st.integers(1, 10**6), st.integers(1, 10**15)),
    st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62), WEIGHTS), max_size=30),
)
def test_matrix_market_writer_matches_the_percent_format(tmp_path, n_rows, n_cols, entries):
    coords = {(r % n_rows, c % n_cols): w for r, c, w in entries}
    m = SparseMatrix.from_coo(
        n_rows, n_cols, [rc[0] for rc in coords], [rc[1] for rc in coords], list(coords.values())
    )
    save_matrix_market(tmp_path / "m.mtx", m)
    assert (tmp_path / "m.mtx").read_bytes() == oracles.matrix_market_text(m).encode()


# -- pinned bytes ----------------------------------------------------------

def _ragged_rule():
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 9, 300)
    table = np.full((300, 8), -1)
    for i, m in enumerate(lengths):
        table[i, :m] = rng.integers(0, 3, m)
    return TableRule(table, 3)


def _n12_rule():
    return TableRule(np.random.default_rng(6).integers(0, 12, (50, 144)), 12)


def _history():
    init = np.random.default_rng(3).integers(0, 2, 64 * 64)
    return game_of_life(64, 64, init=init).run(20, record=True)


# SHA-256 of the files as the per-line writers wrote them; the byte LFST's
# as its header packed field by field and then the rows' bytes
PINNED = {
    "rbn-2000-3.mtx": "b716a2ce4506912883854eb2273368ea89da04e53b7db5691a43b47e1f711030",
    "rbn-2000-3.rule": "5f47b1f8329706cc74ba3b0432135f09ff48e0481594556eae485581aa459f34",
    "rbn-1e5-2.mtx": "d82208dd823294a4432b3632822d40be68d5fc42976e173be55442338a719f35",
    "rbn-1e5-2.rule": "9a1aa0cc21d828dbff72e5055545339cb0d8073ee8eba51668a8113cb7e578b4",
    "ragged.rule": "0191bb51140c1293cc37195407ffdcfc7834b3767b6f50ef60122e63acb4ddaf",
    "n12.rule": "7cc4716e22264a2da759a745825d1b6ff8edfbcfaa9b29705afc6832f92a2b0d",
    "life-256.mtx": "0654cf6713b2529f5e4f73c2a84d14bebfc28c3f5ea04e5bdfcad7ce6478c5de",
    "uniform-2000.mtx": "4b44e92a281ba4d22d4a2a2e65348ca09e2d57dde071b9c69d93f2103a1c382c",
    "life-64.lfst": "f99173f973d7fb751c06a96d83b94159a494148512361593457358cc5993a132",
    "life-64-bytes.lfst": "59a5a62e725de8b6efc5cebc7c2ea3490a4af4a9087794733bb29813a10d4120",
}
WRITERS = {
    "rbn-2000-3.mtx": lambda p: save_matrix_market(p, random_boolean_network(2000, 3, 1).matrix),
    "rbn-2000-3.rule": lambda p: save_rule(p, random_boolean_network(2000, 3, 1).rule),
    "rbn-1e5-2.mtx": lambda p: save_matrix_market(p, random_boolean_network(100000, 2, 1).matrix),
    "rbn-1e5-2.rule": lambda p: save_rule(p, random_boolean_network(100000, 2, 1).rule),
    "ragged.rule": lambda p: save_rule(p, _ragged_rule()),
    "n12.rule": lambda p: save_rule(p, _n12_rule()),
    "life-256.mtx": lambda p: save_matrix_market(p, game_of_life(256, 256).matrix),
    "uniform-2000.mtx": lambda p: save_matrix_market(p, random_sparse_uniform(2000, 0.01, 3)),
    # the float64 layout, as every earlier release wrote it
    "life-64.lfst": lambda p: StateHistory(_history().states).save_binary(p),
    # the byte layout of a history recorded as bytes
    "life-64-bytes.lfst": lambda p: _history().save_binary(p),
}


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_written_bytes_are_pinned(monkeypatch, tmp_path, backend_name, name):
    monkeypatch.setattr(backend, "BACKEND", backend_name)
    path = tmp_path / name
    WRITERS[name](path)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == PINNED[name]
    if name.endswith(".rule"):
        text = raw.decode()
        assert rule_to_text(rule_from_text(text)) == text
    if name.endswith(".lfst"):
        assert np.array_equal(StateHistory.load_binary(path).states, _history().states)


def test_pinned_writers_cover_the_reference_reader():
    # the per-line reader reads the pinned ragged and n = 12 rules alike
    for rule in (_ragged_rule(), _n12_rule()):
        text = rule_to_text(rule)
        n, table = oracles.pernode_table_from_text(text)
        assert n == rule.n_states and np.array_equal(table, rule.table)
