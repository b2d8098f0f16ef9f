"""Fuzz the four file loaders with mutated valid files and raw bytes.

Each loader must either refuse its input with a LatflowError or return a
value that writes back to a file the loader reads as the same value, whose
writing is then a fixed point.  Anything else (a raw ValueError, an
OverflowError, a UnicodeDecodeError, a silent change on the second read)
is a failure.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latflow import backend
from latflow.engine import StateHistory, load_history
from latflow.errors import LatflowError
from latflow.rules import (
    ContinuousMap,
    elementary_rule,
    game_of_life_rule,
    load_rule,
    random_boolean_tables,
    rule_to_text,
    save_rule,
)
from latflow.sparse import load_matrix_market, save_matrix_market

BACKENDS = ("python", "c") if backend.compiled_available() else ("python",)

# bytes a mutation inserts or writes over: the tokens of every format, and
# bytes that are not UTF-8 on their own
EDIT_BYTES = b"0123456789 .-+eE%:,=#\n\t\rnaifkx\x00\x80\xc3\xff"

_HISTORY = StateHistory([[0.0, 1.0, -0.5], [2.5e-3, -0.0, 1e300]])
_BYTE_HISTORY = StateHistory(np.array([[0, 1, 255], [7, 0, 3]], dtype=np.uint8))


MM_SEEDS = [
    "%%MatrixMarket matrix coordinate real general\n3 4 3\n1 4 1.0\n2 2 2.0\n3 1 -0.25\n",
    "%%MatrixMarket matrix coordinate integer general\n% c\n\n2 2 2\n2 1 7\n1 2 -0\n",
]


def _seed_bytes(kind, tmp_path):
    """The valid files a mutation starts from, as bytes."""
    if kind == "mm":
        return [text.encode() for text in MM_SEEDS]
    if kind == "rule":
        rules = [elementary_rule(110), game_of_life_rule(),
                 random_boolean_tables(3, 2, seed=1), ContinuousMap("logistic", r=3.9)]
        return [rule_to_text(rule).encode() for rule in rules]
    if kind == "csv":
        return [_HISTORY.to_csv().encode(), b"1,2\n\n3,4\n"]
    seeds = []
    for history in (_HISTORY, _BYTE_HISTORY):  # the float64 and the byte layout
        history.save_binary(tmp_path / "seed")
        seeds.append((tmp_path / "seed").read_bytes())
    return seeds


@st.composite
def mutations(draw):
    """A list of (position fraction, op, byte) edits applied in order."""
    return draw(st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.sampled_from(["insert", "replace", "delete"]),
            st.sampled_from(list(EDIT_BYTES)),
        ),
        min_size=1,
        max_size=3,
    ))


def _mutate(raw, edits):
    raw = bytearray(raw)
    for frac, op, byte in edits:
        k = min(int(frac * len(raw)), len(raw))
        if op == "insert":
            raw.insert(k, byte)
        elif k < len(raw):
            if op == "replace":
                raw[k] = byte
            else:
                del raw[k]
    return bytes(raw)


def _load_save(kind, path, out):
    """Load ``path`` with the loader of ``kind``, write what it read to ``out``
    and return a comparable form of the value."""
    if kind == "mm":
        m = load_matrix_market(path)
        save_matrix_market(out, m)
        return m.shape, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()
    if kind == "rule":
        rule = load_rule(path)
        save_rule(out, rule)
        return rule_to_text(rule)
    history = StateHistory.load_binary(path) if kind == "lfst" else load_history(path)
    if kind == "lfst":
        history.save_binary(out)
    else:
        history.save_csv(out)
    return history.states.shape, history.states.tobytes()


def _refused_or_round_trips(kind, raw, tmp_path):
    path, first, second = (tmp_path / name for name in ("in", "out1", "out2"))
    path.write_bytes(raw)
    try:
        value = _load_save(kind, path, first)
    except LatflowError:
        return
    assert _load_save(kind, first, second) == value
    assert second.read_bytes() == first.read_bytes()


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
KINDS = st.sampled_from(["mm", "rule", "csv", "lfst"])


def test_seed_files_round_trip(tmp_path):
    for kind in ("mm", "rule", "csv", "lfst"):
        for raw in _seed_bytes(kind, tmp_path):
            path = tmp_path / "in"
            path.write_bytes(raw)
            _load_save(kind, path, tmp_path / "out")  # every seed is valid
            _refused_or_round_trips(kind, raw, tmp_path)


@FUZZ
@given(kind=KINDS, which=st.integers(0, 3), edits=mutations())
def test_mutated_files_are_refused_or_round_trip(tmp_path, kind, which, edits):
    seeds = _seed_bytes(kind, tmp_path)
    _refused_or_round_trips(kind, _mutate(seeds[which % len(seeds)], edits), tmp_path)


@FUZZ
@given(
    kind=KINDS,
    prefix=st.sampled_from([b"", b"LFST", b"LFS8",
                            b"%%MatrixMarket matrix coordinate real general\n",
                            b"# latflow rule v1 tables=index0first\nrule "]),
    raw=st.binary(max_size=48),
)
def test_raw_bytes_are_refused_or_round_trip(tmp_path, kind, prefix, raw):
    _refused_or_round_trips(kind, prefix + raw, tmp_path)



def _read(kind, path):
    """What the text loader of ``kind`` gives: a comparable form of its
    value, or the class and message of the LatflowError it raised."""
    try:
        if kind == "mm":
            m = load_matrix_market(path)
            return m.shape, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()
        return rule_to_text(load_rule(path))
    except LatflowError as exc:
        return type(exc), str(exc)


@FUZZ
@given(kind=st.sampled_from(["mm", "rule"]), which=st.integers(0, 3), edits=mutations())
def test_mutated_text_reads_alike_with_and_without_the_scanners(monkeypatch, tmp_path, kind,
                                                               which, edits):
    # the compiled scanners decline what they do not take, so the compiled
    # backend gives the numpy readers' value or error on every input
    seeds = _seed_bytes(kind, tmp_path)
    path = tmp_path / "in"
    path.write_bytes(_mutate(seeds[which % len(seeds)], edits))
    read = []
    for name in BACKENDS:
        monkeypatch.setattr(backend, "BACKEND", name)
        read.append(_read(kind, path))
    assert read.count(read[0]) == len(read)


# written files whose body (see _split_body) a compiled scanner reads
BODY_SEEDS = {
    "mm": [text.encode() for text in MM_SEEDS],
    "rule": [rule_to_text(random_boolean_tables(n, k, seed=n)).encode()
             for n, k in ((3, 2), (6, 3))],
}


def _split_body(kind, raw):
    """(head, body) of a seed.  The body starts after the size line of a
    Matrix Market file, the first that is not the header, a comment or
    blank.  In rule text it starts after the rule line and the ``node `` of
    the first node line, which the reader finds the node lines by: an edit
    there sends the whole text to the numpy reader."""
    if kind == "rule":
        at = raw.index(b"\nnode ") + 6
        return raw[:at], raw[at:]
    lines = raw.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line[:1] not in (b"%", b"\n"))
    return b"".join(lines[:at + 1]), b"".join(lines[at + 1:])


@pytest.mark.skipif("c" not in BACKENDS, reason="the extension is not built")
@pytest.mark.parametrize("kind, scanner", [("mm", "mm_entries"), ("rule", "node_lines")])
def test_mutated_bodies_reach_the_scanners_and_read_alike(monkeypatch, tmp_path, kind, scanner):
    # edits after the head leave what the reader parses before the body,
    # so most examples reach the compiled scanner, which must then take or
    # decline each one as the numpy reader reads it
    real, calls, reached = getattr(backend._ckernels, scanner), [], []
    monkeypatch.setattr(backend._ckernels, scanner, lambda *args: calls.append(1) or real(*args))
    path = tmp_path / "in"

    @FUZZ
    @given(which=st.integers(0, 1), edits=mutations())
    def reads_alike(which, edits):
        head, body = _split_body(kind, BODY_SEEDS[kind][which])
        path.write_bytes(head + _mutate(body, edits))
        calls.clear()
        read = []
        for name in BACKENDS:
            monkeypatch.setattr(backend, "BACKEND", name)
            read.append(_read(kind, path))
        assert read.count(read[0]) == len(read)
        reached.append(bool(calls))

    reads_alike()
    assert sum(reached) > len(reached) / 2, f"{sum(reached)} of {len(reached)} reached {scanner}"
