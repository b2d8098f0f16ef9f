"""Update rules: the function applied around the adjacency matvec.

Discrete systems use lookup tables keyed by the integer matvec result;
continuous systems use an elementwise map.  An int32 matvec result is the
key itself.  A float result is rounded to the nearest integer with a 1e-6
guard, and a violation is a hard error rather than a clamp: a non-integer
key always means the stencil and the rule disagree about the encoding.

Own-state dependence is never threaded through the rule itself.  Where a
rule needs the cell's own state (Conway's life), the matrix carries a
distinguishing self-weight instead, so the update stays a pure function of
the matvec result.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from . import _textcodec, backend
from .errors import (
    ArgumentTooSmall,
    DimensionMismatch,
    FileFormatError,
    KeyOutOfTable,
    NonIntegerKey,
    RuleOutOfRange,
    check_seed,
    read_text,
)
from .sparse import _MAX_READ_BYTES
from .topology import _words

KEY_TOL = 1e-6
# the most states whose table fits uint8 with 255 for a hole, and whose
# states fit the uint8 state of the integer lane
LANE_MAX_STATES = 255

MIX_THEN_MAP = "mix_then_map"
MAP_THEN_MIX = "map_then_mix"


@dataclass(eq=False)
class TableRule:
    """Lookup-table rule: node i's next state is ``table[key - lo]``, or
    ``table[i, key - lo]`` with one table row per node, for key the node's
    matvec result rounded to an integer.  A -1 entry is a key with no next
    state.  The rule is one of the three forms of the rule text:

    - count, when ``center_weight`` is set: 1-D from key ``lo``, with holes.
      The paired matrix weighs each counted neighbor 1 and the cell itself
      ``center_weight``, so the key decodes uniquely.
    - pattern: 1-D, n_states^k entries from key 0, no holes.
    - per-node: 2-D from key 0, -1 only padding the end of a shorter row.
      Input m of a node adds n_states^m to its key, as the digraph
      generator's positional weights do.

    With at most LANE_MAX_STATES states the rule also keeps the table as
    uint8, 255 for a hole, which ``apply_rule`` and the fused kernels index,
    and its next states are uint8.
    """

    table: np.ndarray = field(repr=False)
    n_states: int = 2
    lo: int = 0
    center_weight: int = None
    _table8: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        t = self.table = np.ascontiguousarray(self.table, dtype=np.int64)
        if self.n_states < 2:
            raise ArgumentTooSmall(f"need at least 2 states, got {self.n_states}")
        hole = t < 0
        if self.center_weight is not None:
            fits = t.ndim == 1
        elif t.ndim == 2:
            fits = self.lo == 0 and not (hole[:, :-1] > hole[:, 1:]).any()
        else:
            fits = t.ndim == 1 and self.lo == 0 and not hole.any()
            fits = fits and _k(len(t), self.n_states) is not None
        if not fits:
            raise ArgumentTooSmall(
                f"table of shape {t.shape} from key {self.lo} is not a count, "
                f"pattern (n_states^k entries from key 0) or per-node table"
            )
        if t.size and (t.min() < -1 or t.max() >= self.n_states):
            raise RuleOutOfRange("table values must lie in [0, n_states), or be -1")
        if self.n_states <= LANE_MAX_STATES:
            self._table8 = t.astype(np.uint8)  # a hole, -1, wraps to 255


@dataclass(eq=False)
class ContinuousMap:
    """Elementwise map g for continuous-state systems.

    ``order`` says whether the map is applied to the matvec result
    (mix_then_map, the default) or to the state before mixing
    (map_then_mix, the coupled-lattice form); the engine consults it.
    """

    name: str
    r: float = None
    order: str = MIX_THEN_MAP
    n_states = None  # continuous: not a field, the same for every map

    def __post_init__(self):
        if self.name not in ("tanh", "logistic", "identity"):
            raise ArgumentTooSmall(f"unknown map {self.name!r}")
        if self.name == "logistic":
            if self.r is None or not 0.0 <= self.r <= 4.0:
                raise ArgumentTooSmall(f"logistic parameter r={self.r} outside [0, 4]")
        if self.order not in (MIX_THEN_MAP, MAP_THEN_MIX):
            raise ArgumentTooSmall(f"unknown order {self.order!r}")

    def map_values(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.name == "tanh":
            return np.tanh(x)
        if self.name == "logistic":
            return self.r * x * (1.0 - x)
        return x.copy()


# -- constructors ----------------------------------------------------------

def elementary_rule(rule_number):
    """Wolfram-numbered rule for the 1D binary 3-neighbor lattice.

    table[p] is bit p of the rule number; paired with the [4, 2, 1] stencil
    the pattern integer encodes (left, center, right) as a 3-bit number.
    """
    if not 0 <= rule_number <= 255:
        raise RuleOutOfRange(f"rule number {rule_number} outside [0, 255]")
    return TableRule([(rule_number >> p) & 1 for p in range(8)])


def game_of_life_rule():
    """Conway's life as a counting table.

    Keys are neighbor_count + 9 * own_state (counts 0..8 stay below the
    self-weight 9, so decoding is unique): birth on exactly 3 neighbors,
    survival on 2 or 3.
    """
    dead = [1 if count == 3 else 0 for count in range(9)]
    alive = [1 if count in (2, 3) else 0 for count in range(9)]
    return TableRule(dead + alive, center_weight=9)


def random_boolean_tables(n_nodes, in_degree, seed):
    """Independent random binary tables of 2^in_degree entries per node,
    ``rng.integers(0, 2, 2**in_degree)`` per node in turn from
    ``rng = np.random.default_rng(seed)``."""
    if in_degree < 0:
        raise ArgumentTooSmall(f"in-degree {in_degree} is negative")
    rng = np.random.default_rng(check_seed(seed))
    size = 2**in_degree
    count = n_nodes * size
    # the same entries as rng.integers(0, 2, size) per node in turn: each
    # such draw is the top bit of the generator's next 32-bit word
    words = _words(rng, count)[:count]
    return TableRule((words >> 31).astype(np.int64).reshape(n_nodes, size))


# -- application -----------------------------------------------------------

def _integer_keys(preactivation):
    keys = np.rint(preactivation)
    bad = np.abs(preactivation - keys) > KEY_TOL
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonIntegerKey(
            f"preactivation {preactivation[i]} at index {i} is not an integer key"
        )
    return keys.astype(np.int64)


def apply_rule(rule, preactivation):
    """Next-state vector from the matvec result.

    A table rule takes an int32 vector as its keys and rounds any other to
    integer keys.  It raises NonIntegerKey, then DimensionMismatch (a
    per-node table with a row count other than the vector's length), then
    KeyOutOfTable naming the first key outside the table or, when every
    key lies inside it, the first on a -1 entry.  Its next states are uint8
    when the rule has a uint8 table, else float64.
    """
    pre = np.asarray(preactivation)
    if rule.n_states is None:
        return rule.map_values(pre)
    keys = pre if pre.dtype == np.int32 else _integer_keys(np.asarray(pre, dtype=np.float64))
    table, hole = (rule.table, -1) if rule._table8 is None else (rule._table8, 255)
    if table.ndim == 2 and len(keys) != len(table):
        raise DimensionMismatch(f"{len(keys)} preactivations for {len(table)} node tables")
    # each key's place in its table row, then in the flat table, where
    # node i's row starts at i * width
    width = table.shape[-1]
    index = keys - np.int64(rule.lo)
    if index.size and (index.min() < 0 or index.max() >= width):
        _key_out_of_table(keys, (index < 0) | (index >= width))
    if table.ndim == 2:
        index += np.arange(len(table)) * width
    out = table.reshape(-1).take(index)
    on_hole = out == hole
    if on_hole.any():
        _key_out_of_table(keys, on_hole)
    return out if rule._table8 is not None else out.astype(np.float64)


def _key_out_of_table(keys, bad):
    i = int(np.flatnonzero(bad)[0])
    raise KeyOutOfTable(f"key {keys[i]} at index {i} is not in the table")


# -- text serialization ----------------------------------------------------

_HEADER = "# latflow rule v1 tables=index0first"
# the whitespace of str.split() and the line breaks of str.splitlines()
# other than space, tab, CR and LF: rule text refuses them rather than guess
_OTHER_SPACES = (
    "\v\f\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_DECIMAL = re.compile(rb"-?[0-9]+")


def _k(width, n_states):
    """k with n_states**k == width, or None."""
    k = 0
    while n_states**k < width:
        k += 1
    return k if n_states**k == width else None


def _str(raw, start, end):
    return raw[start:end].decode("utf-8", "surrogatepass")


def _row_texts(table, n_states):
    """The rule text of each row of a 2-D table, its -1 padding left out,
    as a ``(pool, offsets, lengths)`` field of ``_textcodec.assemble``."""
    keep = table >= 0
    values = table[keep]
    counts = keep.sum(axis=1)
    ends = np.cumsum(counts)
    if n_states <= 10:
        return (values + ord("0")).astype(np.uint8), ends - counts, counts
    # comma-separated: every entry is written with a comma after it, and
    # each row's text stops short of its last one
    pool = _textcodec.assemble(len(values), values, b",")
    sizes = np.concatenate(([0], np.cumsum(_textcodec.digit_count(values) + 1)))
    starts = sizes[ends - counts]
    return pool, starts, np.maximum(sizes[ends] - starts - 1, 0)


def _table(raw, starts, ends, n_states):
    """The rule text tables ``raw[starts[i]:ends[i]]`` as one 2-D table,
    shorter rows padded with -1."""
    if n_states > 10:
        rows = [_str(raw, s, e).split(",") for s, e in zip(starts.tolist(), ends.tolist())]
        lengths = np.array([len(row) for row in rows], dtype=np.int64)
    else:
        lengths = ends - starts
    width = int(lengths.max(initial=0))
    if (lengths != width).any() and 8 * len(lengths) * width > _MAX_READ_BYTES:
        raise FileFormatError(f"padding to {width} entries exceeds {_MAX_READ_BYTES} bytes")
    filled = np.arange(width) < lengths[:, None]
    if n_states > 10:
        values = np.array([int(v) for row in rows for v in row], dtype=np.int64)
        if (values < 0).any():
            raise RuleOutOfRange("table values must lie in [0, n_states)")
    else:
        buf = np.frombuffer(raw, dtype=np.uint8)
        positions = starts[:, None] + np.arange(width)
        values = buf[positions[filled]] - np.uint8(ord("0"))
        if (values > 9).any():  # every byte that is not a digit wraps above 9
            raise FileFormatError("a table entry is not a digit")
    table = np.full((len(lengths), width), -1, dtype=np.int64)
    table[filled] = values
    return table


def _node_tables(raw, starts, ends, first, count):
    """Per node index, the span of its table in the node lines, each line
    given by the index of its first token and its token count.  The lines
    are checked as if one at a time, in order: the first bad one raises."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    nodes = len(first)
    last = len(starts) - 1
    at_index, at_table = np.minimum(first + 1, last), np.minimum(first + 2, last)
    shaped = (count == 3) & (ends[first] - starts[first] == 4)
    shaped &= _textcodec.startswith(buf, starts[first], ends[first], b"node")
    index, decimal = _textcodec.decimals(buf, starts[at_index], ends[at_index])
    # an index of more digits than int64 holds is outside unless it has
    # leading zeros: rare enough for int()
    for i in np.flatnonzero(shaped & ~decimal).tolist():
        token = raw[starts[at_index[i]] : ends[at_index[i]]]
        if not _DECIMAL.fullmatch(token):
            break
        index[i] = min(max(int(token), -1), nodes)
        decimal[i] = True
    inside = (0 <= index) & (index < nodes)
    order = np.argsort(index, kind="stable")
    second = np.zeros(nodes, dtype=bool)
    second[order[1:]] = index[order[1:]] == index[order[:-1]]
    keyed = _textcodec.startswith(buf, starts[at_table], ends[at_table], b"table=")
    ok = shaped & decimal & inside & ~second & keyed
    if not ok.all():
        i = int(np.argmin(ok))
        if not shaped[i]:
            line = _str(raw, starts[first[i]], ends[first[i] + count[i] - 1])
            raise FileFormatError(f"bad node line: {line!r}")
        token = _str(raw, starts[at_index[i]], ends[at_index[i]])
        if not decimal[i]:
            raise FileFormatError(f"node index {token!r} is not ASCII decimal digits")
        if not inside[i]:
            raise FileFormatError(f"node {int(token)} outside [0, {nodes})")
        if second[i]:
            raise FileFormatError(f"second table for node {index[i]}")
        field = _str(raw, starts[at_table[i]], ends[at_table[i]])
        if "=" not in field:
            raise FileFormatError(f"expected key=value, got {field!r}")
        raise KeyError("table")  # a key other than table, as _fields(...)["table"] raised
    lines = np.empty(nodes, dtype=np.int64)
    lines[index] = at_table
    return starts[lines] + len(b"table="), ends[lines]


def _rule_text(rule):
    """The rule text of ``rule`` as its header lines, a str, and the node
    lines of a per-node rule, a uint8 array of ASCII."""
    n = rule.n_states
    body = b""
    if n is None:
        parts = [f"rule map name={rule.name}"]
        if rule.name == "logistic":
            parts.append(f"r={float(rule.r)!r}")
        parts.append(f"order={rule.order}")
        lines = [" ".join(parts)]
    elif rule.table.ndim == 2:
        t = rule.table
        k = _k(t.shape[1], n) if len(t) and (t >= 0).all() else None
        head = f"rule pernode n={n} nodes={len(t)}"
        lines = [head if k is None else f"{head} k={k}"]
        nodes = np.arange(len(t), dtype=np.int64)
        body = _textcodec.assemble(len(t), b"node ", nodes, b" table=", _row_texts(t, n), b"\n")
    elif rule.center_weight is not None:
        keys = np.flatnonzero(rule.table >= 0).tolist()
        entries = ",".join(f"{key + rule.lo}:{rule.table[key]}" for key in keys)
        lines = [f"rule count center_weight={rule.center_weight} table={entries}"]
    else:
        t = rule.table
        digits = _textcodec.assemble(1, _row_texts(t[None], n)).tobytes().decode()
        lines = [f"rule pattern n={n} k={_k(len(t), n)} table={digits}"]
    return "\n".join([_HEADER] + lines) + "\n", body


def rule_to_text(rule):
    """Serialize a rule; tables are always listed index-0-first."""
    head, body = _rule_text(rule)
    return head + bytes(body).decode()


def _fields(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise FileFormatError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _text_k(fields):
    k = int(fields["k"])
    # no table of n**64 entries fits in memory
    if not 0 <= k < 64:
        raise FileFormatError(f"in-degree k={k} outside [0, 64)")
    return k


def _count_rule(fields):
    pairs = [[int(x) for x in entry.split(":")] for entry in fields["table"].split(",")]
    keys, states = np.array(pairs, dtype=np.int64).T
    center_weight = int(fields["center_weight"])
    if len(np.unique(keys)) < len(keys):
        raise FileFormatError(f"a key appears twice in table={fields['table']}")
    if states.min() < 0:
        raise RuleOutOfRange("next states must be non-negative")
    lo, span = int(keys.min()), int(keys.max()) - int(keys.min()) + 1
    if 8 * span > _MAX_READ_BYTES:
        raise FileFormatError(f"count keys span {span} entries, over {_MAX_READ_BYTES} bytes")
    table = np.full(span, -1, dtype=np.int64)
    table[keys - lo] = states
    # every next state the table names is a state of the rule
    n_states = max(2, int(states.max()) + 1)
    return TableRule(table, n_states, lo, center_weight)


def rule_from_text(text):
    """Parse rule text.  Tokens are separated by spaces and tabs, lines end
    at CR, LF or CRLF, and any other whitespace is refused; a blank line or
    one starting with ``#`` is skipped.  The node lines of a per-node rule
    are read as one byte array, and checked as if one at a time."""
    other = [c for c in _OTHER_SPACES if c in text]
    if other:
        raise FileFormatError(
            f"rule text holds {other[0]!r}: only space, tab, CR and LF may separate tokens"
        )
    raw = text.encode("utf-8", "surrogatepass")
    # under the compiled backend the node lines of a written per-node rule
    # are read by the scanner, and only the lines before them tokenized
    cut = raw.find(b"\nnode ") + 1 if backend.BACKEND == "c" else 0
    rule = _rule_from_bytes(raw, cut) if cut else None
    return rule if rule is not None else _rule_from_bytes(raw, len(raw))


def _rule_from_bytes(raw, end):
    """The rule of the text ``raw``, its tokens taken up to ``end``, just
    after a line break.  Below ``len(raw)``, None when the rule line lies
    beyond ``end``, or when the rule is per-node and the lines from ``end``
    on are not node lines that the compiled scanner reads."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    starts, ends, line_of = _textcodec.tokenize(buf[:end])
    # the first token of each non-blank line, and its token count
    first = np.flatnonzero(np.diff(line_of, prepend=-1))
    count = np.diff(first, append=len(starts))

    def line(i):
        return _str(raw, starts[first[i]], ends[first[i] + count[i] - 1])

    # the header declares table ordering; refuse to guess without it
    if not len(first) or line(0) != _HEADER:
        raise FileFormatError(f"missing header {_HEADER!r}")
    kept = 1 + np.flatnonzero(buf[starts[first[1:]]] != ord("#"))
    if not len(kept):
        if end < len(raw):
            return None
        raise FileFormatError("empty rule file")
    rule_line = range(first[kept[0]], first[kept[0]] + count[kept[0]])
    head = [_str(raw, starts[t], ends[t]) for t in rule_line]
    if len(head) < 2 or head[0] != "rule":
        raise FileFormatError(f"bad rule line: {line(kept[0])!r}")
    kind = head[1]
    try:
        if kind == "pattern":
            f = _fields(head[2:])
            n = int(f["n"])
            digits = f["table"].encode("utf-8", "surrogatepass")
            table = _table(digits, np.array([0]), np.array([len(digits)]), n)[0]
            if "k" in f and n ** _text_k(f) != len(table):
                raise FileFormatError(f"table of {len(table)} does not match k={f['k']}")
            return TableRule(table, n)
        if kind == "count":
            return _count_rule(_fields(head[2:]))
        if kind == "pernode":
            f = _fields(head[2:])
            n = int(f["n"])
            nodes = int(f["nodes"])
            k = _text_k(f) if "k" in f else None
            body = kept[1:]
            if end < len(raw):
                spans = None if len(body) else backend.node_lines(raw, end, nodes, n)
                if spans is None:
                    return None
            elif nodes != len(body):
                raise FileFormatError(f"{len(body)} node lines for nodes={nodes}")
            else:
                spans = _node_tables(raw, starts, ends, first[body], count[body])
            table = _table(raw, *spans, n)
            lengths = (table >= 0).sum(axis=1)
            if k is not None and (lengths != n**k).any():
                idx = int(np.flatnonzero(lengths != n**k)[0])
                raise FileFormatError(f"node {idx} table of {lengths[idx]} does not match k={k}")
            return TableRule(table, n)
        if kind == "map":
            f = _fields(head[2:])
            return ContinuousMap(
                name=f["name"],
                r=float(f["r"]) if "r" in f else None,
                order=f.get("order", MIX_THEN_MAP),
            )
    except (KeyError, ValueError, IndexError, OverflowError) as exc:
        raise FileFormatError(f"malformed rule text: {exc}") from exc
    raise FileFormatError(f"unknown rule kind {kind!r}")


def save_rule(path, rule):
    head, body = _rule_text(rule)
    with open(path, "wb") as f:
        f.write(head.encode())
        f.write(body)


def load_rule(path):
    return rule_from_text(read_text(path))
