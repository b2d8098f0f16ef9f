"""Update rules: the function applied around the adjacency matvec.

Discrete systems use lookup tables keyed by the integer matvec result;
continuous systems use an elementwise map.  Key recovery rounds to the
nearest integer with a 1e-6 guard, and a violation is a hard error rather
than a clamp: a non-integer key always means the stencil and the rule
disagree about the encoding.

Own-state dependence is never threaded through the rule itself.  Where a
rule needs the cell's own state (Conway's life), the matrix carries a
distinguishing self-weight instead, so the update stays a pure function of
the matvec result.
"""

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import (
    ArgumentTooSmall,
    DimensionMismatch,
    FileFormatError,
    KeyOutOfTable,
    NonIntegerKey,
    RuleOutOfRange,
)
from .topology import _words

KEY_TOL = 1e-6  # _ckernels.c repeats this value

MIX_THEN_MAP = "mix_then_map"
MAP_THEN_MIX = "map_then_mix"


@dataclass(eq=False)
class PatternLUT:
    """Table over positional-encoded neighborhood patterns.

    ``table[p]`` is the next state for pattern integer p; the table is
    indexed pattern-0-first and has exactly n_states^k entries.
    """

    n_states: int
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.table = np.ascontiguousarray(self.table, dtype=np.int64)
        if self.n_states < 2:
            raise ArgumentTooSmall(f"need at least 2 states, got {self.n_states}")
        k = self.k
        if self.n_states**k != len(self.table):
            raise ArgumentTooSmall(
                f"table of {len(self.table)} is not a power of {self.n_states}"
            )
        if len(self.table) and (self.table.min() < 0 or self.table.max() >= self.n_states):
            raise RuleOutOfRange("table values must lie in [0, n_states)")
        self._flat_table = (self.table, 0, len(self.table), 0)

    @property
    def k(self):
        return max(1, round(np.log(len(self.table)) / np.log(self.n_states)))


@dataclass(eq=False)
class CountLUT:
    """Table keyed by neighbor_count + center_weight * own_state.

    The paired matrix must carry weight 1 on each counted neighbor and
    ``center_weight`` on the diagonal so the key decodes uniquely.
    """

    center_weight: int
    table: dict

    def __post_init__(self):
        self.table = {int(k): int(v) for k, v in self.table.items()}
        if any(v < 0 for v in self.table.values()):
            raise RuleOutOfRange("next states must be non-negative")
        lo = min(self.table)
        hi = max(self.table)
        dense = np.full(hi - lo + 1, -1, dtype=np.int64)
        for k, v in self.table.items():
            dense[k - lo] = v
        self._lo = lo
        self._dense = dense
        self._flat_table = (dense, lo, len(dense), 0)


@dataclass(eq=False)
class PerNodeLUT:
    """One pattern table per node, for networks with node-specific rules.

    Node i's key digits follow its ordered input list: input m contributes
    n_states^m, matching the positional weight scheme of the digraph
    generator.
    """

    tables: list  # or an (n_nodes, table size) array
    n_states: int = 2

    def __post_init__(self):
        if isinstance(self.tables, np.ndarray) and self.tables.ndim == 2 and len(self.tables):
            # one table per row, kept as it is: no per-node list is built
            self.tables = self._stacked = np.ascontiguousarray(self.tables, dtype=np.int64)
        else:
            self.tables = [np.asarray(t, dtype=np.int64) for t in self.tables]
            lengths = {len(t) for t in self.tables}
            self._stacked = np.vstack(self.tables) if len(lengths) == 1 else None
        # a uniform rule is range-checked in one pass, not once per node
        for t in self.tables if self._stacked is None else [self._stacked]:
            if t.size and (t.min() < 0 or t.max() >= self.n_states):
                raise RuleOutOfRange("table values must lie in [0, n_states)")
        width = 0 if self._stacked is None else self._stacked.shape[1]
        self._flat_table = (self._stacked.ravel(), 0, width, width) if width else None


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
    table = [(rule_number >> p) & 1 for p in range(8)]
    return PatternLUT(n_states=2, table=table)


def game_of_life_rule():
    """Conway's life as a counting table.

    Keys are neighbor_count + 9 * own_state (counts 0..8 stay below the
    self-weight 9, so decoding is unique): birth on exactly 3 neighbors,
    survival on 2 or 3.
    """
    table = {}
    for count in range(9):
        table[count] = 1 if count == 3 else 0
        table[9 + count] = 1 if count in (2, 3) else 0
    return CountLUT(center_weight=9, table=table)


def random_boolean_tables(n_nodes, in_degree, seed):
    """Independent random binary tables of 2^in_degree entries per node,
    ``rng.integers(0, 2, 2**in_degree)`` per node in turn from
    ``rng = np.random.default_rng(seed)``."""
    if in_degree < 0:
        raise ArgumentTooSmall(f"in-degree {in_degree} is negative")
    rng = np.random.default_rng(seed)
    size = 2**in_degree
    count = n_nodes * size
    # the same entries as rng.integers(0, 2, size) per node in turn: each
    # such draw is the top bit of the generator's next 32-bit word
    words = _words(rng, count)[:count]
    return PerNodeLUT(tables=(words >> 31).astype(np.int64).reshape(n_nodes, size), n_states=2)


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


def apply_rule(rule, preactivation, current_state=None):
    """Next-state vector from the matvec result.

    ``current_state`` is accepted for uniformity; none of the shipped rule
    variants consult it, since own-state dependence lives in the matrix.
    """
    pre = np.asarray(preactivation, dtype=np.float64)
    if current_state is not None and len(current_state) != len(pre):
        raise DimensionMismatch(
            f"state of {len(current_state)} against preactivation of {len(pre)}"
        )
    # _flat_table is a table rule's (table, lo, width, stride) view, built at
    # construction; on any bad key the compiled lookup declines and the
    # numpy code below raises the precise error
    flat = getattr(rule, "_flat_table", None)
    if flat is not None:
        out = backend.table_lookup(pre, *flat)
        if out is not None:
            return out
    if isinstance(rule, PatternLUT):
        keys = _integer_keys(pre)
        if len(keys) and (keys.min() < 0 or keys.max() >= len(rule.table)):
            i = int(np.flatnonzero((keys < 0) | (keys >= len(rule.table)))[0])
            raise KeyOutOfTable(
                f"key {keys[i]} at index {i} outside table of {len(rule.table)}"
            )
        return rule.table[keys].astype(np.float64)
    if isinstance(rule, CountLUT):
        keys = _integer_keys(pre)
        shifted = keys - rule._lo
        bad = (shifted < 0) | (shifted >= len(rule._dense))
        if not bad.any():
            out = rule._dense[shifted]
            bad = out < 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise KeyOutOfTable(f"key {keys[i]} at index {i} not in counting table")
        return out.astype(np.float64)
    if isinstance(rule, PerNodeLUT):
        keys = _integer_keys(pre)
        if len(keys) != len(rule.tables):
            raise DimensionMismatch(
                f"{len(keys)} preactivations for {len(rule.tables)} node tables"
            )
        if rule._stacked is not None:
            width = rule._stacked.shape[1]
            if len(keys) and (keys.min() < 0 or keys.max() >= width):
                i = int(np.flatnonzero((keys < 0) | (keys >= width))[0])
                raise KeyOutOfTable(
                    f"key {keys[i]} at node {i} outside table of {width}"
                )
            return rule._stacked[np.arange(len(keys)), keys].astype(np.float64)
        out = np.empty(len(keys), dtype=np.float64)
        for i, (k, t) in enumerate(zip(keys, rule.tables)):
            if not 0 <= k < len(t):
                raise KeyOutOfTable(f"key {k} at node {i} outside table of {len(t)}")
            out[i] = t[k]
        return out
    if isinstance(rule, ContinuousMap):
        return rule.map_values(pre)
    raise TypeError(f"not a rule: {rule!r}")


def rule_n_states(rule):
    """Number of discrete states, or None for continuous maps."""
    if isinstance(rule, (PatternLUT, PerNodeLUT)):
        return rule.n_states
    if isinstance(rule, CountLUT):
        return 2
    return None


# -- text serialization ----------------------------------------------------

_HEADER = "# latflow rule v1 tables=index0first"


def _digits(table, n_states):
    if n_states <= 10:
        return "".join(str(int(v)) for v in table)
    return ",".join(str(int(v)) for v in table)


def _parse_digits(text, n_states):
    if n_states <= 10:
        return [int(ch) for ch in text]
    return [int(v) for v in text.split(",")]


def _pernode_k(rule):
    """k with n_states**k entries in every table, or None when there is none
    (ragged tables), in which case the text declares no k."""
    if rule._stacked is None:
        return None
    width, k = rule._stacked.shape[1], 0
    while rule.n_states > 1 and rule.n_states**k < width:
        k += 1
    return k if rule.n_states**k == width else None


def rule_to_text(rule):
    """Serialize a rule; tables are always listed index-0-first."""
    lines = [_HEADER]
    if isinstance(rule, PatternLUT):
        lines.append(
            f"rule pattern n={rule.n_states} k={rule.k} "
            f"table={_digits(rule.table, rule.n_states)}"
        )
    elif isinstance(rule, CountLUT):
        entries = ",".join(f"{k}:{rule.table[k]}" for k in sorted(rule.table))
        lines.append(f"rule count center_weight={rule.center_weight} table={entries}")
    elif isinstance(rule, PerNodeLUT):
        head = f"rule pernode n={rule.n_states} nodes={len(rule.tables)}"
        k = _pernode_k(rule)
        lines.append(head if k is None else f"{head} k={k}")
        for i, t in enumerate(rule.tables):
            lines.append(f"node {i} table={_digits(t, rule.n_states)}")
    elif isinstance(rule, ContinuousMap):
        parts = [f"rule map name={rule.name}"]
        if rule.name == "logistic":
            parts.append(f"r={float(rule.r)!r}")
        parts.append(f"order={rule.order}")
        lines.append(" ".join(parts))
    else:
        raise TypeError(f"not a rule: {rule!r}")
    return "\n".join(lines) + "\n"


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


def rule_from_text(text):
    raw = [ln.strip() for ln in text.splitlines() if ln.strip()]
    # the header declares table ordering; refuse to guess without it
    if not raw or raw[0] != _HEADER:
        raise FileFormatError(f"missing header {_HEADER!r}")
    lines = [ln for ln in raw[1:] if not ln.startswith("#")]
    if not lines:
        raise FileFormatError("empty rule file")
    head = lines[0].split()
    if len(head) < 2 or head[0] != "rule":
        raise FileFormatError(f"bad rule line: {lines[0]!r}")
    kind = head[1]
    try:
        if kind == "pattern":
            f = _fields(head[2:])
            n = int(f["n"])
            table = _parse_digits(f["table"], n)
            if "k" in f and n ** _text_k(f) != len(table):
                raise FileFormatError(
                    f"table of {len(table)} does not match k={f['k']}"
                )
            return PatternLUT(n_states=n, table=table)
        if kind == "count":
            f = _fields(head[2:])
            table = {}
            for entry in f["table"].split(","):
                k, v = entry.split(":")
                table[int(k)] = int(v)
            return CountLUT(center_weight=int(f["center_weight"]), table=table)
        if kind == "pernode":
            f = _fields(head[2:])
            n = int(f["n"])
            nodes = int(f["nodes"])
            size = None
            if "k" in f:
                k = _text_k(f)
                size = n**k
            # one line per node, so the list below is no larger than the text
            if nodes != len(lines) - 1:
                raise FileFormatError(f"{len(lines) - 1} node lines for nodes={nodes}")
            tables = [None] * nodes
            for ln in lines[1:]:
                toks = ln.split()
                if len(toks) != 3 or toks[0] != "node":
                    raise FileFormatError(f"bad node line: {ln!r}")
                idx = int(toks[1])
                if not 0 <= idx < nodes:
                    raise FileFormatError(f"node {idx} outside [0, {nodes})")
                if tables[idx] is not None:
                    raise FileFormatError(f"second table for node {idx}")
                table = _parse_digits(_fields(toks[2:])["table"], n)
                if size is not None and len(table) != size:
                    raise FileFormatError(
                        f"node {idx} table of {len(table)} does not match n={n} k={k}"
                    )
                tables[idx] = table
            return PerNodeLUT(tables=tables, n_states=n)
        if kind == "map":
            f = _fields(head[2:])
            return ContinuousMap(
                name=f["name"],
                r=float(f["r"]) if "r" in f else None,
                order=f.get("order", MIX_THEN_MAP),
            )
    except (KeyError, ValueError, IndexError) as exc:
        raise FileFormatError(f"malformed rule text: {exc}") from exc
    raise FileFormatError(f"unknown rule kind {kind!r}")


def save_rule(path, rule):
    with open(path, "w") as f:
        f.write(rule_to_text(rule))


def load_rule(path):
    with open(path) as f:
        return rule_from_text(f.read())
