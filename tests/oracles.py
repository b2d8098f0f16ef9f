"""Independent reference implementations used to check the package.

Nothing here touches the sparse-matrix machinery: the CA oracles scan
arrays directly, the readout oracle is first-order optimization, and the
network oracles replay the published input lists by hand.  The construction
oracles draw from numpy one call per row or node, as the generators did
before they decoded the raw PCG64 stream, and build lattice matrices densely
by shifting the grid.
"""

import numpy as np

from latflow.errors import NotSquare


def eca_step(state, rule_number, wrapped=True):
    """One elementary-CA step by direct neighborhood scanning."""
    w = len(state)
    out = np.zeros(w)
    for i in range(w):
        if wrapped:
            l = int(state[(i - 1) % w])
            r = int(state[(i + 1) % w])
        else:
            l = int(state[i - 1]) if i > 0 else 0
            r = int(state[i + 1]) if i < w - 1 else 0
        c = int(state[i])
        out[i] = (rule_number >> (4 * l + 2 * c + r)) & 1
    return out


def eca_run(state, rule_number, steps, wrapped=True):
    rows = [np.asarray(state, dtype=float)]
    for _ in range(steps):
        rows.append(eca_step(rows[-1], rule_number, wrapped))
    return np.array(rows)


def life_step(grid):
    """One Game of Life step on a wrapped 2D grid via shifted copies."""
    neighbors = sum(
        np.roll(np.roll(grid, dr, axis=0), dc, axis=1)
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
        if (dr, dc) != (0, 0)
    )
    alive = grid == 1
    return ((neighbors == 3) | (alive & (neighbors == 2))).astype(float)


def life_run(grid, steps):
    frames = [np.asarray(grid, dtype=float)]
    for _ in range(steps):
        frames.append(life_step(frames[-1]))
    return frames


def rbn_step(state, inputs, tables):
    """One random-Boolean-network step from explicit input lists."""
    out = np.zeros(len(state))
    for i, ins in enumerate(inputs):
        key = 0
        for m, j in enumerate(ins):
            key += int(state[j]) << m
        out[i] = tables[i][key]
    return out


def rbn_first_repeat(state, inputs, tables, max_steps):
    """Run until a state repeats; return (transient, period) or (0, 0)."""
    seen = {}
    x = np.asarray(state, dtype=float)
    for t in range(max_steps + 1):
        key = x.tobytes()
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
        x = rbn_step(x, inputs, tables)
    return 0, 0


def logistic_run(state, r, steps):
    """Independent per-cell logistic iteration, same arithmetic order."""
    x = np.asarray(state, dtype=float).copy()
    for _ in range(steps):
        x = r * x * (1.0 - x)
    return x


def ridge_gd(states, targets, ridge, grad_tol=1e-10, max_iters=500_000):
    """Ridge regression by accelerated gradient descent on the full objective.

    Minimizes |D w - y|^2 + ridge |w|^2 with D = [states | 1].  Step size
    1/L from the exact Lipschitz constant; Nesterov momentum for the
    strongly convex case so convergence is fast even at small ridge.
    """
    D = np.hstack([np.asarray(states, dtype=float),
                   np.ones((len(states), 1))])
    y = np.asarray(targets, dtype=float)
    G = D.T @ D

    def grad(w):
        return 2.0 * (G @ w - D.T @ y + ridge * w)

    lam_max = float(np.max(np.linalg.eigvalsh(G)))
    L = 2.0 * (lam_max + ridge)
    mu = 2.0 * ridge
    beta = 0.0
    if mu > 0:
        q = np.sqrt(mu / L)
        beta = (1.0 - q) / (1.0 + q)
    w = np.zeros(D.shape[1])
    v = w.copy()
    for _ in range(max_iters):
        g = grad(v)
        w_next = v - g / L
        v = w_next + beta * (w_next - w)
        w = w_next
        if np.linalg.norm(grad(w)) <= grad_tol:
            return w
    raise AssertionError("gradient descent oracle failed to converge")


def choice_digraph(n, k, allow_self, seed, uniform=None):
    """Per-node inputs and weights of a random digraph: ``rng.choice`` per
    node, then ``rng.uniform`` over ``uniform`` = (low, high) if given,
    else the positional weights 2^m.  Returns (inputs, weights), (n, k)."""
    limit = n if allow_self else n - 1
    rng = np.random.default_rng(seed)
    inputs = np.zeros((n, k), dtype=np.int64)
    weights = np.tile(2.0 ** np.arange(k), (n, 1))
    for i in range(n if k else 0):
        picks = rng.choice(limit, size=k, replace=False)
        inputs[i] = np.where(picks >= i, picks + 1, picks) if not allow_self else picks
        if uniform is not None:
            weights[i] = rng.uniform(uniform[0], uniform[1], size=k)
    return inputs, weights


def is_symmetric(m):
    """True iff m[i, j] == m[j, i] for every stored entry, exactly, and the
    transposed position of each stored entry is stored too."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"symmetry is undefined for {m.n_rows}x{m.n_cols}")
    entries = {(i, j): w for i, j, w in m.triplets()}
    return all(entries.get((j, i)) == w for (i, j), w in entries.items())


def boolean_tables(n, k, seed):
    """Random binary tables, ``rng.integers(0, 2)`` per node in turn."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=2**k) for _ in range(n)]


def distinct_positions(total, nnz, seed):
    """nnz distinct positions below total and their uniform(-1, 1) weights,
    drawn by batches kept through a Python set (the sparse-case sampler)."""
    rng = np.random.default_rng(seed)
    seen, positions = set(), []
    while len(positions) < nnz:
        for pos in rng.integers(0, total, size=2 * (nnz - len(positions)) + 16).tolist():
            if pos not in seen:
                seen.add(pos)
                positions.append(pos)
                if len(positions) == nnz:
                    break
    return positions, rng.uniform(-1.0, 1.0, size=nnz)


def stencil_dense(height, width, weights, center, wrapped):
    """Dense adjacency of a 2D stencil: column j is the stencil applied to
    unit grid j."""
    n = height * width
    return stencil_apply(height, width, weights, center, wrapped, np.eye(n)).reshape(n, n)


def stencil_apply(height, width, weights, center, wrapped, x):
    """A 2D stencil applied to each column of x (cells by vectors, or one
    vector of cells), in float64: the sum over offsets of weight * (the grid
    shifted so that each cell reads its offset)."""
    weights = np.atleast_2d(weights)
    basis = np.asarray(x, dtype=np.float64).reshape(height, width, -1)
    if not wrapped:
        pad = max(weights.shape)
        basis = np.pad(basis, ((pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((height, width, basis.shape[2]))
    for (sr, sc), w in np.ndenumerate(weights):
        dr, dc = sr - center[0], sc - center[1]
        if wrapped:
            out += w * np.roll(basis, (-dr, -dc), axis=(0, 1))
        else:
            out += w * basis[pad + dr:pad + dr + height, pad + dc:pad + dc + width]
    return out.reshape(np.shape(x))


def table_lookup(entries, pre, per_node):
    """Next states looked up in dicts {key: next state}: one dict for every
    cell, or (per_node) one dict per cell.  Returns the list of next states,
    or the name of the error the lookup must raise: NonIntegerKey for the
    first value farther than 1e-6 from an integer, then DimensionMismatch
    for a dict count other than the number of cells, then KeyOutOfTable
    for the first key its dict lacks.  Values must be finite."""
    keys = []
    for x in pre:
        key = round(x)
        if abs(x - key) > 1e-6:
            return "NonIntegerKey"
        keys.append(key)
    if per_node and len(entries) != len(keys):
        return "DimensionMismatch"
    out = []
    for i, key in enumerate(keys):
        table = entries[i] if per_node else entries
        if key not in table:
            return "KeyOutOfTable"
        out.append(float(table[key]))
    return out


def first_cycle_within(states, tol):
    """(transient, period) of the first pair s < j, in order of j then s,
    whose rows agree within ``tol`` in every cell and whose repetition holds
    for every later row; (0, 0) if none.  Plain loops over Python floats."""
    rows = [list(map(float, row)) for row in states]

    def close(a, b):
        return all(abs(x - y) <= tol for x, y in zip(a, b))

    for j in range(1, len(rows)):
        for s in range(j):
            p = j - s
            if all(close(rows[m], rows[m + p]) for m in range(s, len(rows) - p)):
                return s, p
    return 0, 0


# -- text formats, as the per-line code that the byte-array codec replaced --

PERNODE_HEADER = "# latflow rule v1 tables=index0first"


class Refused(Exception):
    """The reference reader refuses its input."""


def _fields(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise Refused(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def pernode_table_from_text(text):
    """(n_states, table) of per-node rule text, read a line at a time with
    str.splitlines(), str.split() and int(); raises Refused where the
    reader did, a TableRule's own checks included."""
    raw = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not raw or raw[0] != PERNODE_HEADER:
        raise Refused("missing header")
    lines = [ln for ln in raw[1:] if not ln.startswith("#")]
    if not lines:
        raise Refused("empty rule file")
    head = lines[0].split()
    if len(head) < 3 or head[:2] != ["rule", "pernode"]:
        raise Refused("not a per-node rule")
    try:
        f = _fields(head[2:])
        n = int(f["n"])
        nodes = int(f["nodes"])
        k = int(f["k"]) if "k" in f else None
        if k is not None and not 0 <= k < 64:
            raise Refused("k outside [0, 64)")
        if nodes != len(lines) - 1:
            raise Refused("node line count")
        texts = [None] * nodes
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != 3 or toks[0] != "node":
                raise Refused("bad node line")
            idx = int(toks[1])
            if not 0 <= idx < nodes:
                raise Refused("outside")
            if texts[idx] is not None:
                raise Refused("second table")
            texts[idx] = _fields(toks[2:])["table"]
        rows = [t.split(",") for t in texts] if n > 10 else texts
        width = max((len(row) for row in rows), default=0)
        if any(len(row) != width for row in rows) and 8 * len(rows) * width > 1 << 30:
            raise Refused("padding")
        if n > 10:
            values = [[int(v) for v in row] for row in rows]
        else:
            if any(not "0" <= c <= "9" for c in "".join(texts)):
                raise Refused("not a digit")
            values = [[int(c) for c in row] for row in texts]
        if k is not None and any(len(row) != n**k for row in values):
            raise Refused("does not match k")
    except (KeyError, ValueError, IndexError, OverflowError) as exc:
        raise Refused(str(exc)) from exc
    if n < 2 or any(v < 0 or v >= n for row in values for v in row):
        raise Refused("TableRule refuses the states")
    table = np.full((nodes, width), -1, dtype=np.int64)
    for i, row in enumerate(values):
        table[i, : len(row)] = row
    return n, table


def matrix_market_text(m):
    """Coordinate Matrix Market of a SparseMatrix, as one %-format of all
    its fields; each distinct weight's repr is taken once, keyed by its
    bits, so that -0.0 keeps its own."""
    rows = np.repeat(np.arange(1, m.n_rows + 1), np.diff(m.indptr))
    bits, inverse = np.unique(m.data.view(np.int64), return_inverse=True)
    reprs = np.array([repr(w) for w in bits.view(np.float64).tolist()], dtype=object)
    fields = np.empty(3 * m.nnz, dtype=object)
    fields[0::3] = rows.tolist()
    fields[1::3] = (m.indices + 1).tolist()
    fields[2::3] = reprs[inverse]
    return (
        f"%%MatrixMarket matrix coordinate real general\n{m.n_rows} {m.n_cols} {m.nnz}\n"
        + ("%d %d %s\n" * m.nnz) % tuple(fields)
    )
