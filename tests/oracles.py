"""Independent reference implementations used to check the package.

Nothing here touches the sparse-matrix machinery: the CA oracles scan
arrays directly, the readout oracle is first-order optimization, and the
network oracles replay the published input lists by hand.  The construction
oracles draw from numpy one call per row or node, as the generators did
before they decoded the raw PCG64 stream, and build lattice matrices densely
by shifting the grid.
"""

import numpy as np


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
    """Dense adjacency of a 2D stencil: column j is the sum over offsets of
    weight * (unit grid j shifted so that each cell reads its offset)."""
    weights = np.atleast_2d(weights)
    n = height * width
    basis = np.eye(n).reshape(height, width, n)
    if not wrapped:
        pad = max(weights.shape)
        basis = np.pad(basis, ((pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((height, width, n))
    for (sr, sc), w in np.ndenumerate(weights):
        dr, dc = sr - center[0], sc - center[1]
        if wrapped:
            out += w * np.roll(basis, (-dr, -dc), axis=(0, 1))
        else:
            out += w * basis[pad + dr:pad + dr + height, pad + dc:pad + dc + width]
    return out.reshape(n, n)


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
