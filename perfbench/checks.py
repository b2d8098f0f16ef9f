"""Independent output checks for the benchmark workloads.

None of these compares against numbers recorded from latflow itself.  Life
is re-simulated with shifted copies of the grid, an RBN step is replayed
from the published input lists and the tables parsed from the rule text,
PCA and the readout are recomputed with LAPACK, and cycles are searched by
brute force.  Only numpy and the standard library are used here.
"""

import re
import xml.etree.ElementTree as ET

import numpy as np


def life_step(grid):
    """One step of Conway's life on a wrapped grid (rows = height)."""
    rows = grid + np.roll(grid, 1, axis=0) + np.roll(grid, -1, axis=0)
    block = rows + np.roll(rows, 1, axis=1) + np.roll(rows, -1, axis=1)
    neighbors = block - grid
    return ((neighbors == 3) | ((grid == 1) & (neighbors == 2))).astype(np.int8)


def life_run(grid, steps):
    for _ in range(steps):
        grid = life_step(grid)
    return grid


def life_history_ok(states, height, width):
    """Every recorded row follows from the one before by the life rule."""
    grids = np.asarray(states).reshape(len(states), height, width)
    if not np.isin(grids, (0.0, 1.0)).all():
        return False
    grids = grids.astype(np.int8)
    return all(np.array_equal(life_step(a), b) for a, b in zip(grids[:-1], grids[1:]))


def parse_pernode_tables(text):
    """Per-node tables from latflow rule text v1 (``node i table=0110``)."""
    tables = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == "node" and fields[2].startswith("table="):
            tables[int(fields[1])] = [int(ch) for ch in fields[2][len("table="):]]
    return np.array([tables[i] for i in range(len(tables))], dtype=np.int64)


def rbn_history_ok(states, node_inputs, tables):
    """Replay each recorded step from the input lists: input m adds 2^m to
    the node's table key."""
    inputs = np.asarray(node_inputs, dtype=np.int64)
    powers = 2 ** np.arange(inputs.shape[1])
    rows = np.arange(len(inputs))
    states = np.asarray(states)
    for before, after in zip(states[:-1], states[1:]):
        keys = (before[inputs].astype(np.int64) * powers).sum(axis=1)
        if not np.array_equal(tables[rows, keys].astype(np.float64), after):
            return False
    return True


def first_cycle(states, tol=0.0):
    """(transient, period) of the earliest row j equal (within tol) to an
    earlier row s from which the record repeats with period j - s; (0, 0)
    if there is none.  Equal rows are grouped by their bytes when tol is 0
    and found by comparing against every earlier row otherwise."""
    states = np.asarray(states)
    earlier = {}
    for j in range(len(states)):
        if tol == 0.0:
            same = earlier.setdefault(states[j].tobytes(), [])
            candidates = list(same)
            same.append(j)
        else:
            candidates = np.flatnonzero(np.all(np.abs(states[:j] - states[j]) <= tol, axis=1))
        for s in candidates:
            p = j - s
            if np.all(np.abs(states[s + p:] - states[s:len(states) - p]) <= tol):
                return int(s), int(p)
    return 0, 0


def top_variances(states, k):
    """The k largest eigenvalues of the sample covariance (divisor T - 1),
    taken from whichever of the covariance and the Gram matrix is smaller."""
    x = np.asarray(states, dtype=np.float64)
    x = x - x.mean(axis=0)
    small = x.T @ x if x.shape[1] <= x.shape[0] else x @ x.T
    return np.sort(np.linalg.eigvalsh(small / (len(x) - 1)))[::-1][:k]


def pca_ok(states, points, variances, rtol=1e-6):
    """Reported variances match LAPACK, and each projected column has the
    variance it is reported to explain."""
    variances = np.asarray(variances, dtype=np.float64)
    ref = top_variances(states, len(variances))
    scale = max(float(ref[0]), 1e-300)
    column = np.var(np.asarray(points), axis=0, ddof=1)
    return bool(
        np.all(np.abs(variances - ref) <= rtol * scale)
        and np.all(np.abs(column - ref) <= rtol * scale)
    )


def readout_ok(states, targets, ridge, weights):
    """Weights against least squares on the ridge-augmented system
    [X 1; sqrt(ridge) I] w = [y; 0].  The tolerance is the forward-error
    bound of the normal equations, cond(X'X + ridge I) times machine eps,
    with a factor of 100 for the accumulation."""
    design = np.hstack([np.asarray(states), np.ones((len(states), 1))])
    dim = design.shape[1]
    aug = np.vstack([design, np.sqrt(ridge) * np.eye(dim)])
    rhs = np.concatenate([targets, np.zeros(dim)])
    ref, _res, _rank, sv = np.linalg.lstsq(aug, rhs, rcond=None)
    cond = (sv[0] / sv[-1]) ** 2
    tol = 100.0 * cond * np.finfo(np.float64).eps
    err = np.linalg.norm(np.asarray(weights) - ref) / np.linalg.norm(ref)
    return bool(err <= tol), float(err), float(tol)


def parse_cycle_output(text):
    """(transient, period) from ``latflow cycle`` output."""
    m = re.fullmatch(r"transient=(\d+) period=(\d+)\s*", text)
    if m:
        return int(m.group(1)), int(m.group(2))
    if re.fullmatch(r"no cycle within \d+ recorded steps\s*", text):
        return 0, 0
    return None


def parse_pca_output(csv_text, stdout):
    """(points, variances) from ``latflow pca`` CSV and its summary line."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    if header[0] != "step" or not all(h == f"pc{i}" for i, h in enumerate(header[1:], 1)):
        return None
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        return None
    m = re.search(r"explained_variance=(\S+)", stdout)
    if m is None:
        return None
    return table[:, 1:], [float(v) for v in m.group(1).split(",")]


def svg_points(text):
    """Number of polyline points in a ``latflow pca --svg`` plot."""
    root = ET.fromstring(text)
    line = root.find("{http://www.w3.org/2000/svg}polyline")
    return len(line.get("points").split())


def render_ok(text, states, height, width):
    """Text frames: '#' for a live cell, '.' for a dead one."""
    frames = text.rstrip("\n").split("\n\n")
    if len(frames) != len(states):
        return False
    glyphs = np.array([".", "#"])
    for frame, row in zip(frames, states):
        want = "\n".join(
            "".join(line) for line in glyphs[np.asarray(row, dtype=np.int64).reshape(height, width)]
        )
        if frame != want:
            return False
    return True
