"""Trajectory analysis: PCA projection, exact cycle detection, linear readout.

PCA is one symmetric eigensolve: of the sample covariance, or, when the
history has fewer rows than cells, of the rows x rows Gram matrix of the
centred states, so no cells x cells array is formed.
Each component's sign is fixed so its largest-magnitude coordinate is
positive, making projections stable across runs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentTooSmall,
    DimensionMismatch,
    SingularSystem,
    TooFewRows,
)


@dataclass
class Trajectory2D:
    """Projected trajectory: one point per recorded step."""

    points: np.ndarray
    explained_variance: tuple

    def to_csv(self):
        k = self.points.shape[1]
        header = "step," + ",".join(f"pc{i + 1}" for i in range(k))
        lines = [header]
        for step, row in enumerate(self.points):
            lines.append(f"{step}," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def save_csv(self, path):
        with open(path, "w") as f:
            f.write(self.to_csv())

    def to_svg(self):
        """Polyline plot with exact data coordinates; styling is minimal."""
        xs = self.points[:, 0]
        ys = self.points[:, 1]
        span_x = float(xs.max() - xs.min()) or 1.0
        span_y = float(ys.max() - ys.min()) or 1.0
        pad_x, pad_y = 0.05 * span_x, 0.05 * span_y
        view = (
            f"{float(xs.min()) - pad_x!r} {float(ys.min()) - pad_y!r} "
            f"{span_x + 2 * pad_x!r} {span_y + 2 * pad_y!r}"
        )
        pts = " ".join(f"{float(x)!r},{float(y)!r}" for x, y in self.points)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n'
            f'  <polyline fill="none" stroke="black" '
            f'stroke-width="{0.01 * max(span_x, span_y)!r}" points="{pts}"/>\n'
            f"</svg>\n"
        )

    def save_svg(self, path):
        with open(path, "w") as f:
            f.write(self.to_svg())


@dataclass
class CycleReport:
    """Transient length and cycle period; period 0 means no cycle was found
    within the recorded horizon (transient_length is 0 in that case)."""

    transient_length: int
    period: int


@dataclass
class ReadoutModel:
    """Linear readout weights (intercept last) and the training residual."""

    weights: np.ndarray
    training_residual: float

    def predict(self, states):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return states @ self.weights[:-1] + self.weights[-1]


def principal_components(data, n_components):
    """Top eigenpairs of the sample covariance of ``data`` rows.

    Covariance uses divisor (rows - 1).  With fewer rows than columns the
    covariance is never formed: the rows x rows Gram matrix C C^T / (rows - 1)
    of the centred data C has the same nonzero eigenvalues, with eigenvectors
    u giving the components C^T u (the snapshot method, Sirovich 1987).
    Returns (components, variances) with components stacked row-wise in
    decreasing variance order.
    """
    data = np.asarray(data, dtype=np.float64)
    rows, dim = data.shape
    if rows < 2:
        raise TooFewRows(f"need at least 2 rows, got {rows}")
    if not 1 <= n_components <= min(rows, dim):
        raise ArgumentTooSmall(
            f"cannot extract {n_components} components from {rows}x{dim} data"
        )
    centered = data - data.mean(axis=0)
    top = slice(None, -n_components - 1, -1)
    if rows < dim:
        variances, u = np.linalg.eigh(centered @ centered.T / (rows - 1))
        # Householder QR normalises the C^T u in variance order and completes
        # the zero-variance ones, where C^T u is rounding noise, to an
        # orthonormal basis
        vectors = np.linalg.qr(centered.T @ u[:, top])[0]
    else:
        variances, vectors = np.linalg.eigh(centered.T @ centered / (rows - 1))
        vectors = vectors[:, top]
    components = vectors.T
    # the sign makes the first largest-magnitude coordinate positive; "first"
    # within 1e-12, so that exact ties do not fall to rounding
    size = np.abs(components)
    lead = np.argmax(size >= size.max(axis=1, keepdims=True) - 1e-12, axis=1)
    components[components[np.arange(n_components), lead] < 0] *= -1.0
    return components, tuple(np.maximum(variances[top], 0.0).tolist())


def pca_project(history, n_components=2):
    """Project a state history onto its leading principal components."""
    components, variances = principal_components(history.states, n_components)
    centered = history.states - history.states.mean(axis=0)
    return Trajectory2D(points=centered @ components.T, explained_variance=variances)


def detect_cycle(history, tol=0.0):
    """Smallest (transient, period) closing the recorded trajectory.

    Takes the pairs of equal rows s < j (equal bytes for tol=0, elementwise
    within tol otherwise) in order of j, then s, and reports the first whose
    repetition holds over the whole remaining record.  tol > 0 is for
    continuous systems and is inherently approximate.  A history recorded
    as bytes is compared as bytes for tol=0: for values 0-255, equal bytes
    are equal float64 values.
    """
    states = history._rows if tol == 0.0 else history.states
    rows = len(states)
    if tol == 0.0:
        # rows by a 64-bit hash of their bytes, so no row is copied for
        # longer than it is hashed; equal bytes are confirmed per candidate
        seen = {}
        for j in range(rows):
            row = states[j].tobytes()
            earlier = seen.setdefault(hash(row), [])
            for s in earlier:
                if states[s].tobytes() == row and _verify_cycle(states, s, j - s, tol):
                    return CycleReport(s, j - s)
            earlier.append(j)
        return CycleReport(0, 0)
    for j in range(1, rows):
        close = np.all(np.abs(states[:j] - states[j]) <= tol, axis=1)
        for s in np.flatnonzero(close).tolist():
            if _verify_cycle(states, s, j - s, tol):
                return CycleReport(s, j - s)
    return CycleReport(0, 0)


def _verify_cycle(states, s, p, tol):
    # uint8 differences wrap modulo 256, so they are 0 just where bytes agree
    ahead = states[s + p :]
    base = states[s : s + len(ahead)]
    return np.all(np.abs(base - ahead) <= tol)


def train_linear_readout(history, targets, ridge):
    """Ridge-regularized least squares from states (plus intercept) to targets.

    Solves the normal equations with LAPACK's pivoted Gaussian elimination;
    the penalty applies to all weights, intercept included.
    """
    if ridge < 0:
        raise ArgumentTooSmall(f"ridge {ridge} is negative")
    states = history.states
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 1 or len(targets) != len(states):
        raise DimensionMismatch(
            f"{len(targets)} targets for {len(states)} recorded states"
        )
    design = np.hstack([states, np.ones((len(states), 1))])
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    try:
        weights = np.linalg.solve(gram, design.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "normal equations are singular (degenerate history at ridge=0)"
        ) from exc
    residual = float(np.sum((design @ weights - targets) ** 2))
    return ReadoutModel(weights=weights, training_residual=residual)
