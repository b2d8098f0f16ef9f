"""The simulation loop: state' = f(A @ state), iterated.

A system owns an adjacency matrix, a rule and the current state vector.
The default update mixes first and maps second; continuous maps may declare
map_then_mix instead, which applies the local map before the matrix so
diffusively coupled lattices come out right.  There is no bias term and no
per-step external input.
"""

import struct

import numpy as np

from .errors import BadStateValue, DimensionMismatch, FileFormatError, NotSquare
from .rules import MAP_THEN_MIX, ContinuousMap, apply_rule, rule_n_states


class StateHistory:
    """Record of states over time, one row per step, row 0 the initial state."""

    def __init__(self, states):
        self.states = np.atleast_2d(np.asarray(states, dtype=np.float64))

    @property
    def n(self):
        return self.states.shape[1]

    def __len__(self):
        return self.states.shape[0]

    def __getitem__(self, i):
        return self.states[i]

    # -- CSV: one row per step, comma-separated reals ---------------------

    def save_csv(self, path):
        with open(path, "w") as f:
            f.write(self.to_csv())

    def to_csv(self):
        return "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in self.states
        )

    @classmethod
    def from_csv(cls, text):
        rows = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            try:
                rows.append([float(v) for v in ln.split(",")])
            except ValueError as exc:
                raise FileFormatError(f"bad CSV row: {ln!r}") from exc
        if not rows:
            raise FileFormatError("empty state CSV")
        if len({len(r) for r in rows}) != 1:
            raise FileFormatError("ragged state CSV")
        history = cls(rows)
        finite = np.isfinite(history.states).all(axis=1)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            raise FileFormatError(f"non-finite value in state CSV row {row}")
        return history

    @classmethod
    def load_csv(cls, path):
        with open(path) as f:
            return cls.from_csv(f.read())

    # -- binary: magic LFST, u32 row count, u32 width, f64 LE row-major ---

    def save_binary(self, path):
        rows, n = self.states.shape
        with open(path, "wb") as f:
            f.write(struct.pack("<4sII", b"LFST", rows, n))
            f.write(np.ascontiguousarray(self.states, dtype="<f8").tobytes())

    @classmethod
    def load_binary(cls, path):
        with open(path, "rb") as f:
            head = f.read(12)
            if len(head) != 12:
                raise FileFormatError("truncated state file")
            magic, rows, n = struct.unpack("<4sII", head)
            if magic != b"LFST":
                raise FileFormatError(f"bad magic {magic!r}")
            body = f.read()
        expected = rows * n * 8
        if len(body) != expected:
            raise FileFormatError(
                f"expected {expected} payload bytes, found {len(body)}"
            )
        states = np.frombuffer(body, dtype="<f8").reshape(rows, n)
        return cls(states)


def load_history(path):
    """Read a state file, sniffing binary vs CSV by the LFST magic."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == b"LFST":
        return StateHistory.load_binary(path)
    with open(path) as f:
        return StateHistory.from_csv(f.read())


class DynamicalSystem:
    """Adjacency matrix + rule + state, advanced synchronously."""

    def __init__(self, matrix, rule, state):
        if not matrix.is_square:
            raise NotSquare(f"system matrix is {matrix.n_rows}x{matrix.n_cols}")
        self.matrix = matrix
        self.rule = rule
        self.state = self._checked(state)
        self.t = 0

    @property
    def n(self):
        return self.matrix.n_rows

    def _checked(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or len(v) != self.matrix.n_cols:
            raise DimensionMismatch(
                f"state of {v.shape} for an {self.matrix.n_rows}-cell system"
            )
        if not np.all(np.isfinite(v)):
            raise BadStateValue("state contains non-finite values")
        n_states = rule_n_states(self.rule)
        if n_states is not None:
            if np.any(v != np.rint(v)) or v.min() < 0 or v.max() >= n_states:
                raise BadStateValue(
                    f"discrete state values must be integers in [0, {n_states})"
                )
        return v

    def set_state(self, values):
        """Replace the state and reset the step counter."""
        self.state = self._checked(values)
        self.t = 0
        return self

    def step(self):
        """Advance one synchronous step."""
        rule = self.rule
        if isinstance(rule, ContinuousMap) and rule.order == MAP_THEN_MIX:
            new_state = self.matrix.matvec(rule.map_values(self.state))
        else:
            new_state = apply_rule(rule, self.matrix.matvec(self.state), self.state)
        self.state = new_state
        self.t += 1
        return self

    def run(self, steps, record=False):
        """Advance ``steps`` steps; optionally record the trajectory.

        The returned history has steps + 1 rows, the initial state included.
        """
        if steps < 0:
            raise BadStateValue(f"cannot run {steps} steps")
        if not record:
            for _ in range(steps):
                self.step()
            return None
        rows = np.empty((steps + 1, self.n), dtype=np.float64)
        rows[0] = self.state
        for k in range(steps):
            self.step()
            rows[k + 1] = self.state
        return StateHistory(rows)
