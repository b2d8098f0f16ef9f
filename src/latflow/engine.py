"""The simulation loop: state' = f(A @ state), iterated.

A system owns an adjacency matrix, a rule and the current state vector.
The default update mixes first and maps second; continuous maps may declare
map_then_mix instead, which applies the local map before the matrix so
diffusively coupled lattices come out right.  There is no bias term and no
per-step external input.

A lookup-table rule with a uint8 table keeps its state as uint8, so each
step is an integer matvec and an integer-keyed lookup; the state and the
recorded histories are float64 all the same.
"""

import operator
import os
import struct

import numpy as np

from .errors import BadStateValue, DimensionMismatch, FileFormatError, NotSquare, read_text
from .rules import MAP_THEN_MIX, apply_rule


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
        # a row at a time: tolist() of the whole history would hold every
        # value as a Python float at once
        return "".join(",".join(map(repr, row.tolist())) + "\n" for row in self.states)

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FileFormatError("empty state CSV")
        try:
            states = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise FileFormatError(f"bad state CSV: {exc}") from exc
        return cls(states)._finite("state CSV")

    def _finite(self, source):
        """Self, or FileFormatError naming the first row holding NaN or inf."""
        finite = np.isfinite(self.states).all(axis=1)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            raise FileFormatError(f"non-finite value in {source} row {row}")
        return self

    @classmethod
    def load_csv(cls, path):
        return cls.from_csv(read_text(path))

    # -- binary: magic LFST, u32 row count, u32 width, f64 LE row-major ---

    def save_binary(self, path):
        rows, n = self.states.shape
        with open(path, "wb") as f:
            f.write(struct.pack("<4sII", b"LFST", rows, n))
            # the array's own buffer: no copy of the payload as bytes
            f.write(np.ascontiguousarray(self.states, dtype="<f8").data)

    @classmethod
    def load_binary(cls, path):
        with open(path, "rb") as f:
            head = f.read(12)
            if len(head) != 12:
                raise FileFormatError("truncated state file")
            magic, rows, n = struct.unpack("<4sII", head)
            if magic != b"LFST":
                raise FileFormatError(f"bad magic {magic!r}")
            # the size is checked before anything of it is allocated, and the
            # payload is read straight into the one array that keeps it
            expected = rows * n * 8
            found = os.fstat(f.fileno()).st_size - 12
            if found != expected:
                raise FileFormatError(f"expected {expected} payload bytes, found {found}")
            states = np.empty((rows, n), dtype="<f8")
            found = f.readinto(states.reshape(-1).view(np.uint8))
        if found != expected:
            raise FileFormatError(f"expected {expected} payload bytes, found {found}")
        return cls(states)._finite("LFST state file")


def load_history(path):
    """Read a state file, sniffing binary vs CSV by the LFST magic."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == b"LFST":
        return StateHistory.load_binary(path)
    return StateHistory.load_csv(path)


class DynamicalSystem:
    """Adjacency matrix + rule + state, advanced synchronously."""

    def __init__(self, matrix, rule, state):
        if not matrix.is_square:
            raise NotSquare(f"system matrix is {matrix.n_rows}x{matrix.n_cols}")
        self.matrix = matrix
        self.rule = rule
        self._state = self._checked(state)
        self.t = 0

    @property
    def state(self):
        """The current state as float64; a copy when the system is discrete."""
        return self._state.astype(np.float64, copy=False)

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
        n_states = self.rule.n_states
        if n_states is not None:
            if not np.all((v == np.rint(v)) & (v >= 0) & (v < n_states)):
                raise BadStateValue(
                    f"discrete state values must be integers in [0, {n_states})"
                )
            if self.rule._table8 is not None:
                return v.astype(np.uint8)
        return v

    def set_state(self, values):
        """Replace the state and reset the step counter."""
        self._state = self._checked(values)
        self.t = 0
        return self

    def step(self):
        """Advance one synchronous step."""
        rule = self.rule
        if rule.n_states is None and rule.order == MAP_THEN_MIX:
            self._state = self.matrix.matvec(rule.map_values(self._state))
        else:
            self._state = apply_rule(rule, self.matrix.matvec(self._state))
        self.t += 1
        return self

    def run(self, steps, record=False):
        """Advance ``steps`` steps; optionally record the trajectory.

        The returned history has steps + 1 rows, the initial state included.
        """
        try:
            steps = operator.index(steps)
        except TypeError:
            raise BadStateValue(f"the step count {steps!r} is not an integer") from None
        if steps < 0:
            raise BadStateValue(f"cannot run {steps} steps")
        if not record:
            for _ in range(steps):
                self.step()
            return None
        rows = np.empty((steps + 1, self.n), dtype=np.float64)
        rows[0] = self._state
        for k in range(steps):
            self.step()
            rows[k + 1] = self._state
        return StateHistory(rows)
