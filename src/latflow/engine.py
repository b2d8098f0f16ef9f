"""The simulation loop: state' = f(A @ state), iterated.

A system owns an adjacency matrix, a rule and the current state vector.
The default update mixes first and maps second; continuous maps may declare
map_then_mix instead, which applies the local map before the matrix so
diffusively coupled lattices come out right.  There is no bias term and no
per-step external input.

A lookup-table rule with a uint8 table keeps its state as uint8, so each
step is an integer matvec and an integer-keyed lookup; the state and the
recorded histories are float64 all the same.

``step()`` is always ``apply_rule(rule, matrix.matvec(state))``, and
``run()`` advances by it, except for two-state lattice automata under the
compiled backend: when the matrix has a stencil view, the rule is a 1-D
table of 2 states, every key that cells of 0 or 1 can produce (at most
32) has a next state and the system's class keeps ``DynamicalSystem.step``,
``run()`` makes one C call for many steps, with the stencil sum and the
lookup fused in byte lanes, and the same states.  This is decided from
``matrix`` and ``rule`` on every call, as either may be assigned, so a
table with a reachable hole runs ``step()``, which raises on it.  A
subclass or wrapper that replaces ``step`` is called once per step.
"""

import operator
import os
import struct

import numpy as np

from . import backend
from .errors import BadStateValue, DimensionMismatch, FileFormatError, NotSquare, read_text
from .rules import MAP_THEN_MIX, TableRule, apply_rule

# cell-updates per call of the fused lattice kernel: run() returns to Python
# between calls, so Ctrl-C stops a long run within milliseconds
_FUSED_CELL_UPDATES = 1 << 22


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

        Each step is ``step()``, except that under the compiled backend a
        two-state lattice automaton (a matrix with a stencil view, a 1-D
        table rule of 2 states with a next state for every key, at most
        32, that cells of 0 or 1 can produce) whose class keeps
        ``DynamicalSystem.step`` runs many steps per call of a fused kernel,
        with the same states; a reachable hole is left to ``step()``, which
        raises on it.  A subclass or wrapper that replaces ``step`` is
        called once per step.
        """
        try:
            steps = operator.index(steps)
        except TypeError:
            raise BadStateValue(f"the step count {steps!r} is not an integer") from None
        if steps < 0:
            raise BadStateValue(f"cannot run {steps} steps")
        rows = None
        if record:
            rows = np.empty((steps + 1, self.n), dtype=np.float64)
            rows[0] = self._state
        lane = self._fused_lane()
        if lane is not None:
            # a bounded amount of work per call, so Ctrl-C stops a long run
            chunk = max(1, _FUSED_CELL_UPDATES // self.n)
            for k in range(0, steps, chunk):
                m = min(chunk, steps - k)
                history = None if rows is None else rows[k + 1 : k + 1 + m]
                self._state = backend._stencil_steps_u8(self._state, m, history, *lane)
                self.t += m
        else:
            for k in range(steps):
                self.step()
                if rows is not None:
                    rows[k + 1] = self._state
        return None if rows is None else StateHistory(rows)

    def _fused_lane(self):
        """The arguments of the fused kernel after the state, the step count
        and the history, or None when ``run`` must call ``step()``."""
        if backend.BACKEND != "c" or type(self).step is not _STEP:
            return None
        if self._state.dtype != np.uint8:
            return None
        view, rule = self.matrix._stencil, self.rule
        if view is None or not isinstance(rule, TableRule):
            return None
        if rule.n_states != 2 or rule.table.ndim != 1:
            return None
        w = view[5].astype(np.int64)
        kmin, span = int(w[w < 0].sum()), int(np.abs(w).sum()) + 1
        if span > 32:
            return None
        # entry j is the next state of key kmin + j; keys past the span
        # cannot occur and are holes like those outside the rule's table
        keys = np.arange(kmin, kmin + span) - rule.lo
        inside = (keys >= 0) & (keys < len(rule.table))
        table = np.full(32, 255, dtype=np.uint8)
        table[:span][inside] = rule._table8[keys[inside]]
        # with cells of 0 or 1 a key is the sum of a subset of the taps, and
        # the kernel checks none: it runs only when each such sum has a state
        sums = {-kmin}
        for weight in w.tolist():
            sums |= {s + weight for s in sums}
        if 255 in table[list(sums)]:
            return None
        return (*view, table, kmin)


# run() takes the fused kernel only while a system's step is this one
_STEP = DynamicalSystem.step
