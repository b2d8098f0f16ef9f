"""The simulation loop: state' = f(A @ state), iterated.

A system owns an adjacency matrix, a rule and the current state vector.
The default update mixes first and maps second; continuous maps may declare
map_then_mix instead, which applies the local map before the matrix so
diffusively coupled lattices come out right.  There is no bias term and no
per-step external input.

A lookup-table rule with a uint8 table keeps its state as uint8, so each
step is a fused kernel (below) or the one per-step integer path: the CSR
matvec of the uint8 state in int32, then numpy's lookup of each key.
Such a system records its history as bytes too, and saves it as bytes
(the LFST layout ``LFS8``); ``StateHistory.states`` and the state are
float64 all the same, made from the bytes when they are read.

A step is ``apply_rule(rule, matrix.matvec(state))``, except that under
the compiled backend a two-state system whose class keeps
``DynamicalSystem.step``, whose state holds only 0 and 1 and whose rule is
a ``TableRule`` of 2 states makes one C call per ``step()`` and one per
chunk of ``run()``, with the same states, in one of two lanes, which
every two-state preset takes:

- a lattice automaton, whose matrix has a stencil view, with a 1-D table:
  the stencil sum and the lookup fused in byte lanes, when every key that
  cells of 0 or 1 can produce (at most 32) has a next state;
- a network whose rows all hold W >= 1 integer weights, such as a random
  Boolean network or a lattice that the first lane declines, with a 1-D
  table or one table row per node: each node's weights are folded into a
  table of its 2**W input patterns, when every pattern's key has a next
  state and the folded tables are no larger than the larger of the rule's
  own table and the int32 weights.

This is decided from ``matrix`` and ``rule``, and decided again when
either is assigned or the rule's ``lo`` changes, so a table with a
reachable hole takes the matvec and the lookup, which raise on it.  A
subclass or wrapper that replaces ``step`` is called once per step.
``run()`` steps in one loop over chunks; ``latflow run`` streams its record
as one ``run()`` a chunk (``_stream``), not holding the whole run.
"""

import itertools
import operator
import os
import struct
import sys

import numpy as np

from . import _textcodec, backend
from .errors import BadStateValue, DimensionMismatch, FileFormatError, NotSquare, read_text
from .rules import MAP_THEN_MIX, TableRule, apply_rule

# cell-updates per chunk of run(), so per call of a fused kernel, and bytes
# per chunk of latflow run's rows: Ctrl-C stops a long run in milliseconds
_FUSED_CELL_UPDATES = 1 << 22
# values per block of the CSV writer
_CSV_BLOCK = 1 << 15
# the LFST layouts: the element type of the payload after each magic
_LFST_DTYPES = {b"LFST": np.dtype("<f8"), b"LFS8": np.dtype(np.uint8)}


class StateHistory:
    """Record of states over time, one row per step, row 0 the initial state.

    A byte-state system's history, or one read from an ``LFS8`` file, keeps
    its uint8 rows.  ``states`` is float64 whatever was recorded: it is made
    from the bytes on its first read and kept, and from then on every reader
    uses it, so edits to it are seen.  Until then the length, the width, a
    row, the CSV writer, ``detect_cycle(tol=0)`` and the LFST writer, which
    saves them as ``LFS8``, read the bytes."""

    def __init__(self, states):
        rows = np.asarray(states)
        if rows.dtype != np.uint8:
            rows = rows.astype(np.float64, copy=False)
        # uint8 until ``states`` is first read, float64 from then on
        self._rows = np.atleast_2d(rows)

    @property
    def states(self):
        """The states as a float64 array, one row per step."""
        if self._rows.dtype != np.float64:
            self._rows = self._rows.astype(np.float64)
        return self._rows

    @property
    def n(self):
        return self._rows.shape[1]

    def __len__(self):
        return self._rows.shape[0]

    def __getitem__(self, i):
        return self._rows[i].astype(np.float64, copy=False)

    # -- CSV: one row per step, comma-separated reals ---------------------

    def save_csv(self, path):
        _save(path, [self._rows], self._rows.shape, self._rows.dtype, binary=False)

    def to_csv(self):
        return "".join(_csv_blocks([self._rows]))

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

    # -- binary: magic, u32 row count, u32 width, payload row-major --------

    def save_binary(self, path):
        _save(path, [self._rows], self._rows.shape, self._rows.dtype, binary=True)

    @classmethod
    def load_binary(cls, path):
        with open(path, "rb") as f:
            head = f.read(12)
            if len(head) != 12:
                raise FileFormatError("truncated state file")
            magic, rows, n = struct.unpack("<4sII", head)
            dtype = _LFST_DTYPES.get(magic)
            if dtype is None:
                raise FileFormatError(f"bad magic {magic!r}")
            # the size is checked before anything of it is allocated, and the
            # payload is read straight into the one array that keeps it
            expected = rows * n * dtype.itemsize
            found = os.fstat(f.fileno()).st_size - 12
            if found != expected:
                raise FileFormatError(f"expected {expected} payload bytes, found {found}")
            states = np.empty((rows, n), dtype=dtype)
            found = f.readinto(states.reshape(-1).view(np.uint8))
        if found != expected:
            raise FileFormatError(f"expected {expected} payload bytes, found {found}")
        # bytes are always finite, and reading their states would widen them
        return cls(states) if dtype == np.uint8 else cls(states)._finite("LFST state file")


def _csv_blocks(blocks):
    """The CSV text of blocks of rows, each value as its repr, in pieces of
    whole rows, so that the writer's temporaries stay small."""
    for rows in blocks:
        step = max(1, _CSV_BLOCK // max(rows.shape[1], 1))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            flat = block.reshape(-1)
            if flat.size and (block.dtype == np.uint8 or (
                    np.all(np.abs(flat) < 1e16) and np.array_equal(flat, np.rint(flat)))):
                yield _integer_csv(block)
            else:
                yield "".join(",".join(map(repr, row.tolist())) + "\n" for row in block)


def _save(path, blocks, shape, dtype, binary):
    """Writes blocks of rows, ``shape`` and ``dtype`` in all, as LFST or CSV
    to ``path``, or as CSV to stdout (None).  A file is renamed into place
    when whole, so a write that stops early leaves no shorter valid one."""
    pieces = _csv_blocks(blocks)
    if binary:
        if max(shape) >= 2**32:
            raise FileFormatError(f"LFST holds fewer than 2**32 rows and cells, not {shape}")
        magic = b"LFS8" if dtype == np.uint8 else b"LFST"
        # each block's own buffer: no copy of the payload as bytes
        pieces = itertools.chain([struct.pack("<4sII", magic, *shape)], (
            np.ascontiguousarray(rows, dtype=_LFST_DTYPES[magic]).data for rows in blocks))
    if path is None:
        return sys.stdout.writelines(pieces)
    mode = "wb" if binary else "w"
    if os.path.exists(path) and not os.path.isfile(path):  # a device or a pipe
        with open(path, mode) as f:
            return f.writelines(pieces)
    path = os.path.realpath(path)
    part = f"{path}.{os.getpid()}.part"
    f = open(part, mode)
    try:
        with f:
            f.writelines(pieces)
        os.replace(part, path)
    except BaseException:
        os.remove(part)
        raise


def _stream(system, steps, path, binary, keep):
    """``system.run(steps, record=True)`` written by ``_save``, returned if
    ``keep``; else run and written ``_FUSED_CELL_UPDATES`` bytes at a time."""
    history = system.run(steps, record=True) if keep else None
    first = system.run(0, record=True)._rows if history is None else history._rows
    chunk = max(1, _FUSED_CELL_UPDATES // max(system.n * first.itemsize, 1))
    # the steps that ``first`` lacks, a run a chunk: a run's row 0 is the last's last
    later = (system.run(min(chunk, steps - k), record=True)._rows[1:]
             for k in range(len(first) - 1, steps, chunk))
    _save(path, itertools.chain([first], later), (steps + 1, system.n), first.dtype, binary)
    return history


def _integer_csv(block):
    """The CSV lines of rows of integer values below 1e16 in magnitude,
    byte for byte their repr: an optional "-", the digits and ".0".

    Each value gets a slot of a sign, as many digits as the largest value
    has, ".0" and a separator; the bytes it does not use are dropped."""
    n = block.shape[1]
    flat = block.reshape(-1)
    values = np.abs(flat).astype(np.int64)
    top = int(_textcodec.digit_count(values.max()))
    if top < 10:
        values = values.astype(np.uint32)  # divides about three times faster
    slots = np.empty((len(flat), top + 4), dtype=np.uint8)
    keep = np.ones(slots.shape, dtype=bool)
    slots[:, 0] = ord("-")
    keep[:, 0] = np.signbit(flat)  # -0.0 included
    for j in range(top):
        if j:  # values is now the original // 10**j
            keep[:, top - j] = values > 0
        digit = slots[:, top - j]
        np.remainder(values, 10, out=digit, casting="unsafe")
        digit += ord("0")
        values = values // 10
    slots[:, top + 1] = ord(".")
    slots[:, top + 2] = ord("0")
    slots[:, top + 3] = ord(",")
    slots[n - 1 :: n, top + 3] = ord("\n")
    return slots[keep].tobytes().decode("ascii")


def load_history(path):
    """Read a state file, sniffing binary vs CSV by the LFST magics."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic in _LFST_DTYPES:
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
        # (matrix, rule, rule.lo, the fused lane they gave), see _fused_lane
        self._lane = None

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
        return self._advance(self._fused_lane())

    def _advance(self, lane):
        """One step by the fused lane ``lane``, or by the matvec and the
        lookup when it is None."""
        rule = self.rule
        if lane is not None:
            self._state = lane[0](self._state, 1, None, *lane[1])
        elif rule.n_states is None and rule.order == MAP_THEN_MIX:
            self._state = self.matrix.matvec(rule.map_values(self._state))
        else:
            self._state = apply_rule(rule, self.matrix.matvec(self._state))
        self.t += 1
        return self

    def run(self, steps, record=False):
        """Advance ``steps`` steps; optionally record the trajectory.

        The returned history has steps + 1 rows, the initial state included.
        A uint8 state under a rule with a uint8 table, stepped by the
        engine's own ``step``, is recorded as bytes; the history's
        ``states`` are float64 all the same.

        One loop steps chunks of ``_FUSED_CELL_UPDATES`` cell-updates,
        each a call of a fused kernel (see the module docstring) if the
        system has one, decided once per call, else ``step()`` per step,
        also if a subclass or wrapper replaces it; both write straight into
        the history.  A history too large to allocate raises BadStateValue
        before any step.
        """
        try:
            steps = operator.index(steps)
        except TypeError:
            raise BadStateValue(f"the step count {steps!r} is not an integer") from None
        if steps < 0:
            raise BadStateValue(f"cannot run {steps} steps")
        rows = None
        if record:
            # every step of such a system gives a uint8 state
            byte = (self._state.dtype == np.uint8 and type(self).step is _STEP
                    and isinstance(self.rule, TableRule) and self.rule._table8 is not None)
            try:
                rows = np.empty((steps + 1, self.n), dtype=np.uint8 if byte else np.float64)
            except (ValueError, MemoryError):  # numpy refuses the size, or malloc does
                raise BadStateValue(f"no memory to record {steps} steps") from None
            rows[0] = self._state
        lane = self._fused_lane()
        # the engine's own step without asking for the lane again
        step = self.step if type(self).step is not _STEP else lambda: self._advance(None)
        chunk = max(1, _FUSED_CELL_UPDATES // max(self.n, 1))
        for k in range(0, steps, chunk):
            m = min(chunk, steps - k)
            out = None if rows is None else rows[k + 1 : k + 1 + m]
            if lane is not None:
                self._state = lane[0](self._state, m, out, *lane[1])
                self.t += m
            else:
                for j in range(m):
                    step()
                    if out is not None:
                        out[j] = self._state
        return None if rows is None else StateHistory(rows)

    def _fused_lane(self):
        """``(kernel, args)``, a fused kernel and its arguments after the
        state, the step count and the history, or None when the system
        steps by the matvec and the lookup."""
        if backend.BACKEND != "c" or type(self).step is not _STEP:
            return None
        x, matrix, rule = self._state, self.matrix, self.rule
        if x.dtype != np.uint8 or matrix.shape != (len(x), len(x)):
            return None
        if not isinstance(rule, TableRule) or rule.n_states != 2:
            return None
        # both kernels take a cell for its low bit, so the state must hold
        # 0 and 1 only, as after a rule of more states was replaced it may not
        if len(x) and x.max() > 1:
            return None
        # the lane follows from the matrix and the rule alone, so it is
        # kept while both are the same objects and the rule's lo is unchanged
        kept = self._lane
        if kept is None or kept[0] is not matrix or kept[1] is not rule or kept[2] != rule.lo:
            lane = None if matrix._stencil is None else _stencil_lane(matrix._stencil, rule)
            if lane is None:
                lane = _network_lane(matrix, rule)
            kept = self._lane = (matrix, rule, rule.lo, lane)
        return kept[3]


def _stencil_lane(view, rule):
    """The fused kernel of a lattice automaton with the stencil view
    ``view`` and a two-state rule, or None."""
    if rule.table.ndim != 1:
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
    return backend._stencil_steps_u8, (*view, table, kmin)


def _network_lane(matrix, rule):
    """The fused kernel of a two-state network whose rows all hold the same
    number W >= 1 of integer weights, or None.

    Each node's weights are folded into its table, n * 2**W bytes indexed
    by the pattern of its W inputs.  The folded table is
    made only when it is no larger than the larger of the rule's own uint8
    table and the n * 4W bytes of int32 weights it replaces, and used only
    when every pattern's key has a next state."""
    view = matrix._cached_int32_view()
    if not view:
        return None
    weights, indices, width = view
    table, n = rule._table8, matrix.n_rows
    if width < 1 or (table.ndim == 2 and len(table) != n):
        return None
    if n << width > max(table.size, 4 * width * n):
        return None
    folded = backend._fold_tables(weights, width, table, rule.lo)
    if folded is None:
        return None
    return backend._network_steps_u8, (indices, width, folded)


# step() and run() take the fused kernel only while a system's step is this one
_STEP = DynamicalSystem.step
