"""Byte-level codec for the line-oriented text formats (rule text, Matrix
Market).

Text is handled as a numpy uint8 array, never as one Python object per line
or per number: the tokenizer finds the span of every token and its line,
decimal tokens become int64 values, and output lines are assembled from
their fields in one buffer.

Under the compiled backend ``assemble`` is the C kernel of that name, and
the readers try the C scanners ``mm_entries`` and ``node_lines`` first.  A
scanner declines any text not in the writers' exact shape, and the reader
then runs the numpy path on the whole text, so results and errors are the
same on both backends.
"""

import numpy as np

from . import backend

# the most digits a decimal token may have: every such value fits int64
MAX_DIGITS = 18
_POW10 = 10 ** np.arange(1, MAX_DIGITS + 1, dtype=np.int64)


def tokenize(buf):
    """``(starts, ends, lines)`` of the tokens of the uint8 array ``buf``.

    A token is a maximal run of bytes other than space, tab, CR and LF;
    token i is ``buf[starts[i]:ends[i]]``, and ``lines[i]`` numbers the
    non-blank lines from 0.  CR, LF and CRLF each end a line.
    """
    breaks = (buf == 0x0A) | (buf == 0x0D)
    blank = breaks | (buf == 0x20) | (buf == 0x09)
    edges = np.flatnonzero(np.diff(blank, prepend=True, append=True))
    starts, ends = edges[0::2], edges[1::2]
    # a token starts a line when a break lies between it and the token before
    after = np.searchsorted(starts, np.flatnonzero(breaks))
    new_line = np.zeros(len(starts), dtype=bool)
    new_line[after[after < len(starts)]] = True
    new_line[:1] = True
    return starts, ends, np.cumsum(new_line) - 1


def startswith(buf, starts, ends, prefix):
    """Mask of the tokens that begin with the bytes ``prefix``."""
    ok = ends - starts >= len(prefix)
    last = len(buf) - 1
    for j, byte in enumerate(prefix):
        ok &= buf[np.minimum(starts + j, last)] == byte
    return ok


def decimals(buf, starts, ends):
    """``(values, ok)``: int64 values of the tokens that are an optional "-"
    and 1 to MAX_DIGITS ASCII digits, and the mask of those tokens; the
    value of any other token is 0."""
    last = len(buf) - 1
    first = starts + (buf[np.minimum(starts, last)] == ord("-"))
    count = ends - first
    ok = (count > 0) & (count <= MAX_DIGITS)
    values = np.zeros(len(starts), dtype=np.int64)
    for j in range(int(count.max(initial=0, where=ok))):
        live = ok & (count > j)
        digit = buf[np.minimum(first + j, last)] - np.uint8(ord("0"))  # wraps above 9
        ok &= ~live | (digit <= 9)
        values = np.where(live, 10 * values + digit, values)
    values[~ok] = 0
    return np.where(first > starts, -values, values), ok


def digit_count(values):
    """The number of ASCII decimal digits of each non-negative int64."""
    return 1 + np.searchsorted(_POW10, values, side="right")


def _put_digits(out, ends, values, counts):
    """Write the ASCII decimal digits of ``values[i]`` to ``out`` so that
    the last one lands at ``ends[i] - 1``."""
    if values.max(initial=0) < 2**32:
        values = values.astype(np.uint32)  # divides about three times faster
    lead = ends - counts
    place = np.empty_like(ends)
    # from the most significant place down, a place a value lacks writing
    # a "0" over its first digit, which its own place then overwrites
    for j in range(int(counts.max(initial=0)) - 1, -1, -1):
        shifted = values // 10**j  # by a constant: far faster than np.divmod
        digit = shifted.astype(np.uint8) - (shifted // 10).astype(np.uint8) * np.uint8(10)
        np.maximum(np.subtract(ends, j + 1, out=place), lead, out=place)
        out[place] = digit + np.uint8(ord("0"))


def assemble(n, *fields):
    """One uint8 buffer of ``n`` lines, line i the concatenation of field i
    of each argument.  A field is bytes, the same in every line; an int64
    array of non-negative values, written as ASCII decimal; or a triple
    ``(pool, offsets, lengths)`` of a uint8 pool and two int64 arrays, line
    i taking ``pool[offsets[i]:offsets[i] + lengths[i]]``.
    """
    if backend.BACKEND == "c":
        return backend.assemble(n, fields)
    widths = []
    for field in fields:
        if isinstance(field, bytes):
            widths.append(len(field))
        elif isinstance(field, tuple):
            widths.append(field[2])
        else:
            widths.append(digit_count(field))
    lengths = np.zeros(n, dtype=np.int64)
    for width in widths:
        lengths += width
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    pos = np.cumsum(lengths) - lengths
    for field, width in zip(fields, widths):
        if isinstance(field, bytes):
            for j, byte in enumerate(field):
                out[pos + j] = byte
        elif isinstance(field, tuple):
            pool, offsets, counts = field
            total = int(counts.sum())
            within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            out[np.repeat(pos, counts) + within] = pool[np.repeat(offsets, counts) + within]
        else:
            _put_digits(out, pos + width, field, width)
        pos += width
    return out
