"""bawkit's one file writer (write_file) and its one CSV writer: float64
columns, every number byte-identical to Python's "%.17g", "," between
fields and "\\n" after each row.

format_rows does in a few dozen numpy passes what "%.17g" % x does one
value at a time.  For a finite nonzero x it takes the decimal exponent X
from np.log10 and the digits N = round-half-even(|x| * 10**(16 - X)), a
17-digit integer.  The product is taken in double-double arithmetic (an
error-free Dekker product of the frexp mantissa with a two-double power
of ten, whose rows are built once per exponent and kept), so it is
known to about 1e-14.  The fast path cannot decide two kinds of value,
and sends them to Python's own formatting, as Loitsch's Grisu3 (PLDI
2010) sends its rejects to an exact fallback:
- a product whose fractional part is within _TIE_TOL of 1/2, which
  could round either way;
- N outside (10**16, 10**17), where log10 may have missed the decade or
  the rounding carries into the next one: values at or next to a power
  of ten.
Infinities and NaN take the fallback too.

The text is then laid out in byte slots, one row of bytes per slot and
column, transposed into row order, and the bytes a value leaves empty
(0) are dropped.  Each column gets only the slots some value in it
uses: a sign slot if one is negative, lead slots "0.000" only as deep as
its deepest value in [1e-4, 1), a point slot only after digit positions
where a point occurs, exponent slots only if a value takes exponent form
(the hundreds slot only for |X| >= 100), and as many slots as its
longest fallback text needs.  A written spectrum's three columns need
21 to 26 slots a value, against 46 for a layout that fits every double.
"""

import math
import os
from typing import NamedTuple

import numpy as np

_DIGITS = 17
_TIE_TOL = 1e-9
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitting constant
_POW_BITS = 116                 # bits kept of each power of ten

# decimal exponents of the finite nonzero doubles: 5e-324 to 1.8e308
_X_MIN = -324
_X_MAX = 308


def _split(a):
    """Veltkamp split: a = hi + lo with hi and lo of at most 26 significant
    bits each, so that products of the halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten(exps):
    """10**(16 - X) for each decimal exponent X in exps, as five rows
    (hi, lo, shift, hi_h, hi_l) with 10**(16 - X) = (hi + lo) * 2**shift
    to about 2**-106 relative, hi in [0.5, 1] and (hi_h, hi_l) its
    Veltkamp split.  Built from Python ints, so no entry depends on float
    rounding."""
    rows = []
    for x in exps.tolist():
        q = 16 - x
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        s = _POW_BITS - num.bit_length() + den.bit_length()
        a = (num << s) // den if s >= 0 else num >> -s
        bits = a.bit_length()
        h = float(a)
        rows.append((math.ldexp(h, -bits),
                     math.ldexp(float(a - int(h)), -bits), bits - s))
    hi, lo, shift = np.array(rows).T
    return np.array((hi, lo, shift, *_split(hi)))


# _powers_of_ten rows of every exponent in [_X_MIN, _X_MAX], filled on
# first use: a call fills the exponents between its own least and
# greatest that earlier calls left empty
_POWERS = np.zeros((5, _X_MAX - _X_MIN + 1))
_FILLED = np.zeros(_X_MAX - _X_MIN + 1, bool)


def _digits(ax):
    """(X, N, sure) for finite ax > 0: the decimal exponent and the 17
    digits of "%.17g", and whether the fast path could decide them."""
    x = np.floor(np.log10(ax)).astype(np.int64)
    j = x - _X_MIN
    lo, hi = int(j.min()), int(j.max()) + 1
    missing = lo + np.flatnonzero(~_FILLED[lo:hi])
    if missing.size:
        _POWERS[:, missing] = _powers_of_ten(missing + _X_MIN)
        _FILLED[missing] = True
    b, b_lo, shift, bh, bl = (np.take(row, j) for row in _POWERS)
    m, e = np.frexp(ax)
    prod = m * b
    mh, ml = _split(m)
    # err = ((mh bh - prod) + mh bl + ml bh) + ml bl, the rounding error
    # of prod, then m b_lo is added; in place, in that order
    err = mh * bh
    err -= prod
    tmp = mh * bl
    err += tmp
    err += np.multiply(ml, bh, out=tmp)
    err += np.multiply(ml, bl, out=tmp)
    err += np.multiply(m, b_lo, out=tmp)
    sh = e + shift.astype(np.int32)
    # whole is >= 2**53 where N is in range, so an integer; part holds
    # the rest of the product, fraction included
    whole = np.ldexp(prod, sh, out=prod)
    part = np.ldexp(err, sh, out=err)
    floor = np.floor(part, out=tmp)
    frac = np.subtract(part, floor, out=part)
    n = whole.astype(np.int64)
    n += floor.astype(np.int64)
    n += frac > 0.5
    frac -= 0.5
    sure = np.abs(frac, out=frac) >= _TIE_TOL
    sure &= (n > 10 ** (_DIGITS - 1)) & (n < 10 ** _DIGITS)
    return x, n, sure


def write_file(path, data: bytes) -> None:
    """Make the file at path hold exactly data, overwriting it in place.

    The path is opened without O_TRUNC, written from its start, then cut
    to len(data).  ext4 (auto_da_alloc) forces a writeback on closing a
    file that was truncated to size 0 or renamed over, and a rewrite of
    the same path waits for it from its third time on (tens of ms a
    file); an overwrite cut to a non-zero length does neither.  An
    existing file keeps its inode, hard links and mode; a new one gets
    0o666 less the umask, as open() gives.  As with open(path, "wb"),
    the write is neither atomic nor synced: a crash during it can leave
    old and new bytes mixed, where a truncating write could leave the
    file empty or short.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.truncate(len(data))


def write_csv(path, header: str, cols, blank=None) -> None:
    """Write the line header, then the rows of format_rows(cols, blank)."""
    write_file(path, header.encode() + b"\n" + format_rows(cols, blank))


def format_rows(cols, blank=None) -> bytes:
    """Rows of a 2-D float array as CSV text: "%.17g" % value for each
    value, "," between columns and "\\n" after each row.  Where the
    boolean array blank (the shape of cols) is True, the field is empty.

    The bytes equal "".join(",".join("%.17g" % v for v in row) + "\\n"
    for row in cols) for every float64, signed zeros, infinities, NaN
    and subnormals included.
    """
    cols = np.asarray(cols, dtype=float)
    if cols.size == 0:
        return b""
    n_rows, n_cols = cols.shape
    # column after column, so that each column's values are one run
    v = cols.T.ravel()
    if blank is None:
        blank = np.zeros(v.size, bool)
    else:
        # a blanked field is formatted as a zero, then its digit dropped
        blank = np.asarray(blank, bool).reshape(cols.shape).T.ravel()
        v = np.where(blank, 0.0, v)
    ax = np.abs(v)
    zero = ax == 0.0
    fast = np.isfinite(ax) & ~zero
    ax[~fast] = 1.0
    x, n, sure = _digits(ax)
    fast &= sure
    # a zero, and a fallback value until its text replaces it, is laid
    # out as N = 0 at X = 0: the one digit "0"
    x *= fast
    n *= fast

    # digits, most significant first: the first, then four groups of four
    # in uint16, split off n in uint32 halves
    d = np.empty((_DIGITS, v.size), np.uint8)
    high = n // 10 ** 8
    low = (n - high * 10 ** 8).astype(np.uint32)
    high = high.astype(np.uint32)
    first = high // 10 ** 8
    d[0] = first
    high -= first * 10 ** 8
    for half, start in ((high, 1), (low, 9)):
        upper = half // 10 ** 4
        for g, at in ((upper, start), (half - upper * 10 ** 4, start + 4)):
            g = g.astype(np.uint16)
            for i in range(at + 3, at, -1):
                q = g // 10
                d[i] = g - 10 * q
                g = q
            d[at] = g
    n_sig = np.ones(v.size, np.uint8)
    for i in range(1, _DIGITS):
        np.maximum(n_sig, (d[i] != 0) * np.uint8(i + 1), out=n_sig)
    d += ord("0")

    x = x.astype(np.int16)
    sci = (x < -4) | (x >= _DIGITS)
    # digits before the point: 1 in exponent form, none below 1 in fixed
    before = np.where(sci, 1, np.maximum(x + 1, 0)).astype(np.uint8)
    parts = _Parts(
        neg=np.signbit(v), x=x, sci=sci, lead=~sci & (x < 0), digits=d,
        shown=np.maximum(n_sig, before) * ~blank,
        # one point, after digit before - 1, when digits follow it
        point=before * (n_sig > before))
    slow = np.flatnonzero(~(fast | zero))
    texts = [b"%.17g" % value for value in v[slow].tolist()]
    # the longest fallback text of each column
    text_width = [0] * n_cols
    for i, text in zip(slow.tolist(), texts):
        c = i // n_rows
        text_width[c] = max(text_width[c], len(text))

    runs = [slice(c * n_rows, (c + 1) * n_rows) for c in range(n_cols)]
    layouts = [_layout(parts, run, width)
               for run, width in zip(runs, text_width)]
    starts = np.cumsum([0] + [lay.width + 1 for lay in layouts]).tolist()
    out = np.empty((starts[-1], n_rows), np.uint8)
    for c, (run, lay) in enumerate(zip(runs, layouts)):
        _write_slots(out[starts[c]:starts[c + 1] - 1], parts, run, lay)
        out[starts[c + 1] - 1] = ord(",") if c < n_cols - 1 else ord("\n")
    for i, text in zip(slow.tolist(), texts):
        c, row = divmod(i, n_rows)
        out[starts[c]:starts[c + 1] - 1, row] = 0
        out[starts[c]:starts[c] + len(text), row] = np.frombuffer(text,
                                                                np.uint8)
    return out.T.tobytes().translate(None, b"\0")


class _Parts(NamedTuple):
    """The pieces of each value's text, one entry per value."""

    neg: np.ndarray         # sign bit set
    x: np.ndarray           # decimal exponent, int16
    sci: np.ndarray         # exponent form
    lead: np.ndarray        # fixed form below 1: "0." and zeros lead
    digits: np.ndarray      # (17, n) ASCII digits
    shown: np.ndarray       # how many digits the text holds
    point: np.ndarray       # the point follows digit point - 1; 0: none


class _Layout(NamedTuple):
    """The byte slots of one column: only those some value in it uses."""

    sign: bool
    depth: int              # lead slots "0.000": depth + 1 of them, or none
    n_digits: int
    points: int             # bit i set: a point slot after digit i - 1
    exponent: bool          # "e+08" slots
    hundreds: bool          # and the "3" of "e+308"
    width: int              # all slots, at least the longest fallback text


def _layout(p: _Parts, run: slice, text_width: int) -> _Layout:
    """The slots of the values p[run], at least text_width of them."""
    x = p.x[run]
    x_min, x_max = int(x.min()), int(x.max())
    sign = bool(p.neg[run].any())
    # lead values have X in [-4, -1]: the deepest takes the most zeros
    depth = -int((x * p.lead[run]).min())
    n_digits = int(p.shown[run].max())
    points = int(np.bitwise_or.reduce(np.left_shift(
        np.uint32(1), p.point[run], dtype=np.uint32))) & ~1
    exponent = x_min < -4 or x_max >= _DIGITS
    hundreds = x_min <= -100 or x_max >= 100
    width = (sign + (depth and depth + 1) + n_digits + points.bit_count()
             + exponent * (4 + hundreds))
    return _Layout(sign, depth, n_digits, points, exponent, hundreds,
                   max(width, text_width))


def _write_slots(out, p: _Parts, run: slice, lay: _Layout) -> None:
    """Fill the rows of out, one per slot of lay, from the values p[run];
    a value without a byte in a slot gets 0 there."""
    rows = iter(out)

    def put(mask, byte):
        # every byte written is < 256: the cast to uint8 keeps it
        np.multiply(mask, byte, out=next(rows), casting="unsafe")

    if lay.sign:
        put(p.neg[run], ord("-"))
    x = p.x[run]
    if lay.depth:
        lead = p.lead[run]
        put(lead, ord("0"))
        put(lead, ord("."))
        for i in range(2, lay.depth + 1):
            put(lead & (x <= -i), ord("0"))
    shown = p.shown[run]
    point = p.point[run]
    every = int(shown.min())           # digits that every value shows
    for i in range(lay.n_digits):
        if i < every:
            next(rows)[:] = p.digits[i, run]
        else:
            put(shown > i, p.digits[i, run])
        if lay.points >> (i + 1) & 1:
            put(point == i + 1, ord("."))
    if lay.exponent:
        sci = p.sci[run]
        ex = np.abs(x)
        put(sci, ord("e"))
        put(sci, np.where(x < 0, ord("-"), ord("+")))
        if lay.hundreds:
            put(sci & (ex >= 100), ex // 100 + ord("0"))
        put(sci, ex // 10 % 10 + ord("0"))
        put(sci, ex % 10 + ord("0"))
    for row in rows:
        row[:] = 0
