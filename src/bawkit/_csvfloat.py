"""bawkit's one CSV writer: float64 columns, every number byte-identical
to Python's "%.17g", "," between fields and "\\n" after each row.

format_rows does in a few dozen numpy passes what "%.17g" % x does one
value at a time.  For a finite nonzero x it takes the decimal exponent X
from np.log10 and the digits N = round-half-even(|x| * 10**(16 - X)), a
17-digit integer, then lays the text out in fixed byte slots.  The
product is taken in double-double arithmetic (an error-free Dekker
product of the frexp mantissa with a two-double power of ten), so it is
known to about 1e-14.  The fast path cannot decide two kinds of value,
and sends them to Python's own formatting, as Loitsch's Grisu3 (PLDI
2010) sends its rejects to an exact fallback:
- a product whose fractional part is within _TIE_TOL of 1/2, which
  could round either way;
- N outside (10**16, 10**17), where log10 may have missed the decade or
  the rounding carries into the next one: values at or next to a power
  of ten.
Infinities and NaN take the fallback too.
"""

import math

import numpy as np

_DIGITS = 17
_TIE_TOL = 1e-9
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitting constant
_POW_BITS = 116                 # bits kept of each power of ten

# Byte slots of one value, in output order; a slot left 0 is dropped:
# sign, "0.000" lead of fixed notation below 1, 17 digits each followed
# by a possible decimal point, "e+308" exponent, column separator.
_SIGN = 0
_LEAD = 1
_DIGIT = 6                      # digit i at _DIGIT + 2i, point after it at +1
_EXP = _DIGIT + 2 * _DIGITS
_SEP = _EXP + 5
_SLOTS = _SEP + 1


def _split(a):
    """Veltkamp split: a = hi + lo with hi and lo of at most 26 significant
    bits each, so that products of the halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten(exps):
    """10**(16 - X) for each decimal exponent X in exps, as three rows
    (hi, lo, shift) with 10**(16 - X) = (hi + lo) * 2**shift to about
    2**-106 relative and hi in [0.5, 1].  Built from Python ints, so no
    entry depends on float rounding."""
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
    return np.array(rows).T


def _digits(ax):
    """(X, N, sure) for finite ax > 0: the decimal exponent and the 17
    digits of "%.17g", and whether the fast path could decide them."""
    x = np.floor(np.log10(ax)).astype(np.int64)
    base = int(x.min())
    rows = np.flatnonzero(np.bincount(x - base))
    table = np.zeros((3, rows[-1] + 1))
    table[:, rows] = _powers_of_ten(rows + base)
    j = x - base
    b = np.take(table[0], j)
    m, e = np.frexp(ax)
    prod = m * b
    mh, ml = _split(m)
    bh, bl = _split(b)
    err = ((mh * bh - prod) + mh * bl + ml * bh) + ml * bl
    sh = e + np.take(table[2], j).astype(np.int32)
    # whole is >= 2**53 where N is in range, so an integer; part holds
    # the rest of the product, fraction included
    whole = np.ldexp(prod, sh)
    part = np.ldexp(err + m * np.take(table[1], j), sh)
    floor = np.floor(part)
    frac = part - floor
    n = whole.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    sure = ((np.abs(frac - 0.5) >= _TIE_TOL) & (n > 10 ** (_DIGITS - 1))
            & (n < 10 ** _DIGITS))
    return x, n, sure


def write_csv(path, header: str, cols, blank=None) -> None:
    """Write the line header, then the rows of format_rows(cols, blank)."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(format_rows(cols, blank))


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
    v = cols.ravel()
    # a blanked field is formatted as a zero, then its digit dropped
    blank = np.zeros(v.size, bool) if blank is None else np.ravel(blank)
    v = np.where(blank, 0.0, v)
    ax = np.abs(v)
    zero = ax == 0.0
    fast = np.isfinite(ax) & ~zero
    ax[~fast] = 1.0
    x, n, sure = _digits(ax)
    fast &= sure

    # digits, most significant first: the low 8 from n % 10**8 and the
    # high 9 from n // 10**8, each part in uint32
    d = np.empty((_DIGITS, v.size), np.uint8)
    high = n // 10 ** 8
    for r, last in ((n - high * 10 ** 8, _DIGITS - 1), (high, 8)):
        r = r.astype(np.uint32)
        for i in range(last, last - 8, -1):
            q = r // 10
            d[i] = r - 10 * q
            r = q
    d[0] = r
    n_sig = np.ones(v.size, np.uint8)
    for i in range(1, _DIGITS):
        np.maximum(n_sig, (d[i] != 0) * np.uint8(i + 1), out=n_sig)
    d += ord("0")

    x = x.astype(np.int16)
    sci = (x < -4) | (x >= _DIGITS)
    # digits before the point: 1 in exponent form, none below 1 in fixed
    before = np.where(sci, 1, np.maximum(x + 1, 0)).astype(np.uint8)
    shown = np.maximum(n_sig, before)
    lead = ~sci & (x < 0)

    out = np.empty((_SLOTS, v.size), np.uint8)
    out[_SIGN] = np.signbit(v) * np.uint8(ord("-"))
    out[_LEAD] = lead * np.uint8(ord("0"))
    out[_LEAD + 1] = lead * np.uint8(ord("."))
    for k in range(2, 5):
        out[_LEAD + k] = (lead & (x <= -k)) * np.uint8(ord("0"))
    # one point, after digit before - 1, when digits follow it
    point = before * (n_sig > before)
    for i in range(_DIGITS):
        out[_DIGIT + 2 * i] = d[i] * (shown > i)
        out[_DIGIT + 2 * i + 1] = (point == i + 1) * np.uint8(ord("."))
    ex = np.abs(x)
    out[_EXP] = sci * np.uint8(ord("e"))
    out[_EXP + 1] = sci * np.where(x < 0, np.uint8(ord("-")),
                                   np.uint8(ord("+")))
    out[_EXP + 2] = (sci & (ex >= 100)) * (ex // 100 + ord("0"))
    out[_EXP + 3] = sci * (ex // 10 % 10 + ord("0"))
    out[_EXP + 4] = sci * (ex % 10 + ord("0"))
    sep = np.full(n_cols, ord(","), np.uint8)
    sep[-1] = ord("\n")
    out[_SEP] = np.tile(sep, n_rows)

    # a zero is its sign and one digit
    out[_SIGN + 1:_SEP, zero] = 0
    out[_DIGIT, zero] = ord("0")
    out[_DIGIT, blank] = 0
    slow = np.flatnonzero(~(fast | zero))
    for i, value in zip(slow.tolist(), v[slow].tolist()):
        text = b"%.17g" % value
        out[:_SEP, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    return out.T.tobytes().translate(None, b"\0")
