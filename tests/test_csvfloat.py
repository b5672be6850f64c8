"""format_rows against Python's own "%.17g", value by value."""

import math
import os
import stat
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bawkit._csvfloat import format_rows, write_csv, write_file

MAX = sys.float_info.max
TINY = sys.float_info.min          # smallest normal double


def by_value(values, blank=None):
    """The reference: "%.17g" % v for each value, one value per row; an
    empty row where blank is True."""
    blank = blank or [False] * len(values)
    return "".join("\n" if b else "%.17g\n" % v
                   for v, b in zip(values, blank)).encode()


def as_double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def check(values, blank=None):
    cols = np.array(values, dtype=float).reshape(-1, 1)
    got = format_rows(cols, None if blank is None else
                      np.reshape(blank, cols.shape))
    assert got.split(b"\n") == by_value(values, blank).split(b"\n")


NAMED = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    # subnormals and the normal range's ends
    1e-310, 2.2250738585072009e-308, TINY, math.nextafter(TINY, 0.0),
    MAX, -MAX, math.nextafter(MAX, 0.0),
    # exact ties at the 17th digit, rounded half to even
    1000000000000000.25, 1000000000000000.75, 2000000000000000.25,
    # short and long expansions
    0.5, 1.5, 2.5, 2.0 ** 53, 0.3, 1.0 / 3.0,
    # where "%g" switches between fixed and exponent notation
    1e-5, math.nextafter(1e-5, 0.0), math.nextafter(1e-5, 1.0),
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
    1e17, math.nextafter(1e17, 0.0), math.nextafter(1e17, math.inf),
    99999999999999984.0,
    # three-digit exponents
    1e100, 1.2345678901234567e-123, 1e-300, 9.87654321e307,
]


@pytest.mark.parametrize("value", NAMED, ids=repr)
def test_named_values(value):
    check([value, -value])


@pytest.mark.parametrize("x", [-243, -14, 98])
def test_carry_into_next_decade(x):
    """The double nearest 10**x lies just below it, and its 17 digits
    9.99...95... round up to the next decade: it prints as 1e<x>."""
    value = float("1e%d" % x)
    assert Fraction(value) < Fraction(10) ** x
    assert "%.17g" % value == "1e%+03d" % x
    check([value, -value])


def test_every_decade_edge():
    """The doubles next to each power of ten, where log10 can miss the
    decade, over the whole exponent range."""
    values = []
    for x in range(-323, 309):
        p = float("1e%d" % x)
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    check(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50),
       st.none() | st.lists(st.booleans(), min_size=50, max_size=50))
def test_matches_percent_format_on_floats(values, blank):
    """With a blank mask, blanked fields are empty and the rest unchanged."""
    check(values, blank and blank[:len(values)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=50))
def test_matches_percent_format_on_bit_patterns(patterns):
    check([as_double(b) for b in patterns])


def test_matches_percent_format_on_random_bits():
    """Raw 64-bit patterns, viewed as doubles: every exponent equally
    likely, subnormals, infinities and NaNs included."""
    bits = np.random.default_rng(14).integers(0, 2 ** 64, size=(30000, 3),
                                              dtype=np.uint64)
    cols = bits.view(np.float64)
    want = "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in cols.tolist()).encode()
    assert format_rows(cols) == want


# -- the per-column slot layout ------------------------------------------------
# Each column gets only the byte slots some value in it uses, so a single
# value that needs a slot must bring it in, and a column without fallback
# values can be narrower than their text.

def by_rows(cols, blank=None):
    """The reference for a whole table: "%.17g" fields, "," and "\\n"."""
    cols = np.asarray(cols, dtype=float)
    blank = np.zeros(cols.shape, bool) if blank is None else blank
    return "".join(",".join("" if b else "%.17g" % v
                            for v, b in zip(row, brow)) + "\n"
                   for row, brow in zip(cols.tolist(),
                                        blank.tolist())).encode()


def check_rows(cols, blank=None):
    cols = np.asarray(cols, dtype=float)
    assert format_rows(cols, blank) == by_rows(cols, blank)


def spectrum_like(n=40, seed=3):
    """freq_hz, re_y_s, im_y_s columns like a written spectrum: no signs
    in the first two, fixed notation in the first, 17 digits throughout."""
    rng = np.random.default_rng(seed)
    f = np.linspace(0.5e9, 40e9, n)
    re = rng.uniform(1e-3, 9e-3, n)
    im = rng.uniform(-9e-2, 9e-2, n)
    return np.column_stack((f, re, im))


@pytest.mark.parametrize("col", [0, 1, 2])
def test_one_negative_value_brings_the_sign_slot(col):
    cols = np.abs(spectrum_like())
    cols[7, col] *= -1
    check_rows(cols)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_one_value_below_one_brings_its_lead(depth):
    """0.x, 0.0x, 0.00x and 0.000x in a column of values >= 1."""
    cols = spectrum_like()
    cols[:, 1] += 1.0
    cols[5, 1] = 0.123456789 * 10.0 ** (1 - depth)
    check_rows(cols)


@pytest.mark.parametrize("value", [1.2345678901234567e-123, 9.87e123,
                                   -5.5e-100, 1e100])
def test_one_three_digit_exponent(value):
    """A column with two-digit exponents and one three-digit one."""
    cols = spectrum_like()
    cols[:, 1] *= 1e-5
    cols[11, 1] = value
    check_rows(cols)


@pytest.mark.parametrize("before", range(1, 17))
def test_one_point_position(before):
    """Integers, which take no point, and one value whose point follows
    its digit `before`."""
    cols = np.tile(np.arange(20.0)[:, None], (1, 2))
    cols[13, 1] = float("12345678901234567"[:before] + ".5")
    check_rows(cols)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, 1e16,
    # an exact tie at the 17th digit and the double next to it
    1000000000000000.25, math.nextafter(1000000000000000.25, math.inf),
    # 24 bytes, the longest "%.17g" text: a fallback value, then one the
    # fast path formats
    -math.nextafter(1e-300, 0.0), -2.2250738585072014e-308])
@pytest.mark.parametrize("col", [0, 1])
def test_fallback_value_in_a_narrow_column(value, col):
    """Python's own text of a value the fast path leaves out still fits
    in a column whose other values need far fewer slots."""
    cols = np.tile(np.arange(6.0)[:, None], (1, 2))
    cols[2, col] = value
    check_rows(cols)
    cols = spectrum_like(n=12)
    cols[4, col] = value
    check_rows(cols)


def test_all_blank_call():
    """Every field blanked, as in the masked cells of a sweep: rows of
    separators only."""
    cols = spectrum_like(n=5)
    blank = np.ones(cols.shape, bool)
    assert format_rows(cols, blank) == b",,\n" * 5
    check_rows(cols, blank)


def test_blank_columns_beside_values():
    cols = spectrum_like(n=9)
    blank = np.zeros(cols.shape, bool)
    blank[:, 1] = True
    blank[4] = True
    check_rows(cols, blank)


# -- write_file --------------------------------------------------------------

@pytest.mark.parametrize("old, new", [(b"0123456789\n" * 30, b"short\n"),
                                      (b"ab", b"longer bytes\n" * 40)],
                         ids=["shorter", "longer"])
def test_write_file_leaves_exactly_the_new_bytes(tmp_path, old, new):
    path = tmp_path / "out.csv"
    path.write_bytes(old)
    write_file(path, new)
    assert path.read_bytes() == new


def test_write_file_keeps_the_inode_and_its_hard_links(tmp_path):
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    path.write_bytes(b"old bytes\n" * 10)
    os.link(path, link)
    inode = path.stat().st_ino
    write_file(path, b"new\n")
    assert link.read_bytes() == b"new\n"
    assert path.stat().st_ino == inode


def test_write_file_keeps_the_mode_of_an_existing_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    path.chmod(0o600)
    write_file(path, b"new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_file_gives_a_new_file_the_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        write_file(tmp_path / "new.csv", b"1\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640


def test_write_csv_opens_without_truncating(tmp_path, monkeypatch):
    """ext4 forces a writeback on closing a file truncated to size 0, so
    the writer opens with no O_TRUNC and cuts the file to length after."""
    flags, os_open = [], os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    path = tmp_path / "out.csv"
    for n in (5, 2):
        write_csv(path, "a,b", np.arange(2.0 * n).reshape(n, 2))
    assert len(flags) == 2
    assert not any(flag & os.O_TRUNC for flag in flags)
    assert path.read_bytes() == b"a,b\n0,1\n2,3\n"
