"""The numeric helpers rewritten for speed return the bits of their earlier
forms, kept in tests/reference_forms.py."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bawkit import acoustic1d, derive_constants, modal
from bawkit.mbvd import parse_touchstone

import reference_forms as ref
from conftest import random_stack


def bits(value) -> bytes:
    """The bytes of a float, complex, bool, list or array of them: equal
    bytes mean equal doubles, signed zeros and NaN payloads included."""
    if isinstance(value, (list, tuple)):
        return b"|".join(bits(v) for v in value)
    if isinstance(value, complex):
        return struct.pack("<dd", value.real, value.imag)
    if isinstance(value, (bool, int)):
        return repr(value).encode()
    if isinstance(value, float):
        return struct.pack("<d", value)
    arr = np.asarray(value)
    return repr((arr.dtype.str, arr.shape)).encode() + arr.tobytes()


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err)


def assert_same(new, old):
    if isinstance(old, tuple) and old and isinstance(old[0], str):
        assert new == old
    else:
        assert bits(new) == bits(old)


sizes = st.integers(min_value=0, max_value=6)
frequency_input = st.one_of(
    st.floats(), st.complex_numbers(), st.integers(-3, 3),
    hnp.arrays(np.float64, sizes, elements=st.floats()),
    hnp.arrays(np.complex128, sizes, elements=st.complex_numbers()),
    hnp.arrays(np.float64, sizes,
               elements=st.floats(min_value=1.0, max_value=1e12)))


@settings(max_examples=300, deadline=None)
@given(f=frequency_input)
@example(f=np.array([1e9, 2e9]))
@example(f=np.array([np.inf, -np.inf]))
@example(f=np.array([], dtype=complex))
def test_kernel_frequencies_matches_its_earlier_form(f):
    assert_same(outcome(acoustic1d._kernel_frequencies, f),
                outcome(ref.kernel_frequencies, f))


def stacks_and_frequencies(seed: int, tan_delta: float, complex_f: bool):
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, tan_delta=tan_delta)
    if complex_f:
        f = 5e9 + 3e5 * np.exp(2j * np.pi * np.arange(16) / 16)
    else:
        f = np.linspace(0.5e9, 30e9, 48)
    return stack, f * float(rng.uniform(0.5, 2.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       tan_delta=st.sampled_from([0.0, 1e-3]), complex_f=st.booleans())
@example(seed=0, tan_delta=0.0, complex_f=False)
def test_bvp_solve_matches_its_earlier_form(seed, tan_delta, complex_f):
    stack, f = stacks_and_frequencies(seed, tan_delta, complex_f)
    dc = derive_constants(stack)
    new = outcome(acoustic1d._bvp_solve, stack, dc, f)
    old = outcome(ref.bvp_solve, stack, dc, f)
    if isinstance(old[0], str):
        assert new == old
        return
    pq, alpha, delta, u_scale, jomega = new
    assert bits([np.array(pq), alpha, delta, u_scale]) == bits(
        [np.array(old[0]), old[1], old[2], old[3]])
    assert bits(jomega) == bits(1j * (2.0 * np.pi * f))
    # the admittance, behind no series resistance
    bare = replace(stack, rs_electrical=0.0)
    assert_same(outcome(acoustic1d.admittance_bvp, bare, f),
                outcome(ref.admittance_bvp, bare, f))


@pytest.mark.parametrize("thickness, f", [
    (0.08, 1.5e9),        # too thick for the double range: ConfigError
    (100e-9, 4.2e9),
])
def test_bvp_solve_matches_its_earlier_form_on_edge_stacks(nominal,
                                                           thickness, f):
    for stack in (nominal.with_layer_thickness(0, thickness),
                  modal._lossless(nominal.with_layer_thickness(0, thickness))):
        dc = derive_constants(stack)
        freqs = np.array([f, 1.01 * f])
        new = outcome(acoustic1d._bvp_solve, stack, dc, freqs)
        old = outcome(ref.bvp_solve, stack, dc, freqs)
        if isinstance(old[0], str):
            assert new == old
        else:
            assert bits([np.array(new[0]), new[1], new[2]]) == bits(
                [np.array(old[0]), old[1], old[2]])


@settings(max_examples=300, deadline=None)
@given(phi=st.floats(min_value=-10.0, max_value=10.0),
       steps=st.lists(st.tuples(st.floats(min_value=1e-16, max_value=1e-9),
                                st.floats(min_value=1e-3, max_value=1e3)),
                      min_size=0, max_size=5),
       last=st.floats(min_value=1e-16, max_value=1e-9),
       omega=st.floats(min_value=1e3, max_value=1e12))
def test_prufer_phase_matches_its_earlier_form(phi, steps, last, omega):
    steps = steps + [(last, 0.0)]
    assert bits(modal._prufer_phase(phi, steps, omega)) == bits(
        ref.prufer_phase(phi, steps, omega))


@settings(max_examples=300, deadline=None)
@given(c=hnp.arrays(np.complex128,
                    st.tuples(st.integers(1, 6), st.just(16)),
                    elements=st.complex_numbers(allow_nan=True,
                                                allow_infinity=True)))
def test_taylor_tails_matches_its_earlier_form(c):
    # both forms overflow alike on coefficients near the double range
    with np.errstate(over="ignore"):
        too_wide, tails = ref.taylor_tails(c)
        assert bits(modal._taylor_tails(c)) == bits(list(zip(too_wide,
                                                             tails)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       tan_delta=st.sampled_from([0.0, 1e-3]),
       backend=st.sampled_from(["bvp", "mason"]))
@example(seed=0, tan_delta=0.0, backend="bvp")
def test_search_matches_its_earlier_form(seed, tan_delta, backend):
    """_search and _refine_roots, on a band's roots and on mode 0's."""
    stack = random_stack(np.random.default_rng(seed), tan_delta=tan_delta)
    for band_roots in (lambda: modal._coupled_roots(stack, 1.5e9, 34e9, 3),
                       lambda: [modal._mode0_root(stack)]):
        roots = outcome(band_roots)
        if not roots or isinstance(roots[0], str):
            continue
        new = outcome(modal._search, stack, roots, backend, modal._REFINE_TOL)
        old = outcome(ref.search, stack, roots, backend, modal._REFINE_TOL)
        if isinstance(old[0], str):
            assert new == old
        else:
            assert bits([np.array(v) for v in new]) == bits(list(old))


def test_search_matches_its_earlier_form_on_the_nominal_stacks(
        nominal, calibrated_stack):
    for stack in (nominal, calibrated_stack,
                  calibrated_stack.with_layer_thickness(0, 150e-9)
                  .with_layer_thickness(2, 175e-9)):    # a coupling-null mode
        roots = modal._coupled_roots(stack, 1.5e9, 34e9, 3)
        new = modal._search(stack, roots, "bvp", modal._REFINE_TOL)
        old = ref.search(stack, roots, "bvp", modal._REFINE_TOL)
        assert bits([np.array(v) for v in new]) == bits(list(old))


# every line break str.splitlines() knows
line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c",
                               "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
value = st.sampled_from(["0.5", "-0.25", "1e-3", "90", "1.5E2", "nan", "x",
                         "0", "-1"])
record = st.builds(lambda f, vals: " ".join([f] + vals),
                   st.sampled_from(["12.5", "13", "0.001", "14.25e0", "-1",
                                    "1e400", "12.5!"]),
                   st.lists(value, min_size=8, max_size=8))
header_lines = st.lists(st.sampled_from([
    "", "   ", "! comment", "  ! see #3", "# GHZ S RI R 50",
    "# MHZ S MA", "# GHZ S DB R 75 ! note", "#", "# GHZ Y RI", "# GHZ R",
    "# HZ S RI R -5", "12.5 1 2 3 4 5 6 7 8"]), min_size=0, max_size=4)
body_lines = st.lists(st.one_of(record, st.sampled_from([
    "", "! c", "1 2 3", "# GHZ", "1.0 ! tail", "  "])), min_size=0,
    max_size=6)


@settings(max_examples=500, deadline=None)
@given(head=header_lines, body=body_lines,
       breaks=st.lists(line_breaks, min_size=10, max_size=10),
       trailing=st.booleans())
@example(head=["! two-port", "# GHZ S RI R 50"],
         body=["12.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5",
               "13 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5"],
         breaks=["\n"] * 10, trailing=True)
def test_parse_touchstone_matches_its_earlier_form(head, body, breaks,
                                                   trailing):
    """The same data or the same error, with its line number, from a text
    that parse_touchstone no longer splits into lines."""
    lines = head + body
    text = "".join(ln + brk for ln, brk in zip(lines, breaks * 2))
    if not trailing and text:
        text = text[:-1]

    def parsed(parse):
        try:
            data = parse(text)
        except ValueError as err:
            return type(err).__name__, str(err), getattr(err, "line", None)
        return bits([data.frequencies, data.s, data.z0]), data.unit, \
            data.data_format

    with np.errstate(over="ignore"):
        assert parsed(parse_touchstone) == parsed(ref.parse_touchstone)
