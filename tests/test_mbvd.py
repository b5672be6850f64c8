"""Touchstone grammar, S->Y conversion, circuit model, and fitting."""

import importlib.resources
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bawkit import mbvd
from bawkit.acoustic1d import AdmittanceCurve
from bawkit.materials import ConfigError
from bawkit.mbvd import (FREQUENCY_UNITS, ConversionError, MbvdParams,
                         TouchstoneData, TouchstoneError, _shift_point,
                         emit_touchstone, export_fit_curve_csv, fit_mbvd,
                         format_fit_report, mbvd_admittance,
                         parse_fit_report, parse_touchstone, report, s_to_y,
                         transmission_admittance)

ONE_POINT = ("# GHZ S RI R 50\n"
             "13.0 0.1 0.0 0.9 0.0 0.9 0.0 0.1 0.0\n")


def params_for(fs=13.3e9, qs=210.0, keff2=0.052, c0=200e-15,
               r0=1.5, rs=2.0):
    """Invert the report formulas so the metrics land on the arguments."""
    cm = c0 * keff2 * 8.0 / math.pi ** 2
    lm = 1.0 / ((2 * math.pi * fs) ** 2 * cm)
    rm = 2 * math.pi * fs * lm / qs
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=c0, r0=r0, rs=rs)


def synth_curve(p, f_lo, f_hi, n=601):
    """Segmented sweep: a band-wide grid plus a dense cluster around the
    motional resonance, as an analyzer would take it.  High-Q draws are
    unresolvable on a uniform grid alone."""
    f = np.linspace(f_lo, f_hi, n)
    fs = 1.0 / (2 * math.pi * math.sqrt(p.lm * p.cm))
    qs = 2 * math.pi * fs * p.lm / p.rm
    half_width = 25.0 * fs / qs
    lo = max(f_lo, fs - half_width)
    hi = min(f_hi, fs + half_width)
    f = np.unique(np.concatenate([f, np.linspace(lo, hi, 401)]))
    return AdmittanceCurve(frequencies=f, y=mbvd_admittance(p, f),
                           provenance="measured")


# -- parse_touchstone --------------------------------------------------------

def test_parse_single_record():
    data = parse_touchstone(ONE_POINT)
    assert data.frequencies.shape == (1,)
    assert data.frequencies[0] == 13.0e9
    assert data.z0 == 50.0
    assert data.s[0, 0, 0] == 0.1 + 0j   # S11
    assert data.s[0, 1, 0] == 0.9 + 0j   # S21 comes second in v1 order
    assert data.s[0, 0, 1] == 0.9 + 0j   # S12
    assert data.s[0, 1, 1] == 0.1 + 0j   # S22


def test_option_line_tokens_any_order_and_case():
    text = "# r 75 Ri s hz\n1000.0 0.1 0.0 0.2 0.0 0.2 0.0 0.1 0.0\n"
    data = parse_touchstone(text)
    assert data.z0 == 75.0
    assert data.unit == "HZ"
    assert data.frequencies[0] == 1000.0


def test_option_line_defaults():
    text = "#\n1.0 0.5 0.0 0.5 0.0 0.5 0.0 0.5 0.0\n"
    data = parse_touchstone(text)
    assert data.unit == "GHZ" and data.data_format == "MA"
    assert data.z0 == 50.0
    assert data.frequencies[0] == 1e9
    assert data.s[0, 0, 0] == pytest.approx(0.5 + 0j, abs=1e-15)


def test_db_format_zero_db_is_unit_magnitude():
    text = "# GHZ S DB R 50\n1.0 0.0 0.0 -6.0 0.0 -6.0 0.0 0.0 0.0\n"
    data = parse_touchstone(text)
    assert data.s[0, 0, 0] == pytest.approx(1.0 + 0j, abs=1e-15)
    assert abs(data.s[0, 1, 0]) == pytest.approx(10 ** (-6 / 20), rel=1e-12)


def test_ma_format_phase():
    text = "# GHZ S MA R 50\n1.0 0.5 90.0 0.1 0.0 0.1 0.0 0.5 -90.0\n"
    data = parse_touchstone(text)
    assert data.s[0, 0, 0] == pytest.approx(0.5j, abs=1e-15)
    assert data.s[0, 1, 1] == pytest.approx(-0.5j, abs=1e-15)


def test_comments_and_wrapped_records():
    text = ("! created by a VNA\n"
            "# GHZ S RI R 50\n"
            "! data follows\n"
            "13.0 0.1 0.0 0.9 0.0   ! first half\n"
            "0.9 0.0 0.1 0.0\n")
    data = parse_touchstone(text)
    assert data.frequencies.shape == (1,)
    assert data.s[0, 1, 0] == 0.9 + 0j


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("13.0 0.1 0.0 0.9 0.0 0.9 0.0 0.1 0.0\n")
    assert "option line" in str(err.value)

    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("# GHZ S RI R 50\n13.0 0.1 0.2\n")
    assert err.value.line == 2

    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("# GHZ S RI R 50\n# GHZ S RI R 50\n")
    assert err.value.line == 2

    bad_order = (ONE_POINT + "12.0 0.1 0.0 0.9 0.0 0.9 0.0 0.1 0.0\n")
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone(bad_order)
    assert err.value.line == 3

    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("# GHZ S RI R 50\n13.0 a b c d e f g h\n")
    assert err.value.line == 2


@pytest.mark.parametrize("z0", ["inf", "nan", "0", "-50", "-inf", "fifty"])
def test_bad_reference_impedance_names_the_option_line(z0):
    text = f"! header\n# GHZ S RI R {z0}\n" + ONE_POINT.splitlines()[1]
    with pytest.raises(TouchstoneError, match="reference impedance") as err:
        parse_touchstone(text)
    assert err.value.line == 2


# three records, the first wrapped over lines 2 and 3
RECORDS = [["13.0", "0.1", "0", "0.9", "0"], ["0.9", "0", "0.1", "0"],
           ["13.1", "0.1", "0", "0.9", "0", "0.9", "0", "0.1", "0"],
           ["13.2", "0.1", "0", "0.9", "0", "0.9", "0", "0.1", "0"]]


@pytest.mark.parametrize("row, col, token", [
    (2, 0, "inf"), (2, 0, "nan"), (2, 0, "0"), (2, 0, "-13.1"),
    (0, 0, "-inf"), (3, 0, "1e300"),          # 1e309 Hz is not finite
    (1, 2, "nan"), (2, 5, "inf"), (0, 1, "-inf"), (3, 8, "NaN")])
def test_non_finite_values_name_their_line(row, col, token):
    rows = [list(r) for r in RECORDS]
    rows[row][col] = token
    text = "# GHZ S RI R 50\n" + "".join(" ".join(r) + "\n" for r in rows)
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone(text)
    assert err.value.line == row + 2
    assert token in str(err.value)


def test_touchstone_data_rejects_infinite_impedance():
    with pytest.raises(ConfigError, match="reference impedance"):
        TouchstoneData(frequencies=np.array([1e9]),
                       s=np.zeros((1, 2, 2), dtype=complex), z0=math.inf)


@st.composite
def float_literals(draw):
    """Decimal literals of Python's float() grammar: sign, 1-40 digits
    with underscores, leading or trailing dot, signed exponent."""
    def digitpart(n_min, n_max):
        digits = draw(st.text("0123456789", min_size=n_min, max_size=n_max))
        cuts = draw(st.lists(st.booleans(), min_size=len(digits),
                             max_size=len(digits)))
        return "".join(d + ("_" if cut and k + 1 < len(digits) else "")
                       for k, (d, cut) in enumerate(zip(digits, cuts)))

    n = draw(st.integers(1, 40))
    split = draw(st.integers(0, n))
    head, tail = digitpart(split, split), digitpart(n - split, n - split)
    if not tail:
        mantissa = head + draw(st.sampled_from(["", "."]))
    else:
        mantissa = f"{head}.{tail}"
    token = draw(st.sampled_from(["", "+", "-"])) + mantissa
    if draw(st.booleans()):
        token += (draw(st.sampled_from("eE"))
                  + draw(st.sampled_from(["", "+", "-"])) + digitpart(1, 3))
    return token


@given(token=float_literals(), unit=st.sampled_from(sorted(FREQUENCY_UNITS)))
@example(token="1e-" + "0" * 5000 + "1", unit="GHZ")
@example(token="0.1_5e+0_3", unit="KHZ")
@example(token="9.99e299", unit="GHZ")
def test_frequency_shift_is_the_exact_decimal_shift(token, unit):
    """A frequency rounds once from its exact value in Hz, as through
    Decimal; one that is not finite and > 0 in Hz is refused."""
    exact = float(_shift_point(Decimal(token), FREQUENCY_UNITS[unit]))
    text = f"# {unit} S RI R 50\n{token} 0 0 0 0 0 0 0 0\n"
    if float(token) > 0 and exact < math.inf:
        assert parse_touchstone(text).frequencies[0] == exact
    else:
        with pytest.raises(TouchstoneError) as err:
            parse_touchstone(text)
        assert err.value.line == 2


def test_parse_rejects_non_s_parameters():
    with pytest.raises(TouchstoneError):
        parse_touchstone("# GHZ Z RI R 50\n1.0 0 0 0 0 0 0 0 0\n")


def test_emit_parse_round_trip_all_formats():
    rng = np.random.default_rng(3)
    n = 7
    f = np.sort(rng.uniform(1e9, 20e9, n))
    s = (rng.uniform(-0.7, 0.7, (n, 2, 2))
         + 1j * rng.uniform(-0.7, 0.7, (n, 2, 2)))
    for unit in ("HZ", "KHZ", "MHZ", "GHZ"):
        for fmt in ("RI", "MA", "DB"):
            data = TouchstoneData(frequencies=f, s=s, z0=50.0, unit=unit,
                                  data_format=fmt)
            back = parse_touchstone(emit_touchstone(data))
            assert np.array_equal(back.frequencies, f), (unit, fmt)
            assert np.max(np.abs(back.s - s) / np.abs(s)) < 1e-12, (unit, fmt)


def test_emit_rejects_zero_magnitude_in_db():
    data = TouchstoneData(frequencies=np.array([1e9]),
                          s=np.zeros((1, 2, 2), dtype=complex), z0=50.0,
                          data_format="DB")
    with pytest.raises(ConfigError):
        emit_touchstone(data)


# -- s_to_y ------------------------------------------------------------------

def test_matched_network_converts_to_diagonal():
    data = TouchstoneData(frequencies=np.array([1e9]),
                          s=np.zeros((1, 2, 2), dtype=complex), z0=50.0)
    y = s_to_y(data)
    assert y[0, 0, 0] == pytest.approx(0.02, rel=1e-15)
    assert y[0, 1, 1] == pytest.approx(0.02, rel=1e-15)
    assert y[0, 0, 1] == 0.0 and y[0, 1, 0] == 0.0


def test_ideal_through_is_singular():
    s = np.zeros((1, 2, 2), dtype=complex)
    s[0, 0, 1] = s[0, 1, 0] = 1.0
    data = TouchstoneData(frequencies=np.array([13e9]), s=s, z0=50.0)
    with pytest.raises(ConversionError) as err:
        s_to_y(data)
    assert "1.3e+10" in str(err.value)


def test_s_to_y_inverts_back_to_s():
    rng = np.random.default_rng(5)
    n = 40
    f = np.sort(rng.uniform(1e9, 20e9, n))
    s = 0.6 * (rng.uniform(-1, 1, (n, 2, 2))
               + 1j * rng.uniform(-1, 1, (n, 2, 2)))
    s[:, 0, 1] = s[:, 1, 0]  # reciprocal
    data = TouchstoneData(frequencies=f, s=s, z0=50.0)
    y = s_to_y(data)
    eye = np.eye(2)
    for i in range(n):
        y0 = eye / 50.0
        s_back = (y0 - y[i]) @ np.linalg.inv(y0 + y[i])
        assert np.max(np.abs(s_back - s[i])) < 1e-12


def test_transmission_admittance_topologies():
    data = parse_touchstone(ONE_POINT)
    y = s_to_y(data)
    series = transmission_admittance(data, topology="series")
    shunt = transmission_admittance(data, topology="shunt")
    assert series.y[0] == -y[0, 0, 1]
    assert shunt.y[0] == y[0, 0, 0]
    assert series.provenance == "measured"
    with pytest.raises(ConfigError):
        transmission_admittance(data, topology="bridge")


# -- mbvd_admittance ---------------------------------------------------------

def nodal_admittance(p, f):
    """Component-level nodal solve of the same circuit, as a cross-check.

    Nodes: 1 after rs, 2 between rm and lm, 3 between lm and cm,
    4 between r0 and c0.  Drive is 1 V through rs.
    """
    w = 2 * math.pi * f
    z = {"rs": p.rs, "rm": p.rm, "lm": 1j * w * p.lm,
         "cm": 1.0 / (1j * w * p.cm), "r0": p.r0,
         "c0": 1.0 / (1j * w * p.c0)}
    g = {k: 1.0 / v for k, v in z.items() if v != 0}
    n = 4
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    # element list: (conductance, node_a, node_b); node 0 = source, -1 = gnd
    elements = [("rs", 0, 1), ("rm", 1, 2), ("lm", 2, 3), ("cm", 3, -1),
                ("r0", 1, 4), ("c0", 4, -1)]
    for name, na, nb in elements:
        if name == "rs" and p.rs == 0:
            continue
        gv = g[name]
        for node in (na, nb):
            if node >= 1:
                a[node - 1, node - 1] += gv
        if na >= 1 and nb >= 1:
            a[na - 1, nb - 1] -= gv
            a[nb - 1, na - 1] -= gv
        if na == 0 and nb >= 1:
            b[nb - 1] += gv  # source held at 1 V
    v = np.linalg.solve(a, b)
    return g["rs"] * (1.0 - v[0])


def test_circuit_model_matches_nodal_solve():
    p = params_for()
    fs = 13.3e9
    for f in (0.8 * fs, 0.97 * fs, fs, 1.02 * fs, 1.3 * fs):
        y = mbvd_admittance(p, f)
        y_ref = nodal_admittance(p, f)
        assert abs(y - y_ref) / abs(y_ref) < 1e-12


def test_static_branch_only():
    # a vanishing motional capacitance leaves c0 + r0 behind rs
    p = params_for()
    p = MbvdParams(rm=p.rm, lm=p.lm, cm=p.cm * 1e-12, c0=p.c0,
                   r0=p.r0, rs=p.rs)
    f = 9.7e9
    w = 2 * math.pi * f
    y = mbvd_admittance(p, f)
    expected = 1.0 / (p.rs + p.r0 + 1.0 / (1j * w * p.c0))
    assert y == pytest.approx(expected, rel=1e-12)


def test_motional_reactances_cancel_at_fs():
    p = params_for()
    fs = 1.0 / (2 * math.pi * math.sqrt(p.lm * p.cm))
    w = 2 * math.pi * fs
    ys = 1.0 / (p.r0 + 1.0 / (1j * w * p.c0))
    expected = 1.0 / (p.rs + 1.0 / (1.0 / p.rm + ys))
    assert mbvd_admittance(p, fs) == pytest.approx(expected, rel=1e-9)


def test_mbvd_array_evaluation():
    p = params_for()
    f = np.array([10e9, 13e9, 15e9])
    y = mbvd_admittance(p, f)
    assert y.shape == (3,)
    assert y[1] == mbvd_admittance(p, 13e9)


def test_params_validation():
    with pytest.raises(ConfigError):
        MbvdParams(rm=-1.0, lm=1e-9, cm=1e-15, c0=1e-13, r0=0.0, rs=0.0)
    with pytest.raises(ConfigError):
        MbvdParams(rm=1.0, lm=0.0, cm=1e-15, c0=1e-13, r0=0.0, rs=0.0)
    with pytest.raises(ConfigError):
        MbvdParams(rm=1.0, lm=1e-9, cm=1e-15, c0=-1e-13, r0=0.0, rs=0.0)


# -- report ------------------------------------------------------------------

def test_report_reproduces_target_metrics():
    rep = report(params_for(fs=13.3e9, qs=210.0, keff2=0.052))
    assert rep.fs == pytest.approx(13.3e9, rel=1e-12)
    assert rep.qs == pytest.approx(210.0, rel=1e-12)
    assert rep.keff2_mbvd == pytest.approx(0.052, rel=1e-12)
    assert rep.fom == pytest.approx(10.92, rel=1e-12)


def test_report_limits_and_scalings():
    p = params_for()
    tiny = MbvdParams(rm=p.rm, lm=p.lm, cm=p.cm * 1e-6, c0=p.c0,
                      r0=p.r0, rs=p.rs)
    assert report(tiny).keff2_mbvd < 1e-6
    double = MbvdParams(rm=2 * p.rm, lm=p.lm, cm=p.cm, c0=p.c0,
                        r0=p.r0, rs=p.rs)
    assert report(double).qs == pytest.approx(report(p).qs / 2, rel=1e-12)


def test_report_text_round_trip():
    rep = report(params_for(), residual=1.2e-9, converged=True)
    text = format_fit_report(rep)
    keys = [ln.split(":")[0] for ln in text.strip().splitlines()]
    assert keys == ["rm_ohm", "lm_h", "cm_f", "c0_f", "r0_ohm", "rs_ohm",
                    "fs_hz", "qs", "keff2", "fom", "residual", "converged"]
    vals = parse_fit_report(text)
    assert vals["qs"] == pytest.approx(rep.qs, rel=1e-15)
    assert vals["cm_f"] == pytest.approx(rep.params.cm, rel=1e-15)
    assert vals["converged"] is True


# -- fit_mbvd ----------------------------------------------------------------

def draw_params(rng):
    rm = math.exp(rng.uniform(math.log(0.5), math.log(50.0)))
    lm = 1e-9 * math.exp(rng.uniform(math.log(1.0), math.log(500.0)))
    fs = rng.uniform(8e9, 18e9)
    cm = 1.0 / ((2 * math.pi * fs) ** 2 * lm)
    c0 = cm * math.exp(rng.uniform(math.log(5.0), math.log(100.0)))
    r0 = math.exp(rng.uniform(math.log(0.01), math.log(5.0)))
    rs = math.exp(rng.uniform(math.log(0.01), math.log(5.0)))
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=c0, r0=r0, rs=rs), fs


def param_errors(fit, true):
    return {name: abs(getattr(fit, name) - getattr(true, name))
            / getattr(true, name)
            for name in ("rm", "lm", "cm", "c0", "r0", "rs")}


def test_noiseless_recovery():
    rng = np.random.default_rng(17)
    for _ in range(5):
        true, fs = draw_params(rng)
        curve = synth_curve(true, 0.85 * fs, 1.25 * fs)
        rep = fit_mbvd(curve)
        assert rep.converged
        assert rep.residual < 1e-6
        for name, err in param_errors(rep.params, true).items():
            assert err < 0.01, (name, err)


def test_fit_with_explicit_band():
    true, fs = draw_params(np.random.default_rng(23))
    curve = synth_curve(true, 0.5 * fs, 1.6 * fs, n=2001)
    rep = fit_mbvd(curve, band=(0.85 * fs, 1.25 * fs))
    assert rep.converged
    assert max(param_errors(rep.params, true).values()) < 1e-6


def test_noisy_recovery_stays_close():
    true = params_for()
    clean = synth_curve(true, 12.0e9, 14.6e9, n=801)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        noise = (rng.standard_normal(clean.y.size)
                 + 1j * rng.standard_normal(clean.y.size)) / math.sqrt(2)
        noisy = AdmittanceCurve(frequencies=clean.frequencies,
                                y=clean.y * (1 + 0.01 * noise),
                                provenance="measured")
        rep = fit_mbvd(noisy)
        assert rep.converged
        assert abs(rep.fs - 13.3e9) / 13.3e9 < 5e-4
        for name, err in param_errors(rep.params, true).items():
            assert err < 0.05, (seed, name, err)


def test_fit_scaling_covariance():
    true, fs = draw_params(np.random.default_rng(29))
    curve = synth_curve(true, 0.85 * fs, 1.25 * fs)
    alpha = 7.3
    scaled = AdmittanceCurve(frequencies=curve.frequencies,
                             y=alpha * curve.y, provenance="measured")
    rep = fit_mbvd(scaled)
    assert rep.converged
    q = rep.params
    assert q.rm == pytest.approx(true.rm / alpha, rel=1e-3)
    assert q.lm == pytest.approx(true.lm / alpha, rel=1e-3)
    assert q.cm == pytest.approx(true.cm * alpha, rel=1e-3)
    assert q.c0 == pytest.approx(true.c0 * alpha, rel=1e-3)
    assert q.r0 == pytest.approx(true.r0 / alpha, rel=1e-3)
    assert q.rs == pytest.approx(true.rs / alpha, rel=1e-3)


def test_fit_requires_enough_points():
    true, fs = draw_params(np.random.default_rng(31))
    f = np.linspace(0.9 * fs, 1.1 * fs, 20)
    curve = AdmittanceCurve(frequencies=f, y=mbvd_admittance(true, f),
                            provenance="measured")
    with pytest.raises(ConfigError, match="50"):
        fit_mbvd(curve)


def test_fit_requires_a_conductance_peak():
    f = np.linspace(1e9, 2e9, 101)
    y = 1j * 2 * math.pi * f * 200e-15  # bare capacitor, no resonance
    curve = AdmittanceCurve(frequencies=f, y=y, provenance="measured")
    with pytest.raises(ConfigError, match="conductance peak"):
        fit_mbvd(curve)


def test_fit_curve_csv(tmp_path):
    true, fs = draw_params(np.random.default_rng(37))
    curve = synth_curve(true, 0.85 * fs, 1.25 * fs, n=101)
    rep = fit_mbvd(curve)
    path = tmp_path / "fit.csv"
    export_fit_curve_csv(curve, rep, path)
    g = "{:.17g}".format
    y_model = mbvd_admittance(rep.params, curve.frequencies)
    rows = [",".join(g(v) for v in (f, yd.real, yd.imag, ym.real, ym.imag))
            for f, yd, ym in zip(curve.frequencies, curve.y, y_model)]
    want = "freq_hz,re_y_data,im_y_data,re_y_model,im_y_model\n" \
        + "".join(row + "\n" for row in rows)
    assert path.read_bytes() == want.encode()


# -- bundled fixture ---------------------------------------------------------

def fixture_text():
    res = importlib.resources.files("bawkit") / "data" / "r14c5_like.s2p"
    return res.read_text(encoding="utf-8")


def test_bundled_fixture_reports_target_metrics():
    data = parse_touchstone(fixture_text())
    curve = transmission_admittance(data, topology="series")
    rep = fit_mbvd(curve, band=(12.5e9, 14.0e9))
    assert rep.converged
    assert rep.qs == pytest.approx(210.0, rel=0.02)
    assert abs(rep.keff2_mbvd - 0.052) < 0.002
    assert rep.fs == pytest.approx(13.3e9, rel=1e-3)
    assert abs(rep.fom - 10.9) < 0.3
    assert rep.residual < 1e-6


def test_fit_evaluates_the_circuit_once_per_point(monkeypatch):
    """The residual and the Jacobian at one point share one circuit
    evaluation, so a fit runs _circuit once per residual evaluation."""
    real = mbvd._circuit
    calls = []

    def counting(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(mbvd, "_circuit", counting)
    curve = transmission_admittance(parse_touchstone(fixture_text()))
    rep = fit_mbvd(curve, band=(12.5e9, 14.0e9))
    assert rep.converged and rep.n_iterations > 1
    assert len(calls) == rep.n_iterations


def relative_rms(rep, curve, band=None):
    """The fit's residual recomputed from its reported circuit values."""
    f, y = curve.frequencies, curve.y
    if band is not None:
        keep = (f >= band[0]) & (f <= band[1])
        f, y = f[keep], y[keep]
    rel = np.abs(mbvd_admittance(rep.params, f) - y) / np.abs(y)
    return math.sqrt(np.mean(rel ** 2))


def test_reported_residual_matches_model():
    band = (12.5e9, 14.0e9)
    fixture = transmission_admittance(parse_touchstone(fixture_text()))
    rep = fit_mbvd(fixture, band=band)
    assert rep.residual == pytest.approx(relative_rms(rep, fixture, band),
                                         rel=1e-12)

    clean = synth_curve(params_for(), 12.0e9, 14.6e9, n=801)
    rng = np.random.default_rng(41)
    noise = (rng.standard_normal(clean.y.size)
             + 1j * rng.standard_normal(clean.y.size)) / math.sqrt(2)
    noisy = AdmittanceCurve(frequencies=clean.frequencies,
                            y=clean.y * (1 + 0.01 * noise),
                            provenance="measured")
    rep = fit_mbvd(noisy)
    assert rep.converged
    assert rep.residual > 1e-3
    assert rep.residual == pytest.approx(relative_rms(rep, noisy), rel=1e-12)
