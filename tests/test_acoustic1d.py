"""Admittance engine checks: both backends, profiles, energy partition."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bawkit import (ConfigError, FrequencyGrid, PhysicsError,
                    SingularFrequencyError, admittance_bvp, admittance_mason,
                    export_spectrum_csv, field_profile, spectrum,
                    strain_energy)
from bawkit.acoustic1d import (AdmittanceCurve, _bvp_solve, _cos_sin,
                               _half_angle_cos_sin, _wave_amplitudes)
from bawkit.materials import Layer, Stack, derive_constants
from bawkit.mbvd import (MbvdParams, export_fit_curve_csv, mbvd_admittance,
                         report)

from conftest import (AREA_30UM, make_metal, make_piezo, plate,
                      quadrature_energies, random_stack)

# pinned from the closed-form backend at identical inputs; guards both
# backends against silent drift
Y_NOMINAL_13GHZ = 0.0009336400120226877 + 0.041899618294354034j


# -- FrequencyGrid -----------------------------------------------------------

def test_frequency_grid_validation():
    with pytest.raises(ConfigError):
        FrequencyGrid(0.0, 1e9, 10)
    with pytest.raises(ConfigError):
        FrequencyGrid(2e9, 1e9, 10)
    with pytest.raises(ConfigError):
        FrequencyGrid(1e9, 2e9, 1)
    with pytest.raises(ConfigError):
        FrequencyGrid(1e9, math.inf, 5)


def test_frequency_grid_axes():
    lin = FrequencyGrid(1e9, 2e9, 11).frequencies()
    assert lin[0] == 1e9 and lin[-1] == 2e9 and lin.size == 11
    assert np.array_equal(lin, np.linspace(1e9, 2e9, 11))


# -- single-frequency admittance ---------------------------------------------

def test_nominal_admittance_pin(nominal):
    y = admittance_bvp(nominal, 13.0e9)
    assert y == pytest.approx(Y_NOMINAL_13GHZ, rel=1e-10)
    ym = admittance_mason(nominal, 13.0e9)
    assert abs(y - ym) / abs(ym) < 1e-8


def test_invalid_frequency_rejected(nominal):
    with pytest.raises(ConfigError):
        admittance_bvp(nominal, -1.0)
    with pytest.raises(ConfigError):
        admittance_mason(nominal, 0.0)


REAL_NON_FINITE = (math.nan, math.inf, -math.inf, [5e9, math.nan])
COMPLEX_NON_FINITE = (complex(math.nan, 0.0), complex(5e9, math.inf))
# an mBVD circuit resonating near 13 GHz
MBVD_13GHZ = MbvdParams(rm=1.0, lm=1e-8, cm=1.5e-14, c0=1e-12, r0=0.1,
                        rs=0.5)


@pytest.mark.parametrize("func, f", [
    (func, f) for func in (admittance_bvp, admittance_mason, strain_energy)
    for f in REAL_NON_FINITE] + [
    (mbvd_admittance, f) for f in REAL_NON_FINITE] + [
    (kernel, f) for kernel in (admittance_bvp, admittance_mason)
    for f in COMPLEX_NON_FINITE] + [
    (field_profile, f) for f in REAL_NON_FINITE[:3]])
def test_non_finite_frequency_rejected(nominal, func, f):
    """A NaN or an infinity is a usage error, raised before numpy warns."""
    first = MBVD_13GHZ if func is mbvd_admittance else nominal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="must be finite"):
            func(first, f)


@pytest.mark.parametrize("kernel", [admittance_bvp, admittance_mason])
def test_complex_frequencies(kernel):
    """Both kernels are analytic in f: on the real axis a complex input
    gives the real input's admittance, and off it the backends agree."""
    for seed in range(5):
        stack = random_stack(np.random.default_rng(seed))
        f = np.linspace(0.5e9, 40e9, 301)
        y = kernel(stack, f)
        assert kernel(stack, f + 0j) == pytest.approx(y, rel=1e-14, abs=0)
        z = f * (1.0 + 3e-4j * np.cos(f / 1e9))
        assert kernel(stack, z) == pytest.approx(
            admittance_bvp(stack, z), rel=1e-10, abs=0)
    assert isinstance(kernel(stack, 5e9 + 1e4j), complex)
    for bad in (-5e9 + 1e4j, 1e4j):
        with pytest.raises(ConfigError, match="must be > 0"):
            kernel(stack, bad)


@pytest.mark.parametrize("kernel", [admittance_bvp, admittance_mason])
def test_singular_complex_frequency_is_named(nominal, kernel):
    # far below the real axis the layer phases overflow
    f = 5e9 - 5e13j
    with np.errstate(all="ignore"):
        with pytest.raises(SingularFrequencyError) as info:
            kernel(nominal, f)
    assert info.value.frequency == f
    assert repr(f) in str(info.value)


def test_zero_coupling_reduces_to_static_capacitor():
    pz = make_piezo(e33=0.0)
    stack = plate(pz, 250e-9)
    c0 = pz.eps33s * stack.area / 250e-9
    for f in (1e9, 5e9, 18.6e9, 40e9):
        y_ref = 1j * 2 * math.pi * f * c0
        for backend in (admittance_bvp, admittance_mason):
            y = backend(stack, f)
            assert abs(y - y_ref) / abs(y_ref) < 1e-12


def test_zero_coupling_holds_with_electrodes():
    from bawkit import Layer, Stack
    pz = make_piezo(e33=0.0)
    met = make_metal()
    stack = Stack(layers=(Layer(met, 120e-9, "electrode"),
                          Layer(pz, 250e-9, "piezo"),
                          Layer(met, 80e-9, "electrode")),
                  area=plate(pz, 250e-9).area)
    c0 = pz.eps33s * stack.area / 250e-9
    f = 7.3e9
    y = admittance_bvp(stack, f)
    assert abs(y - 1j * 2 * math.pi * f * c0) < 1e-12 * abs(y)


def test_series_resistance_composition(nominal):
    y0 = admittance_bvp(nominal, 13.0e9)
    import dataclasses
    loaded = dataclasses.replace(nominal, rs_electrical=2.5)
    y1 = admittance_bvp(loaded, 13.0e9)
    assert y1 == pytest.approx(y0 / (1 + 2.5 * y0), rel=1e-12)


def test_passivity_on_random_lossy_stacks():
    rng = np.random.default_rng(7)
    for _ in range(5):
        stack = random_stack(rng)
        grid = FrequencyGrid(0.5e9, 40e9, 501)
        y = spectrum(stack, grid).y
        assert y.real.min() >= -1e-12


def test_bare_plate_series_resonance_satisfies_plate_equation():
    """The located conductance peak solves kt2*tan(th/2)/(th/2) = 1."""
    from bawkit import find_modes
    pz = make_piezo(q_mech=1e6)
    t = 250e-9
    stack = plate(pz, t)
    kt2 = pz.kt2_mat
    v = pz.v_d

    def g(f):
        x = math.pi * f * t / v  # theta/2
        return kt2 * math.tan(x) / x - 1.0

    f_root = brentq(g, 0.70 * v / (2 * t), 0.97 * v / (2 * t), xtol=1e-3)
    # band must reach past fp = v/(2t) or the lone mode is dropped as trailing
    band = FrequencyGrid(14e9, 20e9, 2001)
    mode = find_modes(stack, band, 1, refine_tol=1e-12)[0]
    assert abs(mode.fs - f_root) / f_root < 1e-9


def test_lossless_plate_blows_up_at_series_resonance():
    pz_lossy = make_piezo(q_mech=1e6)
    pz = make_piezo(lossless=True)
    t = 250e-9
    kt2 = pz.kt2_mat
    v = pz.v_d

    def g(f):
        x = math.pi * f * t / v
        return kt2 * math.tan(x) / x - 1.0

    f_star = brentq(g, 0.70 * v / (2 * t), 0.97 * v / (2 * t),
                    xtol=1e-6, rtol=1e-15)
    y_near = admittance_bvp(plate(pz, t), f_star * (1 + 1e-10))
    y_off = admittance_bvp(plate(pz, t), f_star * 1.05)
    assert abs(y_near) > 1e4 * abs(y_off)
    # finite loss keeps the same evaluation bounded
    y_lossy = admittance_bvp(plate(pz_lossy, t), f_star)
    assert abs(y_lossy) < abs(y_near)


def test_singular_frequency_error_carries_frequency():
    err = SingularFrequencyError(1.23e9)
    assert isinstance(err, PhysicsError)
    assert err.frequency == 1.23e9
    assert "1230000000" in str(err)


# -- BVP elimination vs dense assembly ---------------------------------------

def _dense_bvp_reference(stack, freqs):
    """Scaled BVP unknowns from the full (n, 2L+1, 2L+1) dense system.

    Same rows and scaling as the production elimination, assembled as one
    matrix per frequency and handed to np.linalg.solve.
    """
    n = freqs.shape[0]
    dc = derive_constants(stack)
    nlay = len(stack.layers)
    m = 2 * nlay + 1
    ip = dc.piezo_index
    piezo = stack.layers[ip]
    pm = piezo.material
    omega = 2.0 * math.pi * freqs
    u_scale = pm.e33 / pm.c33d if pm.e33 != 0.0 else 1.0
    zfac = [c / v for c, v in zip(dc.c_star, dc.v_star)]
    sref = abs(zfac[ip])
    s_lay = [z / sref * (1.0 if u_scale >= 0 else -1.0) for z in zfac]
    theta = np.array([omega * (lay.thickness / dc.v_star[i])
                      for i, lay in enumerate(stack.layers)])
    em = np.exp(-1j * theta)
    ep = np.exp(1j * theta)
    hd = pm.e33 * (1.0 - 1j * pm.tan_delta) / (
        piezo.thickness * sref * abs(u_scale)) / omega

    a_mat = np.zeros((n, m, m), dtype=complex)
    if stack.boundary_bottom == "free":
        a_mat[:, 0, 0] = -1j * s_lay[0]
        a_mat[:, 0, 1] = 1j * s_lay[0]
        if ip == 0:
            a_mat[:, 0, m - 1] = -hd
    else:
        a_mat[:, 0, 0] = 1.0
        a_mat[:, 0, 1] = 1.0
    for i in range(nlay - 1):
        ru, rt = 1 + 2 * i, 2 + 2 * i
        a_mat[:, ru, 2 * i] = em[i]
        a_mat[:, ru, 2 * i + 1] = ep[i]
        a_mat[:, ru, 2 * i + 2] = -1.0
        a_mat[:, ru, 2 * i + 3] = -1.0
        a_mat[:, rt, 2 * i] = -1j * s_lay[i] * em[i]
        a_mat[:, rt, 2 * i + 1] = 1j * s_lay[i] * ep[i]
        a_mat[:, rt, 2 * i + 2] = 1j * s_lay[i + 1]
        a_mat[:, rt, 2 * i + 3] = -1j * s_lay[i + 1]
        if i == ip:
            a_mat[:, rt, m - 1] = -hd
        elif i + 1 == ip:
            a_mat[:, rt, m - 1] = hd
    last = nlay - 1
    if stack.boundary_top == "free":
        a_mat[:, m - 2, 2 * last] = -1j * s_lay[last] * em[last]
        a_mat[:, m - 2, 2 * last + 1] = 1j * s_lay[last] * ep[last]
        if ip == last:
            a_mat[:, m - 2, m - 1] = -hd
    else:
        a_mat[:, m - 2, 2 * last] = em[last]
        a_mat[:, m - 2, 2 * last + 1] = ep[last]
    chi = pm.e33 * u_scale / dc.eps_star
    a_mat[:, m - 1, 2 * ip] = -chi * (em[ip] - 1.0)
    a_mat[:, m - 1, 2 * ip + 1] = -chi * (ep[ip] - 1.0)
    a_mat[:, m - 1, m - 1] = 1.0
    rhs = np.zeros((n, m, 1), dtype=complex)
    rhs[:, m - 1] = 1.0
    x = np.linalg.solve(a_mat, rhs)[:, :, 0]
    y = 1j * omega * x[:, -1] * dc.eps_star / stack.t_piezo * stack.area
    rs = stack.rs_electrical
    return x, y / (1.0 + rs * y) if rs else y


def _bvp_unknowns(stack, dc, freqs):
    """The elimination's (n, 2L+1) unknowns: every layer's scaled (a, b)
    pair from the amplitude assembly, then delta."""
    pq, alpha, delta, _, _ = _bvp_solve(stack, dc, freqs)
    amps = _wave_amplitudes(pq, alpha, delta, freqs)
    return np.vstack([amps.reshape(-1, freqs.size), delta]).T


def _check_bvp_against_dense(stack, freqs):
    x_ref, y_ref = _dense_bvp_reference(stack, freqs)
    dc = derive_constants(stack)
    x = _bvp_unknowns(stack, dc, freqs)
    y = admittance_bvp(stack, freqs)
    scale = np.max(np.abs(x_ref), axis=1)
    assert np.all(np.max(np.abs(x - x_ref), axis=1) <= 1e-10 * scale)
    assert np.all(np.abs(y - y_ref) <= 1e-10 * np.abs(y_ref))
    # a batched call is its row-by-row calls, bit for bit
    for j, f in enumerate(freqs):
        x_j = _bvp_unknowns(stack, dc, freqs[j:j + 1])
        assert np.array_equal(x_j[0], x[j])
        assert admittance_bvp(stack, f) == y[j]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       tan_delta=st.sampled_from([0.0, 1e-3, 0.03]),
       n=st.integers(min_value=1, max_value=40))
@example(seed=0, tan_delta=0.0, n=1)
def test_bvp_elimination_matches_dense_solve(seed, tan_delta, n):
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, tan_delta=tan_delta)
    freqs = np.sort(rng.uniform(0.5e9, 40e9, n))
    _check_bvp_against_dense(stack, freqs)


@pytest.mark.parametrize("below,above", [(0, 0), (0, 2), (1, 1), (2, 0),
                                         (1, 3)])
@pytest.mark.parametrize("bottom,top", [("free", "free"), ("rigid", "free"),
                                        ("free", "rigid"), ("rigid", "rigid")])
def test_bvp_elimination_matches_dense_on_layouts(below, above, bottom, top):
    """Piezo first, last, in the middle and alone, under every end pair."""
    pz = make_piezo(q_mech=800.0, tan_delta=0.01)
    metals = [make_metal(name=f"m{i}", density=4000.0 + 3000.0 * i,
                         c33e=(120 + 60 * i) * 1e9, q_mech=150.0 + 40 * i)
              for i in range(below + above)]
    layers = ([Layer(m, (0.3 + 0.4 * i) * 250e-9, "electrode")
               for i, m in enumerate(metals[:below])]
              + [Layer(pz, 250e-9, "piezo")]
              + [Layer(m, (1.7 - 0.3 * i) * 250e-9, "electrode")
                 for i, m in enumerate(metals[below:])])
    stack = Stack(layers=tuple(layers), area=AREA_30UM, rs_electrical=1.5,
                  boundary_bottom=bottom, boundary_top=top)
    _check_bvp_against_dense(stack, np.linspace(0.5e9, 40e9, 97))


# -- spectrum ----------------------------------------------------------------

def test_spectrum_composes_single_point_calls(nominal):
    grid = FrequencyGrid(5e9, 7e9, 2)
    curve = spectrum(nominal, grid, backend="bvp")
    assert curve.y[0] == admittance_bvp(nominal, 5e9)
    assert curve.y[1] == admittance_bvp(nominal, 7e9)
    curve_m = spectrum(nominal, grid, backend="mason")
    assert curve_m.y[0] == admittance_mason(nominal, 5e9)


def test_spectrum_rejects_unknown_backend(nominal):
    with pytest.raises(ConfigError):
        spectrum(nominal, FrequencyGrid(5e9, 7e9, 2), backend="fem")


def test_nominal_band_shows_three_overtones(nominal):
    curve = spectrum(nominal, FrequencyGrid(3e9, 15e9, 1501))
    mag = np.abs(curve.y)
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    assert interior.sum() >= 3


def test_backend_agreement_on_grid(nominal):
    grid = FrequencyGrid(3e9, 15e9, 801)
    yb = spectrum(nominal, grid, backend="bvp").y
    ym = spectrum(nominal, grid, backend="mason").y
    assert np.max(np.abs(yb - ym) / np.abs(ym)) < 1e-8


# -- Mason's layer phases ----------------------------------------------------

EPS = np.finfo(float).eps


def lossy_phases(rng, n):
    """Complex phases a + jb with |a| up to 1e3 rad and |b| up to 700, each
    part spread over several decades."""
    a = rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.uniform(-6, 0, n)
    b = rng.uniform(-700, 700, n) * 10.0 ** rng.uniform(-8, 0, n)
    return a + 1j * b


def test_layer_cos_sin_match_complex_cos_sin():
    """cos and sin of a + jb from cos a, sin a, cosh b and sinh b agree
    with numpy's complex cos and sin to 8 ulp in each part (2 here; the
    rest is room for other libm and SIMD builds)."""
    th = lossy_phases(np.random.default_rng(21), 20000)
    cos_t, sin_t = _cos_sin(th)
    for got, want in ((cos_t, np.cos(th)), (sin_t, np.sin(th))):
        for part in ("real", "imag"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.all(np.abs(g - w) <= 8 * EPS * np.abs(w))


def test_piezo_half_angle_forms():
    """The piezo's cos, sin and 1 - cos from the half angle agree with the
    full-angle forms to 16 ulp of cosh b, their scale (6 here)."""
    th = lossy_phases(np.random.default_rng(22), 20000)
    scale = 16 * EPS * np.cosh(th.imag)
    for got, want in zip(_half_angle_cos_sin(th),
                         (np.cos(th), np.sin(th), 2.0 * np.sin(0.5 * th) ** 2)):
        assert np.all(np.abs(got - want) <= scale)


def test_mason_solves_thick_electrodes(nominal):
    """0.08 m electrodes attenuate by 763 nepers over the stack at 1.5 GHz,
    469 of them in the Pt layer: past the BVP's range today, but inside
    Mason's, which rescales after each layer."""
    ip = nominal.piezo_index
    thick = (nominal.with_layer_thickness(ip - 1, 0.08)
             .with_layer_thickness(ip + 1, 0.08))
    y = admittance_mason(thick, np.array([1.2e9, 1.5e9]))
    assert np.all(np.isfinite(y)) and np.all(y.real > 0)


def test_mason_passive_on_random_stacks():
    """Re(Y) >= -1e-12 |Y| at real frequencies and at complex ones below
    the real axis, where s = j 2 pi f has Re(s) > 0 and a passive
    admittance keeps Re(Y) >= 0."""
    rng = np.random.default_rng(23)
    f = np.linspace(0.5e9, 40e9, 2001)
    for _ in range(20):
        stack = random_stack(rng)
        for rel in (0.0, 1e-6, 1e-3, 1e-2):
            y = admittance_mason(stack, f * (1 - 1j * rel) if rel else f)
            assert np.all(y.real >= -1e-12 * np.abs(y))


def test_admittance_curve_validation():
    with pytest.raises(ConfigError):
        AdmittanceCurve(frequencies=np.array([2e9, 1e9]),
                        y=np.array([1j, 2j]))
    with pytest.raises(ConfigError):
        AdmittanceCurve(frequencies=np.array([1e9, 2e9]),
                        y=np.array([1j]))
    for bad in (math.nan, 0.0, -1e9):
        with pytest.raises(ConfigError):
            AdmittanceCurve(frequencies=np.array([bad, 2e9]),
                            y=np.array([1j, 2j]))


def test_spectrum_csv_round_trip(nominal, tmp_path):
    curve = spectrum(nominal, FrequencyGrid(3e9, 5e9, 7))
    path = tmp_path / "spectrum.csv"
    export_spectrum_csv(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["freq_hz", "re_y_s", "im_y_s"]
    assert len(rows) == 8
    for row, f, y in zip(rows[1:], curve.frequencies, curve.y):
        assert float(row[0]) == f
        assert float(row[1]) == y.real
        assert float(row[2]) == y.imag


def _csv_by_rows(header, *columns):
    """The one-f-string-per-row export that format_rows replaced."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _special_curve():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300,
                1e300, -1e300, 5e-324, 1.0 / 3.0, -2.5e9]
    # frequencies are finite and > 0; the admittance takes the rest
    freqs = np.array([5e-324, 1e-310, 1e-300, 1.0 / 3.0, 1.0, 2.5e9, 13e9,
                      1e100, 1e300, np.finfo(float).max])
    re = np.array([specials[i % len(specials)] for i in range(freqs.size)])
    im = np.array([specials[(5 * i + 3) % len(specials)]
                   for i in range(freqs.size)])
    y = np.empty(freqs.size, dtype=complex)
    y.real = re
    y.imag = im
    return AdmittanceCurve(frequencies=freqs, y=y)


@pytest.mark.parametrize("which", ["special", "spectrum", "bench",
                                   "fit_curve", "empty"])
def test_spectrum_csv_matches_row_formatting(nominal, tmp_path, which):
    if which == "special":
        curve = _special_curve()
    elif which == "spectrum":
        curve = spectrum(nominal, FrequencyGrid(0.5e9, 40e9, 301))
    elif which in ("bench", "fit_curve"):
        # the largest spectrum the benchmark writes
        curve = spectrum(nominal, FrequencyGrid(0.5e9, 40e9, 16001))
    else:
        curve = AdmittanceCurve(frequencies=np.array([]), y=np.array([]))
    path = tmp_path / "spectrum.csv"
    f, y = curve.frequencies, curve.y
    if which == "fit_curve":
        rep = report(MBVD_13GHZ)
        export_fit_curve_csv(curve, rep, path)
        ym = mbvd_admittance(rep.params, f)
        want = _csv_by_rows(
            "freq_hz,re_y_data,im_y_data,re_y_model,im_y_model",
            f, y.real, y.imag, ym.real, ym.imag)
    else:
        export_spectrum_csv(curve, path)
        want = _csv_by_rows("freq_hz,re_y_s,im_y_s", f, y.real, y.imag)
    assert path.read_bytes() == want


@pytest.mark.parametrize("call", [
    lambda stack: AdmittanceCurve(frequencies=np.array([1e9 + 5e8j, 2e9]),
                                  y=np.array([1j, 2j])),
    lambda stack: strain_energy(stack, np.array([5e9 + 1e8j])),
    lambda stack: field_profile(stack, np.complex128(5e9 + 1e8j)),
], ids=["AdmittanceCurve", "strain_energy", "field_profile"])
def test_complex_frequencies_rejected(nominal, call):
    """The real-frequency evaluators refuse complex input, whose
    imaginary part a float cast would drop with only a ComplexWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="must be real"):
            call(nominal)


# -- field_profile -----------------------------------------------------------

def test_profile_boundary_and_continuity(nominal):
    prof = field_profile(nominal, 13.0e9)
    t_peak = max(np.abs(t).max() for t in prof.t_layers)
    assert abs(prof.t_layers[0][0]) <= 1e-9 * t_peak
    assert abs(prof.t_layers[-1][-1]) <= 1e-9 * t_peak
    u_peak = max(np.abs(u).max() for u in prof.u_layers)
    for i in range(len(prof.u_layers) - 1):
        du = abs(prof.u_layers[i][-1] - prof.u_layers[i + 1][0])
        dt = abs(prof.t_layers[i][-1] - prof.t_layers[i + 1][0])
        assert du <= 1e-9 * u_peak
        assert dt <= 1e-9 * t_peak


def test_profile_z_grid_spans_stack(nominal):
    prof = field_profile(nominal, 8e9)
    total = sum(l.thickness for l in nominal.layers)
    assert prof.z_layers[0][0] == 0.0
    # abs=0: the default abs of 1e-12 would swamp a 5e-7 m stack height
    assert prof.z_layers[-1][-1] == pytest.approx(total, rel=1e-12, abs=0)
    for z, u in zip(prof.z_layers, prof.u_layers):
        assert z.size >= 64 and u.size == z.size


def test_bare_plate_fundamental_shape():
    """Half-wave mode: u odd about the midplane, |T| peaked at the middle."""
    from bawkit import find_modes
    pz = make_piezo(q_mech=1e6)
    t = 250e-9
    stack = plate(pz, t)
    fs = find_modes(stack, FrequencyGrid(14e9, 20e9, 1201), 1)[0].fs
    prof = field_profile(stack, fs, points_per_layer=257)
    z = prof.z_layers[0]
    u = prof.u_layers[0]
    tt = prof.t_layers[0]
    u_sym = u + u[::-1]          # odd part cancels pairwise on a uniform grid
    assert np.abs(u_sym).max() < 1e-4 * np.abs(u).max()
    mid = np.argmax(np.abs(tt))
    assert abs(z[mid] - t / 2) < 0.02 * t


# -- strain_energy -----------------------------------------------------------

def test_single_layer_eta_is_one():
    stack = plate(make_piezo(), 250e-9)
    (part,) = strain_energy(stack, 16e9)
    assert part.eta == 1.0
    assert part.total > 0
    assert len(part.per_layer) == 1


def test_eta_rises_as_electrodes_thin(nominal):
    from bawkit import find_modes
    etas = []
    for ratio in (0.2, 0.1, 0.05):
        stack = nominal.with_layer_thickness(0, ratio * 250e-9)
        stack = stack.with_layer_thickness(2, ratio * 250e-9)
        band = FrequencyGrid(8e9, 16e9, 1201)
        mode = find_modes(stack, band, 1)[0]
        etas.append(mode.eta)
    assert etas[0] < etas[1] < etas[2] < 1.0


def test_energy_partition_matches_dense_quadrature(nominal):
    """Closed-form per-layer energies vs 1024-node Gauss-Legendre of the
    field profile's amplitudes, from a batched call and from one call
    per frequency."""
    freqs = np.array([5.0e9, 13.0e9, 21.0e9])
    batched = strain_energy(nominal, freqs)
    assert len(batched) == freqs.size
    for f, batch_part in zip(freqs, batched):
        reference = quadrature_energies(nominal, f)
        (single,) = strain_energy(nominal, float(f))
        assert single == batch_part
        # the energies are ~1e-18 J, so approx's default abs tolerance
        # would accept anything
        for u_i, u_closed in zip(reference, batch_part.per_layer):
            assert u_i == pytest.approx(u_closed, rel=1e-10, abs=0)
        assert sum(batch_part.per_layer) == pytest.approx(
            batch_part.total, rel=1e-12, abs=0)
        assert batch_part.per_layer[1] / batch_part.total == pytest.approx(
            batch_part.eta, rel=1e-12)


def test_strain_energy_rejects_nonpositive_frequency(nominal):
    for f in (0.0, -5e9, [5e9, 0.0]):
        with pytest.raises(ConfigError, match="must be > 0"):
            strain_energy(nominal, f)


def test_no_excitation_error():
    pz = make_piezo(e33=0.0)
    stack = plate(pz, 250e-9)
    with pytest.raises(PhysicsError, match="no acoustic excitation"):
        strain_energy(stack, 10e9)


@pytest.mark.parametrize("kernel", [admittance_bvp, admittance_mason])
def test_layer_too_thick_for_doubles_is_a_config_error(nominal, kernel):
    """A layer whose attenuation leaves the double range is named in a
    ConfigError, with no numpy warning (the suite makes those errors)."""
    ip = nominal.piezo_index
    thick = (nominal.with_layer_thickness(ip - 1, 0.25)
             .with_layer_thickness(ip + 1, 0.25))
    with pytest.raises(ConfigError,
                       match=r"layer 0 \(pt, 0\.25 m\).*too thick"):
        kernel(thick, np.array([13e9, 1.5e9]))
    with pytest.raises(ConfigError, match="too thick"):
        kernel(thick, 1.5e9 + 1e3j)
