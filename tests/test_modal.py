"""Mode detection, keff2, Qm mixing, design estimator."""

import csv
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bawkit import (ConfigError, FrequencyGrid, ModeSearchError,
                    admittance_bvp, admittance_mason,
                    calibrate_piezo_stiffness, derive_constants,
                    estimate_frequency, estimate_thickness, export_modes_csv,
                    find_modes, keff2, modal, mode_count, qm_from_partition)
from bawkit.acoustic1d import EnergyPartition, _open_circuit_modes
from bawkit.materials import Layer, Stack

from conftest import (AREA_30UM, CAL_BAND, make_metal, make_piezo, plate,
                      quadrature_energies, random_stack)

# high-precision evaluation of the 12.8/13.2 GHz pair, frozen
KEFF2_IEEE_PIN = 0.07255878919834874


# -- keff2 -------------------------------------------------------------------

def test_keff2_ieee_pin_and_bracket():
    fs, fp = 12.8e9, 13.2e9
    val = keff2(fs, fp)
    assert val == pytest.approx(KEFF2_IEEE_PIN, rel=5e-15)
    # pi^2 / 8 times the separation (fp^2 - fs^2) / fp^2 bounds it above
    sep = (fp * fp - fs * fs) / (fp * fp)
    assert val < sep * (math.pi ** 2 / 8.0)


def test_keff2_degenerate_limit():
    assert keff2(13e9, 13e9) == 0.0
    assert keff2(13e9, 13e9 * (1 + 1e-12)) < 1e-11


def test_keff2_rejects_bad_pairs():
    with pytest.raises(ConfigError):
        keff2(13.2e9, 12.8e9)
    with pytest.raises(ConfigError):
        keff2(0.0, 13.2e9)


@given(r1=st.floats(min_value=1.001, max_value=1.8),
       r2=st.floats(min_value=1.001, max_value=1.8))
def test_keff2_increases_with_fp(r1, r2):
    fs = 10e9
    lo, hi = sorted((r1, r2))
    if fs * lo == fs * hi:
        return  # distinct ratios can round to the same fp
    assert keff2(fs, fs * lo) < keff2(fs, fs * hi)


# -- qm_from_partition -------------------------------------------------------

def _three_layer(q_piezo=2000.0, q_metal=200.0, lossless_metal=False):
    met = make_metal(q_mech=q_metal, lossless=lossless_metal)
    pz = make_piezo(q_mech=q_piezo)
    return Stack(layers=(Layer(met, 240e-9, "electrode"),
                         Layer(pz, 250e-9, "piezo"),
                         Layer(met, 160e-9, "electrode")),
                 area=AREA_30UM)


def _partition(stack, shares):
    shares = tuple(float(s) for s in shares)
    total = sum(shares)
    pi = stack.piezo_index
    return EnergyPartition(per_layer=shares, total=total,
                           eta=shares[pi] / total)


def test_qm_endpoints_exact():
    stack = _three_layer()
    assert qm_from_partition(_partition(stack, (0, 1, 0)), stack) == 2000.0
    assert qm_from_partition(_partition(stack, (0.5, 0, 0.5)), stack) == 200.0


def test_qm_half_split_value():
    stack = _three_layer()
    qm = qm_from_partition(_partition(stack, (0.25, 0.5, 0.25)), stack)
    assert qm == pytest.approx(4000.0 / 11.0, rel=1e-9)
    assert qm == pytest.approx(363.63636363636365, rel=1e-9)


def test_qm_two_bucket_reduction():
    # with one shared metal Q the general mix collapses to the two-bucket form
    stack = _three_layer(q_piezo=1700.0, q_metal=140.0)
    for eta in (0.1, 0.37, 0.82):
        part = _partition(stack, (0.6 * (1 - eta), eta, 0.4 * (1 - eta)))
        expected = 1.0 / (eta / 1700.0 + (1 - eta) / 140.0)
        assert qm_from_partition(part, stack) == pytest.approx(expected,
                                                               rel=1e-12)


def test_qm_harmonic_bounds_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        qs = rng.uniform(50, 5000, size=3)
        met0 = make_metal(name="m0", q_mech=float(qs[0]))
        pz = make_piezo(q_mech=float(qs[1]))
        met2 = make_metal(name="m2", q_mech=float(qs[2]))
        stack = Stack(layers=(Layer(met0, 1e-7, "electrode"),
                              Layer(pz, 1e-7, "piezo"),
                              Layer(met2, 1e-7, "electrode")),
                      area=AREA_30UM)
        shares = rng.uniform(0.0, 1.0, size=3)
        if shares.sum() == 0:
            continue
        qm = qm_from_partition(_partition(stack, shares), stack)
        assert qs.min() - 1e-9 <= qm <= qs.max() + 1e-9


def test_qm_ignores_lossless_layers():
    stack = _three_layer(lossless_metal=True)
    part = _partition(stack, (0.25, 0.5, 0.25))
    # only the piezo share dissipates: Qm = q_piezo / eta
    assert qm_from_partition(part, stack) == pytest.approx(2000.0 / 0.5,
                                                           rel=1e-12)


def test_qm_rejects_degenerate_partitions():
    stack = _three_layer()
    with pytest.raises(ConfigError):
        qm_from_partition(EnergyPartition(per_layer=(0.0, 0.0, 0.0),
                                          total=0.0, eta=0.0), stack)
    with pytest.raises(ConfigError):
        qm_from_partition(EnergyPartition(per_layer=(1.0,), total=1.0,
                                          eta=1.0), stack)


# -- estimators --------------------------------------------------------------

def test_estimate_examples():
    assert estimate_frequency(1, 10000.0, 500e-9) == 10e9
    assert estimate_frequency(2, 8450.0, 650e-9) == pytest.approx(13.0e9,
                                                                  rel=1e-12)
    assert estimate_thickness(2, 8450.0, 13.0e9) == pytest.approx(650e-9,
                                                                  rel=1e-12)


def test_estimate_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        estimate_frequency(0, 10000.0, 500e-9)
    with pytest.raises(ConfigError):
        estimate_frequency(1, -1.0, 500e-9)
    with pytest.raises(ConfigError):
        estimate_thickness(1, 10000.0, 0.0)


@given(n=st.integers(min_value=1, max_value=9),
       v=st.floats(min_value=1e2, max_value=1e5),
       t=st.floats(min_value=1e-9, max_value=1e-5))
def test_estimate_round_trip(n, v, t):
    f = estimate_frequency(n, v, t)
    assert estimate_thickness(n, v, f) == pytest.approx(t, rel=1e-15)


# -- find_modes --------------------------------------------------------------

def test_bare_plate_single_mode_antiresonance():
    pz = make_piezo(q_mech=1e5)
    stack = plate(pz, 250e-9)
    band = FrequencyGrid(14e9, 20e9, 1201)
    modes = find_modes(stack, band, 5)
    assert len(modes) == 1
    target = pz.v_d / (2 * 250e-9)
    assert abs(modes[0].fp - target) / target < 1e-6
    assert modes[0].fs < modes[0].fp
    assert modes[0].eta == 1.0


def test_bare_plate_overtones_are_odd():
    pz = make_piezo(q_mech=1e5)
    stack = plate(pz, 250e-9)
    f0 = pz.v_d / (2 * 250e-9)
    modes = find_modes(stack, FrequencyGrid(10e9, 100e9, 3001), 3)
    assert len(modes) == 3
    for mode, n in zip(modes, (1, 3, 5)):
        assert abs(mode.fp - n * f0) / (n * f0) < 1e-6
    # the even overtones cannot be driven, but they keep their numbers
    assert [m.mode_number for m in modes] == [0, 2, 4]


def test_antiresonance_sharpens_toward_lossless_plate():
    t = 250e-9
    errs = []
    for q in (1e2, 1e5, 1e7):
        pz = make_piezo(q_mech=q)
        target = pz.v_d / (2 * t)
        mode = find_modes(plate(pz, t), FrequencyGrid(13e9, 21e9, 1601), 1)[0]
        errs.append(abs(mode.fp - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 1e-6


def test_no_resonance_in_band():
    stack = plate(make_piezo(q_mech=1e4), 250e-9)
    with pytest.raises(ModeSearchError, match="no resonance found"):
        find_modes(stack, FrequencyGrid(2e9, 8e9, 601), 3)


def test_trailing_mode_without_fp_is_dropped():
    pz = make_piezo(q_mech=1e4)
    stack = plate(pz, 250e-9)
    f0 = pz.v_d / (2 * 250e-9)
    # band covers mode-1 fully but cuts mode-3 between its fs and fp
    band = FrequencyGrid(14e9, 2.99 * f0, 2001)
    modes = find_modes(stack, band, 3)
    assert len(modes) == 1


def test_mode_list_invariants(calibrated_stack):
    modes = find_modes(calibrated_stack, CAL_BAND, 3)
    assert len(modes) == 3
    assert [m.mode_index for m in modes] == [0, 1, 2]
    assert modes[0].fs == pytest.approx(4.9e9, rel=1e-8)
    for m in modes:
        assert m.fs < m.fp
        assert 0 < m.keff2 < 1
        assert 0 < m.eta < 1
        assert 200.0 <= m.qm <= 2000.0
        assert m.fom == m.keff2 * m.qm
        assert not m.coupling_null
    assert [m.mode_number for m in modes] == [0, 1, 2]
    assert modes[0].fs < modes[1].fs < modes[2].fs


def test_extrema_verified_by_local_sampling(calibrated_stack):
    for m in find_modes(calibrated_stack, CAL_BAND, 3):
        g = admittance_bvp(calibrated_stack,
                           np.array([m.fs * 0.999, m.fs, m.fs * 1.001]))
        assert g[1].real > g[0].real and g[1].real > g[2].real
        mag = np.abs(admittance_bvp(
            calibrated_stack, np.array([m.fp * 0.999, m.fp, m.fp * 1.001])))
        assert mag[1] < mag[0] and mag[1] < mag[2]


def test_refinement_tolerance_stability(calibrated_stack):
    coarse = find_modes(calibrated_stack, CAL_BAND, 3, refine_tol=1e-9)
    fine = find_modes(calibrated_stack, CAL_BAND, 3, refine_tol=1e-11)
    for a, b in zip(coarse, fine):
        assert abs(a.fs - b.fs) / b.fs < 1e-8
        assert abs(a.fp - b.fp) / b.fp < 1e-8


@pytest.mark.parametrize("backend", ["bvp", "mason"])
def test_refinement_call_budget(nominal, monkeypatch, backend):
    name = f"admittance_{backend}"
    kernel = getattr(modal, name)
    calls = []

    def counting(stack, f):
        calls.append(np.ndim(f))
        return kernel(stack, f)

    monkeypatch.setattr(modal, name, counting)
    modes = find_modes(nominal, FrequencyGrid(1.5e9, 34e9, 2201), 3,
                       backend=backend)
    assert len(modes) == 3
    assert 0 not in calls, "scalar kernel call"
    # the seed circles and one root pass
    assert len(calls) <= 2


@pytest.mark.parametrize("backend", ["bvp", "mason"])
def test_default_tolerance_matches_tight_refinement(calibrated_stack,
                                                    backend):
    """fs and fp converge as roots: the default tolerance already gives
    them to 1e-13, and a zero tolerance ends at the pass cap."""
    results = [find_modes(calibrated_stack, CAL_BAND, 3, backend=backend,
                          refine_tol=tol) for tol in (1e-13, 1e-9, 1e-11, 0.0)]
    assert [len(r) for r in results] == [3, 3, 3, 3]
    tight, *others = results
    for modes in others:
        for a, b in zip(modes, tight):
            assert a.fs == pytest.approx(b.fs, rel=1e-13, abs=0)
            assert a.fp == pytest.approx(b.fp, rel=1e-13, abs=0)


@pytest.mark.parametrize("attr, values", [
    ("_CIRCLE_RADIUS", [3e-6, 1e-5, 1e-4]),
    ("_CIRCLE_POINTS", [8, 12, 24, 32, 48]),
])
def test_roots_do_not_depend_on_the_circle(calibrated_stack, monkeypatch,
                                           attr, values):
    reference = find_modes(calibrated_stack, CAL_BAND, 3)
    for value in values:
        monkeypatch.setattr(modal, attr, value)
        modes = find_modes(calibrated_stack, CAL_BAND, 3)
        assert len(modes) == 3
        for a, b in zip(modes, reference):
            assert a.fs == pytest.approx(b.fs, rel=1e-12, abs=0), value
            assert a.fp == pytest.approx(b.fp, rel=1e-12, abs=0), value


def test_circle_derivative_matches_central_difference(calibrated_stack):
    """Y' from the circle agrees with a central difference to within the
    difference's own error, estimated from a step and its half."""
    evaluate = functools.partial(admittance_bvp, calibrated_stack)
    modes = find_modes(calibrated_stack, CAL_BAND, 3)
    for f in (modes[0].fs, modes[0].fp, 7e9, modes[2].fp):
        r = modal._CIRCLE_RADIUS * f
        coef = modal._circle_taylor(evaluate, np.array([f]), np.array([r]))
        slope = coef[0, 1] / r

        def central(h):
            return (evaluate(f + h) - evaluate(f - h)) / (2.0 * h)

        h = 1e-5 * f
        coarse, fine = central(h), central(h / 2)
        # the O(h^2) error of the finer difference is about a third of
        # the change from h to h / 2; 1e-10 allows for its rounding
        truncation = abs(coarse - fine) / 3.0
        rounding = 1e-10 * abs(slope)
        assert abs(slope - fine) <= 1.5 * truncation + rounding
        # Richardson's extrapolation cancels that error term
        richardson = (4.0 * fine - coarse) / 3.0
        assert abs(slope - richardson) <= 0.1 * truncation + rounding


def test_circle_taylor_matches_mpmath_derivatives():
    """The circle's Taylor coefficients of a bare plate's admittance match
    mpmath's 40-digit derivatives of its closed form Y = j w C0 / (1 -
    kt2 tan(theta/2) / (theta/2)), at fs, at fp and off resonance."""
    mpmath = pytest.importorskip("mpmath")
    pz = make_piezo(q_mech=300.0, tan_delta=1e-3)
    t = 250e-9
    stack = plate(pz, t)
    dc = derive_constants(stack)
    evaluate = functools.partial(admittance_bvp, stack)
    with mpmath.workdps(40):
        c_star = mpmath.mpc(dc.c_star[0])
        v_star = mpmath.sqrt(c_star / pz.density)
        kt2 = pz.e33 * dc.h_piezo / c_star
        c0 = mpmath.mpc(dc.c0)

        def y(f):
            half = mpmath.pi * f * t / v_star
            return 2j * mpmath.pi * f * c0 / (1 - kt2 * mpmath.tan(half) / half)

        mode = find_modes(stack, FrequencyGrid(14e9, 20e9, 2), 1)[0]
        for f in (mode.fs, mode.fp, 11e9):
            r = modal._CIRCLE_RADIUS * f
            coef = modal._circle_taylor(evaluate, np.array([f]),
                                        np.array([r]))[0]
            exact = [complex(c) * r ** m for m, c in
                     enumerate(mpmath.taylor(y, mpmath.mpf(f), 3))]
            # Y' itself to 1e-10, and every coefficient to the kernel's
            # own rounding, 1e-12 of Y
            assert abs(exact[1] - coef[1]) <= 1e-10 * abs(exact[1]), f
            for m in range(4):
                assert abs(exact[m] - coef[m]) <= 1e-12 * abs(coef[0]), (f, m)


def test_backends_agree_to_rounding_on_thick_electrodes(calibrated_stack):
    """The map's corner cell, both electrodes at 2 x t_piezo: fs and fp
    are roots, so the two kernels put them equally to 1e-13."""
    t = 2.0 * calibrated_stack.t_piezo
    stack = (calibrated_stack.with_layer_thickness(0, t)
             .with_layer_thickness(2, t))
    band = FrequencyGrid(1.5e9, 34e9, 2201)
    bvp = find_modes(stack, band, 3)
    mason = find_modes(stack, band, 3, backend="mason")
    assert len(bvp) == len(mason) == 3
    for a, b in zip(bvp, mason):
        assert a.fs == pytest.approx(b.fs, rel=1e-13, abs=0)
        assert a.fp == pytest.approx(b.fp, rel=1e-13, abs=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       tan_delta=st.sampled_from([0.0, 1e-3]),
       backend=st.sampled_from(["bvp", "mason"]))
@example(seed=0, tan_delta=0.0, backend="bvp")
def test_mode_energies_match_profile_energies(seed, tan_delta, backend):
    """find_modes grades every mode from one batched closed-form energy
    call; each eta and Qm matches 1024-node Gauss-Legendre quadrature of
    that mode's own field profile."""
    stack = random_stack(np.random.default_rng(seed), tan_delta=tan_delta)
    try:
        modes = find_modes(stack, FrequencyGrid(0.5e9, 40e9, 2001), 4,
                           backend=backend)
    except ModeSearchError:
        assume(False)
    for m in modes:
        per_layer = quadrature_energies(stack, m.fs)
        total = sum(per_layer)
        part = EnergyPartition(per_layer=tuple(per_layer), total=total,
                               eta=per_layer[stack.piezo_index] / total)
        assert m.eta == pytest.approx(part.eta, rel=1e-10)
        assert m.qm == pytest.approx(qm_from_partition(part, stack),
                                     rel=1e-10)


def test_find_modes_backend_choice(calibrated_stack):
    bvp = find_modes(calibrated_stack, CAL_BAND, 1)
    mason = find_modes(calibrated_stack, CAL_BAND, 1, backend="mason")
    assert abs(bvp[0].fs - mason[0].fs) / bvp[0].fs < 1e-9


def test_modes_csv_round_trip(calibrated_stack, tmp_path):
    """The mode column is the physical mode number: a band above the
    fundamental starts at mode 1, not 0."""
    path = tmp_path / "modes.csv"
    for band, n_modes, numbers in ((CAL_BAND, 2, [0, 1]),
                                   (FrequencyGrid(7e9, 20e9, 1301), 3,
                                    [1, 2, 3])):
        modes = find_modes(calibrated_stack, band, n_modes)
        export_modes_csv(modes, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "fs_hz", "fp_hz", "keff2", "eta", "qm",
                           "fom", "coupling_null"]
        assert [int(row[0]) for row in rows[1:]] == numbers
        for row, m in zip(rows[1:], modes, strict=True):
            assert row[1:] == ["%.17g" % v for v in (
                m.fs, m.fp, m.keff2, m.eta, m.qm, m.fom)] + [
                str(int(m.coupling_null))]


# -- calibration -------------------------------------------------------------

def test_calibration_hits_target(calibrated):
    stack, scale = calibrated
    assert 0.5 < scale < 2.0
    mode = find_modes(stack, CAL_BAND, 1)[0]
    assert abs(mode.fs - 4.9e9) / 4.9e9 < 1e-8


# fundamentals 4.5-5.3 GHz, scales about 0.69-1.22 on the nominal stack
CALIBRATION_TARGETS_HZ = [4.5e9 + 0.1e9 * k for k in range(9)]


def counted(monkeypatch, name):
    """Replace modal's function name by one that records each call."""
    original = getattr(modal, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(modal, name, counting)
    return calls


def test_calibration_call_budget(nominal, monkeypatch):
    """Each trial scale costs one fs-only search and no find_modes call,
    the search starts from two open-circuit predictions, and it stops once
    fs is within half the refinement tolerance of the target."""
    calls = counted(monkeypatch, "_lowest_fs")
    kernel_calls = counted(monkeypatch, "admittance_bvp")
    predictions = counted(monkeypatch, "_mode0_estimate")

    def forbidden(*args, **kwargs):
        raise AssertionError("calibration called find_modes")

    monkeypatch.setattr(modal, "find_modes", forbidden)
    for target in CALIBRATION_TARGETS_HZ:
        calls.clear()
        kernel_calls.clear()
        predictions.clear()
        stack, _ = calibrate_piezo_stiffness(nominal, target_fs=target,
                                             band=CAL_BAND)
        assert len(calls) <= 5, (target, len(calls))
        assert len(predictions) <= 2, (target, len(predictions))
        if target == 4.9e9:
            assert (len(calls), len(kernel_calls)) == (4, 8)
        fs = find_modes(stack, CAL_BAND, 1)[0].fs
        assert abs(fs - target) <= 5e-10 * target, (target, fs)


def test_calibration_without_a_prediction_starts_from_the_stack(
        nominal, monkeypatch):
    """With no open-circuit estimate of mode 0, the first trial is the
    stack as given and the second follows the bare-plate law fs ~
    sqrt(c33e)."""
    monkeypatch.setattr(modal, "_mode0_estimate", lambda stack, f_max: None)
    search = modal._lowest_fs
    c33e = nominal.layers[nominal.piezo_index].material.c33e
    trials = []

    def recording(stack, band):
        fs = search(stack, band)
        trials.append((stack.layers[stack.piezo_index].material.c33e / c33e,
                       fs))
        return fs

    monkeypatch.setattr(modal, "_lowest_fs", recording)
    stack, _ = calibrate_piezo_stiffness(nominal, target_fs=4.9e9,
                                         band=CAL_BAND)
    assert trials[0][0] == 1.0
    assert trials[1][0] == pytest.approx((4.9e9 / trials[0][1]) ** 2,
                                         rel=1e-12)
    assert len(trials) <= 6, trials
    fs = find_modes(stack, CAL_BAND, 1)[0].fs
    assert abs(fs - 4.9e9) <= 5e-10 * 4.9e9, fs


def test_calibration_scales_only_piezo_stiffness(nominal, calibrated):
    stack, scale = calibrated
    for lay, ref in zip(stack.layers, nominal.layers):
        assert lay.thickness == ref.thickness
        if lay.role == "piezo":
            assert lay.material.c33e == pytest.approx(
                ref.material.c33e * scale, rel=1e-12)
            assert lay.material.e33 == ref.material.e33
        else:
            assert lay.material.c33e == ref.material.c33e


def test_calibration_rejects_unreachable_target(nominal, monkeypatch):
    """A target beyond every scale in [0.5, 2] costs at most two searches,
    and the error quotes an fs that a search produced."""
    calls = counted(monkeypatch, "_lowest_fs")
    with pytest.raises(ConfigError, match="^target fs = 4e.10 Hz not "
                       "reachable: scale 2, .* puts mode 0 at 5.8"):
        calibrate_piezo_stiffness(nominal, target_fs=40e9,
                                  band=FrequencyGrid(3e9, 15e9, 601))
    assert len(calls) <= 2, len(calls)


def test_calibration_tries_an_end_within_twice_its_step(nominal,
                                                       monkeypatch):
    """Pt 50 / AlSiCu 350 nm needs a scale just above 2 for 4.9 GHz: the
    first trial (scale 1.71) falls short, and the Newton step from it
    covers more than half the way to 2, so the second trial is 2 itself,
    which shows the target out of reach."""
    stack = (nominal.with_layer_thickness(0, 50e-9)
             .with_layer_thickness(2, 350e-9))
    calls = counted(monkeypatch, "_lowest_fs")
    with pytest.raises(ConfigError, match="not reachable: scale 2,"):
        calibrate_piezo_stiffness(stack, target_fs=4.9e9, band=CAL_BAND)
    assert len(calls) == 2


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -4.9e9])
def test_calibration_rejects_a_target_before_searching(nominal, monkeypatch,
                                                       target):
    def forbidden(*args, **kwargs):
        raise AssertionError("calibration searched for mode 0")

    monkeypatch.setattr(modal, "_lowest_fs", forbidden)
    with pytest.raises(ConfigError, match="finite and > 0"):
        calibrate_piezo_stiffness(nominal, target_fs=target, band=CAL_BAND)


def test_calibration_reaches_a_target_near_the_band_edge(nominal):
    """Mode 0 stays in a band starting just below the target: no trial
    moves it below 4.5 GHz."""
    band = FrequencyGrid(4.5e9, 15e9, 601)
    stack, _ = calibrate_piezo_stiffness(nominal, target_fs=4.6e9, band=band)
    fs = find_modes(stack, band, 1)[0].fs
    assert abs(fs - 4.6e9) <= 5e-10 * 4.6e9, fs


def test_calibration_needs_mode_0_in_band_only_at_its_trials(nominal):
    """The nominal stack puts mode 0 at 5.04 GHz, below a 5.6-15 GHz band;
    the search starts at the scale the open-circuit count predicts, where
    mode 0 lies in the band."""
    band = FrequencyGrid(5.6e9, 15e9, 601)
    stack, scale = calibrate_piezo_stiffness(nominal, target_fs=5.7e9,
                                             band=band)
    assert 0.5 < scale < 2.0
    fs = find_modes(stack, band, 1)[0].fs
    assert abs(fs - 5.7e9) <= 5e-10 * 5.7e9, fs


# -- physical mode numbers ---------------------------------------------------

def open_circuit_residual(stack, freqs):
    """Top boundary residual of the lossless open-circuit stack, by 2x2
    transfer matrices of displacement and stress: zero exactly at its
    eigenfrequencies, and sharing no code with the Pruefer count."""
    omega = 2 * math.pi * freqs
    free = stack.boundary_bottom == "free"
    u = np.full(freqs.shape, 1.0 if free else 0.0)
    stress = np.full(freqs.shape, 0.0 if free else 1.0)
    for lay in stack.layers:
        mat = lay.material
        c = mat.c33d if lay.role == "piezo" else mat.c33e
        v = math.sqrt(c / mat.density)
        zw = mat.density * v * omega
        th = omega * lay.thickness / v
        u, stress = (u * np.cos(th) + stress * np.sin(th) / zw,
                     stress * np.cos(th) - u * zw * np.sin(th))
    return stress if stack.boundary_top == "free" else u


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(seed=0)
def test_mode_count_matches_dense_root_scan(seed):
    """The Pruefer phase numbers the lossless open-circuit eigenfrequencies
    of random stacks, free and rigid ends alike, exactly as the sign
    changes of a dense scan of their boundary residual do."""
    stack = random_stack(np.random.default_rng(seed))
    freqs = np.linspace(1e6, 40e9, 80001)
    res = open_circuit_residual(stack, freqs)
    cross = np.flatnonzero(np.signbit(res[1:]) != np.signbit(res[:-1]))
    roots = list(_open_circuit_modes(stack, freqs[0], freqs[-1]))
    assert [n for n, _, _ in roots] == list(range(cross.size))
    for (_, f, _), i in zip(roots, cross):
        assert freqs[i] <= f <= freqs[i + 1]
    for k in range(0, freqs.size, 8000):
        assert mode_count(stack, freqs[k]) == np.count_nonzero(cross < k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(seed=0)
def test_lossless_fs_and_fp_interlace(seed):
    """The lossless fs (poles of Y) and fp (its zeros, the open-circuit
    roots of every coupled mode) interlace, free and rigid ends alike."""
    stack = random_stack(np.random.default_rng(seed))
    roots = [(f, w) for _, f, w in _open_circuit_modes(stack, 0.5e9, 40e9)
             if w >= modal._INERT_WEIGHT]
    assume(roots)
    fp, weight = (np.array(v) for v in zip(*roots))
    fs = modal._lossless_fs(stack, "bvp", fp, weight)
    assert np.all(fs < fp)
    assert np.all(fp[:-1] < fs[1:])
    # each fs is a pole of the lossless Y: Im(1/Y) changes sign across it
    lossless = modal._lossless(stack)
    step = 1e-3 * (fp - fs)
    below = (1 / admittance_bvp(lossless, fs - step)).imag
    above = (1 / admittance_bvp(lossless, fs + step)).imag
    assert np.all(np.sign(below) == -np.sign(above))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       tan_delta=st.sampled_from([0.0, 1e-3]))
@example(seed=0, tan_delta=0.0)
def test_backends_give_the_same_mode_list(seed, tan_delta):
    """BVP and Mason number the same modes and flag the same ones as
    coupling-null, and put their fs and fp together to 1e-9."""
    stack = random_stack(np.random.default_rng(seed), tan_delta=tan_delta)
    band = FrequencyGrid(0.5e9, 40e9, 2)
    try:
        bvp = find_modes(stack, band, 4)
    except ModeSearchError:
        with pytest.raises(ModeSearchError):
            find_modes(stack, band, 4, backend="mason")
        return
    mason = find_modes(stack, band, 4, backend="mason")
    assert ([(m.mode_number, m.coupling_null) for m in bvp]
            == [(m.mode_number, m.coupling_null) for m in mason])
    for a, b in zip(bvp, mason):
        assert a.fs == pytest.approx(b.fs, rel=1e-9, abs=0)
        assert a.fp == pytest.approx(b.fp, rel=1e-9, abs=0)


def test_bare_plate_coupling_weights():
    """A bare plate's n-th open-circuit mode has the coupling weight
    8 kt2 / (n pi)^2 when n is odd and none when it is even, free ends;
    clamped on both faces, the piezo cannot be driven at all."""
    pz = make_piezo()
    stack = plate(pz, 250e-9)
    modes = list(_open_circuit_modes(stack, 1e9, 100e9))
    assert [n for n, _, _ in modes] == [0, 1, 2, 3, 4]
    for n, _, weight in modes:
        if n % 2:
            assert weight < 1e-30
        else:
            want = 8 * pz.kt2_mat / ((n + 1) * math.pi) ** 2
            assert weight == pytest.approx(want, rel=1e-12)
    clamped = plate(pz, 250e-9, boundary_bottom="rigid", boundary_top="rigid")
    assert all(w < 1e-30 for _, _, w in _open_circuit_modes(clamped, 1e9,
                                                            100e9))


def test_coupling_null_mode_reports_its_lossless_pair(calibrated_stack,
                                                      monkeypatch):
    """With Pt 150 nm and AlSiCu 175 nm, mode 1 couples so weakly that
    |Y| has no minimum near it.  It is flagged, not dropped: fp is its
    open-circuit root, fs a pole of the lossless Y, keff2 from that pair.
    Telling that the minimum is missing takes no extra pass."""
    stack = (calibrated_stack.with_layer_thickness(0, 150e-9)
             .with_layer_thickness(2, 175e-9))
    band = FrequencyGrid(3e9, 16e9, 2)
    kernel = modal.admittance_bvp
    calls = []

    def counting(stack, f):
        calls.append(np.size(f))
        return kernel(stack, f)

    monkeypatch.setattr(modal, "admittance_bvp", counting)
    modes = find_modes(stack, band, 3)
    monkeypatch.undo()
    # the seed circles, two root passes and two lossless passes for fs
    assert len(calls) <= 5, calls
    assert [m.mode_number for m in modes] == [0, 1, 2]
    assert [m.coupling_null for m in modes] == [False, True, False]
    null = modes[1]
    roots = {n: f for n, f, _ in _open_circuit_modes(stack, 3e9, 16e9)}
    assert null.fp == roots[1]
    assert null.keff2 == keff2(null.fs, null.fp)
    assert 0 < null.keff2 < 1e-4
    lossless = modal._lossless(stack)
    step = 1e-3 * (null.fp - null.fs)
    y = admittance_mason(lossless, np.array([null.fs - step, null.fs + step]))
    assert np.sign((1 / y[0]).imag) == -np.sign((1 / y[1]).imag)
    # the lossy search finds no |Y| minimum between the modes around it
    f = np.linspace(modes[0].fp * 1.01, modes[2].fs * 0.99, 20001)
    mag = np.abs(admittance_bvp(stack, f))
    assert not np.any((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))


def test_mode_count_is_finite_or_config_error(nominal):
    assert mode_count(nominal, 1e9) == 0
    assert mode_count(nominal, 34e9) == len(
        list(_open_circuit_modes(nominal, 1e6, 34e9)))
    huge = nominal.with_layer_thickness(0, 1e305)
    with pytest.raises(ConfigError, match="not finite"):
        mode_count(huge, 34e9)
    with pytest.raises(ConfigError, match="not finite"):
        find_modes(huge, FrequencyGrid(1.5e9, 34e9, 2), 3)


def test_inert_band_raises_instead_of_walking_it(nominal):
    """A 250 m top layer puts billions of open-circuit roots in the band,
    none of them coupled: the walk stops after _MAX_INERT_ROOTS of them
    and names the count, instead of walking them all."""
    stack = nominal.with_layer_thickness(2, 250.0)
    band = FrequencyGrid(1.5e9, 34e9, 2201)
    with pytest.raises(ModeSearchError, match=r"holds \d{10} open-circuit "
                       r"roots, and 1000 of the lowest"):
        find_modes(stack, band, 3)


@pytest.mark.parametrize("thickness", [10e-6, 100e-6])
def test_passive_substrate_solves(nominal, thickness):
    """A silicon substrate under the nominal stack puts tens to hundreds
    of coupled roots in the band; its lowest modes still solve."""
    si = make_metal(name="si", density=2330.0, c33e=165.7e9, q_mech=5000.0)
    stack = Stack(layers=(Layer(si, thickness, "passive"),) + nominal.layers,
                  area=nominal.area)
    band = FrequencyGrid(1.5e9, 34e9, 2201)
    modes = find_modes(stack, band, 3)
    numbers = [m.mode_number for m in modes]
    assert numbers == list(range(numbers[0], numbers[0] + 3))
    assert all(m.fp > m.fs > 1.5e9 for m in modes)
