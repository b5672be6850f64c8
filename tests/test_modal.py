"""Mode detection, keff2, Qm mixing, design estimator."""

import ast
import csv
import dataclasses
import functools
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bawkit import (ConfigError, FrequencyGrid, ModeSearchError, acoustic1d,
                    admittance_bvp, admittance_mason,
                    calibrate_piezo_stiffness, derive_constants,
                    estimate_frequency, estimate_thickness, export_modes_csv,
                    find_modes, keff2, modal, mode_count, qm_from_partition)
from bawkit.acoustic1d import EnergyPartition, SingularFrequencyError
from bawkit.materials import Layer, Stack, load_stack
from bawkit.modal import _open_circuit_modes

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


def test_qm_of_an_all_lossless_stack_is_infinite():
    met = make_metal(lossless=True)
    stack = Stack(layers=(Layer(met, 240e-9, "electrode"),
                          Layer(make_piezo(lossless=True), 250e-9, "piezo"),
                          Layer(met, 160e-9, "electrode")),
                  area=AREA_30UM)
    assert qm_from_partition(_partition(stack, (0.25, 0.5, 0.25)),
                             stack) == math.inf


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


def test_find_modes_rejects_an_unknown_backend(nominal):
    with pytest.raises(ConfigError, match="backend must be 'bvp' or 'mason'"):
        find_modes(nominal, CAL_BAND, 1, backend="x")


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


def test_calibration_refuses_a_mode_0_that_does_not_couple(nominal):
    """A piezo whose e33 is zeroed in memory drives no mode: calibration
    raises before any trial scale."""
    ip = nominal.piezo_index
    inert = dataclasses.replace(nominal.layers[ip].material, e33=0.0)
    stack = dataclasses.replace(nominal, layers=tuple(
        dataclasses.replace(lay, material=inert) if i == ip else lay
        for i, lay in enumerate(nominal.layers)))
    with pytest.raises(ModeSearchError) as err:
        calibrate_piezo_stiffness(stack, 4.9e9, CAL_BAND)
    assert str(err.value) == "mode 0 does not couple to the electrodes"


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


def test_nominal_calibration_calls_the_kernel_through_modal(nominal,
                                                           monkeypatch):
    """The nominal 4.9 GHz calibration makes its 4 searches and all 8 of
    its kernel calls through modal's own name admittance_bvp, so a wrapper
    put there (as perfbench's tracer does) sees every one, and the scale
    is the one pinned before the search was made faster."""
    searches = counted(monkeypatch, "_lowest_fs")
    kernel_calls = counted(monkeypatch, "admittance_bvp")
    _, scale = calibrate_piezo_stiffness(nominal, 4.9e9, CAL_BAND)
    assert (len(searches), len(kernel_calls)) == (4, 8)
    assert scale == 0.9047306810758784


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
    and the error quotes an fs that a search produced, also over a band
    whose top lies below mode 0 at every scale."""
    calls = counted(monkeypatch, "_lowest_fs")
    for f_max in (15e9, 4e9):
        calls.clear()
        with pytest.raises(ConfigError, match="^target fs = 4e.10 Hz not "
                           "reachable: scale 2, .* puts mode 0 at 5.8"):
            calibrate_piezo_stiffness(nominal, target_fs=40e9,
                                      band=FrequencyGrid(3e9, f_max, 601))
        assert len(calls) <= 2, (f_max, len(calls))


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
    the search walks mode 0 to a limit the stack sets, and only the
    calibrated stack must hold it in the band."""
    band = FrequencyGrid(5.6e9, 15e9, 601)
    stack, scale = calibrate_piezo_stiffness(nominal, target_fs=5.7e9,
                                             band=band)
    assert 0.5 < scale < 2.0
    fs = find_modes(stack, band, 1)[0].fs
    assert abs(fs - 5.7e9) <= 5e-10 * 5.7e9, fs


def test_calibration_probes_the_slope_above_the_band_top(nominal):
    """Mode 0's open-circuit root lies at 5.246 GHz on the nominal stack,
    just below a 5.25 GHz top.  The slope probe at scale e^0.01 moves it
    above that top; only the calibrated stack must keep it below."""
    band = FrequencyGrid(3e9, 5.25e9, 101)
    stack, _ = calibrate_piezo_stiffness(nominal, target_fs=4.6e9, band=band)
    fs = find_modes(stack, band, 1)[0].fs
    assert abs(fs - 4.6e9) <= 5e-10 * 4.6e9, fs


def test_calibration_starts_above_the_band_top(nominal):
    """Mode 0's open-circuit root at 5.246 GHz lies above a 5.1 GHz top on
    the stack as given; scale 0.7351 moves it to 4.90 GHz and its fs to
    the 4.6 GHz target."""
    band = FrequencyGrid(3e9, 5.1e9, 101)
    stack, scale = calibrate_piezo_stiffness(nominal, target_fs=4.6e9,
                                             band=band)
    assert scale == pytest.approx(0.7351, abs=1e-4)
    mode = find_modes(stack, band, 1)[0]
    assert mode.mode_number == 0
    assert abs(mode.fs - 4.6e9) <= 5e-10 * 4.6e9, mode.fs


def test_calibration_needs_the_calibrated_mode_0_below_the_band_top(
        nominal):
    """4.9 GHz calibrates, but puts mode 0's root above a 4 GHz top."""
    with pytest.raises(ModeSearchError, match="^mode 0 lies above 4e.09 Hz$"):
        calibrate_piezo_stiffness(nominal, target_fs=4.9e9,
                                  band=FrequencyGrid(3e9, 4e9, 101))


def test_calibration_checks_the_band_on_the_trial_it_returns(nominal,
                                                             monkeypatch):
    """A bracket that can no longer be split returns the trial nearest
    the target, here the first; the band's top is checked against the
    open-circuit root that trial found, which may lie on it."""
    monkeypatch.setattr(modal, "_next_trial", lambda *args: None)
    stack, _ = calibrate_piezo_stiffness(nominal, 4.9e9, CAL_BAND)
    root = modal._mode0_root(stack)[1]
    calls = counted(monkeypatch, "_lowest_fs")
    calibrate_piezo_stiffness(nominal, 4.9e9, FrequencyGrid(3e9, root, 2))
    with pytest.raises(ModeSearchError, match="^mode 0 lies above"):
        calibrate_piezo_stiffness(nominal, 4.9e9, FrequencyGrid(
            3e9, math.nextafter(root, 0.0), 2))
    assert len(calls) == 2


def test_calibration_over_the_electrode_scan(nominal):
    """README's scan of Pt and AlSiCu 50-500 nm (25 nm steps) at 4.9 GHz
    over 3-15 GHz: 84 pairs calibrate, and every other one is out of
    reach, a ConfigError that quotes an end's fs.  Mode 0 is counted from
    0 Hz, so a trial that moves it below 3 GHz is still searched."""
    calibrated = unreachable = 0
    for t_pt, t_al in itertools.product(range(50, 501, 25), repeat=2):
        stack = (nominal.with_layer_thickness(0, t_pt * 1e-9)
                 .with_layer_thickness(2, t_al * 1e-9))
        try:
            stack, _ = calibrate_piezo_stiffness(stack, 4.9e9, CAL_BAND)
        except ConfigError as exc:
            assert "not reachable" in str(exc), (t_pt, t_al)
            unreachable += 1
            continue
        mode = find_modes(stack, CAL_BAND, 1)[0]
        assert mode.mode_number == 0
        assert abs(mode.fs - 4.9e9) <= 5e-10 * 4.9e9, (t_pt, t_al, mode.fs)
        calibrated += 1
    assert (calibrated, unreachable) == (84, 277)


LOG_SCALE_MIN, LOG_SCALE_MAX = math.log(0.5), math.log(2.0)


@pytest.mark.parametrize("trials, expected", [
    # above the target, and the Newton step covers half the way to the
    # low end or more: that end is tried next
    ([(0.0, 0.5)], LOG_SCALE_MIN),
    # the last two trials share their y, so no secant: the midpoint of
    # the bracket (-0.25, 0.25)
    ([(-0.25, -0.1), (0.5, 0.1), (0.25, 0.1)], 0.0),
    # a bracket one ulp wide has no midpoint inside it
    ([(0.25, -0.1), (math.nextafter(0.25, 1.0), 0.1)], None),
])
def test_next_trial_ends_midpoints_and_exhausted_brackets(trials, expected):
    assert modal._next_trial(trials, 0.5, LOG_SCALE_MIN,
                             LOG_SCALE_MAX) == expected


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


def mode0_bound(stack):
    """(L + 1) / (4 sum t/v) of an L-layer lossless open-circuit stack."""
    delay = 0.0
    for lay in stack.layers:
        mat = lay.material
        c = mat.c33d if lay.role == "piezo" else mat.c33e
        delay += lay.thickness / math.sqrt(c / mat.density)
    return (len(stack.layers) + 1) / (4.0 * delay)


def walked_mode0(stack):
    """Mode 0's root as _mode0_root walks to it, coupled or not, checked
    against the first sign change of a dense scan of the boundary
    residual and against mode0_bound; returns (f, bound)."""
    freqs = np.linspace(1e6, 40e9, 80001)
    res = open_circuit_residual(stack, freqs)
    i = np.flatnonzero(np.signbit(res[1:]) != np.signbit(res[:-1]))[0]
    with pytest.MonkeyPatch.context() as mp:
        # every root couples: the walk alone is under test
        mp.setattr(modal, "_INERT_WEIGHT", 0.0)
        number, f, _ = modal._mode0_root(stack)
    bound = mode0_bound(stack)
    assert number == 0
    assert freqs[i] <= f <= freqs[i + 1]
    assert f <= bound * (1.0 + 1e-12), (f, bound)
    return f, bound


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(seed=0)
def test_mode0_walk_ends_at_a_bound_the_stack_sets(seed):
    """Each interface moves the Pruefer phase by less than pi/2, so mode 0
    lies at or below (L + 1) / (4 sum t/v): the walk that stops at twice
    that, with no band, finds the first root of the dense scan."""
    walked_mode0(random_stack(np.random.default_rng(seed)))


@pytest.mark.parametrize("bottom, top", itertools.product(("free", "rigid"),
                                                          repeat=2))
def test_mode0_of_a_plate_meets_the_bound(bottom, top):
    """A plate's mode 0 is a half wave between like ends, on the bound
    2 / (4 t/v), and a quarter wave between unlike ones, half of it."""
    stack = plate(make_piezo(), 250e-9, boundary_bottom=bottom,
                  boundary_top=top)
    f, bound = walked_mode0(stack)
    share = 1.0 if bottom == top else 0.5
    assert f == pytest.approx(share * bound, rel=1e-12)


def test_mode0_root_is_mode_0_or_raises(nominal, monkeypatch):
    """A 10 km bottom electrode puts mode 0 below 1 Hz, where the walk
    starts, so the first root the walk meets is a higher mode: that is an
    error, even when every root counts as coupled."""
    monkeypatch.setattr(modal, "_INERT_WEIGHT", 0.0)
    stack = nominal.with_layer_thickness(0, 1e4)
    assert mode_count(stack, 1.0) > 0
    with pytest.raises(ModeSearchError, match="^mode 0 lies below 1 Hz$"):
        modal._mode0_root(stack)


def vanishing(stack, t):
    """The stack with every layer t thick."""
    for i in range(len(stack.layers)):
        stack = stack.with_layer_thickness(i, t)
    return stack


def test_band_of_a_vanishing_stack_holds_no_root(nominal):
    """With every layer 1e-300 m thick the phase at 3 GHz rounds to 0, an
    integer below the first root's: no root, so the band holds none."""
    stack = vanishing(nominal, 1e-300)
    assert list(_open_circuit_modes(stack, 3e9, 15e9)) == []
    with pytest.raises(ModeSearchError, match="no resonance found in band"):
        find_modes(stack, FrequencyGrid(3e9, 15e9, 101), 3)


def test_mode0_walk_of_a_vanishing_stack(nominal):
    """Calibration's walk from 1 Hz over 1e-300 m layers starts on a phase
    that rounds to 0 as well, and finds mode 0 1e291 times as high as over
    1e-9 m layers, with the same coupling weight."""
    number, f, weight = modal._mode0_root(vanishing(nominal, 1e-300))
    _, f_ref, w_ref = modal._mode0_root(vanishing(nominal, 1e-9))
    assert number == 0
    assert f == pytest.approx(f_ref * 1e291, rel=1e-12)
    assert weight == pytest.approx(w_ref, rel=1e-12)


def test_layer_crossed_in_0_s_is_named(nominal):
    """1e-320 m of AlSiCu takes a time that rounds to 0 s to cross: a
    ConfigError naming that layer, in the mode search and in calibration,
    and for a stack of such layers, which is too thin, not too thick."""
    band = FrequencyGrid(3e9, 15e9, 101)
    stack = nominal.with_layer_thickness(2, 1e-320)
    with pytest.raises(ConfigError, match="^layer 'alsicu': its transit "):
        find_modes(stack, band, 3)
    for stack in (stack, vanishing(nominal, 1e-320)):
        with pytest.raises(ConfigError, match=r"^layer '\w+': its transit "
                           r"time t / v = 1e-320 m / .* is 0\.0 s, not "
                           r"finite and > 0$"):
            calibrate_piezo_stiffness(stack, 4.9e9, band)


def test_mode0_walk_limit_must_be_finite(nominal):
    """Over 1e-305 m layers the transit times sum to about 5e-309 s, and
    the walk limit (L + 1) / (2 sum t/v) overflows: a ConfigError that
    names the thin stack's longest-transit layer, not "too thick"."""
    with pytest.raises(ConfigError, match=r"walk limit .* is inf Hz, not "
                       r"finite and > 0: .* in layer 'pt'$"):
        calibrate_piezo_stiffness(vanishing(nominal, 1e-305), 4.9e9,
                                  CAL_BAND)


@pytest.mark.parametrize("t", [1e-100, 1e-300])
def test_root_too_high_for_its_admittance_is_refused(nominal, t,
                                                     monkeypatch):
    """Over 1e-100 m layers mode 0 lies near 1e103 Hz, and over 1e-300 m
    near 1e303 Hz, where |Y| ~ 2 pi f |C0| squares past the double range:
    a ConfigError naming the root and the thinnest layer, before any
    kernel call, from calibration and from find_modes over a band that
    holds the root."""
    stack = vanishing(nominal, t)
    f_root = modal._mode0_root(stack)[1]
    match = (r"^the open-circuit root at \S+ Hz puts \(2 pi f \|C0\|\)\^2 "
             r"past the double range: the layers are too thin, the "
             rf"thinnest 'pt' at {t!r} m$")

    def no_kernel(*args):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(modal, "_kernel", no_kernel)
    with pytest.raises(ConfigError, match=match):
        calibrate_piezo_stiffness(stack, 4.9e9, CAL_BAND)
    with pytest.raises(ConfigError, match=match):
        find_modes(stack, FrequencyGrid(0.5 * f_root, 2.0 * f_root, 11), 1)


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
    assert mode_count(nominal, 0.0) == mode_count(nominal, -1e9) == 0
    assert mode_count(nominal, 34e9) == len(
        list(_open_circuit_modes(nominal, 1e6, 34e9)))
    # a non-finite f is the caller's error, not the stack's
    for f in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite f") as exc:
            mode_count(nominal, f)
        assert "too thick" not in str(exc.value)
    huge = nominal.with_layer_thickness(0, 1e305)
    with pytest.raises(ConfigError, match="not finite"):
        mode_count(huge, 34e9)
    with pytest.raises(ConfigError, match="not finite"):
        find_modes(huge, FrequencyGrid(1.5e9, 34e9, 2), 3)


def test_modal_alone_numbers_the_modes():
    """The open-circuit count lives in modal, and modal takes only public
    names from acoustic1d."""
    tree = ast.parse(pathlib.Path(modal.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "acoustic1d" for alias in node.names]
    assert names and not [n for n in names if n.startswith("_")]
    for name in ("_prufer_layers", "_interface", "_prufer_phase",
                 "_coupling_weight", "_open_circuit_theta",
                 "_open_circuit_modes"):
        assert hasattr(modal, name) and not hasattr(acoustic1d, name), name

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


# -- a stack with no loss ----------------------------------------------------

def lossless_nominal_text() -> str:
    """The bundled nominal stack file with lossless: true on each of its
    three materials."""
    text = (pathlib.Path(modal.__file__).parent / "data"
            / "nominal_stack.yaml").read_text(encoding="utf-8")
    out = text.replace("    citation:", "    lossless: true\n    citation:")
    assert out.count("lossless: true") == 3
    return out


def assert_fs_is_a_pole(stack, fs):
    """Mason's |Y| at fs is at least 1e3 times its value at fs (1 -+ 1e-6),
    or fs is singular."""
    try:
        y = abs(admittance_mason(stack, fs))
    except SingularFrequencyError:
        return
    near = np.abs(admittance_mason(stack, fs * np.array([1 - 1e-6,
                                                         1 + 1e-6])))
    assert y >= 1e3 * near.max(), (fs, y, near)


def test_lossless_stack_calibrates_onto_its_pole():
    """With no loss anywhere Re Y is 0 on the real axis, so fs is the pole
    of Y and fp its zero, the open-circuit root.  Calibration puts mode 0's
    pole on the target; the lossy search's roots put mode 0 at 4.6633 GHz,
    where |Y| is 0.027 S."""
    stack = load_stack(lossless_nominal_text())
    calibrated, _ = calibrate_piezo_stiffness(stack, 4.9e9, CAL_BAND)
    modes = find_modes(calibrated, CAL_BAND, 3)
    assert [m.mode_number for m in modes] == [0, 1, 2]
    assert abs(modes[0].fs - 4.9e9) <= 5e-10 * 4.9e9
    roots = {n: f for n, f, _ in _open_circuit_modes(calibrated, 3e9, 15e9)}
    for m in modes:
        assert not m.coupling_null
        assert m.fp == roots[m.mode_number]
        assert_fs_is_a_pole(calibrated, m.fs)


def test_any_loss_keeps_the_lossy_search(nominal):
    """A series resistance, a dielectric loss or lossy layers each leave
    the stack lossy."""
    lossless = load_stack(lossless_nominal_text())
    ip = lossless.piezo_index
    piezo = lossless.layers[ip]
    lossy = [
        dataclasses.replace(lossless, rs_electrical=0.5),
        dataclasses.replace(lossless, layers=tuple(
            dataclasses.replace(piezo, material=dataclasses.replace(
                piezo.material, tan_delta=1e-3)) if i == ip else lay
            for i, lay in enumerate(lossless.layers))),
        nominal,
    ]
    assert derive_constants(lossless).lossless
    assert not any(derive_constants(s).lossless for s in lossy)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(seed=0)
def test_lossless_random_stacks_put_fs_on_a_pole(seed):
    """On the lossless copy of a random stack every mode's fs is a pole of
    Y and its fp the open-circuit root, free and rigid ends alike."""
    stack = modal._lossless(random_stack(np.random.default_rng(seed)))
    band = FrequencyGrid(1.5e9, 34e9, 2)
    try:
        modes = find_modes(stack, band, 3)
    except ModeSearchError:
        assume(False)
    roots = {n: f for n, f, _ in _open_circuit_modes(stack, 1.5e9, 34e9)}
    for m in modes:
        assert m.fs < m.fp == roots[m.mode_number]
        assert not m.coupling_null
        assert_fs_is_a_pole(stack, m.fs)
