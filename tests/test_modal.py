"""Mode detection, coupling definitions, Qm mixing, design estimator."""

import csv
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bawkit import (ConfigError, FrequencyGrid, ModeSearchError,
                    admittance_bvp, calibrate_piezo_stiffness,
                    estimate_frequency, estimate_thickness, export_modes_csv,
                    find_modes, keff2, modal, qm_from_partition)
from bawkit.acoustic1d import EnergyPartition
from bawkit.materials import Layer, Stack

from conftest import (AREA_30UM, CAL_BAND, make_metal, make_piezo, plate,
                      quadrature_energies, random_stack)

# high-precision evaluation of the 12.8/13.2 GHz pair, frozen
KEFF2_IEEE_PIN = 0.07255878919834874
KEFF2_SEP_PIN = 0.05968778696051391


# -- keff2 -------------------------------------------------------------------

def test_keff2_separation_example():
    val = keff2(12.8e9, 13.2e9, definition="separation")
    assert val == pytest.approx(KEFF2_SEP_PIN, rel=1e-14)
    assert val == pytest.approx(1 - (12.8 / 13.2) ** 2, rel=1e-12)


def test_keff2_ieee_pin_and_bracket():
    val = keff2(12.8e9, 13.2e9, definition="ieee")
    assert val == pytest.approx(KEFF2_IEEE_PIN, rel=5e-15)
    sep = keff2(12.8e9, 13.2e9, definition="separation")
    assert val < sep * (math.pi ** 2 / 8.0)


def test_keff2_approx_definition():
    sep = keff2(12.8e9, 13.2e9, definition="separation")
    assert keff2(12.8e9, 13.2e9, definition="approx") == pytest.approx(
        (math.pi ** 2 / 8.0) * sep, rel=1e-14)


def test_keff2_degenerate_limit():
    for definition in ("separation", "ieee", "approx"):
        assert keff2(13e9, 13e9, definition=definition) == 0.0
        assert keff2(13e9, 13e9 * (1 + 1e-12), definition=definition) < 1e-11


def test_keff2_rejects_bad_pairs():
    with pytest.raises(ConfigError):
        keff2(13.2e9, 12.8e9)
    with pytest.raises(ConfigError):
        keff2(0.0, 13.2e9)
    with pytest.raises(ConfigError):
        keff2(12.8e9, 13.2e9, definition="mystery")


@given(r1=st.floats(min_value=1.001, max_value=1.8),
       r2=st.floats(min_value=1.001, max_value=1.8))
def test_keff2_increases_with_fp(r1, r2):
    fs = 10e9
    lo, hi = sorted((r1, r2))
    if fs * lo == fs * hi:
        return  # distinct ratios can round to the same fp
    for definition in ("separation", "ieee", "approx"):
        assert (keff2(fs, fs * lo, definition=definition)
                < keff2(fs, fs * hi, definition=definition))


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
        assert m.keff2_definition == "ieee"
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
    assert len(calls) <= 10


@pytest.mark.parametrize("backend", ["bvp", "mason"])
def test_default_tolerance_matches_tight_refinement(calibrated_stack,
                                                    backend):
    default = find_modes(calibrated_stack, CAL_BAND, 3, backend=backend)
    tight = find_modes(calibrated_stack, CAL_BAND, 3, backend=backend,
                       refine_tol=1e-12)
    # a zero tolerance ends once the brackets stop shrinking
    exact = find_modes(calibrated_stack, CAL_BAND, 3, backend=backend,
                       refine_tol=0.0)
    assert len(default) == len(tight) == len(exact) == 3
    for b, *others in zip(tight, default, exact):
        for a in others:
            assert abs(a.fs - b.fs) / b.fs < 1e-9
            assert abs(a.fp - b.fp) / b.fp < 1e-9


def _interior_extrema_loop(v, maxima):
    idx = []
    for i in range(1, len(v) - 1):
        if maxima:
            if v[i] > v[i - 1] and v[i] > v[i + 1]:
                idx.append(i)
        elif v[i] < v[i - 1] and v[i] < v[i + 1]:
            idx.append(i)
    return idx


@given(values=st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(),
                       max_size=40),
       maxima=st.booleans())
@example(values=[], maxima=True)
@example(values=[1.0], maxima=False)
@example(values=[0.0, 1.0], maxima=True)
@example(values=[0.0, 1.0, 0.0], maxima=True)
@example(values=[1.0, 0.0, 1.0], maxima=False)
@example(values=[0.0, 1.0, 1.0, 0.0], maxima=True)
def test_interior_extrema_matches_loop(values, maxima):
    v = np.array(values, dtype=float)
    got = modal._interior_extrema(v, maxima)
    assert got.tolist() == _interior_extrema_loop(v, maxima)


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
    modes = find_modes(calibrated_stack, CAL_BAND, 2)
    path = tmp_path / "modes.csv"
    export_modes_csv(modes, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mode", "fs_hz", "fp_hz", "keff2", "eta", "qm", "fom",
                       "keff2_def"]
    assert len(rows) == 3
    for row, m in zip(rows[1:], modes):
        assert int(row[0]) == m.mode_index
        assert float(row[1]) == m.fs
        assert float(row[3]) == m.keff2
        assert row[7] == m.keff2_definition


# -- calibration -------------------------------------------------------------

def test_calibration_hits_target(calibrated):
    stack, scale = calibrated
    assert 0.5 < scale < 2.0
    mode = find_modes(stack, CAL_BAND, 1)[0]
    assert abs(mode.fs - 4.9e9) / 4.9e9 < 1e-8


# fundamentals 4.5-5.3 GHz, scales about 0.69-1.22 on the nominal stack
CALIBRATION_TARGETS_HZ = [4.5e9 + 0.1e9 * k for k in range(9)]


def test_calibration_call_budget(nominal, monkeypatch):
    """The scale search stops at the refinement's resolution: no mode
    search is spent below the 1e-9 width that fs is refined to."""
    search = modal.find_modes
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(modal, "find_modes", counting)
    for target in CALIBRATION_TARGETS_HZ:
        calls.clear()
        stack, _ = calibrate_piezo_stiffness(nominal, target_fs=target,
                                             band=CAL_BAND)
        assert len(calls) <= 10, (target, len(calls))
        fs = search(stack, CAL_BAND, 1)[0].fs
        assert abs(fs - target) / target <= 1e-9, (target, fs)


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


def test_calibration_rejects_unreachable_target(nominal):
    with pytest.raises((ConfigError, ModeSearchError)):
        calibrate_piezo_stiffness(nominal, target_fs=40e9,
                                  band=FrequencyGrid(3e9, 15e9, 601))
