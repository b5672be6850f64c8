"""Acceptance gates: end-to-end behavior and tolerances for the toolkit.

Each test prints a short evidence table; a failing gate lists every
sub-check so the miss is visible in the report.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import bawkit.cli as cli
from bawkit import (FrequencyGrid, admittance_bvp, admittance_mason,
                    find_modes, nominal_stack, qm_from_partition, spectrum)
from bawkit.acoustic1d import AdmittanceCurve, EnergyPartition
from bawkit.materials import Layer, Stack, serialize_stack
from bawkit.mbvd import (TouchstoneData, TouchstoneError, emit_touchstone,
                         fit_mbvd, parse_touchstone, transmission_admittance)
from bawkit.sweep import SweepConfig, run_sweep

from conftest import AREA_30UM, make_metal, make_piezo, plate, random_stack
from test_mbvd import draw_params, param_errors, params_for, synth_curve


def evidence(rows):
    lines = [f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
             for label, ok, detail in rows]
    table = "\n".join(lines)
    print(table)
    if any(not ok for _, ok, _ in rows):
        pytest.fail("sub-checks failed:\n" + table, pytrace=False)


# 1 -- calibrated design point ------------------------------------------------

def test_calibrated_design_point_metrics(calibrated):
    """Single-scalar stiffness calibration must land the published targets.

    The mode-2 coupling window is known to be out of reach for this
    electrode/piezo combination in a strictly one-dimensional model with
    defensible film constants; see README, "Known limitations".  The gate
    still asserts the full contract rather than a weakened one.
    """
    stack, scale = calibrated
    grid = FrequencyGrid(3e9, 15e9, 4001)
    t0 = time.perf_counter()
    spectrum(stack, grid)
    dt = time.perf_counter() - t0
    modes = find_modes(stack, grid, 3)
    fs0, fs2 = modes[0].fs, modes[2].fs
    k0, k2 = modes[0].keff2, modes[2].keff2
    evidence([
        ("stiffness scale within the search bracket", 0.5 < scale < 2.0,
         f"{scale:.6f}"),
        ("mode-0 fs on the 4.9 GHz target",
         abs(fs0 - 4.9e9) / 4.9e9 < 1e-6, f"{fs0 / 1e9:.6f} GHz"),
        ("mode-2 fs within 5% of 13.12 GHz",
         abs(fs2 - 13.12e9) <= 0.05 * 13.12e9, f"{fs2 / 1e9:.4f} GHz"),
        ("mode-0 keff2 in [8.3%, 11.3%]", 0.083 <= k0 <= 0.113,
         f"{100 * k0:.3f}%"),
        ("mode-2 keff2 in [3.3%, 6.3%]", 0.033 <= k2 <= 0.063,
         f"{100 * k2:.3f}%"),
        ("4001-point spectrum under 5 s", dt < 5.0, f"{dt:.2f} s"),
    ])


# 2 -- independent backends agree ----------------------------------------------

def test_dual_backend_agreement_on_random_stacks():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        stack = random_stack(rng)
        freqs = np.sort(rng.uniform(0.5e9, 40e9, 1000))
        yb = admittance_bvp(stack, freqs)
        ym = admittance_mason(stack, freqs)
        worst = max(worst, float(np.max(np.abs(yb - ym) / np.abs(ym))))
    dt = time.perf_counter() - t0
    evidence([
        ("max relative deviation over 50 stacks x 1000 freqs < 1e-8",
         worst < 1e-8, f"{worst:.3e}"),
        ("runtime under 60 s", dt < 60.0, f"{dt:.1f} s"),
    ])


# 3 -- passivity and limiting cases --------------------------------------------

def scale_thicknesses(stack, alpha):
    layers = tuple(dataclasses.replace(l, thickness=l.thickness * alpha)
                   for l in stack.layers)
    return dataclasses.replace(stack, layers=layers)


def test_passivity_and_limits(nominal):
    rows = []

    re_min = spectrum(nominal, FrequencyGrid(0.5e9, 40e9, 4001)).y.real.min()
    rng = np.random.default_rng(99)
    for _ in range(5):
        y = spectrum(random_stack(rng), FrequencyGrid(0.5e9, 40e9, 801)).y
        re_min = min(re_min, y.real.min())
    rows.append(("Re(Y) >= -1e-12 S with finite Q", re_min >= -1e-12,
                 f"min {re_min:.3e} S"))

    pz = make_piezo(e33=0.0)
    stack0 = plate(pz, 250e-9)
    freqs = np.linspace(1e9, 40e9, 501)
    c0 = pz.eps33s * stack0.area / 250e-9
    y_ref = 1j * 2 * math.pi * freqs * c0
    dev = max(
        float(np.max(np.abs(admittance_bvp(stack0, freqs) - y_ref)
                     / np.abs(y_ref))),
        float(np.max(np.abs(admittance_mason(stack0, freqs) - y_ref)
                     / np.abs(y_ref))))
    rows.append(("e33 = 0 collapses to the static capacitor within 1e-12",
                 dev < 1e-12, f"max {dev:.3e}"))

    alpha = 1.7
    base = find_modes(nominal, FrequencyGrid(3e9, 15e9, 1601), 3,
                      refine_tol=1e-11)
    scaled = find_modes(scale_thicknesses(nominal, alpha),
                        FrequencyGrid(3e9 / alpha, 15e9 / alpha, 1601), 3,
                        refine_tol=1e-11)
    fs_dev = max(abs(s.fs * alpha - b.fs) / b.fs
                 for s, b in zip(scaled, base))
    eta_dev = max(abs(s.eta - b.eta) for s, b in zip(scaled, base))
    rows.append(("thickness scaling shifts each fs by 1/alpha within 1e-9",
                 fs_dev < 1e-9, f"max {fs_dev:.3e}"))
    rows.append(("thickness scaling leaves eta unchanged within 1e-9",
                 eta_dev < 1e-9, f"max {eta_dev:.3e}"))
    evidence(rows)


# 4 -- energy-weighted loss mixing ---------------------------------------------

def test_quality_factor_mixing_suite():
    met = make_metal(q_mech=200.0)
    pz = make_piezo(q_mech=2000.0)
    stack = Stack(layers=(Layer(met, 240e-9, "electrode"),
                          Layer(pz, 250e-9, "piezo"),
                          Layer(met, 160e-9, "electrode")), area=AREA_30UM)

    def qm(shares):
        total = sum(shares)
        return qm_from_partition(
            EnergyPartition(per_layer=tuple(shares), total=total,
                            eta=shares[1] / total), stack)

    half = qm((0.25, 0.5, 0.25))
    bounds_ok = True
    rng = np.random.default_rng(4)
    for _ in range(1000):
        qs = rng.uniform(50, 5000, size=3)
        s = Stack(layers=(Layer(make_metal(name="a", q_mech=qs[0]), 1e-7,
                                "electrode"),
                          Layer(make_piezo(q_mech=qs[1]), 1e-7, "piezo"),
                          Layer(make_metal(name="b", q_mech=qs[2]), 1e-7,
                                "electrode")), area=AREA_30UM)
        shares = rng.uniform(0, 1, size=3) + 1e-12
        total = shares.sum()
        val = qm_from_partition(
            EnergyPartition(per_layer=tuple(shares), total=float(total),
                            eta=float(shares[1] / total)), s)
        if not (qs.min() - 1e-9 <= val <= qs.max() + 1e-9):
            bounds_ok = False
            break
    evidence([
        ("eta = 1 returns the piezo Q exactly", qm((0, 1, 0)) == 2000.0,
         f"{qm((0, 1, 0))!r}"),
        ("eta = 0 returns the metal Q exactly",
         qm((0.5, 0, 0.5)) == 200.0, f"{qm((0.5, 0, 0.5))!r}"),
        ("even split lands on 363.63... within 1e-9",
         abs(half - 4000.0 / 11.0) / (4000.0 / 11.0) < 1e-9, f"{half!r}"),
        ("harmonic-mean bounds hold for 1000 random partitions", bounds_ok,
         "min_i q <= Qm <= max_i q"),
    ])


# 5 -- electrode-thickness sweep -----------------------------------------------

def test_design_sweep_structure(calibrated_stack):
    cfg = SweepConfig(base=calibrated_stack, top_layer_index=2,
                      bottom_layer_index=0,
                      band=FrequencyGrid(1.5e9, 34e9, 2201),
                      grid_n=25, n_modes=3)
    t0 = time.perf_counter()
    result = run_sweep(cfg, jobs=2)
    dt = time.perf_counter() - t0
    norm_ok = all(np.nanmax(result.keff2_norm[:, :, m]) == 1.0
                  and np.nanmax(result.fom_norm[:, :, m]) == 1.0
                  for m in range(3))
    flat0 = np.nanargmax(result.fom_norm[:, :, 0])
    flat2 = np.nanargmax(result.fom_norm[:, :, 2])
    am0 = np.unravel_index(flat0, result.mask.shape)
    am2 = np.unravel_index(flat2, result.mask.shape)
    evidence([
        ("25x25 three-mode sweep under 120 s with 2 workers", dt < 120.0,
         f"{dt:.1f} s, {int(result.mask.sum())} masked cells"),
        ("normalized coupling and FOM peak at exactly 1", norm_ok, "per mode"),
        ("FOM argmax cell differs between mode 0 and mode 2", am0 != am2,
         f"mode0 {am0} vs mode2 {am2}"),
    ])


def test_design_map_numbers_modes_physically(calibrated_stack):
    """On the calibrated nominal 25x25 map over 1.5-34 GHz, no interior
    cell is masked, and in every mode plane fs never rises as either
    electrode thickens: mass loading lowers every eigenfrequency
    (Rosenbaum, Bulk Acoustic Wave Theory and Devices, 1988)."""
    cfg = SweepConfig(base=calibrated_stack, top_layer_index=2,
                      bottom_layer_index=0,
                      band=FrequencyGrid(1.5e9, 34e9, 2201),
                      grid_n=25, n_modes=3)
    result = run_sweep(cfg, jobs=2)
    rows = [("no interior cell masked", not result.mask[1:-1, 1:-1].any(),
             f"{int(result.mask.sum())} of {result.mask.size} cells masked")]
    for axis, layer in ((0, "bottom"), (1, "top")):
        rises = [int(np.sum(np.diff(result.fs[:, :, m], axis=axis) >= 0))
                 for m in range(3)]
        rows.append((f"fs never rises as the {layer} electrode thickens",
                     rises == [0, 0, 0], f"rising pairs per mode {rises}"))
    evidence(rows)


# 6 -- circuit-fit round trips ---------------------------------------------------

def test_mbvd_recovery_tolerances():
    rows = []

    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(6):
        true, fs = draw_params(rng)
        rep = fit_mbvd(synth_curve(true, 0.85 * fs, 1.25 * fs))
        worst = max(worst, max(param_errors(rep.params, true).values()))
    rows.append(("noiseless recovery of all six values within 1%",
                 worst < 0.01, f"worst {worst:.2e}"))

    true = params_for()
    clean = synth_curve(true, 12.0e9, 14.6e9, n=801)
    worst_p, worst_fs = 0.0, 0.0
    for seed in range(20):
        g = np.random.default_rng(500 + seed)
        noise = (g.standard_normal(clean.y.size)
                 + 1j * g.standard_normal(clean.y.size)) / math.sqrt(2)
        noisy = AdmittanceCurve(frequencies=clean.frequencies,
                                y=clean.y * (1 + 0.01 * noise),
                                provenance="measured")
        rep = fit_mbvd(noisy)
        worst_p = max(worst_p, max(param_errors(rep.params, true).values()))
        worst_fs = max(worst_fs, abs(rep.fs - 13.3e9) / 13.3e9)
    rows.append(("1% noise: values within 5% over 20 draws", worst_p < 0.05,
                 f"worst {worst_p:.2%}"))
    rows.append(("1% noise: fs within 0.05%", worst_fs < 5e-4,
                 f"worst {worst_fs:.2e}"))

    true, fs = draw_params(np.random.default_rng(71))
    curve = synth_curve(true, 0.85 * fs, 1.25 * fs)
    alpha = 3.7
    rep = fit_mbvd(AdmittanceCurve(frequencies=curve.frequencies,
                                   y=alpha * curve.y, provenance="measured"))
    expect = (true.rm / alpha, true.lm / alpha, true.cm * alpha,
              true.c0 * alpha, true.r0 / alpha, true.rs / alpha)
    got = (rep.params.rm, rep.params.lm, rep.params.cm, rep.params.c0,
           rep.params.r0, rep.params.rs)
    cov = max(abs(g - e) / e for g, e in zip(got, expect))
    rows.append(("scaling covariance under alpha*Y within 0.1%", cov < 1e-3,
                 f"worst {cov:.2e}"))
    evidence(rows)


# 7 -- measured-metrics fixture ---------------------------------------------------

def test_measured_fixture_metrics():
    import importlib.resources
    text = (importlib.resources.files("bawkit") / "data"
            / "r14c5_like.s2p").read_text(encoding="utf-8")
    curve = transmission_admittance(parse_touchstone(text), topology="series")
    rep = fit_mbvd(curve, band=(12.5e9, 14.0e9))
    evidence([
        ("fit converged", rep.converged, f"residual {rep.residual:.2e}"),
        ("qs = 210 within 2%", abs(rep.qs - 210.0) / 210.0 < 0.02,
         f"{rep.qs:.2f}"),
        ("keff2 = 5.2% within 0.2 points",
         abs(rep.keff2_mbvd - 0.052) < 0.002, f"{100 * rep.keff2_mbvd:.3f}%"),
        ("fs = 13.3 GHz within 0.1%", abs(rep.fs - 13.3e9) / 13.3e9 < 1e-3,
         f"{rep.fs / 1e9:.5f} GHz"),
        ("fom = 10.9 within 0.3", abs(rep.fom - 10.9) < 0.3,
         f"{rep.fom:.3f}"),
    ])


# 8 -- Touchstone conformance -----------------------------------------------------

def test_touchstone_conformance():
    rng = np.random.default_rng(81)
    n = 9
    f = np.sort(rng.uniform(1e9, 30e9, n))
    s = (rng.uniform(-0.8, 0.8, (n, 2, 2))
         + 1j * rng.uniform(-0.8, 0.8, (n, 2, 2)))
    worst = 0.0
    freq_exact = True
    for unit in ("HZ", "KHZ", "MHZ", "GHZ"):
        for fmt in ("RI", "MA", "DB"):
            data = TouchstoneData(frequencies=f, s=s, z0=50.0, unit=unit,
                                  data_format=fmt)
            back = parse_touchstone(emit_touchstone(data))
            freq_exact &= bool(np.array_equal(back.frequencies, f))
            worst = max(worst,
                        float(np.max(np.abs(back.s - s) / np.abs(s))))

    malformed = [
        "13.0 0.1 0.0 0.9 0.0 0.9 0.0 0.1 0.0\n",        # no option line
        "# GHZ S RI R 50\n13.0 0.1 0.2\n",               # short record
        "# GHZ S RI R 50\n"
        "13.0 0 0 0.9 0 0.9 0 0 0\n"
        "12.0 0 0 0.9 0 0.9 0 0 0\n",                     # non-monotonic
    ]
    rejected = 0
    for text in malformed:
        try:
            parse_touchstone(text)
        except TouchstoneError as err:
            rejected += "line" in str(err)
    evidence([
        ("round trips across 3 formats x 4 units within 1e-12",
         worst < 1e-12, f"worst {worst:.2e}"),
        ("frequencies survive round trips exactly", freq_exact, "bit equal"),
        ("malformed files rejected with line-numbered errors",
         rejected == len(malformed), f"{rejected}/{len(malformed)}"),
    ])


# 9 -- deterministic command-line outputs ------------------------------------------

def test_cli_determinism(tmp_path, capsys):
    stack_file = tmp_path / "stack.yaml"
    stack_file.write_text(serialize_stack(nominal_stack()), encoding="utf-8")

    sim = ["simulate", "--stack", str(stack_file), "--fmin", "3GHz",
           "--fmax", "9GHz", "--points", "401", "--backend", "both"]
    a, b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert cli.main(sim + ["--out", str(a)]) == 0
    assert cli.main(sim + ["--out", str(b)]) == 0
    sim_ok = all((a / n).read_bytes() == (b / n).read_bytes()
                 for n in ("spectrum_bvp.csv", "spectrum_mason.csv",
                           "modes.csv"))

    sw = ["sweep", "--stack", str(stack_file), "--grid", "3", "--modes", "1",
          "--band", "1.5:11", "--band-points", "401", "--heatmaps"]
    j1, j2 = tmp_path / "sw_1", tmp_path / "sw_2"
    assert cli.main(sw + ["--jobs", "1", "--out", str(j1)]) == 0
    assert cli.main(sw + ["--jobs", "2", "--out", str(j2)]) == 0
    sweep_ok = ((j1 / "sweep.csv").read_bytes()
                == (j2 / "sweep.csv").read_bytes())
    svgs = sorted(j1.glob("*.svg"))
    svg_ok = len(svgs) == 3 and all(
        (j1 / n.name).read_bytes() == (j2 / n.name).read_bytes()
        for n in svgs)
    capsys.readouterr()
    evidence([
        ("repeated simulate runs are byte-identical", sim_ok, "3 CSVs"),
        ("sweep output independent of --jobs", sweep_ok, "CSV"),
        ("heatmap SVGs independent of --jobs", svg_ok, "3 SVGs"),
    ])
