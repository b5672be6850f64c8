"""Command-line behavior: flags, exit codes, files, determinism."""

import csv
import importlib.resources
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import bawkit
import bawkit.cli as cli
from bawkit import (FrequencyGrid, calibrate_piezo_stiffness,
                    export_modes_csv, export_spectrum_csv, find_modes,
                    nominal_stack, spectrum)
from bawkit.materials import ConfigError, serialize_stack
from bawkit.mbvd import parse_fit_report


@pytest.fixture()
def stack_file(tmp_path):
    path = tmp_path / "stack.yaml"
    path.write_text(serialize_stack(nominal_stack()), encoding="utf-8")
    return path


def fixture_path():
    return str(importlib.resources.files("bawkit") / "data" / "r14c5_like.s2p")


def manifest_digest_lines(path):
    lines = (path / "manifest.txt").read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("timestamp:")]


# -- frequency parsing -------------------------------------------------------

def test_parse_frequency_units():
    assert cli.parse_frequency("4.9GHz") == 4.9e9
    assert cli.parse_frequency("250 MHz") == 2.5e8
    assert cli.parse_frequency("12 kHz") == 12e3
    assert cli.parse_frequency("440Hz") == 440.0
    assert cli.parse_frequency("13", default_factor=1e9) == 13e9
    # exponent notation, bare and with every suffix
    assert cli.parse_frequency("3e9") == 3e9
    assert cli.parse_frequency("15E9") == 15e9
    assert cli.parse_frequency("4.9e9Hz") == 4.9e9
    assert cli.parse_frequency("2.5e-3GHz") == 2.5e-3 * 1e9
    assert cli.parse_frequency("1.2e+2 MHz") == 1.2e2 * 1e6
    assert cli.parse_frequency("4e1 kHz") == 4e1 * 1e3
    assert cli.parse_frequency("4.9e0", default_factor=1e9) == 4.9e9
    for bad in ("fastHz", "10 parsec", "3e9 THz", "inf", "nan", "-inf GHz",
                "NaN", "1e999", "1e300GHz", "3e9e9", ""):
        with pytest.raises(ConfigError):
            cli.parse_frequency(bad)


def test_parse_band_and_ratio_errors():
    assert cli.parse_band("3:15") == (3e9, 15e9)
    with pytest.raises(ConfigError):
        cli.parse_band("15:3")
    with pytest.raises(ConfigError):
        cli.parse_band("3")


# -- estimate ----------------------------------------------------------------

def test_estimate_frequency_output(capsys):
    code = cli.main(["estimate", "--mode-order", "1", "--velocity", "10000",
                     "--thickness", "500"])
    assert code == 0
    assert capsys.readouterr().out == "10 GHz\n"


def test_estimate_thickness_output(capsys):
    code = cli.main(["estimate", "--mode-order", "2", "--velocity", "8450",
                     "--frequency", "13"])
    assert code == 0
    assert capsys.readouterr().out == "650 nm\n"


def test_estimate_unit_suffixes_agree(capsys):
    cli.main(["estimate", "--mode-order", "2", "--velocity", "8450",
              "--frequency", "13GHz"])
    a = capsys.readouterr().out
    cli.main(["estimate", "--mode-order", "2", "--velocity", "8450",
              "--frequency", "13000MHz"])
    assert capsys.readouterr().out == a


def test_estimate_flag_validation(capsys):
    both = cli.main(["estimate", "--mode-order", "1", "--velocity", "10000",
                     "--thickness", "500", "--frequency", "13"])
    assert both == 2
    neither = cli.main(["estimate", "--mode-order", "1",
                        "--velocity", "10000"])
    assert neither == 2
    bad_order = cli.main(["estimate", "--mode-order", "0",
                          "--velocity", "10000", "--thickness", "500"])
    assert bad_order == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--velocity", "inf", "--thickness", "250"],
    ["--velocity", "8450", "--thickness", "inf"],
    ["--velocity", "1e308", "--thickness", "1e-300"],
    ["--velocity", "inf", "--frequency", "13"],
])
def test_estimate_non_finite_is_a_usage_error(argv, capsys):
    """A non-finite input or estimate exits 2 and prints no number."""
    assert cli.main(["estimate", "--mode-order", "1", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "finite" in out.err


def test_estimate_writes_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["estimate", "--mode-order", "1", "--velocity", "10000",
                     "--thickness", "500"]) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


# -- simulate ----------------------------------------------------------------

def test_simulate_writes_spectra_and_modes(stack_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["simulate", "--stack", str(stack_file),
                     "--fmin", "3GHz", "--fmax", "15GHz", "--points", "801",
                     "--backend", "both", "--out", str(out)])
    assert code == 0
    for name in ("spectrum_bvp.csv", "spectrum_mason.csv", "modes.csv",
                 "manifest.txt"):
        assert (out / name).is_file(), name
    modes = (out / "modes.csv").read_text().splitlines()
    assert len(modes) == 4  # header + three tones
    manifest = (out / "manifest.txt").read_text()
    assert "max_backend_rel_deviation" in manifest
    dev = [ln for ln in manifest.splitlines()
           if "max_backend_rel_deviation" in ln][0]
    assert float(dev.split(":")[1]) < 1e-8
    assert "input.stack.sha256" in manifest
    keys = [ln.split(":", 1)[0] for ln in manifest.splitlines()]
    assert "config.calibrate_fs_hz" not in keys
    assert "calibration_scale" not in keys
    capsys.readouterr()


def test_simulate_accepts_exponent_frequencies(stack_file, tmp_path, capsys):
    runs = {}
    for fmin, fmax in (("3GHz", "15GHz"), ("3e9", "15e9")):
        out = tmp_path / fmin
        assert cli.main(["simulate", "--stack", str(stack_file),
                         "--fmin", fmin, "--fmax", fmax, "--points", "401",
                         "--out", str(out)]) == 0
        runs[fmin] = out
    manifest = (runs["3e9"] / "manifest.txt").read_text().splitlines()
    assert "config.fmin_hz: 3000000000" in manifest
    assert "config.fmax_hz: 15000000000" in manifest
    for name in ("spectrum_bvp.csv", "spectrum_mason.csv", "modes.csv"):
        assert ((runs["3e9"] / name).read_bytes()
                == (runs["3GHz"] / name).read_bytes()), name
    capsys.readouterr()


def test_simulate_points_validation(stack_file, tmp_path, capsys):
    code = cli.main(["simulate", "--stack", str(stack_file),
                     "--fmin", "3GHz", "--fmax", "15GHz", "--points", "1",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_stack_file(tmp_path, capsys):
    code = cli.main(["simulate", "--stack", str(tmp_path / "nope.yaml"),
                     "--fmin", "3GHz", "--fmax", "15GHz", "--points", "11",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_simulate_band_without_modes_is_physics_error(stack_file, tmp_path,
                                                      capsys):
    code = cli.main(["simulate", "--stack", str(stack_file),
                     "--fmin", "100MHz", "--fmax", "200MHz", "--points", "51",
                     "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["--fmin", "3GHz", "--fmax", "15GHz", "--modes", "0"], 2),
    (["--fmin", "0.5GHz", "--fmax", "1GHz"], 3),   # no resonance in band
])
def test_simulate_failed_mode_search_writes_nothing(stack_file, tmp_path,
                                                     capsys, argv, code):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--stack", str(stack_file), "--points",
                     "201", "--out", str(out)] + argv) == code
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, bad", [
    ("density: 21450.0", "density: .inf"),
    ("e33: 2.5", "e33: .nan"),
])
def test_simulate_non_finite_material_is_a_usage_error(stack_file, tmp_path,
                                                       capsys, line, bad):
    text = stack_file.read_text()
    assert line in text
    stack_file.write_text(text.replace(line, bad, 1))
    code = cli.main(["simulate", "--stack", str(stack_file), "--fmin",
                     "3GHz", "--fmax", "15GHz", "--points", "201",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_simulate_reruns_byte_identical(stack_file, tmp_path, capsys):
    args = ["simulate", "--stack", str(stack_file), "--fmin", "3GHz",
            "--fmax", "8GHz", "--points", "301"]
    for extra in ([], ["--calibrate-fs", "5GHz"]):
        out_a, out_b = (tmp_path / f"{run}{len(extra)}" for run in "ab")
        assert cli.main(args + extra + ["--out", str(out_a)]) == 0
        assert cli.main(args + extra + ["--out", str(out_b)]) == 0
        for name in ("spectrum_bvp.csv", "modes.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert manifest_digest_lines(out_a) == manifest_digest_lines(out_b)
    capsys.readouterr()


def test_simulate_calibrated_matches_library(stack_file, tmp_path, capsys):
    """--calibrate-fs is calibrate_piezo_stiffness over the run's band,
    followed by the uncalibrated pipeline on the scaled stack."""
    out = tmp_path / "cal"
    code = cli.main(["simulate", "--stack", str(stack_file),
                     "--fmin", "3GHz", "--fmax", "15GHz", "--points", "801",
                     "--calibrate-fs", "4.9GHz", "--out", str(out)])
    assert code == 0
    band = FrequencyGrid(3e9, 15e9, 801)
    stack, scale = calibrate_piezo_stiffness(nominal_stack(), 4.9e9, band)
    ref = tmp_path / "ref"
    ref.mkdir()
    for backend in ("bvp", "mason"):
        export_spectrum_csv(spectrum(stack, band, backend=backend),
                            ref / f"spectrum_{backend}.csv")
    export_modes_csv(find_modes(stack, band, 3), ref / "modes.csv")
    for name in ("spectrum_bvp.csv", "spectrum_mason.csv", "modes.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    lines = manifest_digest_lines(out)
    assert "config.calibrate_fs_hz: 4900000000" in lines
    assert f"calibration_scale: {scale:.17g}" in lines
    capsys.readouterr()


def test_calibrate_unreachable_target_exits_2(stack_file, tmp_path, capsys):
    out = tmp_path / "x"
    code = cli.main(["simulate", "--stack", str(stack_file),
                     "--fmin", "3GHz", "--fmax", "15GHz", "--points", "601",
                     "--calibrate-fs", "40GHz", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: target fs = 4e+10 Hz not reachable")
    assert not out.exists()


# -- sweep -------------------------------------------------------------------

def test_sweep_small_grid(stack_file, tmp_path, capsys):
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--stack", str(stack_file), "--grid", "2",
                     "--modes", "1", "--range", "0.2:2.0",
                     "--band", "1.5:11", "--band-points", "601",
                     "--heatmaps", "--out", str(out)])
    assert code == 0
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 5
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert svgs == ["heatmap_fom_norm_mode0.svg",
                    "heatmap_fs_norm_mode0.svg",
                    "heatmap_keff2_norm_mode0.svg"]
    # the manifest names the best FOM cell; CSV floats are exact (.17g)
    extras = dict(ln.split(": ", 1) for ln in manifest_digest_lines(out))
    rows = csv.DictReader((out / "sweep.csv").read_text().splitlines())
    best = max((r for r in rows if r["ok"] == "1"),
               key=lambda r: float(r["fom"]))
    assert float(extras["best_fom.mode0"]) == float(best["fom"])
    assert float(extras["best_fom.mode0.t_bot_m"]) == float(best["t_bot_m"])
    assert float(extras["best_fom.mode0.t_top_m"]) == float(best["t_top_m"])
    capsys.readouterr()


def test_sweep_jobs_do_not_change_output(stack_file, tmp_path, capsys):
    base = ["sweep", "--stack", str(stack_file), "--grid", "2",
            "--modes", "1", "--band", "1.5:11", "--band-points", "401",
            "--heatmaps"]
    for extra in ([], ["--calibrate-fs", "4.9"]):
        outs = [tmp_path / f"j{jobs}-{len(extra)}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert cli.main(base + extra + ["--jobs", str(jobs),
                                            "--out", str(out)]) == 0
        names = [p.name for p in outs[0].iterdir()
                 if p.name != "manifest.txt"]
        assert len(names) == 4
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name
        # the manifests differ only in the jobs line and their digest
        lines = [[ln for ln in manifest_digest_lines(out)
                  if not ln.startswith(("config.jobs", "manifest_sha256"))]
                 for out in outs]
        assert lines[0] == lines[1]
        calibrated = "config.calibrate_fs_hz: 4900000000" in lines[0]
        assert calibrated == bool(extra)
    capsys.readouterr()


def test_sweep_range_validation(stack_file, tmp_path, capsys):
    for text in ("2.0:0.2", "0.2:inf", "inf:2", "0.2:nan"):
        out = tmp_path / "x"
        code = cli.main(["sweep", "--stack", str(stack_file),
                         "--range", text, "--band", "1.5:11",
                         "--out", str(out)])
        assert code == 2, text
        assert "--range" in capsys.readouterr().err, text
        assert not out.exists(), text


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_range_too_thick_to_count(stack_file, tmp_path, capsys):
    """A range whose thickest cell has no finite mode count below the
    band's top is a configuration error that names --range, raised before
    any cell is solved and without a numpy warning."""
    out = tmp_path / "x"
    code = cli.main(["sweep", "--stack", str(stack_file), "--range",
                     "0.2:1e308", "--grid", "3", "--band", "1.5:34",
                     "--out", str(out)])
    assert code == 2
    assert "--range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_layers_too_thick_for_doubles(stack_file, tmp_path, capsys):
    """Electrodes whose mode count is finite but whose attenuation leaves
    the double range are a configuration error naming the layer, not a
    masked map blamed on band coverage, and raise no numpy warning."""
    out = tmp_path / "x"
    code = cli.main(["sweep", "--stack", str(stack_file), "--range",
                     "0.2:1e6", "--grid", "3", "--band", "1.5:34",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "layer" in err and "too thick" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_range_with_an_inert_thickest_cell(stack_file, tmp_path,
                                                 capsys):
    """250 m electrodes put billions of uncoupled roots in the band: the
    thickest cell is a configuration error that names --range and the
    root count, raised before any cell is solved."""
    out = tmp_path / "x"
    code = cli.main(["sweep", "--stack", str(stack_file), "--range",
                     "0.2:1e9", "--grid", "2", "--band", "1.5:34",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--range" in err and "open-circuit roots" in err
    assert not out.exists()


def test_sweep_uncovered_band_exits_4(stack_file, tmp_path, capsys):
    code = cli.main(["sweep", "--stack", str(stack_file), "--grid", "2",
                     "--modes", "3", "--band", "40:45",
                     "--band-points", "301", "--out", str(tmp_path / "x")])
    assert code == 4
    assert "band" in capsys.readouterr().err


# -- fit ---------------------------------------------------------------------

def test_fit_bundled_fixture(tmp_path, capsys):
    out = tmp_path / "fit"
    code = cli.main(["fit", "--s2p", fixture_path(), "--band", "12.5:14",
                     "--out", str(out)])
    assert code == 0
    rep = parse_fit_report((out / "fit_report.txt").read_text())
    assert rep["qs"] == pytest.approx(210.0, rel=0.02)
    assert abs(rep["keff2"] - 0.052) < 0.002
    assert rep["converged"] is True
    header = (out / "fit_curve.csv").read_text().splitlines()[0]
    assert header == "freq_hz,re_y_data,im_y_data,re_y_model,im_y_model"
    capsys.readouterr()


def test_fit_truncated_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.s2p"
    bad.write_text("# GHZ S RI R 50\n"
                   "13.0 0.1 0.0 0.9 0.0 0.9 0.0 0.1 0.0\n"
                   "13.1 0.1 0.0 0.9\n", encoding="utf-8")
    code = cli.main(["fit", "--s2p", str(bad), "--band", "12.5:14",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, line", [
    ("# GHZ S RI R inf\n13.0 0.1 0 0.9 0 0.9 0 0.1 0\n", 1),
    ("# GHZ S RI R 50\n13.0 0.1 0 0.9 0 0.9 0 0.1 0\n"
     "13.1 0.1 0 0.9 0\n0.9 nan 0.1 0\n", 4),
    ("! made by hand\n# GHZ S RI R 50\n13.0 0.1 0 0.9 0 0.9 0 0.1 0\n"
     "inf 0.1 0 0.9 0 0.9 0 0.1 0\n", 4),
    ("# GHZ S RI R 50\n0 0.1 0 0.9 0 0.9 0 0.1 0\n", 2),
    ("# GHZ S RI R -50\n13.0 0.1 0 0.9 0 0.9 0 0.1 0\n", 1)],
    ids=["r-inf", "nan-value", "inf-frequency", "zero-frequency", "r-neg"])
def test_fit_malformed_number_reports_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.s2p"
    bad.write_text(text, encoding="utf-8")
    code = cli.main(["fit", "--s2p", str(bad), "--band", "12.5:14",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"line {line}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_nonconvergence_exits_5(tmp_path, monkeypatch, capsys):
    from bawkit.mbvd import report
    from test_mbvd import params_for

    def fake_fit(curve, band=None):
        return report(params_for(), residual=0.5, converged=False)

    monkeypatch.setattr(cli, "fit_mbvd", fake_fit)
    out = tmp_path / "nc"
    code = cli.main(["fit", "--s2p", fixture_path(), "--band", "12.5:14",
                     "--out", str(out)])
    assert code == 5
    assert "converged: false" in (out / "fit_report.txt").read_text()
    capsys.readouterr()


def test_only_fit_loads_scipy(tmp_path):
    """Importing the package and its CLI leaves scipy unloaded; a fit
    still works afterwards and loads it then."""
    script = textwrap.dedent(f"""
        import sys
        import bawkit
        import bawkit.cli
        assert "scipy" not in sys.modules, "scipy loaded at import"
        code = bawkit.cli.main(["fit", "--s2p", {fixture_path()!r},
                                "--band", "12.5:14",
                                "--out", {str(tmp_path / "fit")!r}])
        assert code == 0, code
        assert "scipy" in sys.modules
    """)
    src = str(pathlib.Path(bawkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)
    report = (tmp_path / "fit" / "fit_report.txt").read_text()
    assert parse_fit_report(report)["converged"] is True


# -- parser plumbing ---------------------------------------------------------

def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["transmogrify"]) == 2
    capsys.readouterr()
