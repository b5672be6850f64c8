"""Command-line behavior: flags, exit codes, files, determinism."""

import importlib.resources
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import bawkit
import bawkit.cli as cli
from bawkit import nominal_stack
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
    with pytest.raises(ConfigError):
        cli.parse_frequency("fastHz")
    with pytest.raises(ConfigError):
        cli.parse_frequency("10 parsec")


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


def test_simulate_reruns_byte_identical(stack_file, tmp_path, capsys):
    args = ["simulate", "--stack", str(stack_file), "--fmin", "3GHz",
            "--fmax", "8GHz", "--points", "301"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    for name in ("spectrum_bvp.csv", "modes.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert manifest_digest_lines(out_a) == manifest_digest_lines(out_b)
    capsys.readouterr()


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
    capsys.readouterr()


def test_sweep_jobs_do_not_change_output(stack_file, tmp_path, capsys):
    base = ["sweep", "--stack", str(stack_file), "--grid", "2",
            "--modes", "1", "--band", "1.5:11", "--band-points", "401",
            "--heatmaps"]
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert cli.main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert cli.main(base + ["--jobs", "2", "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    svg = "heatmap_fs_norm_mode0.svg"
    assert (out1 / svg).read_bytes() == (out2 / svg).read_bytes()
    capsys.readouterr()


def test_sweep_range_validation(stack_file, tmp_path, capsys):
    code = cli.main(["sweep", "--stack", str(stack_file),
                     "--range", "2.0:0.2", "--band", "1.5:11",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


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


def test_fit_nonconvergence_exits_5(tmp_path, monkeypatch, capsys):
    from bawkit.mbvd import report
    from test_mbvd import params_for

    def fake_fit(curve, band=None, init=None, compensated=False):
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
