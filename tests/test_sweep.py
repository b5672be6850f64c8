"""Thickness-sweep grids, CSV export, and SVG heatmap rendering."""

import itertools

import numpy as np
import pytest

from bawkit import FrequencyGrid, find_modes, mode_count, sweep
from bawkit.materials import ConfigError
from bawkit.sweep import (HEATMAP_METRICS, BandCoverageError, SweepConfig,
                          SweepResult, export_sweep_csv, render_heatmap,
                          run_sweep)

WIDE_BAND = FrequencyGrid(1.5e9, 11e9, 951)

CSV_HEADER = ("t_top_m,t_bot_m,mode,fs_hz,fs_norm,keff2,keff2_norm,"
              "eta,qm,fom,fom_norm,ok")
# the result grids behind the CSV's metric columns, in column order
CSV_METRICS = ("fs", "fs_norm", "keff2", "keff2_norm", "eta", "qm", "fom",
               "fom_norm")


def small_config(base, grid_n=2, n_modes=1, band=WIDE_BAND, **kw):
    return SweepConfig(base=base, top_layer_index=2, bottom_layer_index=0,
                       band=band, grid_n=grid_n, n_modes=n_modes, **kw)


# -- SweepConfig -------------------------------------------------------------

def test_config_validation(nominal):
    with pytest.raises(ConfigError):
        small_config(nominal, grid_n=1)
    with pytest.raises(ConfigError):
        small_config(nominal, n_modes=0)
    with pytest.raises(ConfigError):
        small_config(nominal, ratio_min=0.0)
    with pytest.raises(ConfigError):
        small_config(nominal, ratio_min=2.0, ratio_max=0.2)
    with pytest.raises(ConfigError):
        SweepConfig(base=nominal, top_layer_index=1, bottom_layer_index=0,
                    band=WIDE_BAND)  # piezo layer is not sweepable
    with pytest.raises(ConfigError):
        SweepConfig(base=nominal, top_layer_index=2, bottom_layer_index=2,
                    band=WIDE_BAND)
    with pytest.raises(ConfigError):
        SweepConfig(base=nominal, top_layer_index=5, bottom_layer_index=0,
                    band=WIDE_BAND)


def test_thickness_axis(nominal):
    cfg = small_config(nominal, grid_n=5)
    axis = cfg.thickness_axis()
    assert axis.size == 5
    assert axis[0] == pytest.approx(0.2 * nominal.t_piezo, rel=1e-12)
    assert axis[-1] == pytest.approx(2.0 * nominal.t_piezo, rel=1e-12)


# -- run_sweep ---------------------------------------------------------------

@pytest.fixture(scope="module")
def grid4(nominal):
    """4x4 single-mode sweep reused across assertions below."""
    return run_sweep(small_config(nominal, grid_n=4))


def test_corner_cells_match_standalone_analysis(nominal):
    cfg = small_config(nominal, grid_n=2)
    result = run_sweep(cfg)
    assert not result.mask.any()
    axis = cfg.thickness_axis()
    for bi in (0, 1):
        for ti in (0, 1):
            stack = nominal.with_layer_thickness(2, axis[ti])
            stack = stack.with_layer_thickness(0, axis[bi])
            mode = find_modes(stack, cfg.band, 1)[0]
            assert result.fs[bi, ti, 0] == mode.fs
            assert result.keff2[bi, ti, 0] == mode.keff2
            assert result.eta[bi, ti, 0] == mode.eta
            assert result.qm[bi, ti, 0] == mode.qm
            assert result.fom[bi, ti, 0] == mode.fom


def test_fs_decreases_with_added_metal(grid4):
    fs = grid4.fs[:, :, 0]
    assert not grid4.mask.any()
    assert np.all(np.diff(fs, axis=0) < 0)  # thicker bottom layer
    assert np.all(np.diff(fs, axis=1) < 0)  # thicker top layer


def test_normalized_grids_peak_at_one(grid4):
    assert np.nanmax(grid4.keff2_norm) == 1.0
    assert np.nanmax(grid4.fom_norm) == 1.0


def test_fs_norm_uses_piezo_natural_frequency(grid4):
    # f0 of the 250 nm piezo layer with the bundled constants
    f0 = 18601630544.4886
    ratio = grid4.fs[:, :, 0] / grid4.fs_norm[:, :, 0]
    assert np.allclose(ratio, f0, rtol=1e-9)
    assert grid4.f0_piezo == pytest.approx(f0, rel=1e-9)


def test_normalized_grids_match_per_mode_loop(nominal, monkeypatch):
    """keff2_norm and fom_norm equal, bit for bit, a per-mode division over
    solved cells: on the uncalibrated nominal 5x5 map, which solves every
    cell, and on the same map with one cell masked by hand."""
    cfg = small_config(nominal, grid_n=5, n_modes=3,
                       band=FrequencyGrid(1.5e9, 34e9, 2201))
    full = run_sweep(cfg)
    assert not full.mask.any()
    # mask the cell that holds mode 0's best keff2, so the maxima move
    hole = np.unravel_index(np.argmax(full.keff2[:, :, 0]), full.mask.shape)
    evaluate = sweep._eval_cell
    cells = itertools.count()

    def masking(payload):
        cell = next(cells)
        return None if cell == hole[0] * 5 + hole[1] else evaluate(payload)

    monkeypatch.setattr(sweep, "_eval_cell", masking)
    masked = run_sweep(cfg)
    assert masked.mask.sum() == 1 and masked.mask[hole]
    for result in (full, masked):
        ok = ~result.mask
        for name, raw in (("keff2_norm", result.keff2),
                          ("fom_norm", result.fom)):
            expected = np.full(raw.shape, np.nan)
            for m in range(result.n_modes):
                expected[ok, m] = raw[ok, m] / np.max(raw[ok, m])
            got = getattr(result, name)
            assert np.array_equal(got, expected, equal_nan=True), name
            assert np.isnan(got[result.mask]).all()


def test_result_grids_are_read_only(grid4):
    for name in CSV_METRICS:
        with pytest.raises(ValueError):
            getattr(grid4, name)[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        grid4.mask[0, 0] = True


def test_parallel_run_is_bit_identical(nominal):
    cfg = small_config(nominal, grid_n=3,
                       band=FrequencyGrid(1.5e9, 9e9, 601))
    serial = run_sweep(cfg, jobs=1)
    pooled = run_sweep(cfg, jobs=2)
    for name in ("fs", "fs_norm", "keff2", "keff2_norm", "eta", "qm",
                 "fom", "fom_norm"):
        a = getattr(serial, name)
        b = getattr(pooled, name)
        assert np.array_equal(a, b, equal_nan=True), name
    assert np.array_equal(serial.mask, pooled.mask)


def test_mode_planes_hold_mode_numbers(nominal):
    """Plane 0 holds mode 0 in every cell: a cell whose fundamental lies
    below the band is masked, not filled with its next mode."""
    cfg = small_config(nominal, grid_n=3, band=FrequencyGrid(3.5e9, 11e9, 2))
    result = run_sweep(cfg)
    axis = cfg.thickness_axis()
    below = np.array([[mode_count(nominal.with_layer_thickness(0, tb)
                                  .with_layer_thickness(2, tt), 3.5e9) > 0
                       for tt in axis] for tb in axis])
    assert below.any() and not below.all()
    assert np.array_equal(result.mask, below)


def test_band_missing_all_modes_raises(nominal):
    cfg = small_config(nominal, grid_n=2, n_modes=3,
                       band=FrequencyGrid(40e9, 45e9, 301))
    with pytest.raises(BandCoverageError, match="band does not cover"):
        run_sweep(cfg)


# -- CSV ---------------------------------------------------------------------

def test_csv_layout_and_round_trip(grid4, tmp_path):
    path = tmp_path / "sweep.csv"
    export_sweep_csv(grid4, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 * 4
    # bottom-major ordering: the top thickness cycles fastest
    first = [ln.split(",")[:2] for ln in lines[1:6]]
    tops = [float(p[0]) for p in first]
    bots = [float(p[1]) for p in first]
    assert tops[:4] == sorted(tops[:4])
    assert bots[0] == bots[1] == bots[2] == bots[3]
    assert bots[4] > bots[0]
    assert all(ln.endswith(",1") for ln in lines[1:])
    assert_csv_matches(grid4, path)


def assert_csv_matches(result, path):
    """float() of every CSV field gives back its grid value bit for bit,
    in bottom-major row order; masked cells write ok = 0 and leave every
    metric field empty."""
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    nt = result.top_thicknesses.size
    n_modes = result.n_modes
    assert len(rows) == result.bottom_thicknesses.size * nt * n_modes
    for k, row in enumerate(rows):
        j, rest = divmod(k, nt * n_modes)
        i, m = divmod(rest, n_modes)
        assert float(row[0]) == result.top_thicknesses[i]
        assert float(row[1]) == result.bottom_thicknesses[j]
        assert int(row[2]) == m
        if result.mask[j, i]:
            assert row[3:] == [""] * len(CSV_METRICS) + ["0"]
            continue
        assert row[-1] == "1"
        got = np.array([float(v) for v in row[3:-1]])
        want = np.array([getattr(result, name)[j, i, m]
                         for name in CSV_METRICS])
        assert got.tobytes() == want.tobytes(), (j, i, m)


def synthetic_result():
    """Hand-built 2x2 single-mode result with one masked cell."""
    shape = (2, 2, 1)
    fs = np.array([[5e9, 6e9], [4e9, np.nan]]).reshape(shape)
    ones = np.where(np.isnan(fs), np.nan, 1.0)
    vals = np.array([[0.0, 0.3], [1.0, np.nan]]).reshape(shape)
    mask = np.array([[False, False], [False, True]])
    return SweepResult(
        top_thicknesses=np.array([50e-9, 500e-9]),
        bottom_thicknesses=np.array([50e-9, 500e-9]),
        t_piezo=250e-9, f0_piezo=1e10,
        fs=fs, fs_norm=fs / 1e10,
        keff2=0.1 * ones, keff2_norm=vals,
        eta=0.5 * ones, qm=300.0 * ones,
        fom=30.0 * ones, fom_norm=vals,
        mask=mask)


def test_masked_cells_export_empty_metrics(tmp_path):
    result = synthetic_result()
    path = tmp_path / "masked.csv"
    export_sweep_csv(result, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    masked = [ln for ln in lines[1:] if ln.endswith(",0")]
    assert len(masked) == 1
    head = masked[0].split(",")
    assert head[3:11] == [""] * 8
    # the masked row is cell (bottom 1, top 1), and solved cells keep
    # their values
    assert_csv_matches(result, path)
    assert lines[2].split(",")[3] == "6000000000"


# -- SVG ---------------------------------------------------------------------

TOP_COLOR = "#fde725"
BOTTOM_COLOR = "#440154"


def cell_fills(svg_text):
    out = []
    for chunk in svg_text.split("<rect ")[1:]:
        if 'width="18" height="18"' in chunk:
            out.append(chunk.split('fill="')[1].split('"')[0])
    return out


def test_heatmap_extremes_and_mask(tmp_path):
    result = synthetic_result()
    path = tmp_path / "map.svg"
    render_heatmap(result, "keff2_norm", 0, path)
    fills = cell_fills(path.read_text())
    assert len(fills) == 4
    assert fills.count("url(#hatch)") == 1
    assert fills.count(TOP_COLOR) == 1      # only the v == vmax cell
    assert BOTTOM_COLOR in fills            # v == 0 cell


def test_heatmap_constant_plane_is_all_top_color(tmp_path):
    result = synthetic_result()
    path = tmp_path / "flat.svg"
    render_heatmap(result, "eta", 0, path)
    fills = [f for f in cell_fills(path.read_text()) if f != "url(#hatch)"]
    assert fills == [TOP_COLOR] * 3


def test_heatmap_real_grid_single_max(grid4, tmp_path):
    path = tmp_path / "k.svg"
    render_heatmap(grid4, "keff2_norm", 0, path)
    fills = cell_fills(path.read_text())
    assert len(fills) == 16
    assert fills.count(TOP_COLOR) == 1


def test_heatmap_deterministic_bytes(grid4, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_heatmap(grid4, "fom_norm", 0, a)
    render_heatmap(grid4, "fom_norm", 0, b)
    assert a.read_bytes() == b.read_bytes()
    assert b.read_text().startswith("<svg")


def test_heatmap_rejects_unknown_metric(grid4, tmp_path):
    with pytest.raises(ConfigError):
        render_heatmap(grid4, "qm", 0, tmp_path / "x.svg")
    assert HEATMAP_METRICS == ("fs_norm", "keff2_norm", "fom_norm", "eta")
