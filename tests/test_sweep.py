"""Thickness-sweep grids, CSV export, and SVG heatmap rendering."""

import itertools
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from bawkit import FrequencyGrid, find_modes, mode_count, sweep
from bawkit.materials import ConfigError
from bawkit.sweep import (_RAMP_STOPS, HEATMAP_METRICS, BandCoverageError,
                          SweepConfig, SweepResult, _ramp_colors,
                          export_sweep_csv, render_heatmap, run_sweep)

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


def test_config_rejects_an_infinite_ratio_max(nominal):
    with pytest.raises(ConfigError, match="ratio_max < inf, got .*inf"):
        small_config(nominal, ratio_max=math.inf)


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


def test_run_sweep_rejects_jobs_below_one(nominal, monkeypatch):
    monkeypatch.setattr(sweep, "find_modes", None)    # no cell is solved
    with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
        run_sweep(small_config(nominal), jobs=0)


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
        t_piezo=250e-9,
        fs=fs, fs_norm=fs / 1e10,
        keff2=0.1 * ones, keff2_norm=vals,
        eta=0.5 * ones, qm=300.0 * ones,
        fom=30.0 * ones, fom_norm=vals,
        mask=mask)


@pytest.mark.parametrize("changes, message", [
    ({"qm": np.ones((2, 3, 1))},
     "grid qm has shape (2, 3, 1), expected (2, 2, n_modes)"),
    ({"mask": np.zeros((2, 3), dtype=bool)},
     "mask shape does not match the grid"),
], ids=["grid", "mask"])
def test_result_refuses_a_grid_of_another_shape(changes, message):
    with pytest.raises(ConfigError) as err:
        replace(synthetic_result(), **changes)
    assert str(err.value) == message


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


def ramp_color(t):
    """One ramp color in Python floats: the reference for _ramp_colors."""
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, u = _RAMP_STOPS[0], _RAMP_STOPS[1], 2.0 * t
    else:
        lo, hi, u = _RAMP_STOPS[1], _RAMP_STOPS[2], 2.0 * t - 1.0
    return "#{:02x}{:02x}{:02x}".format(
        *(round(a + (b - a) * u) for a, b in zip(lo, hi)))


def test_ramp_colors_match_scalar_ramp():
    """Every t = k/512, where channels land on exact halves, 64 steps
    from 1 to 0, random t and t outside [0, 1]."""
    t = np.concatenate((np.arange(513) / 512, (63 - np.arange(64)) / 63,
                        np.random.default_rng(9).random(2000),
                        [-0.5, -0.0, 1.5]))
    assert _ramp_colors(t) == [ramp_color(v) for v in t.tolist()]


def test_heatmap_extremes_and_mask(tmp_path):
    result = synthetic_result()
    path = tmp_path / "map.svg"
    render_heatmap(result, "keff2_norm", 0, path)
    fills = cell_fills(path.read_text())
    assert len(fills) == 4
    assert fills.count("url(#hatch)") == 1
    assert fills.count(TOP_COLOR) == 1      # only the v == vmax cell
    assert BOTTOM_COLOR in fills            # v == 0 cell


def test_heatmap_of_a_fully_masked_plane_is_refused(tmp_path):
    result = synthetic_result()
    path = tmp_path / "masked.svg"
    with pytest.raises(ConfigError) as err:
        render_heatmap(replace(result, mask=np.ones_like(result.mask)),
                       "fom_norm", 0, path)
    assert str(err.value) == "every cell is masked; nothing to render"
    assert not path.exists()


def test_heatmap_constant_plane_is_all_top_color(tmp_path):
    result = synthetic_result()
    # eta is 0.5 in every solved cell
    flat = replace(result, fom_norm=result.eta)
    path = tmp_path / "flat.svg"
    render_heatmap(flat, "fom_norm", 0, path)
    fills = [f for f in cell_fills(path.read_text()) if f != "url(#hatch)"]
    assert fills == [TOP_COLOR] * 3


def test_heatmap_real_grid_single_max(grid4, tmp_path):
    path = tmp_path / "k.svg"
    render_heatmap(grid4, "keff2_norm", 0, path)
    fills = cell_fills(path.read_text())
    assert len(fills) == 16
    assert fills.count(TOP_COLOR) == 1


def test_heatmap_legend_is_the_ramp_itself(grid4, tmp_path):
    """The legend is one rect filled by a gradient whose stops, bottom to
    top, are the ramp's, spanning the grid's height."""
    path = tmp_path / "k.svg"
    render_heatmap(grid4, "keff2_norm", 0, path)
    ns = {"s": "http://www.w3.org/2000/svg"}
    root = ET.parse(path).getroot()
    rects = root.findall(".//s:rect", ns)
    legend = [r for r in rects if r.get("fill") == "url(#ramp)"]
    # 16 cells, the hatch tile, the background and the legend
    assert len(rects) == 19 and len(legend) == 1
    assert legend[0].get("height") == str(4 * 18)
    ramp = root.find(".//s:linearGradient[@id='ramp']", ns)
    assert [ramp.get(k) for k in ("x1", "y1", "x2", "y2")] == [
        "0", "1", "0", "0"]
    assert [(float(stop.get("offset")), stop.get("stop-color"))
            for stop in ramp.findall("s:stop", ns)] == [
        (k / 2, "#{:02x}{:02x}{:02x}".format(*rgb))
        for k, rgb in enumerate(_RAMP_STOPS)]


def test_heatmap_deterministic_bytes(grid4, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_heatmap(grid4, "fom_norm", 0, a)
    render_heatmap(grid4, "fom_norm", 0, b)
    assert a.read_bytes() == b.read_bytes()
    assert b.read_text().startswith("<svg")


def test_heatmap_rejects_unknown_metric(grid4, tmp_path):
    for metric in ("qm", "eta"):
        with pytest.raises(ConfigError):
            render_heatmap(grid4, metric, 0, tmp_path / "x.svg")
    assert HEATMAP_METRICS == ("fs_norm", "keff2_norm", "fom_norm")


@pytest.mark.parametrize("mode", [-1, 1])
def test_heatmap_rejects_a_mode_out_of_range(grid4, tmp_path, mode):
    with pytest.raises(ConfigError, match=f"mode {mode} out of range"):
        render_heatmap(grid4, "fom_norm", mode, tmp_path / "x.svg")
