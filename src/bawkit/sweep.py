"""Two-axis electrode-thickness design-space exploration.

A sweep varies the thickness of two non-piezo layers of a base stack over a
shared ratio range (multiples of the piezo thickness), runs modal analysis
in every grid cell, and collects per-mode metric grids plus normalized
companions (fs over the bare-piezo natural frequency, keff2 and FOM over
their per-mode grid maxima).  Cells where the band does not yield the
requested number of modes are masked rather than fatal; only when more than
half the grid is masked does the sweep fail.

Grid cells are independent work items: run_sweep evaluates them serially or
on a process pool and merges strictly by cell index, so the result is
bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .acoustic1d import FrequencyGrid, PhysicsError
from .materials import ConfigError, Stack, derive_constants
from .modal import ModeSearchError, find_modes

HEATMAP_METRICS = ("fs_norm", "keff2_norm", "fom_norm", "eta")

# the eight metric grids of a SweepResult, in sweep CSV column order
_GRIDS = ("fs", "fs_norm", "keff2", "keff2_norm", "eta", "qm", "fom",
          "fom_norm")

# 3-stop monotone ramp (dark violet -> teal -> yellow), interpolated
# linearly per sRGB channel
_RAMP_STOPS = ((0x44, 0x01, 0x54), (0x21, 0x91, 0x8C), (0xFD, 0xE7, 0x25))


class BandCoverageError(RuntimeError):
    """More than half the sweep cells failed mode extraction."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for a two-electrode thickness sweep.

    Thicknesses run from ratio_min*t_piezo to ratio_max*t_piezo on both
    axes.  The varied layers must not be the piezo layer itself.
    """

    base: Stack
    top_layer_index: int
    bottom_layer_index: int
    band: FrequencyGrid
    ratio_min: float = 0.2
    ratio_max: float = 2.0
    grid_n: int = 25
    n_modes: int = 3

    def __post_init__(self):
        n_layers = len(self.base.layers)
        for label, idx in (("top", self.top_layer_index),
                           ("bottom", self.bottom_layer_index)):
            if not 0 <= idx < n_layers:
                raise ConfigError(
                    f"{label}_layer_index {idx} out of range for a "
                    f"{n_layers}-layer stack")
            if self.base.layers[idx].role == "piezo":
                raise ConfigError(f"{label}_layer_index {idx} is the piezo "
                                  "layer; varied layers must be non-piezo")
        if self.top_layer_index == self.bottom_layer_index:
            raise ConfigError("top and bottom layer indices must differ")
        if not 0 < self.ratio_min < self.ratio_max:
            raise ConfigError(
                f"need 0 < ratio_min < ratio_max, got "
                f"({self.ratio_min!r}, {self.ratio_max!r})")
        if self.grid_n < 2:
            raise ConfigError(f"grid_n must be >= 2, got {self.grid_n}")
        if self.n_modes < 1:
            raise ConfigError(f"n_modes must be >= 1, got {self.n_modes}")

    def thickness_axis(self) -> np.ndarray:
        ratios = np.linspace(self.ratio_min, self.ratio_max, self.grid_n)
        return ratios * self.base.t_piezo


@dataclass(frozen=True)
class SweepResult:
    """Metric grids indexed [bottom, top, mode]; mask indexed [bottom, top].

    Masked cells carry NaN in every metric grid.  keff2_norm and fom_norm
    are divided by their per-mode maxima over unmasked cells, so each mode
    plane attains exactly 1.0 somewhere; fs_norm is fs over the natural
    frequency of the bare piezo layer.
    """

    top_thicknesses: np.ndarray
    bottom_thicknesses: np.ndarray
    t_piezo: float
    f0_piezo: float
    fs: np.ndarray
    keff2: np.ndarray
    eta: np.ndarray
    qm: np.ndarray
    fom: np.ndarray
    fs_norm: np.ndarray
    keff2_norm: np.ndarray
    fom_norm: np.ndarray
    mask: np.ndarray = field(repr=False)    # True where the cell failed

    def __post_init__(self):
        nb = self.bottom_thicknesses.size
        nt = self.top_thicknesses.size
        for name in _GRIDS:
            arr = getattr(self, name)
            if arr.shape[:2] != (nb, nt):
                raise ConfigError(f"grid {name} has shape {arr.shape}, "
                                  f"expected ({nb}, {nt}, n_modes)")
        if self.mask.shape != (nb, nt):
            raise ConfigError("mask shape does not match the grid")

    @property
    def n_modes(self) -> int:
        return self.fs.shape[2]


def _eval_cell(payload) -> list[tuple] | None:
    """Run modal analysis for one grid cell; None marks a masked cell.

    Mode plane m holds the mode with mode_number m, so a cell whose band
    misses any of the modes 0 .. n_modes - 1 is masked.
    """
    stack, band, n_modes = payload
    try:
        modes = find_modes(stack, band, max_modes=n_modes)
    except (ModeSearchError, PhysicsError):
        return None
    if [m.mode_number for m in modes] != list(range(n_modes)):
        return None
    return [(m.fs, m.keff2, m.eta, m.qm, m.fom) for m in modes]


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Evaluate the full grid and assemble normalized metric grids.

    jobs > 1 distributes cells over a process pool; results are merged by
    cell index, making the output independent of evaluation order.  Raises
    BandCoverageError when more than 50% of cells fail mode extraction.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    axis = cfg.thickness_axis()
    n = cfg.grid_n

    payloads = []
    for j in range(n):           # bottom-major order
        base_b = cfg.base.with_layer_thickness(cfg.bottom_layer_index,
                                               float(axis[j]))
        for i in range(n):
            cell = base_b.with_layer_thickness(cfg.top_layer_index,
                                               float(axis[i]))
            payloads.append((cell, cfg.band, cfg.n_modes))

    if jobs == 1:
        rows = [_eval_cell(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # map preserves submission order: deterministic merge by index
            chunk = max(1, len(payloads) // (8 * jobs))
            rows = list(pool.map(_eval_cell, payloads, chunksize=chunk))

    # one (cell, mode, metric) array; the five metric grids are views of it
    metrics = np.full((n * n, cfg.n_modes, 5), np.nan)
    for idx, row in enumerate(rows):
        if row is not None:
            metrics[idx] = row
    mask = np.array([row is None for row in rows]).reshape(n, n)

    if mask.sum() * 2 > n * n:
        raise BandCoverageError("band does not cover requested modes")

    f0 = derive_constants(cfg.base).f0_piezo
    metrics.setflags(write=False)
    fs, keff2, eta, qm, fom = np.moveaxis(
        metrics.reshape(n, n, cfg.n_modes, 5), -1, 0)
    fs_norm = fs / f0
    # masked cells hold NaN, so the per-mode maxima are over solved cells
    keff2_norm = keff2 / np.nanmax(keff2, axis=(0, 1))
    fom_norm = fom / np.nanmax(fom, axis=(0, 1))

    for arr in (fs_norm, keff2_norm, fom_norm, mask):
        arr.setflags(write=False)
    return SweepResult(
        top_thicknesses=axis.copy(), bottom_thicknesses=axis.copy(),
        t_piezo=cfg.base.t_piezo, f0_piezo=f0,
        fs=fs, keff2=keff2, eta=eta, qm=qm, fom=fom,
        fs_norm=fs_norm, keff2_norm=keff2_norm, fom_norm=fom_norm, mask=mask)


_CSV_HEADER = ("t_top_m,t_bot_m,mode,fs_hz,fs_norm,keff2,keff2_norm,"
               "eta,qm,fom,fom_norm,ok")


def export_sweep_csv(result: SweepResult, path) -> None:
    """Long-format CSV, one row per (cell, mode), bottom-major row order.

    Masked cells keep their coordinate and mode columns, write ok = 0, and
    leave every metric column empty.  Numbers carry 17 significant digits,
    so float() of a field gives back the grid value bit for bit.
    """
    g = "{:.17g}".format
    values = np.stack([getattr(result, name) for name in _GRIDS],
                      axis=-1).tolist()
    mask = result.mask.tolist()
    lines = [_CSV_HEADER]
    for j, t_bot in enumerate(result.bottom_thicknesses.tolist()):
        for i, t_top in enumerate(result.top_thicknesses.tolist()):
            for m, row in enumerate(values[j][i]):
                tail = (",,,,,,,,,0" if mask[j][i]
                        else "," + ",".join(map(g, row)) + ",1")
                lines.append(f"{g(t_top)},{g(t_bot)},{m}{tail}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ramp_color(t: float) -> str:
    """Hex color at position t in [0, 1] along the 3-stop ramp."""
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, u = _RAMP_STOPS[0], _RAMP_STOPS[1], 2.0 * t
    else:
        lo, hi, u = _RAMP_STOPS[1], _RAMP_STOPS[2], 2.0 * t - 1.0
    rgb = (round(a + (b - a) * u) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap(result: SweepResult, metric: str, mode: int, path) -> None:
    """Write a standalone SVG heatmap of one metric plane.

    Color mapping: cell values are min-max scaled over unmasked cells and
    looked up on the documented 3-stop ramp.  The ramp's top color is
    reserved for cells equal to the plane maximum (other cells cap at
    63/64 of the ramp), so the argmax cell is identifiable by fill alone.
    A constant plane renders entirely in the top color.  Masked cells are
    hatched.  Output bytes depend only on the inputs.
    """
    if metric not in HEATMAP_METRICS:
        raise ConfigError(
            f"unknown metric {metric!r}; expected one of {HEATMAP_METRICS}")
    if not 0 <= mode < result.n_modes:
        raise ConfigError(f"mode {mode} out of range "
                          f"(result has {result.n_modes} modes)")
    plane = getattr(result, metric)[:, :, mode]
    ok = ~result.mask
    vals = plane[ok]
    if vals.size == 0:
        raise ConfigError("every cell is masked; nothing to render")
    vmin, vmax = float(np.min(vals)), float(np.max(vals))

    def t_of(v: float) -> float:
        if v >= vmax:
            return 1.0
        if vmax == vmin:
            return 1.0
        return min((v - vmin) / (vmax - vmin), 1.0 - 1.0 / 64.0)

    nb = result.bottom_thicknesses.size
    nt = result.top_thicknesses.size
    cell = 18
    m_left, m_top, m_bot = 64, 42, 54
    legend_w, m_right = 56, 76
    w = m_left + nt * cell + m_right
    h = m_top + nb * cell + m_bot
    rb = result.bottom_thicknesses / result.t_piezo
    rt = result.top_thicknesses / result.t_piezo

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
               f'height="{h}" viewBox="0 0 {w} {h}">')
    out.append('<defs><pattern id="hatch" width="6" height="6" '
               'patternUnits="userSpaceOnUse">'
               '<rect width="6" height="6" fill="#d8d8d8"/>'
               '<path d="M0,6 L6,0" stroke="#707070" stroke-width="1"/>'
               '</pattern></defs>')
    out.append(f'<rect width="{w}" height="{h}" fill="#ffffff"/>')
    out.append(f'<text x="{m_left}" y="24" font-family="monospace" '
               f'font-size="14" fill="#000000">{metric} mode {mode}</text>')

    # grid: x axis = bottom-layer ratio, y axis = top-layer ratio
    # (y grows upward, so row 0 of the top axis sits at the bottom edge)
    for i in range(nt):
        y = m_top + (nt - 1 - i) * cell
        for j in range(nb):
            x = m_left + j * cell
            if result.mask[j, i]:
                fill = "url(#hatch)"
            else:
                fill = _ramp_color(t_of(float(plane[j, i])))
            out.append(f'<rect x="{x}" y="{y}" width="{cell}" '
                       f'height="{cell}" fill="{fill}"/>')

    ax_font = 'font-family="monospace" font-size="10" fill="#000000"'
    n_ticks = 5
    for k in range(n_ticks):
        fj = k * (nb - 1) / (n_ticks - 1)
        x = m_left + fj * cell + cell / 2.0
        r = rb[0] + (rb[-1] - rb[0]) * (k / (n_ticks - 1))
        out.append(f'<text x="{x:.1f}" y="{m_top + nb * cell + 14}" '
                   f'text-anchor="middle" {ax_font}>{r:.2f}</text>')
        y = m_top + (nt - 1 - fj) * cell + cell / 2.0
        rr = rt[0] + (rt[-1] - rt[0]) * (k / (n_ticks - 1))
        out.append(f'<text x="{m_left - 6}" y="{y:.1f}" text-anchor="end" '
                   f'dominant-baseline="middle" {ax_font}>{rr:.2f}</text>')
    out.append(f'<text x="{m_left + nb * cell / 2.0:.1f}" '
               f'y="{m_top + nb * cell + 32}" text-anchor="middle" '
               f'{ax_font}>t_bot / t_piezo</text>')
    out.append(f'<text x="14" y="{m_top + nt * cell / 2.0:.1f}" '
               f'text-anchor="middle" {ax_font} transform="rotate(-90 14 '
               f'{m_top + nt * cell / 2.0:.1f})">t_top / t_piezo</text>')

    # legend: 64-step vertical ramp, max at the top
    lx = m_left + nt * cell + 18
    lh = nb * cell
    steps = 64
    for s in range(steps):
        t = (steps - 1 - s) / (steps - 1)
        y0 = m_top + s * lh / steps
        out.append(f'<rect x="{lx}" y="{y0:.2f}" width="14" '
                   f'height="{lh / steps + 0.5:.2f}" '
                   f'fill="{_ramp_color(t)}"/>')
    out.append(f'<text x="{lx + 18}" y="{m_top + 8}" {ax_font}>'
               f'{vmax:.3g}</text>')
    out.append(f'<text x="{lx + 18}" y="{m_top + lh}" {ax_font}>'
               f'{vmin:.3g}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
