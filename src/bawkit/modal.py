"""Mode extraction and figure-of-merit bookkeeping.

fs is a local maximum of Re(Y) (conductance peak), fp the adjacent local
minimum of |Y| above it.  Every fs and fp bracket taken from the coarse
scan is refined at once by a batched zoom (one vector kernel call per
pass over all open brackets), to a relative frequency tolerance.
eta and Qm of every mode come from one strain_energy call at all the fs
values.  Modes are indexed by ascending fs within the analyzed band; no
attempt is made to classify which physical overtone each one is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .acoustic1d import EnergyPartition, FrequencyGrid, admittance_bvp, \
    admittance_mason, strain_energy
from .materials import ConfigError, Stack

KEFF2_DEFINITIONS = ("separation", "ieee", "approx")

# interior samples per bracket and zoom pass; each pass shrinks a bracket
# by 2 / (_ZOOM_POINTS + 1)
_ZOOM_POINTS = 32

# relative width at which find_modes stops refining fs and fp by default
_REFINE_TOL = 1e-9


class ModeSearchError(RuntimeError):
    """The requested band does not yield a clean mode list."""


@dataclass(frozen=True)
class ModeSummary:
    """One extracted mode with its coupled-resonator metrics."""

    mode_index: int
    fs: float
    fp: float
    keff2: float
    eta: float
    qm: float
    fom: float
    keff2_definition: str


def keff2(fs: float, fp: float, definition: str = "ieee") -> float:
    """Effective coupling from the fs/fp pair.

    definitions:
        separation: (fp^2 - fs^2) / fp^2
        ieee:       (pi/2) (fs/fp) tan((pi/2) (fp - fs)/fp)
        approx:     (pi^2/8) (fp^2 - fs^2) / fp^2
    """
    if not 0 < fs <= fp:
        raise ConfigError(f"need 0 < fs <= fp, got ({fs!r}, {fp!r})")
    if definition == "separation":
        return (fp * fp - fs * fs) / (fp * fp)
    if definition == "ieee":
        return (math.pi / 2.0) * (fs / fp) * math.tan(
            (math.pi / 2.0) * (fp - fs) / fp)
    if definition == "approx":
        return (math.pi ** 2 / 8.0) * (fp * fp - fs * fs) / (fp * fp)
    raise ConfigError(
        f"keff2 definition must be one of {KEFF2_DEFINITIONS}, got {definition!r}")


def qm_from_partition(partition: EnergyPartition, stack: Stack) -> float:
    """Energy-weighted harmonic mix of the per-layer quality factors.

    Qm = [sum_i (U_i/U_tot) / q_i]^-1.  With two buckets (piezo share eta)
    this reduces to 1 / (eta/q_piezo + (1 - eta)/q_metal).  Layers with the
    lossless flag contribute nothing to the sum.
    """
    if len(partition.per_layer) != len(stack.layers):
        raise ConfigError("partition does not match the stack layer count")
    if partition.total <= 0:
        raise ConfigError("partition total energy must be > 0")
    acc = 0.0
    for u_i, lay in zip(partition.per_layer, stack.layers):
        if lay.material.lossless:
            continue
        acc += (u_i / partition.total) / lay.material.q_mech
    if acc == 0.0:
        return math.inf
    return 1.0 / acc


def estimate_frequency(mode_order: int, velocity: float, thickness: float) -> float:
    """Thickness-overtone estimator f_n = n v / (2 t)."""
    if mode_order < 1:
        raise ConfigError(f"mode_order must be >= 1, got {mode_order}")
    if not velocity > 0 or not thickness > 0:
        raise ConfigError("velocity and thickness must be > 0")
    return mode_order * velocity / (2.0 * thickness)


def estimate_thickness(mode_order: int, velocity: float, frequency: float) -> float:
    """Inverse of estimate_frequency: t = n v / (2 f)."""
    if mode_order < 1:
        raise ConfigError(f"mode_order must be >= 1, got {mode_order}")
    if not velocity > 0 or not frequency > 0:
        raise ConfigError("velocity and frequency must be > 0")
    return mode_order * velocity / (2.0 * frequency)


def _zoom_extrema(evaluate, lo: np.ndarray, hi: np.ndarray,
                  maximize: np.ndarray, rel_tol: float) -> np.ndarray:
    """Refine every bracket [lo, hi] together; return the bracket midpoints.

    A bracket with maximize set tracks the largest Re(Y), the others the
    smallest |Y|.  Each pass samples all open brackets at _ZOOM_POINTS
    interior points plus both ends in one evaluate call, then narrows each
    to the two neighbours of its best sample.  A bracket closes once
    (hi - lo) <= rel_tol * (lo + hi) / 2, or when it stops shrinking.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    t = np.linspace(0.0, 1.0, _ZOOM_POINTS + 2)
    width = hi - lo
    live = np.flatnonzero(width > rel_tol * 0.5 * (lo + hi))
    while live.size:
        f = lo[live, None] + width[live, None] * t
        f[:, -1] = hi[live]
        y = evaluate(f.ravel()).reshape(f.shape)
        score = np.where(maximize[live, None], y.real, -np.abs(y))
        best = np.argmax(score, axis=1)
        rows = np.arange(live.size)
        lo[live] = f[rows, np.maximum(best - 1, 0)]
        hi[live] = f[rows, np.minimum(best + 1, _ZOOM_POINTS + 1)]
        shrunk = hi[live] - lo[live] < width[live]
        width[live] = hi[live] - lo[live]
        live = live[shrunk & (width[live] > rel_tol * 0.5 *
                              (lo[live] + hi[live]))]
    return 0.5 * (lo + hi)


def _interior_extrema(values: np.ndarray, maxima: bool) -> np.ndarray:
    """Indices of strict interior maxima (or minima) of a 1-D array."""
    v = values if maxima else -values
    mid = v[1:-1]
    return np.flatnonzero((mid > v[:-2]) & (mid > v[2:])) + 1


def find_modes(stack: Stack, band: FrequencyGrid, max_modes: int, *,
               backend: str = "bvp", refine_tol: float = _REFINE_TOL,
               keff2_definition: str = "ieee") -> list[ModeSummary]:
    """Locate up to max_modes (fs, fp) pairs in the band and grade them.

    The band grid is the coarse scan; each conductance peak and the
    adjacent |Y| minimum above it are refined together by a batched zoom.
    eta and Qm are evaluated at fs, for all modes in one strain_energy
    call, whatever the backend.  A trailing resonance whose fp lies
    beyond the band is dropped.
    """
    if max_modes < 1:
        raise ConfigError(f"max_modes must be >= 1, got {max_modes}")
    if keff2_definition not in KEFF2_DEFINITIONS:
        raise ConfigError(
            f"keff2 definition must be one of {KEFF2_DEFINITIONS}, "
            f"got {keff2_definition!r}")
    if backend == "bvp":
        evaluate = partial(admittance_bvp, stack)
    elif backend == "mason":
        evaluate = partial(admittance_mason, stack)
    else:
        raise ConfigError(f"backend must be 'bvp' or 'mason', got {backend!r}")

    freqs = band.frequencies()
    y = evaluate(freqs)

    max_idx = _interior_extrema(y.real, maxima=True)
    if not max_idx.size:
        raise ModeSearchError("no resonance found in band")
    min_idx = _interior_extrema(np.abs(y), maxima=False)

    # one extra peak past max_modes serves as the fp search boundary;
    # anything beyond that never influences the result.  The fp bracket
    # of a peak is the first |Y| minimum before the next peak.
    max_idx = max_idx[:max_modes + 1]
    fs_idx: list[int] = []
    fp_idx: list[int] = []
    for k, i in enumerate(max_idx[:max_modes]):
        next_i = max_idx[k + 1] if k + 1 < len(max_idx) else len(freqs)
        pos = np.searchsorted(min_idx, i, side="right")
        fs_idx.append(i)
        if pos == min_idx.size or min_idx[pos] >= next_i:
            break
        fp_idx.append(min_idx[pos])

    centre = np.array(fs_idx + fp_idx)
    refined = _zoom_extrema(evaluate, freqs[centre - 1], freqs[centre + 1],
                            np.arange(centre.size) < len(fs_idx), refine_tol)
    fs_all = refined[:len(fs_idx)].tolist()
    pairs = list(zip(fs_all, refined[len(fs_idx):].tolist()))
    for fs, fp in pairs:
        if not fp > fs:
            raise ModeSearchError(
                f"refined fp = {fp:.6g} Hz does not sit above fs = {fs:.6g} Hz")
    # a peak without fp is malformed unless it is the last one in the band,
    # whose fp lies beyond it: that trailing mode is dropped
    if len(pairs) < len(fs_all) < len(max_idx):
        raise ModeSearchError(
            f"no |Y| minimum found between fs = {fs_all[-1]:.6g} Hz and the "
            f"next resonance; band appears malformed")
    if not pairs:
        raise ModeSearchError("no resonance found in band")

    partitions = strain_energy(stack, refined[:len(pairs)])
    modes = []
    for n, ((fs, fp), partition) in enumerate(zip(pairs, partitions)):
        qm = qm_from_partition(partition, stack)
        k2 = keff2(fs, fp, keff2_definition)
        modes.append(ModeSummary(
            mode_index=n,
            fs=fs,
            fp=fp,
            keff2=k2,
            eta=partition.eta,
            qm=qm,
            fom=k2 * qm,
            keff2_definition=keff2_definition,
        ))
    return modes


def export_modes_csv(modes: list[ModeSummary], path) -> None:
    """Write mode,fs_hz,fp_hz,keff2,eta,qm,fom,keff2_def rows."""
    lines = ["mode,fs_hz,fp_hz,keff2,eta,qm,fom,keff2_def"]
    for m in modes:
        lines.append(
            f"{m.mode_index},{m.fs:.17g},{m.fp:.17g},{m.keff2:.17g},"
            f"{m.eta:.17g},{m.qm:.17g},{m.fom:.17g},{m.keff2_definition}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def calibrate_piezo_stiffness(stack: Stack, target_fs: float,
                              band: FrequencyGrid) -> tuple[Stack, float]:
    """Scale the piezo layer's c33e so mode 0's fs lands on target_fs.

    Deposited-film stiffness is the least certain constant in the table;
    matching the measured fundamental with a single scalar on c33e is the
    documented way to anchor the model.  Returns (calibrated stack, scale).
    The scale is searched in [0.5, 2], and the band must contain mode 0
    for every scale in that bracket.  The scale is found by a bracketed
    secant search that stops at the refinement's resolution: fs goes at
    most as the square root of the stiffness, so a scale bracket
    2 * _REFINE_TOL wide pins fs to find_modes' own _REFINE_TOL.  A finer
    bracket would only bisect through the rounding steps of the refined fs.
    """
    ip = stack.piezo_index
    base_mat = stack.layers[ip].material

    def rescaled(scale: float) -> Stack:
        mat = replace(base_mat, c33e=base_mat.c33e * scale)
        layers = list(stack.layers)
        layers[ip] = replace(layers[ip], material=mat)
        return replace(stack, layers=tuple(layers))

    def objective(scale: float) -> float:
        return find_modes(rescaled(scale), band, 1)[0].fs - target_fs

    lo, hi = 0.5, 2.0
    g_lo, g_hi = objective(lo), objective(hi)
    if g_lo * g_hi > 0:
        raise ConfigError(
            f"target fs = {target_fs:.6g} Hz not reachable: scale bracket "
            f"[{lo:g}, {hi:g}] moves mode 0 over "
            f"[{g_lo + target_fs:.6g}, {g_hi + target_fs:.6g}] Hz")
    scale = _bracketed_secant(objective, lo, g_lo, hi, g_hi,
                               2.0 * _REFINE_TOL)
    return rescaled(scale), scale


def _bracketed_secant(g, x0: float, g0: float, x1: float, g1: float,
                      rel_tol: float) -> float:
    """Root of g between x0 and x1, where g0 and g1 differ in sign.

    Regula falsi with the Pegasus weighting (Dowell and Jarratt, BIT 12,
    1972): each step is the secant through the two bracket ends, kept
    half a tolerance inside them.  When the new point lands on the same
    side as the last one, the far end's g is scaled by g1 / (g1 + g2),
    so that end cannot stall.  Stops once the bracket is at most rel_tol
    wide relative to its midpoint, and returns the midpoint (or a point
    where g is exactly zero).
    """
    for x, gx in ((x0, g0), (x1, g1)):
        if gx == 0.0:
            return x
    while abs(x1 - x0) > rel_tol * 0.5 * abs(x0 + x1):
        margin = rel_tol * 0.25 * abs(x0 + x1)
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        x2 = min(max(x2, min(x0, x1) + margin), max(x0, x1) - margin)
        g2 = g(x2)
        if g2 == 0.0:
            return x2
        if g2 * g1 < 0:
            x0, g0 = x1, g1
        else:
            g0 *= g1 / (g1 + g2)
        x1, g1 = x2, g2
    return 0.5 * (x0 + x1)
