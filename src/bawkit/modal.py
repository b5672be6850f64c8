"""Mode extraction and figure-of-merit bookkeeping.

fs is a local maximum of Re(Y) (conductance peak), fp the adjacent local
minimum of |Y| above it.  Both are refined as roots: fs of Re Y', fp of
Re(conj(Y) Y').  The kernels are analytic in frequency, so Y's Taylor
coefficients come from samples on a small circle in the complex plane.
After the coarse scan and one zoom pass, each pass evaluates the circles
of all open roots in one vector kernel call and takes a safeguarded
Newton step.  eta and Qm of every mode come from one strain_energy call
at all the fs values.  Modes are indexed by ascending fs within the
analyzed band; no attempt is made to classify which physical overtone
each one is.  calibrate_piezo_stiffness runs the same search for mode
0's fs alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .acoustic1d import EnergyPartition, FrequencyGrid, admittance_bvp, \
    admittance_mason, strain_energy
from .materials import ConfigError, Stack

KEFF2_DEFINITIONS = ("separation", "ieee", "approx")

# interior samples per bracket in the one zoom pass, which shrinks a
# coarse bracket by 2 / (_ZOOM_POINTS + 1)
_ZOOM_POINTS = 64

# Y is sampled on a circle of _CIRCLE_POINTS points, radius
# _CIRCLE_RADIUS * f, around each estimate f.  The circle must stay well
# inside the Taylor disc, whose radius is about f / (2 Qm)
_CIRCLE_POINTS = 16
_CIRCLE_RADIUS = 3e-5
# coefficients of order >= _CIRCLE_POINTS / 2 above _TAIL_RATIO times the
# leading ones: the circle shrinks by _SHRINK before the next pass
_TAIL_RATIO = 1e-6
_SHRINK = 16
# Newton steps on the Taylor model per pass, and the passes after which
# every estimate closes (so refine_tol = 0 ends too)
_MODEL_STEPS = 6
_MAX_PASSES = 40

# relative step at which find_modes stops refining fs and fp
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


def _interior_extrema(values: np.ndarray, maxima: bool) -> np.ndarray:
    """Indices of strict interior maxima (or minima) of a 1-D array."""
    v = values if maxima else -values
    mid = v[1:-1]
    return np.flatnonzero((mid > v[:-2]) & (mid > v[2:])) + 1


def _kernel(stack: Stack, backend: str):
    """The backend's admittance as a function of the frequencies alone."""
    if backend == "bvp":
        return functools.partial(admittance_bvp, stack)
    if backend == "mason":
        return functools.partial(admittance_mason, stack)
    raise ConfigError(f"backend must be 'bvp' or 'mason', got {backend!r}")


def _coarse_brackets(evaluate, band: FrequencyGrid, max_modes: int):
    """Scan the band; return it with the fs and fp sample of each mode.

    Returns (freqs, fs_idx, fp_idx): fs_idx[k] is mode k's conductance
    peak and fp_idx[k] the first |Y| minimum above it, for up to
    max_modes modes whose fp lies in the band.  A trailing peak whose fp
    lies beyond the band is dropped.  Raises ModeSearchError when the
    band holds no complete mode, or when a peak has no |Y| minimum
    before the next peak.
    """
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
        if pos == min_idx.size or min_idx[pos] >= next_i:
            # malformed unless this is the last peak in the band, whose
            # fp lies beyond it: that trailing mode is dropped
            if k + 1 < len(max_idx):
                raise ModeSearchError(
                    f"no |Y| minimum found between the conductance peak "
                    f"at {freqs[i]:.6g} Hz and the next resonance; band "
                    f"appears malformed")
            break
        fs_idx.append(i)
        fp_idx.append(min_idx[pos])
    if not fs_idx:
        raise ModeSearchError("no resonance found in band")
    return freqs, np.array(fs_idx), np.array(fp_idx)


@functools.lru_cache(maxsize=None)
def _circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-th roots of unity, and the matrix that takes n samples on
    them to their discrete Fourier coefficients (the DFT over n)."""
    k = np.arange(n)
    points = np.exp(2j * np.pi * k / n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n) / n
    points.flags.writeable = False
    dft.flags.writeable = False
    return points, dft


def _circle_taylor(evaluate, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Scaled Taylor coefficients of Y at each real x, from one call.

    Samples Y at the n = _CIRCLE_POINTS points x + r e^(2 pi i k / n).
    Row j of the result holds Y^(m)(x_j) r_j^m / m! for m < n, each up to
    the aliased term of order m + n: the trapezoid rule on Cauchy's
    integral (Lyness and Moler, SIAM J. Numer. Anal. 4(2), 1967).
    """
    points, dft = _circle(_CIRCLE_POINTS)
    y = evaluate((x[:, None] + r[:, None] * points).ravel())
    return y.reshape(x.size, points.size) @ dft


def _root_function(coef: list, t: float, peak: bool) -> tuple[float, float]:
    """Root function and its slope at t on a circle's Taylor model.

    coef[m] is Y^(m)(x) r^m / m!, so the model is Y(x + r t) = sum_m
    coef[m] t^m; Horner gives Y, dY/dt and d2Y/dt2 / 2 in one pass.  For
    a peak the function is -Re dY/dt, else Re(conj(Y) dY/dt); both rise
    through their root.
    """
    y = yt = ytt = 0j
    for a in reversed(coef):
        ytt = ytt * t + yt
        yt = yt * t + y
        y = y * t + a
    if peak:
        return -yt.real, -2.0 * ytt.real
    yc = y.conjugate()
    return (yc * yt).real, abs(yt) ** 2 + 2.0 * (yc * ytt).real


def _refine_roots(evaluate, freqs: np.ndarray, centre: np.ndarray,
                  peak: np.ndarray, rel_tol: float) -> np.ndarray:
    """Refine every coarse extremum freqs[centre] together; return them.

    A peak entry is an fs, the root of Re Y' (a maximum of Re Y); the
    others are fp, the root of Re(conj(Y) Y') (a minimum of |Y|).

    One zoom pass samples _ZOOM_POINTS interior points of each
    [freqs[c - 1], freqs[c + 1]] in one evaluate call.  Its best sample
    starts the search, and its two neighbours bracket the root.  Each
    later pass takes the Taylor coefficients on the circles around all
    open estimates in one call (_circle_taylor).  The sign of the root
    function at the centre narrows the bracket, and Newton's method on
    the Taylor model of order n/2 - 1 (n = _CIRCLE_POINTS) gives the
    next estimate.  A model step that leaves the bracket, or a slope of
    the wrong sign, bisects instead.  When the coefficients of order n/2
    and up do not decay, a pole lies near or inside the circle (a
    resonance narrower than it): the circle shrinks and that pass takes
    no step.  An estimate closes after a model step of at most
    rel_tol * f, or once its bracket is at most rel_tol * f wide; all
    close after _MAX_PASSES passes.
    """
    lo = freqs[centre - 1]
    hi = freqs[centre + 1]
    t = np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)
    grid = lo[:, None] + (hi - lo)[:, None] * t
    y = evaluate(grid.ravel()).reshape(grid.shape)
    best = np.argmax(np.where(peak[:, None], y.real, -np.abs(y)), axis=1)
    rows = np.arange(centre.size)
    x = grid[rows, best].tolist()
    lo = np.where(best > 0, grid[rows, np.maximum(best - 1, 0)], lo).tolist()
    hi = np.where(best < _ZOOM_POINTS - 1,
                  grid[rows, np.minimum(best + 1, _ZOOM_POINTS - 1)],
                  hi).tolist()
    radius = [_CIRCLE_RADIUS * f for f in x]
    peak = peak.tolist()

    order = _CIRCLE_POINTS // 2
    live = list(range(centre.size))
    for _ in range(_MAX_PASSES):
        if not live:
            break
        c = _circle_taylor(evaluate, np.array([x[b] for b in live]),
                           np.array([radius[b] for b in live]))
        mag = np.abs(c)
        wide = (mag[:, order:].max(axis=1)
                > _TAIL_RATIO * mag[:, :order].max(axis=1))
        still = []
        for b, coef, too_wide in zip(live, c[:, :order].tolist(),
                                     wide.tolist()):
            if too_wide:
                radius[b] /= _SHRINK
                still.append(b)
                continue
            xb, rb, pk = x[b], radius[b], peak[b]
            q, dq = _root_function(coef, 0.0, pk)
            if q == 0.0:
                continue
            if q < 0.0:
                lo[b] = xb
            else:
                hi[b] = xb
            newton = False
            tb, fb = 0.0, xb
            for _ in range(_MODEL_STEPS):
                if not dq > 0.0:
                    break
                tn = tb - q / dq
                fn = xb + rb * tn
                if not lo[b] <= fn <= hi[b]:
                    break
                newton = True
                if fn == fb:
                    break
                tb, fb = tn, fn
                q, dq = _root_function(coef, tb, pk)
            if newton:
                x[b] = fb
                if abs(fb - xb) > rel_tol * xb:
                    still.append(b)
            else:
                x[b] = 0.5 * (lo[b] + hi[b])
                if hi[b] - lo[b] > rel_tol * x[b]:
                    still.append(b)
        live = still
    return np.array(x)


def find_modes(stack: Stack, band: FrequencyGrid, max_modes: int, *,
               backend: str = "bvp", refine_tol: float = _REFINE_TOL,
               keff2_definition: str = "ieee") -> list[ModeSummary]:
    """Locate up to max_modes (fs, fp) pairs in the band and grade them.

    The band grid is the coarse scan.  Each conductance peak and the
    adjacent |Y| minimum above it are refined together as roots (see
    _refine_roots) until a Newton step is at most refine_tol relative.
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
    evaluate = _kernel(stack, backend)
    freqs, fs_idx, fp_idx = _coarse_brackets(evaluate, band, max_modes)
    centre = np.concatenate((fs_idx, fp_idx))
    refined = _refine_roots(evaluate, freqs, centre,
                            np.arange(centre.size) < fs_idx.size, refine_tol)
    fs_all = refined[:fs_idx.size]
    pairs = list(zip(fs_all.tolist(), refined[fs_idx.size:].tolist()))
    for fs, fp in pairs:
        if not fp > fs:
            raise ModeSearchError(
                f"refined fp = {fp:.6g} Hz does not sit above fs = {fs:.6g} Hz")

    partitions = strain_energy(stack, fs_all)
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


def _lowest_fs(stack: Stack, band: FrequencyGrid) -> float:
    """fs of mode 0 alone: find_modes(stack, band, 1)[0].fs without fp.

    The same coarse scan and bracket selection as find_modes, so it
    raises ModeSearchError in the same cases, and the same refinement of
    fs; fp, the energies and Qm are never computed.
    """
    evaluate = _kernel(stack, "bvp")
    freqs, fs_idx, _ = _coarse_brackets(evaluate, band, 1)
    return float(_refine_roots(evaluate, freqs, fs_idx, np.ones(1, bool),
                               _REFINE_TOL)[0])


def calibrate_piezo_stiffness(stack: Stack, target_fs: float,
                              band: FrequencyGrid) -> tuple[Stack, float]:
    """Scale the piezo layer's c33e so mode 0's fs lands on target_fs.

    Deposited-film stiffness is the least certain constant in the table;
    matching the measured fundamental with a single scalar on c33e is the
    documented way to anchor the model.  Returns (calibrated stack, scale).
    The scale is searched in [0.5, 2], and the band must contain mode 0
    for every scale in that bracket.  Each trial scale costs one fs-only
    mode search, which refines fs as find_modes does but skips fp, the
    energies and Qm.  A bracketed secant search over the scale stops at
    the first trial whose fs lies within _REFINE_TOL / 2 of target_fs,
    relative: half the tolerance find_modes refines fs to.
    """
    ip = stack.piezo_index
    base_mat = stack.layers[ip].material

    def rescaled(scale: float) -> Stack:
        mat = replace(base_mat, c33e=base_mat.c33e * scale)
        layers = list(stack.layers)
        layers[ip] = replace(layers[ip], material=mat)
        return replace(stack, layers=tuple(layers))

    def objective(scale: float) -> float:
        return _lowest_fs(rescaled(scale), band) - target_fs

    lo, hi = 0.5, 2.0
    g_lo, g_hi = objective(lo), objective(hi)
    if g_lo * g_hi > 0:
        raise ConfigError(
            f"target fs = {target_fs:.6g} Hz not reachable: scale bracket "
            f"[{lo:g}, {hi:g}] moves mode 0 over "
            f"[{g_lo + target_fs:.6g}, {g_hi + target_fs:.6g}] Hz")
    scale = _bracketed_secant(objective, lo, g_lo, hi, g_hi,
                               0.5 * _REFINE_TOL * target_fs)
    return rescaled(scale), scale


def _bracketed_secant(g, x0: float, g0: float, x1: float, g1: float,
                      g_tol: float) -> float:
    """A point between x0 and x1 where |g| <= g_tol; g0, g1 differ in sign.

    Regula falsi with the Pegasus weighting (Dowell and Jarratt, BIT 12,
    1972): each step is the secant through the two bracket ends.  When
    the new point lands on the same side as the last one, the far end's
    g is scaled by g1 / (g1 + g2), so that end cannot stall.  Returns the
    first point where |g| <= g_tol, or the last point tried once the
    secant no longer falls strictly inside the bracket.
    """
    for x, gx in ((x0, g0), (x1, g1)):
        if abs(gx) <= g_tol:
            return x
    while True:
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        if not min(x0, x1) < x2 < max(x0, x1):
            return x1
        g2 = g(x2)
        if abs(g2) <= g_tol:
            return x2
        if g2 * g1 < 0:
            x0, g0 = x1, g1
        else:
            g0 *= g1 / (g1 + g2)
        x1, g1 = x2, g2
