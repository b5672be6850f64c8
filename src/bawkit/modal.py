"""Mode extraction and figure-of-merit bookkeeping.

The modes are numbered physically.  Dropping the losses and holding the
electrodes open (D = 0) leaves a regular Sturm-Liouville problem whose
eigenfrequencies a Pruefer phase counts and numbers exactly (acoustic1d's
open-circuit kernel); mode_number n is the n-th of them from the
fundamental, and a mode belongs to a band when its open-circuit root
lies in [f_min, f_max].  The band sets only these limits: its n_points
steers nothing.

fs is then a local maximum of Re(Y) (conductance peak) and fp the local
minimum of |Y| above it.  Both are refined as roots: fs of Re Y', fp of
Re(conj(Y) Y').  The kernels are analytic in frequency, so Y's Taylor
coefficients come from samples on a small circle in the complex plane.
One circle call at all open-circuit roots seeds the search, fp at the
root and fs at the nearest pole of Y; each later pass evaluates the
circles of all open roots in one vector kernel call and takes a
safeguarded Newton step.  A mode whose coupling lies so far below 1/Qm
that |Y| has no minimum is flagged coupling_null and reported by its
lossless (fs, fp) pair.  eta and Qm of every mode come from one
strain_energy call at all the fs values.  calibrate_piezo_stiffness runs
the same search for mode 0, without the energies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .acoustic1d import EnergyPartition, FrequencyGrid, \
    _open_circuit_modes, _open_circuit_theta, admittance_bvp, \
    admittance_mason, strain_energy
from .materials import ConfigError, Stack

KEFF2_DEFINITIONS = ("separation", "ieee", "approx")

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
# an open-circuit root whose coupling weight lies below this has fs and
# fp closer than the refinement tolerance: it is no resonance of Y
_INERT_WEIGHT = _REFINE_TOL


class ModeSearchError(RuntimeError):
    """The requested band does not yield a clean mode list."""


@dataclass(frozen=True)
class ModeSummary:
    """One extracted mode with its coupled-resonator metrics.

    mode_index is the mode's place in the list find_modes returns,
    mode_number its physical index counted from the fundamental (0).  A
    coupling_null mode couples so weakly that |Y| has no minimum near it;
    its fs, fp and keff2 are those of the lossless stack.
    """

    mode_index: int
    mode_number: int
    fs: float
    fp: float
    keff2: float
    eta: float
    qm: float
    fom: float
    coupling_null: bool


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


def mode_count(stack: Stack, f: float) -> int:
    """How many modes of the stack lie below f, coupled or not: the
    eigenfrequencies of its lossless open-circuit problem below f, which
    number the modes (ModeSummary.mode_number).  Raises ConfigError when
    the count is not finite."""
    theta, first, _, _ = _open_circuit_theta(stack, f)
    return max(0, math.ceil(theta(2.0 * math.pi * f)[0]) - first)


def _kernel(stack: Stack, backend: str):
    """The backend's admittance as a function of the frequencies alone."""
    if backend == "bvp":
        return functools.partial(admittance_bvp, stack)
    if backend == "mason":
        return functools.partial(admittance_mason, stack)
    raise ConfigError(f"backend must be 'bvp' or 'mason', got {backend!r}")


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


def _model_newton(coef: list, x: float, r: float, lo: float, hi: float,
                  peak: bool):
    """Newton's method on the Taylor model coef of the circle of radius r
    around x, from x.

    Returns the root function's value at x, and the root the model steps
    reach inside [lo, hi] narrowed by that value's sign, or None when the
    first step leaves the bracket or meets a slope of the wrong sign.
    """
    q0, dq = _root_function(coef, 0.0, peak)
    if q0 < 0.0:
        lo = x
    else:
        hi = x
    q, tb, fb = q0, 0.0, None
    for _ in range(_MODEL_STEPS):
        if not dq > 0.0:
            break
        tn = tb - q / dq
        fn = x + r * tn
        if not lo <= fn <= hi or fn == fb:
            break
        tb, fb = tn, fn
        q, dq = _root_function(coef, tb, peak)
    return q0, fb


def _taylor_tails(c: np.ndarray) -> np.ndarray:
    """True where the coefficients of order n/2 and up do not decay: a
    pole lies near or inside the circle, which must shrink."""
    mag = np.abs(c)
    order = _CIRCLE_POINTS // 2
    return mag[:, order:].max(axis=1) > _TAIL_RATIO * mag[:, :order].max(axis=1)


def _refine_roots(evaluate, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  peak: np.ndarray, first: list, rel_tol: float):
    """Refine every root from its start x in its bracket [lo, hi].

    A peak entry is an fs, the root of Re Y' (a maximum of Re Y); the
    others are fp, the root of Re(conj(Y) Y') (a minimum of |Y|).  Both
    root functions rise through their root.

    Each pass takes the Taylor coefficients on the circles around all
    open estimates in one call (_circle_taylor); first[b], unless None,
    holds root b's coefficients for its first pass, already taken around
    its start.  The sign of the root function at the centre
    narrows the bracket, and Newton's method on the Taylor model of order
    n/2 - 1 (n = _CIRCLE_POINTS) gives the next estimate (_model_newton).
    Where it fails, the estimate bisects the bracket, or moves onto the
    end it heads for while no sign has confirmed that end.  When the
    coefficients of order n/2 and up do not decay (_taylor_tails), a pole
    lies near or inside the circle (a resonance narrower than it): the
    circle shrinks and that pass takes no step.  An estimate closes after
    a model step of at most rel_tol * f, or once its bracket is at most
    rel_tol * f wide; all close after _MAX_PASSES passes.

    Returns the estimates and whether each was found: one that ends next
    to a bracket end that no sign confirmed has no root in its bracket.
    """
    x, lo, hi = x.tolist(), lo.tolist(), hi.tolist()
    radius = [_CIRCLE_RADIUS * f for f in x]
    peak = peak.tolist()
    sure_lo, sure_hi = [False] * len(x), [False] * len(x)
    order = _CIRCLE_POINTS // 2

    def step(b, coef, too_wide) -> bool:
        """One pass of root b; True while it stays open."""
        if too_wide:
            radius[b] /= _SHRINK
            return True
        xb = x[b]
        q, f = _model_newton(coef, xb, radius[b], lo[b], hi[b], peak[b])
        if q == 0.0:
            sure_lo[b] = sure_hi[b] = True
            return False
        if q < 0.0:
            lo[b], sure_lo[b] = xb, True
        else:
            hi[b], sure_hi[b] = xb, True
        if f is not None:
            x[b] = f
            return abs(f - xb) > rel_tol * xb
        if q > 0.0 and not sure_lo[b]:
            x[b] = lo[b]
        elif q < 0.0 and not sure_hi[b]:
            x[b] = hi[b]
        else:
            x[b] = 0.5 * (lo[b] + hi[b])
        return hi[b] - lo[b] > rel_tol * x[b]

    live = list(range(len(x)))
    given = [b for b in live if first[b] is not None]
    if given:
        c = np.array([first[b] for b in given])
        done = {b for b, coef, too_wide in zip(
            given, c[:, :order].tolist(), _taylor_tails(c).tolist())
            if not step(b, coef, too_wide)}
        live = [b for b in live if b not in done]
    for _ in range(_MAX_PASSES):
        if not live:
            break
        c = _circle_taylor(evaluate, np.array([x[b] for b in live]),
                           np.array([radius[b] for b in live]))
        live = [b for b, coef, too_wide in zip(
            live, c[:, :order].tolist(), _taylor_tails(c).tolist())
            if step(b, coef, too_wide)]
    near = max(rel_tol, _REFINE_TOL)
    found = [not ((not sure_lo[b] and x[b] - lo[b] <= near * x[b])
                  or (not sure_hi[b] and hi[b] - x[b] <= near * x[b]))
             for b in range(len(x))]
    return np.array(x), np.array(found)


def _lossless(stack: Stack) -> Stack:
    """The stack with every loss dropped: lossless layers, no dielectric
    loss, no series resistance."""
    layers = tuple(replace(lay, material=replace(lay.material, lossless=True,
                                                 tan_delta=0.0))
                   for lay in stack.layers)
    return replace(stack, layers=layers, rs_electrical=0.0)


def _lossless_fs(stack: Stack, backend: str, f_oc: np.ndarray,
                 weight: np.ndarray) -> np.ndarray:
    """fs of the lossless stack just below each open-circuit root f_oc.

    Near a root w_n the lossless impedance is (beta(w) - K / (w_n^2 -
    w^2)) / (j w C0), with K = weight * w_n^2 and beta smooth, so fs
    solves w^2 = w_n^2 - K / beta(w).  Each pass reads beta off one
    lossless kernel call at the current estimates.  The fixed point is
    the pole of Y whatever the error in K, which only sets how fast it
    converges: a pass that moves no estimate by more than 1e-8 leaves
    them at rounding level, and the loop stops before a kernel call can
    land on the pole itself.
    """
    evaluate = _kernel(_lossless(stack), backend)
    piezo = stack.layers[stack.piezo_index]
    c0 = piezo.material.eps33s * stack.area / piezo.thickness
    w2 = (2.0 * math.pi * f_oc) ** 2
    k = weight * w2
    x = w2 - k
    for _ in range(_MAX_PASSES):
        omega = np.sqrt(x)
        y = evaluate(omega / (2.0 * math.pi))
        beta = (1j * omega * c0 / y).real + k / (w2 - x)
        x_new = w2 - k / beta
        done = np.all(np.abs(x_new - x) <= 1e-8 * x)
        x = x_new
        if done:
            break
    return np.sqrt(x) / (2.0 * math.pi)


def _search(stack: Stack, band: FrequencyGrid, max_modes: int,
            backend: str, rel_tol: float):
    """(mode numbers, fs, fp, coupling-null flags) of up to max_modes
    modes whose open-circuit root lies in the band.

    The lossless open-circuit roots (acoustic1d's Pruefer count) number
    the modes; a root whose coupling weight is below _INERT_WEIGHT is no
    resonance of Y and is skipped.  One circle call at all roots seeds
    the search: fp starts at the root, and that circle is its first pass;
    fs starts at the nearest pole of Y, root + r c2 / c3 from the Taylor
    coefficients c.  A lossy fs can lie above its lossless root, so the
    roots do not bracket fs.  A mode whose lossy fs or fp has no root in
    its bracket is coupling-null: its coupling lies so far below 1/Qm
    that |Y| has no minimum.  Its fs and fp are the lossless pair instead.
    """
    roots = list(itertools.islice(
        ((n, f, w) for n, f, w in _open_circuit_modes(stack, band.f_min,
                                                      band.f_max)
         if w >= _INERT_WEIGHT), max_modes))
    if not roots:
        raise ModeSearchError("no resonance found in band")
    numbers, f_oc, weight = (np.array(v) for v in zip(*roots))
    evaluate = _kernel(stack, backend)
    r = _CIRCLE_RADIUS * f_oc
    c = _circle_taylor(evaluate, f_oc, r)
    with np.errstate(all="ignore"):
        pole = f_oc + r * c[:, 2] / c[:, 3]
    pole = np.where(np.isfinite(pole), pole, f_oc)
    fs0 = pole.real
    # fs lies within twice the resonance's half-width |Im pole| of the
    # pole, or at most as far from it as the root is; fp lies between
    # the pole and the root plus that same margin
    half = np.maximum(2.0 * np.abs(pole.imag), f_oc - fs0)
    fp_hi = f_oc + half
    at_root = (fs0 < f_oc) & (f_oc < fp_hi)
    k = f_oc.size
    x, found = _refine_roots(
        evaluate, np.concatenate((fs0, np.where(at_root, f_oc,
                                                0.5 * (fs0 + fp_hi)))),
        np.concatenate((fs0 - half, fs0)), np.concatenate((fs0 + half, fp_hi)),
        np.arange(2 * k) < k,
        [None] * k + [row if ok else None for row, ok in zip(c, at_root)],
        rel_tol)
    fs, fp = x[:k], x[k:]
    null = ~(found[:k] & found[k:] & (fp > fs))
    if null.any():
        fs[null] = _lossless_fs(stack, backend, f_oc[null], weight[null])
        fp[null] = f_oc[null]
    return numbers, fs, fp, null


def find_modes(stack: Stack, band: FrequencyGrid, max_modes: int, *,
               backend: str = "bvp",
               refine_tol: float = _REFINE_TOL) -> list[ModeSummary]:
    """Locate up to max_modes (fs, fp) pairs in the band and grade them.

    The modes are those whose lossless open-circuit eigenfrequency lies in
    [band.f_min, band.f_max], numbered physically (mode_number) from the
    fundamental; the band sets only these limits, and its n_points plays
    no part.  fs and fp are refined as roots (see _refine_roots) until a
    Newton step is at most refine_tol relative; a coupling-null mode
    reports its lossless pair (see _search).  eta and Qm are evaluated at
    fs, for all modes in one strain_energy call, whatever the backend.
    keff2 is the IEEE definition.
    """
    if max_modes < 1:
        raise ConfigError(f"max_modes must be >= 1, got {max_modes}")
    numbers, fs_all, fp_all, null = _search(stack, band, max_modes, backend,
                                            refine_tol)
    pairs = list(zip(fs_all.tolist(), fp_all.tolist()))
    for fs, fp in pairs:
        if not fp > fs:
            raise ModeSearchError(
                f"refined fp = {fp:.6g} Hz does not sit above fs = {fs:.6g} Hz")

    partitions = strain_energy(stack, fs_all)
    modes = []
    for n, ((fs, fp), number, is_null, partition) in enumerate(zip(
            pairs, numbers.tolist(), null.tolist(), partitions)):
        qm = qm_from_partition(partition, stack)
        k2 = keff2(fs, fp)
        modes.append(ModeSummary(
            mode_index=n,
            mode_number=number,
            fs=fs,
            fp=fp,
            keff2=k2,
            eta=partition.eta,
            qm=qm,
            fom=k2 * qm,
            coupling_null=is_null,
        ))
    return modes


def export_modes_csv(modes: list[ModeSummary], path) -> None:
    """Write mode,fs_hz,fp_hz,keff2,eta,qm,fom,keff2_def rows; keff2_def
    is always ieee, the definition find_modes uses."""
    lines = ["mode,fs_hz,fp_hz,keff2,eta,qm,fom,keff2_def"]
    for m in modes:
        lines.append(
            f"{m.mode_index},{m.fs:.17g},{m.fp:.17g},{m.keff2:.17g},"
            f"{m.eta:.17g},{m.qm:.17g},{m.fom:.17g},ieee")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _lowest_fs(stack: Stack, band: FrequencyGrid) -> float:
    """fs of mode 0, the fundamental: find_modes(stack, band, 1)[0].fs
    from the same search, without the energies and Qm.  Raises
    ModeSearchError when the band holds no mode 0."""
    numbers, fs, _, _ = _search(stack, band, 1, "bvp", _REFINE_TOL)
    if numbers[0] != 0:
        raise ModeSearchError(f"the band holds no mode 0; its lowest mode "
                              f"is mode {numbers[0]}")
    return float(fs[0])


def calibrate_piezo_stiffness(stack: Stack, target_fs: float,
                              band: FrequencyGrid) -> tuple[Stack, float]:
    """Scale the piezo layer's c33e so mode 0's fs lands on target_fs.

    Deposited-film stiffness is the least certain constant in the table;
    matching the measured fundamental with a single scalar on c33e is the
    documented way to anchor the model.  Returns (calibrated stack, scale).
    The scale is searched in [0.5, 2], and the band must contain mode 0
    for every scale tried: a trial that moves mode 0 below the band
    raises ModeSearchError.  Each trial scale costs one search of mode 0
    (_lowest_fs), which refines fs and fp as find_modes does but skips
    the energies and Qm.  A bracketed secant search over the scale stops at
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
