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
safeguarded Newton step.  A root closes once the Taylor model's own
error bound, the orders it omits over the root function's slope, puts
it within a tenth of the tolerance of a step that stays inside the
circle: on the nominal stack every root closes on the first pass after
the seed circles, two kernel calls in all.  A mode whose coupling lies
so far below 1/Qm that |Y| has no minimum is flagged coupling_null and
reported by its lossless (fs, fp) pair.  eta and Qm of every mode come
from one strain_energy call at all the fs values.
calibrate_piezo_stiffness runs the same search for mode 0, without the
energies, at each trial scale of a safeguarded secant search that starts
at the scale mode 0's open-circuit root and weight predict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvfloat import write_csv
from .acoustic1d import EnergyPartition, FrequencyGrid, \
    _open_circuit_modes, _open_circuit_theta, admittance_bvp, \
    admittance_mason, strain_energy
from .materials import ConfigError, Stack

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
# a model step that stays inside its circle closes its root when the
# model's error bound puts the root within this share of the tolerance
_CLOSE_FRACTION = 0.1

# relative step at which find_modes stops refining fs and fp
_REFINE_TOL = 1e-9
# an open-circuit root whose coupling weight lies below this has fs and
# fp closer than the refinement tolerance: it is no resonance of Y
_INERT_WEIGHT = _REFINE_TOL
# the walk over a band's open-circuit roots gives up after skipping this
# many inert ones: a layer metres thick puts billions of roots in a GHz
# band, none of them coupled, while a passive substrate 100 um thick
# puts hundreds there, all coupled
_MAX_INERT_ROOTS = 1000

# calibration searches the c33e scale in [_SCALE_MIN, _SCALE_MAX]; the
# open-circuit estimate of mode 0's fs is taken at scale 1 and at scale
# e^_PREDICT_STEP, its root walked up from _NEAR_ZERO_HZ
_SCALE_MIN, _SCALE_MAX = 0.5, 2.0
_PREDICT_STEP = 0.01
_NEAR_ZERO_HZ = 1.0


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


def keff2(fs: float, fp: float) -> float:
    """Effective coupling from the fs/fp pair, in the IEEE form
    (pi/2) (fs/fp) tan((pi/2) (fp - fs)/fp)."""
    if not 0 < fs <= fp:
        raise ConfigError(f"need 0 < fs <= fp, got ({fs!r}, {fp!r})")
    return (math.pi / 2.0) * (fs / fp) * math.tan(
        (math.pi / 2.0) * (fp - fs) / fp)


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


def _half_wave(mode_order: int, velocity: float, x: float,
               name: str) -> float:
    """n v / (2 x), with a ConfigError unless n >= 1 and v, x and the
    result are all finite and > 0; name is what x is, for the message."""
    if mode_order < 1:
        raise ConfigError(f"mode_order must be >= 1, got {mode_order}")
    for what, value in (("velocity", velocity), (name, x)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{what} must be finite and > 0, got {value!r}")
    out = mode_order * velocity / (2.0 * x)
    if not 0 < out < math.inf:
        raise ConfigError(f"the estimate n v / (2 {name}) = {out!r} is not "
                          f"finite and > 0")
    return out


def estimate_frequency(mode_order: int, velocity: float, thickness: float) -> float:
    """Thickness-overtone estimator f_n = n v / (2 t).  Raises ConfigError
    unless n >= 1 and v, t and f_n are all finite and > 0."""
    return _half_wave(mode_order, velocity, thickness, "thickness")


def estimate_thickness(mode_order: int, velocity: float, frequency: float) -> float:
    """Inverse of estimate_frequency: t = n v / (2 f), under the same
    checks."""
    return _half_wave(mode_order, velocity, frequency, "frequency")


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


def _root_function(coef: list, t: float, peak: bool,
                   tail: tuple[float, float]) -> tuple[float, float, float]:
    """Root function, its slope, and a bound on its model error at t on
    a circle's Taylor model.

    coef[m] is Y^(m)(x) r^m / m!, so the model is Y(x + r t) = sum_m
    coef[m] t^m; Horner gives Y, dY/dt and d2Y/dt2 / 2 in one pass.  For
    a peak the function is -Re dY/dt, else Re(conj(Y) dY/dt); both rise
    through their root.  tail bounds, for |t| <= 1, the error of the
    model's Y and dY/dt (see _taylor_tails); the third value carries it
    into the root function.
    """
    y = yt = ytt = 0j
    for a in reversed(coef):
        ytt = ytt * t + yt
        yt = yt * t + y
        y = y * t + a
    e0, e1 = tail
    if peak:
        return -yt.real, -2.0 * ytt.real, e1
    yc = y.conjugate()
    return ((yc * yt).real, abs(yt) ** 2 + 2.0 * (yc * ytt).real,
            e0 * abs(yt) + abs(y) * e1 + e0 * e1)


def _model_newton(coef: list, tail: tuple[float, float], x: float,
                  r: float, lo: float, hi: float, peak: bool):
    """Newton's method on the Taylor model coef of the circle of radius r
    around x, from x.

    Returns the root function's value at x, the root the model steps
    reach inside [lo, hi] narrowed by that value's sign, or None when the
    first step leaves the bracket or meets a slope of the wrong sign, and
    how far the true root can lie from that one: the model's residual
    there plus its error bound (tail), over its slope, in Hz.  The bound
    holds only for a root inside the circle.
    """
    q0, dq, err = _root_function(coef, 0.0, peak, tail)
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
        q, dq, err = _root_function(coef, tb, peak, tail)
    return q0, fb, r * (abs(q) + err) / dq if dq > 0.0 else math.inf


def _taylor_tails(c: np.ndarray):
    """The coefficients of order n/2 and up, which the model omits.

    Returns, per row, True where they do not decay (a pole lies near or
    inside the circle, which must shrink), and their sums sum_m |c_m| and
    sum_m m |c_m|: for |t| <= 1 these bound the omitted terms of Y and of
    dY/dt, and the aliased ones, which are smaller still.
    """
    mag = np.abs(c)
    order = _CIRCLE_POINTS // 2
    omitted = mag[:, order:]
    too_wide = omitted.max(axis=1) > _TAIL_RATIO * mag[:, :order].max(axis=1)
    return too_wide.tolist(), list(zip(
        omitted.sum(axis=1).tolist(),
        (omitted @ np.arange(order, mag.shape[1])).tolist()))


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
    a model step of at most rel_tol * f, after a model step that stays
    inside its circle when the model's error bound (_model_newton) is at
    most _CLOSE_FRACTION * rel_tol * f, or once its bracket is at most
    rel_tol * f wide; all close after _MAX_PASSES passes.

    Returns the estimates and whether each was found: one that ends next
    to a bracket end that no sign confirmed has no root in its bracket.
    """
    x, lo, hi = x.tolist(), lo.tolist(), hi.tolist()
    radius = [_CIRCLE_RADIUS * f for f in x]
    peak = peak.tolist()
    sure_lo, sure_hi = [False] * len(x), [False] * len(x)
    order = _CIRCLE_POINTS // 2

    def step(b, coef, too_wide, tail) -> bool:
        """One pass of root b; True while it stays open."""
        if too_wide:
            radius[b] /= _SHRINK
            return True
        xb, rb = x[b], radius[b]
        q, f, err = _model_newton(coef, tail, xb, rb, lo[b], hi[b], peak[b])
        if q == 0.0:
            sure_lo[b] = sure_hi[b] = True
            return False
        if q < 0.0:
            lo[b], sure_lo[b] = xb, True
        else:
            hi[b], sure_hi[b] = xb, True
        if f is not None:
            x[b], moved = f, abs(f - xb)
            return moved > rel_tol * xb and not (
                moved <= rb and err <= _CLOSE_FRACTION * rel_tol * xb)
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
        done = {b for b, coef, too_wide, tail in zip(
            given, c[:, :order].tolist(), *_taylor_tails(c))
            if not step(b, coef, too_wide, tail)}
        live = [b for b in live if b not in done]
    for _ in range(_MAX_PASSES):
        if not live:
            break
        c = _circle_taylor(evaluate, np.array([x[b] for b in live]),
                           np.array([radius[b] for b in live]))
        live = [b for b, coef, too_wide, tail in zip(
            live, c[:, :order].tolist(), *_taylor_tails(c))
            if step(b, coef, too_wide, tail)]
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


def _coupled_roots(stack: Stack, band: FrequencyGrid,
                   max_modes: int) -> list[tuple[int, float, float]]:
    """(mode number, f, weight) of the first max_modes open-circuit roots
    in the band (acoustic1d's Pruefer count) that couple to the
    electrodes; a root whose coupling weight is below _INERT_WEIGHT is no
    resonance of Y and is skipped.

    Raises ModeSearchError, naming the band's root count, once
    _MAX_INERT_ROOTS roots have been skipped, and ConfigError when that
    count is not finite.
    """
    roots, inert = [], 0
    for root in _open_circuit_modes(stack, band.f_min, band.f_max):
        if root[2] >= _INERT_WEIGHT:
            roots.append(root)
            if len(roots) >= max_modes:
                break
            continue
        inert += 1
        if inert == _MAX_INERT_ROOTS:
            count = mode_count(stack, band.f_max) - mode_count(stack,
                                                               band.f_min)
            raise ModeSearchError(
                f"the band holds {count} open-circuit roots, and {inert} "
                f"of the lowest do not couple to the electrodes")
    return roots


def _search(stack: Stack, band: FrequencyGrid, max_modes: int,
            backend: str, rel_tol: float):
    """(mode numbers, fs, fp, coupling-null flags) of up to max_modes
    modes whose open-circuit root lies in the band.

    The coupled open-circuit roots (_coupled_roots) number the modes.
    One circle call at all roots seeds the search: fp starts at the root,
    and that circle is its first pass; fs starts at the nearest pole of
    Y, root + r c2 / c3 from the Taylor coefficients c.  A lossy fs can
    lie above its lossless root, so the roots do not bracket fs.  A mode
    whose lossy fs or fp has no root in its bracket is coupling-null: its
    coupling lies so far below 1/Qm that |Y| has no minimum.  Its fs and
    fp are the lossless pair instead.
    """
    roots = _coupled_roots(stack, band, max_modes)
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
    Newton step is at most refine_tol relative, or until the Taylor
    model's error bound puts the root within refine_tol / 10 of a step
    inside its sampling circle; a coupling-null mode reports its lossless
    pair (see _search).  eta and Qm are evaluated at
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
    """Write mode,fs_hz,fp_hz,keff2,eta,qm,fom,coupling_null rows: mode
    is the physical mode_number, coupling_null is 0 or 1."""
    write_csv(path, "mode,fs_hz,fp_hz,keff2,eta,qm,fom,coupling_null",
              [[m.mode_number, m.fs, m.fp, m.keff2, m.eta, m.qm, m.fom,
                m.coupling_null] for m in modes])


def _lowest_fs(stack: Stack, band: FrequencyGrid) -> float:
    """fs of mode 0, the fundamental: find_modes(stack, band, 1)[0].fs
    from the same search, without the energies and Qm.  Raises
    ModeSearchError when the band holds no mode 0."""
    numbers, fs, _, _ = _search(stack, band, 1, "bvp", _REFINE_TOL)
    if numbers[0] != 0:
        raise ModeSearchError(f"the band holds no mode 0; its lowest mode "
                              f"is mode {numbers[0]}")
    return float(fs[0])


def _mode0_estimate(stack: Stack, f_max: float) -> float | None:
    """f_oc sqrt(1 - w) of mode 0, from its open-circuit root f_oc and
    coupling weight w: the fs it would have if no other mode coupled.
    None when mode 0 lies above f_max, is inert, or has w >= 1."""
    for number, f, w in _open_circuit_modes(stack, _NEAR_ZERO_HZ, f_max):
        if number == 0 and _INERT_WEIGHT <= w < 1.0:
            return f * math.sqrt(1.0 - w)
        break
    return None


def calibrate_piezo_stiffness(stack: Stack, target_fs: float,
                              band: FrequencyGrid) -> tuple[Stack, float]:
    """Scale the piezo layer's c33e so mode 0's fs lands on target_fs.

    Deposited-film stiffness is the least certain constant in the table;
    matching the measured fundamental with a single scalar on c33e is the
    documented way to anchor the model.  Returns (calibrated stack, scale).
    target_fs must be finite and > 0.  The scale is searched in [0.5, 2].

    The search runs on x = ln scale and y = ln (fs / target_fs).  Before
    any kernel call, mode 0's open-circuit estimate (_mode0_estimate) at
    scale 1 and at e^_PREDICT_STEP gives a slope k; the first trial is the
    Newton step on it from scale 1, the second a Newton step with slope k
    from the first.  Where mode 0 has no estimate or k <= 0, the first
    trial is the stack as given and k = 1/2, the bare-plate law fs ~
    sqrt(c33e).  Later trials take a secant step, then inverse quadratic
    interpolation through the last three trials, kept inside [0.5, 2] and,
    once two trials bracket the target, inside the bracket, which is
    bisected when a step leaves it (Brent, Algorithms for Minimization
    without Derivatives, 1973); a step covering half the way to an untried
    end of [0.5, 2] or more lands on that end (_next_trial).  A trial at
    an end whose fs stops short of the target raises ConfigError: no
    scale reaches it.  Mode 0 need not lie in the band for the stack as
    given; it must for every trial scale, or ModeSearchError is raised.
    Each trial costs one search of mode 0 (_lowest_fs), which refines fs
    and fp as find_modes does but skips the energies and Qm.
    The search stops at the first trial whose fs lies within
    _REFINE_TOL / 2 of target_fs, relative: half the tolerance find_modes
    refines fs to; when the bracket can no longer be split it returns the
    trial nearest the target.
    """
    if not 0 < target_fs < math.inf:
        raise ConfigError(
            f"target fs must be finite and > 0, got {target_fs!r} Hz")
    ip = stack.piezo_index
    base_mat = stack.layers[ip].material

    def rescaled(scale: float) -> Stack:
        mat = replace(base_mat, c33e=base_mat.c33e * scale)
        layers = list(stack.layers)
        layers[ip] = replace(layers[ip], material=mat)
        return replace(stack, layers=tuple(layers))

    lo, hi = math.log(_SCALE_MIN), math.log(_SCALE_MAX)
    x, slope = 0.0, 0.5
    e0 = _mode0_estimate(stack, band.f_max)
    e1 = None if e0 is None else _mode0_estimate(
        rescaled(math.exp(_PREDICT_STEP)), band.f_max)
    if e1 is not None and e1 > e0:
        slope = math.log(e1 / e0) / _PREDICT_STEP
        x = min(max(math.log(target_fs / e0) / slope, lo), hi)
    trials = []
    while True:
        scale = math.exp(x)
        trial = rescaled(scale)
        fs = _lowest_fs(trial, band)
        if abs(fs - target_fs) <= 0.5 * _REFINE_TOL * target_fs:
            return trial, scale
        y = math.log(fs / target_fs)
        if (x == lo and y > 0.0) or (x == hi and y < 0.0):
            raise ConfigError(
                f"target fs = {target_fs:.6g} Hz not reachable: scale "
                f"{scale:g}, the end of the bracket [{_SCALE_MIN:g}, "
                f"{_SCALE_MAX:g}] nearest it, puts mode 0 at {fs:.6g} Hz")
        trials.append((x, y))
        x = _next_trial(trials, slope, lo, hi)
        if x is None:
            scale = math.exp(min(trials, key=lambda t: abs(t[1]))[0])
            return rescaled(scale), scale


def _next_trial(trials: list, slope: float, lo: float,
                hi: float) -> float | None:
    """The next x of a root search of y(x), rising, on [lo, hi].

    trials holds the (x, y) pairs tried so far, none at y = 0.  The step
    is Newton's with the given slope after one trial, the secant through
    the last two after two, and inverse quadratic interpolation through
    the last three after that (the secant where two of their y values
    coincide).  It must fall inside (a, b), a the highest x with y < 0
    and b the lowest with y > 0, each an end of [lo, hi] while no trial
    gives it.  A step that covers half the way to an untried end or more
    lands on that end, whose trial then either brackets the root or
    shows that [lo, hi] holds none; any other step outside (a, b) is
    replaced by the midpoint.  Returns None once the midpoint of a
    bracket is one of its ends.
    """
    below = [x for x, y in trials if y < 0.0]
    above = [x for x, y in trials if y > 0.0]
    a, b = max(below, default=lo), min(above, default=hi)
    x2, y2 = trials[-1]
    x = math.nan    # a step that cannot be taken: the midpoint
    if len(trials) == 1:
        x = x2 - y2 / slope
    elif len(trials) > 2 and len({y for _, y in trials[-3:]}) == 3:
        (x0, y0), (x1, y1) = trials[-3:-1]
        x = (x0 * y1 * y2 / ((y0 - y1) * (y0 - y2))
             + x1 * y0 * y2 / ((y1 - y0) * (y1 - y2))
             + x2 * y0 * y1 / ((y2 - y0) * (y2 - y1)))
    elif trials[-2][1] != y2:
        x1, y1 = trials[-2]
        x = x2 - y2 * (x2 - x1) / (y2 - y1)
    if not above and x >= 0.5 * (a + hi):
        return hi
    if not below and x <= 0.5 * (lo + b):
        return lo
    if a < x < b:
        return x
    mid = 0.5 * (a + b)
    return mid if a < mid < b else None
