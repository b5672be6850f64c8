"""Mode extraction and figure-of-merit bookkeeping.

The modes are numbered physically.  Dropping the losses and holding the
electrodes open (D = 0) leaves a regular Sturm-Liouville problem whose
eigenfrequencies a Pruefer phase counts and numbers exactly (the
open-circuit section below); mode_number n is the n-th of them from the
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
reported by its lossless (fs, fp) pair.  A stack with no loss at all
(DerivedConstants.lossless) has Re Y = 0 on the real axis, where neither
root means anything: each of its modes takes the lossless pair, fs at
the pole of Y and fp at its open-circuit root.  eta and Qm of every mode
come from one strain_energy call at all the fs values.
calibrate_piezo_stiffness runs the same search for mode 0, the first
open-circuit root counted up from 0 Hz and walked to a limit the stack
sets, without the energies, at each trial scale of a safeguarded secant
search that starts at the scale mode 0's open-circuit root and weight
predict; the band is read once, to check the calibrated mode 0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvfloat import write_csv
from .acoustic1d import EnergyPartition, FrequencyGrid, admittance_bvp, \
    admittance_mason, strain_energy
from .materials import ConfigError, Layer, Stack, derive_constants

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
# e^_PREDICT_STEP; mode 0's root is walked up from _NEAR_ZERO_HZ
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


# ---------------------------------------------------------------------------
# Open-circuit eigenfrequencies (Pruefer phase)


def _prufer_layers(stack: Stack) -> list[tuple[float, float, float, float]]:
    """(t / v, t, rho, Z) of each layer of the lossless open-circuit stack.

    With D = 0 the piezo is an elastic layer of stiffness c33d, every
    other layer keeps c33e, and the losses are dropped: Re(c_star).
    Raises ConfigError naming the layer whose phase span t / v is not
    finite and > 0: a layer so thin that it rounds to 0 s, or so slow
    that it overflows.
    """
    dc = derive_constants(stack)
    out = []
    for lay, c in zip(stack.layers, dc.c_star):
        rho = lay.material.density
        v = math.sqrt(c.real / rho)
        tau = lay.thickness / v
        if not 0.0 < tau < math.inf:
            raise ConfigError(
                f"layer {lay.material.name!r}: its transit time t / v = "
                f"{lay.thickness!r} m / {v:.6g} m/s is {tau!r} s, not "
                f"finite and > 0")
        out.append((tau, lay.thickness, rho, rho * v))
    return out


def _interface(phi: float, s: float) -> tuple[float, float, float]:
    """The phase across an interface that rescales tan(phi) by s on the
    same branch, with the sine and cosine of phi reduced to (-pi/2, pi/2]
    before it."""
    m = math.floor(phi / math.pi + 0.5) * math.pi
    d = phi - m
    sin_p, cos_p = math.sin(d), math.cos(d)
    return m + math.atan2(s * sin_p, cos_p), sin_p, cos_p


def _prufer_phase(phi: float, steps, omega: float) -> tuple[float, float]:
    """The Pruefer phase at the top of the stack and its omega-derivative.

    In each layer u = R sin(phi) and T / (Z omega) = R cos(phi), so phi
    grows by omega t / v across the layer and R stays put.  Continuity of
    u and T at an interface rescales tan(phi) by s = Z_{i+1} / Z_i on the
    same branch.  phi is the phase at the bottom, and steps holds the
    (t / v, s) pair of each layer, with s = 0 for the top one.  The phase
    rises strictly with omega (Pryce, Numerical Solution of Sturm-Liouville
    Problems, 1993).  The interface step is _interface's, written out
    here: the walk takes this loop about seven times a root.
    """
    dphi = 0.0
    for tau, s in steps:
        phi += omega * tau
        dphi += tau
        if s:
            m = math.floor(phi / math.pi + 0.5) * math.pi
            d = phi - m
            sin_p, cos_p = math.sin(d), math.cos(d)
            phi = m + math.atan2(s * sin_p, cos_p)
            dphi *= s / (cos_p * cos_p + s * s * sin_p * sin_p)
    return phi, dphi


def _coupling_weight(stack: Stack, layers, phi: float, omega: float) -> float:
    """h^2 eps (u(t_p) - u(0))^2 / (t_p omega^2 int rho u^2 dz) of the
    mode shape u that the Pruefer phase phi (at the bottom) traces at
    omega; the amplitude R of u = R sin(phi) changes only at interfaces.
    """
    ip = stack.piezo_index
    radius, mass, du = 1.0, 0.0, 0.0
    for i, (tau, t, rho, z) in enumerate(layers):
        phi0, phi = phi, phi + omega * tau
        # int_0^t sin^2(phi0 + k z) dz with k t = omega tau
        mass += rho * radius * radius * t * (
            0.5 - (math.sin(2.0 * phi) - math.sin(2.0 * phi0))
            / (4.0 * omega * tau))
        if i == ip:
            du = radius * (math.sin(phi) - math.sin(phi0))
        if i + 1 < len(layers):
            s = layers[i + 1][3] / z
            phi, sin_p, cos_p = _interface(phi, s)
            radius *= math.sqrt(sin_p * sin_p + cos_p * cos_p / (s * s))
    pm = stack.layers[ip].material
    return (pm.e33 ** 2 / pm.eps33s) * du * du / (
        stack.t_piezo * omega * omega * mass)


def _open_circuit_theta(stack: Stack, f_max: float, layers=None):
    """theta(omega) -> (theta, dtheta/domega) for the lossless open-circuit
    stack, with (first, layers, start) for _open_circuit_modes; layers is
    _prufer_layers(stack), built here unless the caller has it.

    The Pruefer phase starts at pi/2 at a free bottom (T = 0) and at 0 at
    a rigid one (u = 0), and targets pi/2 (free) or 0 (rigid) modulo pi at
    the top.  So theta = (phi_top - target) / pi is an integer exactly at
    the eigenfrequencies; first is the integer it reaches at the lowest
    one above zero.  Raises ConfigError when the phase at f_max is not
    finite: the stack is too thick for its modes below f_max to be
    counted.
    """
    if layers is None:
        layers = _prufer_layers(stack)
    steps = [(tau, nxt[3] / z) for (tau, _, _, z), nxt in
             zip(layers, layers[1:])] + [(layers[-1][0], 0.0)]
    start = 0.5 * math.pi if stack.boundary_bottom == "free" else 0.0
    target = 0.5 * math.pi if stack.boundary_top == "free" else 0.0
    # each interface moves the phase by less than pi/2
    if not math.isfinite(2.0 * math.pi * f_max * sum(t for t, _ in steps)):
        raise ConfigError(
            f"the open-circuit mode count below {f_max:.6g} Hz is not "
            f"finite: the stack is too thick")

    def theta(w):
        phi, dphi = _prufer_phase(start, steps, w)
        return (phi - target) / math.pi, dphi / math.pi

    first = math.floor((start - target) / math.pi) + 1
    return theta, first, layers, start


def _open_circuit_modes(stack: Stack, f_min: float, f_max: float,
                        layers=None):
    """Yield (mode_number, f, weight) for each eigenfrequency f of the
    lossless open-circuit stack in [f_min, f_max], in ascending order;
    layers is passed on to _open_circuit_theta.

    mode_number counts the eigenfrequencies from the lowest above zero
    (_open_circuit_theta), so it is the physical mode index.  Each root
    comes from Newton's method on theta, safeguarded by bisection on its
    bracket.  weight is the mode's coupling to the electrodes
    (_coupling_weight): the separation (fp^2 - fs^2) / fp^2 it would have
    if no other mode coupled, 8 kt^2 / (n pi)^2 for the n-th mode of a
    bare plate and 0 for a mode the electrodes cannot drive.
    """
    theta, first, layers, start = _open_circuit_theta(stack, f_max, layers)
    two_pi = 2.0 * math.pi
    lo, th_lo = two_pi * f_min, theta(two_pi * f_min)[0]
    w_max = two_pi * f_max
    th_max = theta(w_max)[0]
    # theta can round to an integer below first at f_min (a stack so thin
    # that the phase barely moves), which is no root
    for m in range(max(first, math.ceil(th_lo)), math.floor(th_max) + 1):
        a, b = lo, w_max
        # the chord of theta across the bracket starts Newton
        w = a + (m - th_lo) * (b - a) / (th_max - th_lo) \
            if th_max > th_lo else a
        while True:
            th, dth = theta(w)
            if th == m:
                break
            if th < m:
                a = w
            else:
                b = w
            step = w - (th - m) / dth
            if a < step < b:
                # Newton converges quadratically: after a step of 1e-8
                # the next one would be at rounding level
                if abs(step - w) <= 1e-8 * w:
                    w = step
                    break
            else:
                step = 0.5 * (a + b)
                if step in (a, b):
                    break
            w = step
        yield m - first, w / two_pi, _coupling_weight(stack, layers, start, w)
        lo, th_lo = w, float(m)


def mode_count(stack: Stack, f: float) -> int:
    """How many modes of the stack lie below f, coupled or not: the
    eigenfrequencies of its lossless open-circuit problem below f, which
    number the modes (ModeSummary.mode_number).  Raises ConfigError when
    f or the count is not finite."""
    if not math.isfinite(f):
        raise ConfigError(f"mode_count needs a finite f, got {f!r} Hz")
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


def _taylor_tails(c: np.ndarray) -> list[tuple[bool, tuple[float, float]]]:
    """The coefficients of order n/2 and up, which the model omits.

    Returns, per row, whether they do not decay (a pole lies near or
    inside the circle, which must shrink), and their sums sum_m |c_m| and
    sum_m m |c_m|: for |t| <= 1 these bound the omitted terms of Y and of
    dY/dt, and the aliased ones, which are smaller still.  One reduceat
    takes the largest kept and the largest omitted magnitude of each row.
    """
    mag = np.abs(c)
    order = _CIRCLE_POINTS // 2
    omitted = mag[:, order:]
    peaks = np.maximum.reduceat(mag, [0, order], axis=1).tolist()
    return [(top > _TAIL_RATIO * kept, tail) for (kept, top), tail in zip(
        peaks, zip(np.add.reduce(omitted, axis=1).tolist(),
                   (omitted @ np.arange(order, mag.shape[1])).tolist()))]


def _refine_roots(evaluate, x: list, lo: list, hi: list, peak: list,
                  first: tuple[list, np.ndarray | None], rel_tol: float):
    """Refine every root from its start x in its bracket [lo, hi].

    A peak entry is an fs, the root of Re Y' (a maximum of Re Y); the
    others are fp, the root of Re(conj(Y) Y') (a minimum of |Y|).  Both
    root functions rise through their root.  x, lo, hi and peak are
    lists with one entry per root.

    Each pass takes the Taylor coefficients on the circles around all
    open estimates in one call (_circle_taylor); first is (given, c): the
    roots given, in order, have the rows of c as the coefficients of
    their first pass, already taken around their starts.  The sign of
    the root function at the centre
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

    Returns the estimates and whether each was found, as lists: one that
    ends next to a bracket end that no sign confirmed has no root in its
    bracket.
    """
    x, lo, hi = list(x), list(lo), list(hi)
    radius = [_CIRCLE_RADIUS * f for f in x]
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

    def one_pass(live, c) -> list:
        """Step each live root on its row of c; the roots left open."""
        return [b for b, coef, (too_wide, tail) in zip(
            live, c[:, :order].tolist(), _taylor_tails(c))
            if step(b, coef, too_wide, tail)]

    given, c = first
    live = list(range(len(x)))
    if given:
        done = set(given).difference(one_pass(given, c))
        live = [b for b in live if b not in done]
    for _ in range(_MAX_PASSES):
        if not live:
            break
        live = one_pass(live, _circle_taylor(
            evaluate, np.array([x[b] for b in live]),
            np.array([radius[b] for b in live])))
    near = max(rel_tol, _REFINE_TOL)
    found = [not ((not sure_lo[b] and x[b] - lo[b] <= near * x[b])
                  or (not sure_hi[b] and hi[b] - x[b] <= near * x[b]))
             for b in range(len(x))]
    return x, found


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


def _coupled_roots(stack: Stack, f_min: float, f_max: float,
                   max_modes: int) -> list[tuple[int, float, float]]:
    """(mode number, f, weight) of the first max_modes open-circuit roots
    in [f_min, f_max] (_open_circuit_modes) that couple to the
    electrodes; a root whose coupling weight is below _INERT_WEIGHT is no
    resonance of Y and is skipped.

    Raises ModeSearchError, naming the band's root count, once
    _MAX_INERT_ROOTS roots have been skipped, and ConfigError when that
    count is not finite.
    """
    roots, inert = [], 0
    for root in _open_circuit_modes(stack, f_min, f_max):
        if root[2] >= _INERT_WEIGHT:
            roots.append(root)
            if len(roots) >= max_modes:
                break
            continue
        inert += 1
        if inert == _MAX_INERT_ROOTS:
            count = mode_count(stack, f_max) - mode_count(stack, f_min)
            raise ModeSearchError(
                f"the band holds {count} open-circuit roots, and {inert} "
                f"of the lowest do not couple to the electrodes")
    return roots


def _search(stack: Stack, roots: list, backend: str, rel_tol: float):
    """(mode numbers, fs, fp, coupling-null flags) of the modes whose
    coupled open-circuit roots (mode number, f, weight) the caller gives:
    _coupled_roots for a band, _mode0_root for mode 0.  Each is a list,
    one entry per root.

    One circle call at all roots seeds the search: fp starts at the root,
    and that circle is its first pass; fs starts at the nearest pole of
    Y, root + r c2 / c3 from the Taylor coefficients c.  A lossy fs can
    lie above its lossless root, so the roots do not bracket fs.  A mode
    whose lossy fs or fp has no root in its bracket is coupling-null: its
    coupling lies so far below 1/Qm that |Y| has no minimum.  Its fs and
    fp are the lossless pair instead.  The seed and the brackets are
    worked out per root in Python floats, which round as numpy's do;
    only the complex arithmetic runs in numpy.

    A stack with no loss at all (DerivedConstants.lossless) has Re Y = 0
    on the real axis, so neither root function means anything there:
    every mode takes the lossless pair, fs the pole of Y (_lossless_fs)
    and fp its open-circuit root, with no circle call.

    Raises ConfigError, before any kernel call, when (2 pi f_oc |C0|)^2
    is not finite at the highest root: Y ~ j omega C0 there, and the
    search squares |Y|.  Only layers far thinner than an atom put a root
    so high.
    """
    numbers, f_oc, weight = (list(v) for v in zip(*roots))
    dc = derive_constants(stack)
    f_top = max(f_oc)
    y_top = 2.0 * math.pi * f_top * abs(dc.c0)
    if not math.isfinite(y_top * y_top):
        thinnest = min(stack.layers, key=lambda lay: lay.thickness)
        raise ConfigError(
            f"the open-circuit root at {f_top:.6g} Hz puts (2 pi f |C0|)^2 "
            f"past the double range: the layers are too thin, the thinnest "
            f"{thinnest.material.name!r} at {thinnest.thickness!r} m")
    k = len(f_oc)
    if dc.lossless:
        fs = _lossless_fs(stack, backend, np.array(f_oc), np.array(weight))
        return numbers, fs.tolist(), f_oc, [False] * k
    evaluate = _kernel(stack, backend)
    centre = np.array(f_oc)
    r = _CIRCLE_RADIUS * centre
    c = _circle_taylor(evaluate, centre, r)
    with np.errstate(all="ignore"):
        poles = (centre + r * c[:, 2] / c[:, 3]).tolist()
    x, lo, hi, fp_x, fp_lo, fp_hi, given = [], [], [], [], [], [], []
    for j, (f, pole) in enumerate(zip(f_oc, poles)):
        if not cmath.isfinite(pole):
            pole = complex(f)
        fs0 = pole.real
        # fs lies within twice the resonance's half-width |Im pole| of
        # the pole, or at most as far from it as the root is; fp lies
        # between the pole and the root plus that same margin
        half = max(2.0 * abs(pole.imag), f - fs0)
        top = f + half
        at_root = fs0 < f < top
        if at_root:
            given.append(j)
        x.append(fs0)
        lo.append(fs0 - half)
        hi.append(fs0 + half)
        fp_x.append(f if at_root else 0.5 * (fs0 + top))
        fp_lo.append(fs0)
        fp_hi.append(top)
    seeds = c if len(given) == k else c[given]
    x, found = _refine_roots(
        evaluate, x + fp_x, lo + fp_lo, hi + fp_hi, [True] * k + [False] * k,
        ([k + j for j in given], seeds), rel_tol)
    fs, fp = x[:k], x[k:]
    null = [not (found[j] and found[k + j] and fp[j] > fs[j])
            for j in range(k)]
    if any(null):
        flagged = [j for j in range(k) if null[j]]
        pairs = _lossless_fs(stack, backend,
                             np.array([f_oc[j] for j in flagged]),
                             np.array([weight[j] for j in flagged]))
        for j, f in zip(flagged, pairs.tolist()):
            fs[j], fp[j] = f, f_oc[j]
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
    inside its sampling circle; a coupling-null mode, and every mode of a
    stack with no loss, reports its lossless pair (see _search).  eta and
    Qm are evaluated at
    fs, for all modes in one strain_energy call, whatever the backend.
    keff2 is the IEEE definition.
    """
    if max_modes < 1:
        raise ConfigError(f"max_modes must be >= 1, got {max_modes}")
    roots = _coupled_roots(stack, band.f_min, band.f_max, max_modes)
    if not roots:
        raise ModeSearchError("no resonance found in band")
    numbers, fs_all, fp_all, null = _search(stack, roots, backend, refine_tol)
    pairs = list(zip(fs_all, fp_all))
    for fs, fp in pairs:
        if not fp > fs:
            raise ModeSearchError(
                f"refined fp = {fp:.6g} Hz does not sit above fs = {fs:.6g} Hz")

    partitions = strain_energy(stack, fs_all)
    modes = []
    for n, ((fs, fp), number, is_null, partition) in enumerate(zip(
            pairs, numbers, null, partitions)):
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


def _mode0_root(stack: Stack) -> tuple[int, float, float]:
    """(0, f, weight) of mode 0, the fundamental: the first open-circuit
    root counted up from _NEAR_ZERO_HZ.

    Each of the L - 1 interfaces of an L-layer stack moves the Pruefer
    phase by less than pi/2 (_open_circuit_theta), so mode 0 lies at or
    below (L + 1) / (4 sum t/v); a free/free or rigid/rigid plate's mode
    0 lies on that bound, and the walk goes to twice it, a limit the
    stack alone sets.  Raises ModeSearchError when mode 0 lies below
    _NEAR_ZERO_HZ (the walk meets a higher mode first, or no root) or
    does not couple to the electrodes, and ConfigError when the limit is
    not finite and > 0.
    """
    layers = _prufer_layers(stack)
    span = sum(lay[0] for lay in layers)
    limit = (len(layers) + 1) / (2.0 * span)
    if not 0.0 < limit < math.inf:
        longest = max(range(len(layers)), key=lambda i: layers[i][0])
        raise ConfigError(
            f"mode 0's walk limit (L + 1) / (2 sum t/v) is {limit!r} Hz, "
            f"not finite and > 0: the layers' transit times sum to "
            f"{span!r} s, the longest in layer "
            f"{stack.layers[longest].material.name!r}")
    root = next(_open_circuit_modes(stack, _NEAR_ZERO_HZ, limit, layers),
                None)
    if root is None or root[0] != 0:
        raise ModeSearchError(f"mode 0 lies below {_NEAR_ZERO_HZ:g} Hz")
    if root[2] < _INERT_WEIGHT:
        raise ModeSearchError("mode 0 does not couple to the electrodes")
    return root


def _lowest_fs(stack: Stack) -> tuple[float, float]:
    """Mode 0's open-circuit root (_mode0_root) and its fs: find_modes'
    search, without Qm."""
    root = _mode0_root(stack)
    return root[1], _search(stack, [root], "bvp", _REFINE_TOL)[1][0]


def _mode0_estimate(stack: Stack) -> float:
    """f_oc sqrt(1 - w) from mode 0's open-circuit root f_oc and coupling
    weight w (_mode0_root): its fs if no other mode coupled."""
    _, f, w = _mode0_root(stack)
    return f * math.sqrt(1.0 - w)


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
    from the first.  Later trials take a secant step, then inverse quadratic
    interpolation through the last three trials, kept inside [0.5, 2] and,
    once two trials bracket the target, inside the bracket, which is
    bisected when a step leaves it (Brent, Algorithms for Minimization
    without Derivatives, 1973); a step covering half the way to an untried
    end of [0.5, 2] or more lands on that end (_next_trial).  A trial at
    an end whose fs stops short of the target raises ConfigError: no
    scale reaches it.  Mode 0 (_mode0_root) is counted up from 0 Hz to a
    limit the stack sets, so the band plays no part in the search; mode 0
    must couple at scale 1, at e^_PREDICT_STEP and at every trial, or
    ModeSearchError is raised.  Each trial costs one search of mode 0
    (_lowest_fs): find_modes' refinement without the energies and Qm.
    The search stops at the first trial whose fs lies within
    _REFINE_TOL / 2 of target_fs, relative: half the tolerance find_modes
    refines fs to; when the bracket can no longer be split it takes the
    trial nearest the target.  Only then is the band read: the calibrated
    mode 0's open-circuit root, which its trial already found, must lie
    at or below band.f_max, or ModeSearchError is raised.
    """
    if not 0 < target_fs < math.inf:
        raise ConfigError(
            f"target fs must be finite and > 0, got {target_fs!r} Hz")
    ip = stack.piezo_index
    piezo = stack.layers[ip]
    below, above = stack.layers[:ip], stack.layers[ip + 1:]

    def rescaled(scale: float) -> Stack:
        # the layer and the stack from their constructors, which check
        # what replace would at a fraction of its cost
        mat = replace(piezo.material, c33e=piezo.material.c33e * scale)
        return Stack(below + (Layer(mat, piezo.thickness, piezo.role),)
                     + above, stack.area, stack.rs_electrical,
                     stack.boundary_bottom, stack.boundary_top)

    lo, hi = math.log(_SCALE_MIN), math.log(_SCALE_MAX)
    e0 = _mode0_estimate(stack)
    slope = math.log(_mode0_estimate(rescaled(math.exp(_PREDICT_STEP)))
                     / e0) / _PREDICT_STEP
    x = min(max(math.log(target_fs / e0) / slope, lo), hi)
    trials, roots = [], {}
    while x is not None:
        scale = math.exp(x)
        trial = rescaled(scale)
        roots[scale], fs = _lowest_fs(trial)
        if abs(fs - target_fs) <= 0.5 * _REFINE_TOL * target_fs:
            break
        y = math.log(fs / target_fs)
        if (x == lo and y > 0.0) or (x == hi and y < 0.0):
            raise ConfigError(
                f"target fs = {target_fs:.6g} Hz not reachable: scale "
                f"{scale:g}, the end of the bracket [{_SCALE_MIN:g}, "
                f"{_SCALE_MAX:g}] nearest it, puts mode 0 at {fs:.6g} Hz")
        trials.append((x, y))
        x = _next_trial(trials, slope, lo, hi)
    else:
        scale = math.exp(min(trials, key=lambda t: abs(t[1]))[0])
        trial = rescaled(scale)
    if roots[scale] > band.f_max:
        raise ModeSearchError(f"mode 0 lies above {band.f_max:.6g} Hz")
    return trial, scale


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
