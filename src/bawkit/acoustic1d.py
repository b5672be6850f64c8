"""One-dimensional thickness-extensional admittance of layered stacks.

Two independent backends evaluate the same physics:

* ``admittance_bvp`` poses the piecewise two-wave boundary-value
  problem (per-layer amplitudes plus the uniform electric displacement)
  and eliminates it layer by layer: the interface rows carry each
  layer's wave amplitudes to the next, and the top boundary and the
  unit-voltage rows close a 2x2 system per frequency.  Production path.
* ``admittance_mason`` chains acoustic transmission-line transforms into
  the loaded-plate closed form.  Built-in physics oracle; the two must
  agree to 1e-8 relative.  The BVP works on wave amplitudes and never
  forms an impedance, so the two share nothing past derive_constants.
  Each layer's cos and sin of its complex phase a + jb come from cos a,
  sin a, cosh b and sinh b (_cos_sin), at about half the cost of complex
  np.cos and np.sin; the piezo's three terms come from its half angle.

Strain energies come from the same elimination: strain_energy
integrates the two-wave energy of its wave amplitudes in closed form, so
find_modes grades all of a stack's modes from one batched solve at their
fs values; field_profile samples the fields only for plotting.  The
lossless open-circuit count that numbers the modes is modal's.

Conventions: harmonic time dependence exp(+j*omega*t); layer-local
coordinate z runs from the bottom face of each layer; v_star takes the
principal square root so forward-propagating waves decay.  The drive is
a unit voltage across the piezo layer; Y = j*omega*D*A/V, then a series
electrical resistance rs is composed as Y/(1 + rs*Y).  Both kernels are
analytic in f and also take complex frequencies (real part > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvfloat import write_csv
from .materials import ConfigError, DerivedConstants, Stack, derive_constants


class PhysicsError(RuntimeError):
    """The requested evaluation is physically or numerically degenerate."""


class SingularFrequencyError(PhysicsError):
    """The system is singular at a frequency (lossless resonance)."""

    def __init__(self, frequency: float | complex):
        self.frequency = frequency
        super().__init__(f"singular system at f = {frequency!r} Hz "
                         f"(lossless resonance)")


@dataclass(frozen=True)
class FrequencyGrid:
    """A linear sweep axis: [f_min, f_max] with n_points, both finite."""

    f_min: float
    f_max: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.f_min < self.f_max < math.inf:
            raise ConfigError(
                f"need 0 < f_min < f_max < inf, got "
                f"({self.f_min!r}, {self.f_max!r})")
        if self.n_points < 2:
            raise ConfigError(f"n_points must be >= 2, got {self.n_points}")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_min, self.f_max, self.n_points)


@dataclass(frozen=True)
class AdmittanceCurve:
    """Complex admittance samples on an increasing frequency axis.

    The frequencies are real (_real_frequencies) and pass
    _kernel_frequencies: finite and > 0.
    """

    frequencies: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        f = _real_frequencies(self.frequencies)
        y = np.asarray(self.y, dtype=complex)
        if f.ndim != 1 or y.shape != f.shape:
            raise ConfigError("frequencies and y must be 1-D and equal length")
        _kernel_frequencies(f)
        if f.size >= 2 and not np.all(np.diff(f) > 0):
            raise ConfigError("frequencies must be strictly increasing")
        f.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class FieldProfile:
    """Displacement and stress through the stack at one frequency.

    Per-layer sampled arrays keep both interface endpoints so continuity
    can be checked from either side.  Amplitudes are the (a, b) wave pair
    of each layer in u(z) = a*exp(-j*k*z) + b*exp(+j*k*z), driven by a
    unit voltage across the piezo layer.
    """

    frequency: float
    amplitudes: tuple[tuple[complex, complex], ...]
    z_layers: tuple[np.ndarray, ...]
    u_layers: tuple[np.ndarray, ...]
    t_layers: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class EnergyPartition:
    """Time-averaged elastic strain energy per layer, in joules."""

    per_layer: tuple[float, ...]
    total: float
    eta: float


# ---------------------------------------------------------------------------
# BVP backend


def _bvp_solve(stack: Stack, dc: DerivedConstants, freqs: np.ndarray):
    """Solve the layered BVP at each frequency by elimination.

    The unknowns are the scaled wave amplitude pair (a_i, b_i) of each
    layer and the scaled electric displacement delta = D * t_p /
    (eps_star * V).  The bottom boundary row leaves one free amplitude
    alpha.  Each interface's displacement and stress continuity rows
    then give layer i+1's pair in closed form from layer i's pair and
    delta, so every pair is alpha * P_i + delta * Q_i.  The top boundary
    row and the unit-voltage row close a 2x2 system per frequency,
    solved by Cramer's rule.  The BVP eliminates wave amplitudes while
    the Mason backend chains impedances, so the two stay independent.

    Returns the elimination state (pq, alpha, delta, u_scale): pq[i] is
    layer i's (P, Q) coefficient pair as two (2, n) arrays, one for each
    of a_i and b_i, and alpha and delta are (n,) arrays.  Callers that
    need the amplitudes assemble them with _wave_amplitudes.  At the
    first frequency where alpha or delta is not finite, raises
    SingularFrequencyError, or ConfigError when the stack is too thick
    for the double range (_non_finite_error).
    """
    n = freqs.shape[0]
    nlay = len(stack.layers)
    ip = dc.piezo_index
    piezo = stack.layers[ip]
    pm = piezo.material
    omega = 2.0 * math.pi * freqs
    jomega = 1j * omega

    # Scales chosen so every coefficient is O(1/theta .. 1).
    u_scale = pm.e33 / pm.c33d if pm.e33 != 0.0 else 1.0
    zfac = [c / v for c, v in zip(dc.c_star, dc.v_star)]  # rho * v_star
    sref = abs(zfac[ip])
    s_lay = [z / sref * (1.0 if u_scale >= 0 else -1.0) for z in zfac]

    # Coefficient of delta in the scaled stress rows.
    loss_fac = 1.0 - 1j * pm.tan_delta
    hd = pm.e33 * loss_fac / (piezo.thickness * sref * abs(u_scale)) / omega \
        if pm.e33 != 0.0 else np.zeros(n, dtype=complex)

    # pq[i] = (a_i, b_i), each a (2, n) array of the (P, Q) coefficients.
    # Layer 0 follows from the bottom boundary row: zero displacement, or
    # zero stress (with the piezoelectric term when the piezo is layer 0).
    a0 = np.zeros((2, n), dtype=complex)
    a0[0] = 1.0
    b0 = -a0 if stack.boundary_bottom == "rigid" else a0.copy()
    if stack.boundary_bottom == "free" and ip == 0:
        b0[1] = (-1j / s_lay[0]) * hd
    pq = [(a0, b0)]

    # the factors exp(+-j omega t / v_star) may leave the double range
    # in a thick lossy layer; _non_finite_error tells that apart
    with np.errstate(all="ignore"):
        for i, lay in enumerate(stack.layers):
            ep = np.exp(jomega * (lay.thickness / dc.v_star[i]))
            em = 1.0 / ep
            a, b = pq[i]
            ea = em * a
            eb = ep * b
            if i == ip:
                # Unit-voltage row: delta - chi * (u(t_p) - u(0)) = 1.
                chi = pm.e33 * u_scale / dc.eps_star
                volt = chi * (a + b - ea - eb)
                volt[1] += 1.0
            if i == nlay - 1:
                break
            # Interface rows: a' + b' = ea + eb (displacement) and
            # a' - b' = r * (ea - eb) + j * c * delta / s_{i+1} (stress), with
            # c = -hd on the piezo's top face and +hd on its bottom face.
            r = s_lay[i] / s_lay[i + 1]
            na = (0.5 + 0.5 * r) * ea + (0.5 - 0.5 * r) * eb
            nb = (0.5 - 0.5 * r) * ea + (0.5 + 0.5 * r) * eb
            if ip in (i, i + 1):
                dq = (0.5j if i + 1 == ip else -0.5j) / s_lay[i + 1] * hd
                na[1] += dq
                nb[1] -= dq
            pq.append((na, nb))

        # Top boundary row, last layer at z = t: zero stress or displacement.
        if stack.boundary_top == "free":
            top = ea - eb
            if ip == nlay - 1:
                top[1] -= (1j / s_lay[-1]) * hd
        else:
            top = ea + eb

        det = top[0] * volt[1] - top[1] * volt[0]
        alpha = -top[1] / det
        delta = top[0] / det
    bad = ~(np.isfinite(alpha) & np.isfinite(delta))
    if bad.any():
        raise _non_finite_error(stack, dc, freqs[np.argmax(bad)].item())
    return pq, alpha, delta, u_scale


def _wave_amplitudes(pq, alpha: np.ndarray, delta: np.ndarray,
                     freqs: np.ndarray) -> np.ndarray:
    """Scaled wave amplitudes alpha * P + delta * Q of every layer.

    Returns an (L, 2, n) array: the (a_i, b_i) pair of layer i at each
    frequency, in units of u_scale.  Raises SingularFrequencyError at the
    first frequency where an amplitude is not finite.
    """
    coef = np.array(pq)  # (L, 2, 2, n): layer, wave, (P, Q), frequency
    with np.errstate(all="ignore"):
        amps = alpha * coef[:, :, 0] + delta * coef[:, :, 1]
    bad = ~np.isfinite(amps).all(axis=(0, 1))
    if bad.any():
        raise SingularFrequencyError(freqs[np.argmax(bad)].item())
    return amps


def _admittance(stack: Stack, y_raw: np.ndarray, f) -> complex | np.ndarray:
    """The kernels' common end: y_raw behind the stack's series resistance
    rs, Y / (1 + rs Y), as a complex for scalar f, else as an array."""
    rs = stack.rs_electrical
    y = y_raw if rs == 0.0 else y_raw / (1.0 + rs * y_raw)
    return complex(y[0]) if np.ndim(f) == 0 else y


# Wave attenuation, in nepers summed over the layers, past which the BVP's
# exp(+-j omega t / v_star) factors or Mason's cos and sin of a lossy
# layer can leave the double range: half the natural log of the largest
# double, about 355.  The BVP's products overflow near twice that; a
# singular (lossless) resonance has next to none.
_MAX_NEPERS = 0.5 * math.log(np.finfo(float).max)


def _non_finite_error(stack: Stack, dc: DerivedConstants,
                      freq: float | complex) -> Exception:
    """The error to raise for a kernel result that is not finite at freq.

    When the stack's own attenuation, taken at the real part of freq, is
    beyond _MAX_NEPERS, the overflow is the stack's: a ConfigError naming
    its most attenuating layer.  Otherwise freq is a singular frequency,
    or a complex one too far from the real axis.  Called only after a
    result fails its finiteness check, so it costs the normal path
    nothing.
    """
    f_real = freq.real
    omega = 2.0 * math.pi * f_real
    nepers = [abs((1j * omega * lay.thickness / v).real)
              for lay, v in zip(stack.layers, dc.v_star)]
    if sum(nepers) > _MAX_NEPERS:
        i = int(np.argmax(nepers))
        lay = stack.layers[i]
        return ConfigError(
            f"layer {i} ({lay.material.name}, {lay.thickness:g} m) "
            f"attenuates waves by exp({nepers[i]:.4g}) at {f_real:.6g} Hz "
            f"(exp({sum(nepers):.4g}) over the stack), beyond the double "
            f"range: the stack is too thick")
    return SingularFrequencyError(freq)


def _kernel_frequencies(f) -> np.ndarray:
    """f as a 1-D array: float for real input, complex for complex input.

    Raises ConfigError unless every frequency is finite with a real part
    > 0.  The checks run before any arithmetic, so a NaN or an infinity
    never reaches the solve.  This is the one frequency check: both
    kernels, strain_energy, field_profile, AdmittanceCurve and
    mbvd.mbvd_admittance go through it.
    """
    freqs = np.atleast_1d(np.asarray(f))
    freqs = freqs.astype(complex if np.iscomplexobj(freqs) else float,
                         copy=False)
    if not np.isfinite(freqs).all():
        raise ConfigError("frequencies must be finite")
    if np.any(freqs.real <= 0):
        raise ConfigError("frequencies must be > 0")
    return freqs


def _real_frequencies(f) -> np.ndarray:
    """f as a float array of its own shape, for the evaluators that take
    real frequencies only.

    Raises ConfigError for complex input, whose imaginary part a cast to
    float would drop with only a ComplexWarning.
    """
    f = np.asarray(f)
    if np.iscomplexobj(f):
        raise ConfigError("frequencies must be real")
    return f.astype(float, copy=False)


def admittance_bvp(stack: Stack, f) -> complex | np.ndarray:
    """Electrical admittance from the layered boundary-value problem.

    Args:
        f: frequency in Hz, scalar or 1-D array, finite and > 0.  Complex
            frequencies (finite, real part > 0) are accepted too: the
            admittance is analytic in f, and modal samples it on small
            circles around real frequencies to take its derivatives.
            Real input stays in real arithmetic.
    Returns:
        Complex admittance in siemens, matching the shape of f.
    """
    freqs = _kernel_frequencies(f)
    dc = derive_constants(stack)
    _, _, delta, _ = _bvp_solve(stack, dc, freqs)
    t_p = stack.t_piezo
    d_field = delta * dc.eps_star / t_p
    y_raw = 1j * (2.0 * math.pi * freqs) * d_field * stack.area
    return _admittance(stack, y_raw, f)


# ---------------------------------------------------------------------------
# Closed-form (transmission-line) backend


def _cos_sin(th):
    """cos and sin of complex phases th = a + jb, from real functions of a
    and b:

        cos th = cos a cosh b - j sin a sinh b
        sin th = sin a cosh b + j cos a sinh b

    the same products a C library's ccos and csin take, at about half the
    cost of numpy's complex np.cos and np.sin.  Where cosh b overflows,
    the result is not finite, as theirs is.
    """
    a, b = th.real, th.imag
    cos_a, sin_a = np.cos(a), np.sin(a)
    cosh_b, sinh_b = np.cosh(b), np.sinh(b)
    cos_t = np.empty(th.shape, complex)
    sin_t = np.empty(th.shape, complex)
    np.multiply(cos_a, cosh_b, out=cos_t.real)
    np.multiply(-sin_a, sinh_b, out=cos_t.imag)
    np.multiply(sin_a, cosh_b, out=sin_t.real)
    np.multiply(cos_a, sinh_b, out=sin_t.imag)
    return cos_t, sin_t


def _half_angle_cos_sin(th):
    """cos th, sin th and 1 - cos th = 2 sin(th/2)**2, all three from one
    _cos_sin of the half angle."""
    cos_h, sin_h = _cos_sin(0.5 * th)
    return ((cos_h - sin_h) * (cos_h + sin_h), 2.0 * sin_h * cos_h,
            2.0 * sin_h ** 2)


def _chain_substack(stack, dc, omega, indices, termination):
    """Acoustic input impedance of a sub-stack, seen from the piezo face.

    Walks from the outer termination inward.  The impedance is carried as
    a projective pair (num, den) so rigid terminations need no infinities.
    indices are layer indices ordered from the piezo side outward.
    """
    n = omega.shape[0]
    if termination == "free":
        num = np.zeros(n, dtype=complex)
        den = np.ones(n, dtype=complex)
    else:
        num = np.ones(n, dtype=complex)
        den = np.zeros(n, dtype=complex)
    for i in reversed(indices):
        z_i = dc.z_acoustic[i]
        cos_t, sin_t = _cos_sin(
            omega * (stack.layers[i].thickness / dc.v_star[i]))
        num, den = (z_i * (num * cos_t + 1j * z_i * den * sin_t),
                    z_i * den * cos_t + 1j * num * sin_t)
        scale = np.maximum(np.abs(num), np.abs(den))
        num = num / scale
        den = den / scale
    return num, den


def admittance_mason(stack: Stack, f) -> complex | np.ndarray:
    """Electrical admittance from the loaded-plate closed form.

    Same contract as admittance_bvp, complex frequencies included (the
    closed form is analytic in f too); exists as an independent oracle.
    """
    freqs = _kernel_frequencies(f)
    dc = derive_constants(stack)
    omega = 2.0 * math.pi * freqs
    ip = dc.piezo_index
    piezo = stack.layers[ip]
    pm = piezo.material

    # cos and sin of a thick lossy layer may leave the double range;
    # _non_finite_error tells that apart
    with np.errstate(all="ignore"):
        z_p = dc.z_acoustic[ip]
        th_p = omega * (piezo.thickness / dc.v_star[ip])
        cos_p, sin_p, one_m_cos = _half_angle_cos_sin(th_p)

        # Normalized loads as projective pairs; z = num / (den * z_p).
        nt, dt = _chain_substack(stack, dc, omega,
                                 list(range(ip + 1, len(stack.layers))),
                                 stack.boundary_top)
        nb, db = _chain_substack(stack, dc, omega,
                                 list(range(ip - 1, -1, -1)),
                                 stack.boundary_bottom)
        dt = dt * z_p
        db = db * z_p

        s_sum = nt * db + nb * dt
        p_prod = nt * nb
        q_prod = dt * db

        # Coupling term keeps the lossy stiffened constant: e33*h/c_star.
        kt2_c = pm.e33 * dc.h_piezo / dc.c_star[ip] if pm.e33 != 0.0 else 0.0

        numer = s_sum * sin_p + 2j * one_m_cos * q_prod
        denom = s_sum * cos_p + 1j * (q_prod + p_prod) * sin_p
        bracket = 1.0 - (kt2_c / th_p) * (numer / denom)
        y_raw = 1j * omega * dc.c0 / bracket
    bad = ~np.isfinite(y_raw)
    if np.any(bad):
        raise _non_finite_error(stack, dc, freqs[np.argmax(bad)].item())
    return _admittance(stack, y_raw, f)


_BACKENDS = {"bvp": admittance_bvp, "mason": admittance_mason}


def spectrum(stack: Stack, grid: FrequencyGrid, backend: str = "bvp") -> AdmittanceCurve:
    """Admittance over a frequency grid."""
    if backend not in _BACKENDS:
        raise ConfigError(f"backend must be one of {sorted(_BACKENDS)}, "
                          f"got {backend!r}")
    freqs = grid.frequencies()
    y = _BACKENDS[backend](stack, freqs)
    return AdmittanceCurve(frequencies=freqs, y=y)


def _wave_solution(stack: Stack, f):
    """The BVP at real frequencies f, for strain_energy and field_profile.

    f is a real scalar or 1-D array in Hz, checked by _real_frequencies
    and _kernel_frequencies.
    Returns (freqs, dc, delta, amplitudes): f as a 1-D array, the stack's
    derived constants, the scaled electric displacement of _bvp_solve at
    each frequency, and the (L, 2, n) wave pairs (a_i, b_i) of every layer
    in metres per volt.
    """
    freqs = _kernel_frequencies(_real_frequencies(f))
    dc = derive_constants(stack)
    pq, alpha, delta, u_scale = _bvp_solve(stack, dc, freqs)
    return (freqs, dc, delta,
            u_scale * _wave_amplitudes(pq, alpha, delta, freqs))


def field_profile(stack: Stack, f: float, points_per_layer: int = 64) -> FieldProfile:
    """Displacement and stress profile at one frequency (unit drive).

    f is in Hz, real, finite and > 0.  For plotting and inspection:
    strain_energy integrates the same wave amplitudes (_wave_solution) in
    closed form and samples no profile.  points_per_layer is clamped to
    at least 64 samples per layer; both layer endpoints are included.
    """
    if points_per_layer < 64:
        points_per_layer = 64
    _, dc, delta, amplitudes = _wave_solution(stack, f)
    f = float(f)
    ip = dc.piezo_index
    piezo = stack.layers[ip]
    pm = piezo.material
    omega = 2.0 * math.pi * f

    d_field = delta[0] * dc.eps_star / piezo.thickness
    hd = (pm.e33 / pm.eps33s) * d_field if pm.e33 != 0.0 else 0.0

    amps = []
    z_layers = []
    u_layers = []
    t_layers = []
    z0 = 0.0
    for i, lay in enumerate(stack.layers):
        a, b = amplitudes[i, :, 0]
        amps.append((complex(a), complex(b)))
        k = omega / dc.v_star[i]
        z_loc = np.linspace(0.0, lay.thickness, points_per_layer)
        em = np.exp(-1j * k * z_loc)
        ep = np.exp(1j * k * z_loc)
        u = a * em + b * ep
        t_stress = dc.c_star[i] * (1j * k) * (-a * em + b * ep)
        if i == ip:
            t_stress = t_stress - hd
        z_layers.append(z0 + z_loc)
        u_layers.append(u)
        t_layers.append(t_stress)
        z0 += lay.thickness

    return FieldProfile(
        frequency=f,
        amplitudes=tuple(amps),
        z_layers=tuple(z_layers),
        u_layers=tuple(u_layers),
        t_layers=tuple(t_layers),
    )


def _two_wave_integrals(a: np.ndarray, b: np.ndarray, k: np.ndarray,
                        t: np.ndarray) -> np.ndarray:
    """Closed form of int_0^t |d/dz (a e^{-jkz} + b e^{jkz})|^2 dz.

    Elementwise over amplitude pairs (a, b), wavenumbers k and layer
    thicknesses t, which broadcast together.
    """
    kr = k.real
    ki = k.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        ia = np.where(ki != 0.0, np.expm1(2.0 * ki * t) / (2.0 * ki), t)
        ib = np.where(ki != 0.0, -np.expm1(-2.0 * ki * t) / (2.0 * ki), t)
    cross_kernel = (1.0 - np.exp(-2j * kr * t)) / (2j * kr)
    icross = -2.0 * (a * b.conj() * cross_kernel).real
    mag_k2 = kr * kr + ki * ki
    return mag_k2 * (np.abs(a) ** 2 * ia + np.abs(b) ** 2 * ib + icross)


def strain_energy(stack: Stack, f) -> list[EnergyPartition]:
    """Per-layer time-averaged elastic strain energy U_i and eta at each f.

    f is in Hz, a real scalar or 1-D array, all finite and > 0; returns one
    EnergyPartition per frequency.  U_i = (A/4) * int Re(c_star_i)
    |u'(z)|^2 dz, from the wave amplitudes of one batched BVP solve
    (_wave_solution) and the analytic two-wave antiderivative (no
    profile, no quadrature).  eta is the piezo share of the total.
    """
    freqs, dc, _, amplitudes = _wave_solution(stack, f)
    thickness = np.array([lay.thickness for lay in stack.layers])[:, None]
    k = 2.0 * math.pi * freqs / np.array(dc.v_star)[:, None]
    integral = _two_wave_integrals(amplitudes[:, 0], amplitudes[:, 1], k,
                                   thickness)
    u_per = (0.25 * stack.area * np.array(dc.c_star).real)[:, None] * integral
    partitions = []
    for row in u_per.T.tolist():
        total = sum(row)
        if total == 0.0:
            raise PhysicsError("no acoustic excitation at this frequency")
        partitions.append(EnergyPartition(
            per_layer=tuple(row), total=total,
            eta=row[dc.piezo_index] / total))
    return partitions


def export_spectrum_csv(curve: AdmittanceCurve, path) -> None:
    """Write freq_hz,re_y_s,im_y_s rows.

    Every number is exactly Python's format(value, ".17g"), so float()
    of each field gives back the stored double.
    """
    write_csv(path, "freq_hz,re_y_s,im_y_s",
              np.column_stack((curve.frequencies, curve.y.real, curve.y.imag)))
