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

Strain energies come from the same elimination: strain_energy
integrates the two-wave energy of its wave amplitudes in closed form, so
find_modes grades all of a stack's modes from one batched solve at their
fs values; field_profile samples the fields only for plotting.

Conventions: harmonic time dependence exp(+j*omega*t); layer-local
coordinate z runs from the bottom face of each layer; v_star takes the
principal square root so forward-propagating waves decay.  The drive is
a unit voltage across the piezo layer; Y = j*omega*D*A/V, then a series
electrical resistance rs is composed as Y/(1 + rs*Y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import ConfigError, DerivedConstants, Stack, derive_constants


class PhysicsError(RuntimeError):
    """The requested evaluation is physically or numerically degenerate."""


class SingularFrequencyError(PhysicsError):
    """The system is singular at a frequency (lossless resonance)."""

    def __init__(self, frequency: float, message: str | None = None):
        self.frequency = frequency
        if message is None:
            message = (f"singular system at f = {frequency!r} Hz "
                       f"(lossless resonance)")
        super().__init__(message)


@dataclass(frozen=True)
class FrequencyGrid:
    """A linear sweep axis: [f_min, f_max] with n_points."""

    f_min: float
    f_max: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.f_min < self.f_max:
            raise ConfigError(
                f"need 0 < f_min < f_max, got ({self.f_min!r}, {self.f_max!r})")
        if self.n_points < 2:
            raise ConfigError(f"n_points must be >= 2, got {self.n_points}")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_min, self.f_max, self.n_points)


@dataclass(frozen=True)
class AdmittanceCurve:
    """Complex admittance samples on an increasing frequency axis."""

    frequencies: np.ndarray
    y: np.ndarray
    provenance: str

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        y = np.asarray(self.y, dtype=complex)
        if f.ndim != 1 or y.shape != f.shape:
            raise ConfigError("frequencies and y must be 1-D and equal length")
        if f.size >= 2 and not np.all(np.diff(f) > 0):
            raise ConfigError("frequencies must be strictly increasing")
        if self.provenance not in ("simulated-bvp", "simulated-mason", "measured"):
            raise ConfigError(f"unknown provenance {self.provenance!r}")
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
    need the amplitudes assemble them with _wave_amplitudes.  Raises
    SingularFrequencyError at the first frequency where alpha or delta
    is not finite.
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

    with np.errstate(all="ignore"):
        det = top[0] * volt[1] - top[1] * volt[0]
        alpha = -top[1] / det
        delta = top[0] / det
    bad = ~(np.isfinite(alpha) & np.isfinite(delta))
    if bad.any():
        raise SingularFrequencyError(float(freqs[np.argmax(bad)]))
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
        raise SingularFrequencyError(float(freqs[np.argmax(bad)]))
    return amps


def _compose_rs(y_raw: np.ndarray, rs: float) -> np.ndarray:
    if rs == 0.0:
        return y_raw
    return y_raw / (1.0 + rs * y_raw)


def admittance_bvp(stack: Stack, f) -> complex | np.ndarray:
    """Electrical admittance from the layered boundary-value problem.

    Args:
        f: frequency in Hz, scalar or 1-D array; must be > 0.
    Returns:
        Complex admittance in siemens, matching the shape of f.
    """
    freqs = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(freqs <= 0):
        raise ConfigError("frequencies must be > 0")
    dc = derive_constants(stack)
    _, _, delta, _ = _bvp_solve(stack, dc, freqs)
    t_p = stack.t_piezo
    d_field = delta * dc.eps_star / t_p
    y_raw = 1j * (2.0 * math.pi * freqs) * d_field * stack.area
    y = _compose_rs(y_raw, stack.rs_electrical)
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return complex(y[0])
    return y


# ---------------------------------------------------------------------------
# Closed-form (transmission-line) backend


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
        th = omega * (stack.layers[i].thickness / dc.v_star[i])
        cos_t = np.cos(th)
        sin_t = np.sin(th)
        num, den = (z_i * (num * cos_t + 1j * z_i * den * sin_t),
                    z_i * den * cos_t + 1j * num * sin_t)
        scale = np.maximum(np.abs(num), np.abs(den))
        num = num / scale
        den = den / scale
    return num, den


def admittance_mason(stack: Stack, f) -> complex | np.ndarray:
    """Electrical admittance from the loaded-plate closed form.

    Same contract as admittance_bvp; exists as an independent oracle.
    """
    freqs = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(freqs <= 0):
        raise ConfigError("frequencies must be > 0")
    dc = derive_constants(stack)
    omega = 2.0 * math.pi * freqs
    ip = dc.piezo_index
    piezo = stack.layers[ip]
    pm = piezo.material

    z_p = dc.z_acoustic[ip]
    th_p = omega * (piezo.thickness / dc.v_star[ip])
    cos_p = np.cos(th_p)
    sin_p = np.sin(th_p)
    one_m_cos = 2.0 * np.sin(0.5 * th_p) ** 2

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

    with np.errstate(all="ignore"):
        numer = s_sum * sin_p + 2j * one_m_cos * q_prod
        denom = s_sum * cos_p + 1j * (q_prod + p_prod) * sin_p
        bracket = 1.0 - (kt2_c / th_p) * (numer / denom)
        y_raw = 1j * omega * dc.c0 / bracket
    bad = ~np.isfinite(y_raw)
    if np.any(bad):
        raise SingularFrequencyError(float(freqs[np.argmax(bad)]))
    y = _compose_rs(y_raw, stack.rs_electrical)
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return complex(y[0])
    return y


_BACKENDS = {"bvp": admittance_bvp, "mason": admittance_mason}


def spectrum(stack: Stack, grid: FrequencyGrid, backend: str = "bvp") -> AdmittanceCurve:
    """Admittance over a frequency grid with provenance attached."""
    if backend not in _BACKENDS:
        raise ConfigError(f"backend must be one of {sorted(_BACKENDS)}, "
                          f"got {backend!r}")
    freqs = grid.frequencies()
    y = _BACKENDS[backend](stack, freqs)
    return AdmittanceCurve(frequencies=freqs, y=y,
                           provenance=f"simulated-{backend}")


def field_profile(stack: Stack, f: float, points_per_layer: int = 64) -> FieldProfile:
    """Displacement and stress profile at one frequency (unit drive).

    For plotting and inspection: strain_energy integrates the same wave
    amplitudes in closed form and samples no profile.
    points_per_layer is clamped to at least 64 samples per layer; both
    layer endpoints are included.
    """
    if points_per_layer < 64:
        points_per_layer = 64
    f = float(f)
    if f <= 0:
        raise ConfigError("frequency must be > 0")
    dc = derive_constants(stack)
    freqs = np.array([f])
    pq, alpha, delta, u_scale = _bvp_solve(stack, dc, freqs)
    amplitudes = u_scale * _wave_amplitudes(pq, alpha, delta, freqs)[:, :, 0]
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
        a, b = amplitudes[i]
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

    f is in Hz, a scalar or 1-D array, all > 0; returns one
    EnergyPartition per frequency.  U_i = (A/4) * int Re(c_star_i)
    |u'(z)|^2 dz, from the wave amplitudes of one batched BVP solve and
    the analytic two-wave antiderivative (no profile, no quadrature).
    eta is the piezo share of the total.
    """
    freqs = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(freqs <= 0):
        raise ConfigError("frequencies must be > 0")
    dc = derive_constants(stack)
    pq, alpha, delta, u_scale = _bvp_solve(stack, dc, freqs)
    amplitudes = u_scale * _wave_amplitudes(pq, alpha, delta, freqs)
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
    """Write freq_hz,re_y_s,im_y_s rows with 17 significant digits."""
    cols = np.column_stack((curve.frequencies, curve.y.real, curve.y.imag))
    row = "%.17g,%.17g,%.17g\n"
    body = (row * cols.shape[0]) % tuple(cols.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,re_y_s,im_y_s\n" + body)
