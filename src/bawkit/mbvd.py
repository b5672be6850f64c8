"""Measurement pipeline: Touchstone ingestion, S->Y conversion, and
modified Butterworth-Van Dyke (mBVD) parameter extraction.

The circuit is a motional branch (rm, lm, cm in series) in parallel with a
static branch (c0 in series with r0), the pair behind a series electrode
resistance rs.  Fitting runs in log-parameter space (positivity for free)
against the relative complex admittance residual, seeded by closed-form
heuristics from the conductance peak and the off-resonance admittance:
c0 from its susceptance, r0 and rs from its resistance Re(1/Y).  From
these seeds the fixture fit takes 7 residual evaluations.  The solver is
MINPACK's Levenberg-Marquardt `lmder` with the exact Jacobian, called
through scipy's `leastsq`, which gives every supported scipy (>= 1.10)
MINPACK's own variable scaling; `least_squares` passed diag = 1/x_scale
before scipy 1.16.  Each point the solver visits costs one circuit
evaluation and at most one Jacobian, shared by every call at that point.

Touchstone handling is a hand-rolled version-1 tokenizer because the
acceptance contract requires line-numbered rejection of malformed files,
which no off-the-shelf parser provides.  The data after the option line
is split into tokens in one pass, and one float() pass converts them all;
line numbers are worked out only for an error.  Besides bad syntax it
rejects a reference impedance that is not finite and > 0, an S value that
is not finite, and a frequency that is not > 0 as written or not finite
in Hz.  Frequencies move into Hz by an exact decimal shift of each token
before that pass, so they round once.  The device admittance is the one
Y entry its embedding uses, computed alone.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ._csvfloat import write_csv
from .acoustic1d import (AdmittanceCurve, _kernel_frequencies,
                         _real_frequencies)
from .materials import ConfigError

# frequency unit -> its power of ten
FREQUENCY_UNITS = {"HZ": 0, "KHZ": 3, "MHZ": 6, "GHZ": 9}
DATA_FORMATS = ("RI", "MA", "DB")
TOPOLOGIES = ("series", "shunt")


class TouchstoneError(ValueError):
    """Malformed Touchstone input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConversionError(ValueError):
    """S->Y conversion hit a singular point."""


@dataclass(frozen=True)
class TouchstoneData:
    """Two-port S-parameter table with its source-format metadata.

    Frequencies are real, finite, > 0 and strictly increasing, S values
    finite and z0 finite and > 0; anything else is a ConfigError.
    """

    frequencies: np.ndarray     # Hz
    s: np.ndarray               # (n, 2, 2) complex
    z0: float
    unit: str = "GHZ"
    data_format: str = "MA"

    def __post_init__(self):
        f = _real_frequencies(self.frequencies)
        s = np.asarray(self.s, dtype=complex)
        if f.ndim != 1 or s.shape != (f.size, 2, 2):
            raise ConfigError("need frequencies (n,) and s (n, 2, 2)")
        _kernel_frequencies(f)
        if not np.isfinite(s).all():
            raise ConfigError("S values must be finite")
        if f.size >= 2 and not np.all(np.diff(f) > 0):
            raise ConfigError("frequencies must be strictly increasing")
        if not 0 < self.z0 < math.inf:
            raise ConfigError(
                f"reference impedance must be finite and > 0, got {self.z0}")
        if self.unit not in FREQUENCY_UNITS:
            raise ConfigError(f"unknown frequency unit {self.unit!r}")
        if self.data_format not in DATA_FORMATS:
            raise ConfigError(f"unknown data format {self.data_format!r}")
        f.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "s", s)


def _shift_exponent(tok: str, exp: int) -> float:
    """float() of a literal with an exponent, times 10**exp, rounded once.

    The exponent goes through float(): int() refuses over 4300 digits,
    which zero padding can reach in a finite literal.
    """
    m, _, p = tok.lower().partition("e")
    return float(f"{m}e{int(float(p)) + exp}")


def parse_touchstone(text: str) -> TouchstoneData:
    """Parse version-1 two-port Touchstone text.

    Honors the option line `# <unit> S <format> R <z0>` (tokens in any
    order, case-insensitive, defaults GHZ/S/MA/50).  Data lines hold
    9 columns per frequency point -- f, then S11 S21 S12 S22 as value
    pairs -- and records may wrap across lines.  Errors carry the line
    number they were detected on, and quote the offending token as
    written.  Rejected besides bad syntax: a reference impedance that is
    not finite and > 0, a value that is not finite, and a frequency that
    is not > 0 as written or is not finite in Hz.  Every frequency token
    is rewritten as its literal in Hz (_hz_literal) and then converted in
    the same single float() pass as the S values.
    """
    lines = text.splitlines()

    def content(k: int) -> str:
        return lines[k].partition("!")[0].strip()

    def option_line(start: int) -> int | None:
        return next((k for k in range(start, len(lines))
                     if content(k).startswith("#")), None)

    # the option line must be the first line with content
    first = next((k for k in range(len(lines)) if content(k)), 0)
    opt = option_line(0)
    if opt is None:
        raise TouchstoneError(first + 1, "missing option line ('# ...')")
    if opt > first:
        raise TouchstoneError(opt + 1, "option line after data")
    unit, fmt, z0 = "GHZ", "MA", 50.0
    param = "S"
    toks = content(opt)[1:].upper().split()
    i = 0
    while i < len(toks):
        t = toks[i]
        if t in FREQUENCY_UNITS:
            unit = t
        elif t in DATA_FORMATS:
            fmt = t
        elif t == "R":
            if i + 1 >= len(toks):
                raise TouchstoneError(opt + 1, "R without an impedance")
            try:
                z0 = float(toks[i + 1])
            except ValueError:
                z0 = math.nan
            if not 0 < z0 < math.inf:
                raise TouchstoneError(
                    opt + 1, f"reference impedance must be a finite "
                    f"number > 0, got {toks[i + 1]!r}")
            i += 1
        elif t in ("S", "Y", "Z", "G", "H"):
            param = t
        else:
            raise TouchstoneError(opt + 1, f"unknown option token {t!r}")
        i += 1
    if param != "S":
        raise TouchstoneError(
            opt + 1, f"expected S-parameters, file declares {param!r}")

    # every line after the option line is data: tokenize them all at once
    body = lines[opt + 1:]
    data = " ".join(body)
    if "!" in data:
        data = " ".join([ln.partition("!")[0] for ln in body])
    again = option_line(opt + 1) if "#" in data else None
    if again is not None:
        raise TouchstoneError(again + 1, "duplicate option line")
    tokens = data.split()
    if not tokens:
        raise TouchstoneError(len(lines), "no data records")
    if len(tokens) % 9 != 0:
        last = next(k for k in reversed(range(len(lines))) if content(k))
        raise TouchstoneError(
            last + 1, f"two-port records need 9 columns per frequency; "
            f"got {len(tokens)} values total")

    def line_of(index: int) -> int:
        """Line of tokens[index]; looked up only to report an error."""
        for k in range(opt + 1, len(lines)):
            index -= len(content(k).split())
            if index < 0:
                return k + 1

    # each frequency becomes its literal in Hz before the one float() pass,
    # so it rounds once from its exact value in Hz; a plain ASCII decimal,
    # nearly every token, is handled inline and _hz_literal takes the rest
    exp = FREQUENCY_UNITS[unit]
    in_hz = tokens
    if exp:
        suffix = f"e{exp}"
        in_hz = tokens.copy()
        in_hz[::9] = [tok + suffix if tok[-1] in "0123456789."
                      and "e" not in tok and "E" not in tok
                      else _hz_literal(tok, exp) for tok in tokens[::9]]
    try:
        rec = np.fromiter(map(float, in_hz), float,
                          len(in_hz)).reshape(-1, 9)
    except ValueError:
        for k, tok in enumerate(tokens):
            try:
                float(tok)
            except ValueError:
                raise TouchstoneError(line_of(k), f"not a number: {tok!r}")
        raise
    n = rec.shape[0]
    freqs = rec[:, 0].copy()
    a = rec[:, 1::2]
    b = rec[:, 2::2]
    with np.errstate(over="ignore", invalid="ignore"):
        if fmt == "RI":
            s_flat = a + 1j * b
        elif fmt == "MA":
            s_flat = a * np.exp(1j * np.deg2rad(b))
        else:   # DB
            s_flat = 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
    bad = ~np.isfinite(rec)
    # a DB magnitude above about 6165 dB overflows: where a finite pair
    # gives an S value that is not finite, the magnitude is at fault
    bad[:, 1::2] |= ~(np.isfinite(s_flat) | bad[:, 2::2])
    # below 1e-300 Hz a frequency may have rounded to 0 as written
    if bad.any() or not (freqs[0] >= 1e-300 and np.all(np.diff(freqs) > 0)):
        _refuse(tokens, freqs, bad, unit, line_of)

    # v1 two-port column order: S11, S21, S12, S22
    s = s_flat[:, [0, 2, 1, 3]].reshape(n, 2, 2)
    return TouchstoneData(frequencies=freqs, s=s, z0=z0, unit=unit,
                          data_format=fmt)


def _hz_literal(tok: str, exp: int) -> str:
    """A frequency token rewritten as its literal in Hz, exp decades up.

    A decimal literal gets the exponent appended, or its exponent shifted
    (_shift_exponent, whose repr() float() reads back exactly), so float()
    of the result rounds its exact value in Hz once.  Any other token is
    returned as written, so float() refuses it, or reads inf or nan, as it
    would the token.
    """
    if "e" not in tok and "E" not in tok:
        last = tok[-1]
        return tok + f"e{exp}" if last.isdecimal() or last == "." else tok
    try:
        float(tok)
        return repr(_shift_exponent(tok, exp))
    except (ValueError, OverflowError):
        # not a literal, or an exponent float() reads as +-inf, which
        # makes the token 0 or inf as written
        return tok


def _refuse(tokens: list, freqs: np.ndarray, bad: np.ndarray, unit: str,
            line_of) -> None:
    """Raise parse_touchstone's first error, if its records hold one.

    tokens are the data tokens as written and freqs the frequencies in
    Hz; bad flags the values that are not finite, frequencies aside.  A
    frequency must be finite and > 0 as written, then finite in Hz, and
    the frequencies strictly increasing.
    """
    as_written = np.array([float(tok) for tok in tokens[::9]])
    bad[:, 0] = ~np.isfinite(as_written) | (as_written <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        what = "a frequency must be finite and > 0" if k % 9 == 0 \
            else "an S value must be finite"
        raise TouchstoneError(line_of(k), f"{what}, got {tokens[k]!r}")
    if not np.isfinite(freqs).all():
        k = int(np.argmin(np.isfinite(freqs)))
        raise TouchstoneError(
            line_of(9 * k), f"frequency {tokens[9 * k]} {unit} is not "
            f"finite in Hz")
    rising = np.diff(freqs) > 0
    if not rising.all():
        k = int(np.argmin(rising)) + 1
        raise TouchstoneError(
            line_of(9 * k), f"frequencies must be strictly increasing "
            f"({as_written[k]:g} after {as_written[k - 1]:g})")


def _shift_point(d: Decimal, exp: int) -> Decimal:
    """Exact d * 10**exp by moving the decimal point, no rounding ever.

    Unit rescaling through binary floats loses the last bit for most
    frequencies, so emit shifts in decimal space, as parse does on the
    token's exponent; a double is always a finite decimal, making the
    round trip the identity.
    """
    if not d.is_finite():
        return d
    sign, digits, e = d.as_tuple()
    return Decimal((sign, digits, e + exp))


def emit_touchstone(data: TouchstoneData) -> str:
    """Render TouchstoneData back to text in its own unit and format.

    S values are written with 17 significant digits (bit round trip for
    doubles); frequencies are written as the exact decimal expansion of
    the stored double shifted into the data's unit, so parse(emit(x))
    reproduces them bit for bit in every unit.
    """
    fmt = data.data_format
    exp = FREQUENCY_UNITS[data.unit]
    g = "{:.17g}".format
    out = [f"! two-port S-parameter record",
           f"# {data.unit} S {fmt} R {g(data.z0)}"]
    for k in range(data.frequencies.size):
        f_unit = _shift_point(Decimal(float(data.frequencies[k])), -exp)
        cols = [format(f_unit, "f")]
        for s_elem in (data.s[k, 0, 0], data.s[k, 1, 0],
                       data.s[k, 0, 1], data.s[k, 1, 1]):
            if fmt == "RI":
                pair = (s_elem.real, s_elem.imag)
            elif fmt == "MA":
                pair = (abs(s_elem), math.degrees(cmath.phase(s_elem)))
            else:
                mag = abs(s_elem)
                if mag == 0.0:
                    raise ConfigError(
                        "DB format cannot represent a zero S element")
                pair = (20.0 * math.log10(mag),
                        math.degrees(cmath.phase(s_elem)))
            cols.extend((g(pair[0]), g(pair[1])))
        out.append(" ".join(cols))
    return "\n".join(out) + "\n"


def _s_columns(data: TouchstoneData):
    """S11, S12, S21, S22, delta = (1 + S11)(1 + S22) - S12 S21, and
    delta * z0, the denominator of every Y entry."""
    s = data.s
    s11, s12 = s[:, 0, 0], s[:, 0, 1]
    s21, s22 = s[:, 1, 0], s[:, 1, 1]
    with np.errstate(all="ignore"):
        delta = (1.0 + s11) * (1.0 + s22) - s12 * s21
        return s11, s12, s21, s22, delta, delta * data.z0


def _check_conversion(data: TouchstoneData, delta: np.ndarray,
                      finite: np.ndarray) -> None:
    """Raise at the first singular point, then at the first whose Y is not
    finite (finite S values whose products overflow)."""
    for bad, why in ((np.abs(delta) < 1e-30, "singular"),
                     (~finite, "overflows")):
        if np.any(bad):
            f_bad = data.frequencies[np.argmax(bad)]
            raise ConversionError(f"S->Y conversion {why} at {f_bad:.9g} Hz")


def s_to_y(data: TouchstoneData) -> np.ndarray:
    """Two-port S to Y conversion; returns (n, 2, 2) complex admittances."""
    s11, s12, s21, s22, delta, dz = _s_columns(data)
    y = np.empty_like(data.s)
    with np.errstate(all="ignore"):
        y[:, 0, 0] = ((1.0 - s11) * (1.0 + s22) + s12 * s21) / dz
        y[:, 0, 1] = -2.0 * s12 / dz
        y[:, 1, 0] = -2.0 * s21 / dz
        y[:, 1, 1] = ((1.0 + s11) * (1.0 - s22) + s12 * s21) / dz
    _check_conversion(data, delta, np.isfinite(y).all(axis=(1, 2)))
    return y


def transmission_admittance(data: TouchstoneData,
                            topology: str = "series") -> AdmittanceCurve:
    """One-port admittance of the device embedded in a two-port.

    series (default): device bridges port 1 to port 2, Y_dev = -Y12.
    shunt: device hangs off port 1, Y_dev = Y11.
    Only that entry is computed, bit for bit as s_to_y computes it, and
    only it has to be finite: an overflow in an entry the device does not
    use raises nothing, while a singular point still raises.
    """
    if topology not in TOPOLOGIES:
        raise ConfigError(
            f"topology must be one of {TOPOLOGIES}, got {topology!r}")
    s11, s12, s21, s22, delta, dz = _s_columns(data)
    with np.errstate(all="ignore"):
        if topology == "series":
            y_dev = -(-2.0 * s12 / dz)      # s_to_y's Y12, negated
        else:
            y_dev = ((1.0 - s11) * (1.0 + s22) + s12 * s21) / dz
    _check_conversion(data, delta, np.isfinite(y_dev))
    return AdmittanceCurve(frequencies=data.frequencies, y=y_dev)


@dataclass(frozen=True)
class MbvdParams:
    """Six-element mBVD circuit values (SI units)."""

    rm: float
    lm: float
    cm: float
    c0: float
    r0: float
    rs: float

    def __post_init__(self):
        for name in ("rm", "r0", "rs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("lm", "cm", "c0"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")

    def as_vector(self) -> np.ndarray:
        return np.array([self.rm, self.lm, self.cm, self.c0,
                         self.r0, self.rs])


def _circuit(jw, rm, lm, cm, c0, r0, rs):
    """Motional and static branch impedances, their parallel admittance,
    and the admittance behind rs, at jw = 1j * omega."""
    zm = rm + jw * lm + 1.0 / (jw * cm)
    zs = r0 + 1.0 / (jw * c0)
    y_par = 1.0 / zm + 1.0 / zs
    return zm, zs, y_par, 1.0 / (rs + 1.0 / y_par)


def mbvd_admittance(p: MbvdParams, f):
    """Model admittance at frequency f, e^{+jwt} sign.

    f is in Hz, a scalar or 1-D array, finite with a real part > 0 (the
    kernels' acoustic1d._kernel_frequencies check).  Returns a complex
    for scalar f, else an array.
    """
    jw = 1j * (2.0 * math.pi * _kernel_frequencies(f))
    y = _circuit(jw, *p.as_vector())[3]
    return complex(y[0]) if np.ndim(f) == 0 else y


@dataclass(frozen=True)
class FitReport:
    """Fit products: circuit values plus the derived resonator metrics."""

    params: MbvdParams
    fs: float
    qs: float
    keff2_mbvd: float
    fom: float
    residual: float
    n_iterations: int
    converged: bool


def report(p: MbvdParams, residual: float = 0.0, n_iterations: int = 0,
           converged: bool = True) -> FitReport:
    """Derive fs, Qs, keff2 and FOM from circuit values.

    fs = 1/(2 pi sqrt(lm cm)); qs = 2 pi fs lm / rm (motional Q, rs and r0
    excluded); keff2 = (pi^2/8) cm/c0.
    """
    fs = 1.0 / (2.0 * math.pi * math.sqrt(p.lm * p.cm))
    qs = 2.0 * math.pi * fs * p.lm / p.rm if p.rm > 0 else math.inf
    k2 = (math.pi ** 2 / 8.0) * (p.cm / p.c0)
    return FitReport(params=p, fs=fs, qs=qs, keff2_mbvd=k2, fom=k2 * qs,
                     residual=residual, n_iterations=n_iterations,
                     converged=converged)


def _median(v: np.ndarray) -> float:
    """np.median's value for NaN-free v, the middle of the sorted values or
    the mean (a + b) / 2 of the two middle ones, without its overhead:
    np.median takes about six times as long on a seed's 150 samples."""
    v = np.sort(v)
    m = v.size // 2
    return float(v[m] if v.size % 2 else (v[m - 1] + v[m]) / 2.0)


def _seed_parameters(freqs: np.ndarray, y: np.ndarray) -> MbvdParams:
    """Closed-form starting point from the conductance peak geometry.

    fs is the conductance peak and fp the |Y| minimum above it; c0 comes
    from the susceptance of the outer quarters of the band, cm from c0 and
    (fp/fs)^2 - 1, lm from fs and cm, and rm from the peak conductance.
    r0 and rs each start at half the median resistance Re(1/Y) of the
    same outer quarters, where the static branch in series with rs carries
    the current, or at 1e-3 ohm when that median is not > 0.  From
    milliohm seeds Levenberg-Marquardt took about four times as many
    evaluations, and sometimes stopped far from the minimum.
    """
    re_y = y.real
    i_fs = int(np.argmax(re_y))
    fs = freqs[i_fs]
    above = np.abs(y[i_fs:])
    i_fp = i_fs + int(np.argmin(above))
    fp = freqs[min(i_fp, freqs.size - 1)]
    if not fp > fs:
        fp = fs * 1.01

    # off-resonance samples: outer quarters of the band
    n = freqs.size
    edge = max(n // 4, 1)
    y_off = np.concatenate((y[:edge], y[n - edge:]))
    f_off = np.concatenate((freqs[:edge], freqs[n - edge:]))
    c0 = _median(y_off.imag / (2.0 * math.pi * f_off))
    if not c0 > 0:
        c0 = float(_median(np.abs(y_off)) / (2.0 * math.pi * fs))
    cm = c0 * ((fp / fs) ** 2 - 1.0)
    if not cm > 0:
        cm = 0.02 * c0
    lm = 1.0 / ((2.0 * math.pi * fs) ** 2 * cm)
    g_peak = float(re_y[i_fs])
    rm = 1.0 / g_peak if g_peak > 0 else 1.0
    r_off = 0.5 * _median((1.0 / y_off).real)
    if not r_off > 0:
        r_off = 1e-3
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=c0, r0=r_off, rs=r_off)


def _jacobian(jw, minus_jw, weight, p, circuit) -> np.ndarray:
    """d(weighted residual)/d(ln p) as a read-only (6, 2n) array, leastsq's
    col_deriv=1 layout: row k holds the derivatives by ln p[k] of the n
    real residuals, then of the n imaginary ones.

    dY/d(ln p) chains through rs and the parallel pair.  High-Q lines make
    finite differences too noisy for LM to converge, so it is exact.  The
    array is cached per x and scipy copies it into MINPACK's buffer; it is
    read-only so that a scipy which wrote into it instead would fail.
    """
    rm, lm, cm, c0, r0, rs = p
    zm, zs, y_par, y_model = circuit
    zm2 = zm ** 2
    zs2 = zs ** 2
    outer = -y_model ** 2
    inner = outer * (-1.0 / y_par ** 2)
    grad = np.empty((6, jw.size), dtype=complex)
    grad[0] = inner * (-1.0 / zm2) * rm
    grad[1] = inner * (minus_jw / zm2) * lm
    grad[2] = inner * (1.0 / (jw * cm * zm2))
    grad[3] = inner * (1.0 / (jw * c0 * zs2))
    grad[4] = inner * (-1.0 / zs2) * r0
    grad[5] = outer * rs
    grad *= weight
    jac = np.concatenate([grad.real, grad.imag], axis=1)
    jac.flags.writeable = False
    return jac


def fit_mbvd(curve: AdmittanceCurve,
             band: tuple[float, float] | None = None) -> FitReport:
    """Fit the six mBVD values to an admittance curve.

    Minimizes sum |Y_model - Y_data|^2 / |Y_data|^2 over log-parameters
    with MINPACK's Levenberg-Marquardt `lmder` (scipy's `leastsq`, exact
    Jacobian, ftol = xtol = gtol = 1e-14, at most 20000 evaluations),
    started from closed-form seeds.  n_iterations is MINPACK's count of
    residual evaluations.  The residual and the Jacobian at one point
    share one circuit evaluation, and the Jacobian is formed once per
    point: leastsq's check call at the start and MINPACK's first call
    share it.  Non-convergence is reported through the flag, never
    raised.  Requires >= 50 points in the band, each with a finite
    non-zero Y, and an interior conductance peak.
    """
    freqs = curve.frequencies
    y = curve.y
    if band is not None:
        lo, hi = band
        if not lo < hi:
            raise ConfigError(f"band must be (lo, hi) with lo < hi, "
                              f"got ({lo!r}, {hi!r})")
        keep = (freqs >= lo) & (freqs <= hi)
        freqs, y = freqs[keep], y[keep]
    if freqs.size < 50:
        raise ConfigError(
            f"need at least 50 points in the fitted band, got {freqs.size}")
    bad = (y == 0) | ~np.isfinite(y)
    if np.any(bad):
        # the residual is relative to |Y|, undefined at such a sample
        raise ConfigError(f"admittance is zero or not finite at "
                          f"{freqs[np.argmax(bad)]:.9g} Hz")
    i_peak = int(np.argmax(y.real))
    if i_peak in (0, freqs.size - 1):
        raise ConfigError("no conductance peak in band")

    # the floor only guards log(0) for zero resistances; femtofarad-scale
    # capacitances must pass through untouched
    x0 = np.log(np.maximum(_seed_parameters(freqs, y).as_vector(), 1e-30))
    weight = 1.0 / np.abs(y)
    omega = 2.0 * math.pi * freqs
    jw = 1j * omega
    # not -jw, whose real parts are -0.0: the bits of every fit stay
    minus_jw = -1j * omega

    def values(x: np.ndarray) -> np.ndarray:
        # clamp keeps exp() finite if the optimizer wanders (np.clip's
        # value, without its wrapper's cost on six numbers)
        return np.exp(np.minimum(np.maximum(x, -115.0), 115.0))

    # the circuit and the Jacobian at the last x, keyed by its bytes because
    # MINPACK may reuse its buffer: the residual and the Jacobian at one x
    # share a circuit, and leastsq's check call at x0 and MINPACK's first
    # Jacobian share one Jacobian
    last: dict = {"key": None}

    def circuit(x: np.ndarray) -> dict:
        key = x.tobytes()
        if key != last["key"]:
            p = values(x)
            last.clear()
            last.update(key=key, p=p, circuit=_circuit(jw, *p))
        return last

    def residuals(x: np.ndarray) -> np.ndarray:
        diff = (circuit(x)["circuit"][3] - y) * weight
        return np.concatenate([diff.real, diff.imag])

    def jacobian(x: np.ndarray) -> np.ndarray:
        at = circuit(x)
        if "jacobian" not in at:
            at["jacobian"] = _jacobian(jw, minus_jw, weight, at["p"],
                                       at["circuit"])
        return at["jacobian"]

    # imported here so that only a fit pays for loading scipy.optimize,
    # which would otherwise be most of the time of `import bawkit`
    from scipy.optimize import leastsq

    # full_output: without it leastsq warns instead of returning ier.  It
    # also computes a covariance, discarded here, whose product can
    # overflow; only scipy's own RuntimeWarnings are silenced, so those of
    # the residual and the Jacobian still surface.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=RuntimeWarning,
                                module=r"scipy\.optimize\._minpack_py")
        x, _, info, _, ier = leastsq(residuals, x0, Dfun=jacobian,
                                     full_output=True, col_deriv=1,
                                     ftol=1e-14, xtol=1e-14, gtol=1e-14,
                                     maxfev=20000)
    rm, lm, cm, c0, r0, rs = values(x)
    p_fit = MbvdParams(rm=float(rm), lm=float(lm), cm=float(cm),
                       c0=float(c0), r0=float(r0), rs=float(rs))
    # MINPACK keeps fvec the residual vector at x
    res = info["fvec"]
    rel_rms = float(np.sqrt(np.mean(
        res[:freqs.size] ** 2 + res[freqs.size:] ** 2)))
    return report(p_fit, residual=rel_rms, n_iterations=int(info["nfev"]),
                  converged=ier in (1, 2, 3, 4))


_REPORT_KEYS = ("rm_ohm", "lm_h", "cm_f", "c0_f", "r0_ohm", "rs_ohm",
                "fs_hz", "qs", "keff2", "fom", "residual", "converged")


def format_fit_report(rep: FitReport) -> str:
    """Structured-text record, one `key: value` line per field."""
    g = "{:.17g}".format
    p = rep.params
    vals = {
        "rm_ohm": g(p.rm), "lm_h": g(p.lm), "cm_f": g(p.cm),
        "c0_f": g(p.c0), "r0_ohm": g(p.r0), "rs_ohm": g(p.rs),
        "fs_hz": g(rep.fs), "qs": g(rep.qs), "keff2": g(rep.keff2_mbvd),
        "fom": g(rep.fom), "residual": g(rep.residual),
        "converged": "true" if rep.converged else "false",
    }
    return "\n".join(f"{k}: {vals[k]}" for k in _REPORT_KEYS) + "\n"


def parse_fit_report(text: str) -> dict:
    """Inverse of format_fit_report (used by tests and tooling)."""
    out: dict = {}
    for ln in text.splitlines():
        if not ln.strip():
            continue
        key, _, val = ln.partition(":")
        key, val = key.strip(), val.strip()
        out[key] = (val == "true") if key == "converged" else float(val)
    missing = [k for k in _REPORT_KEYS if k not in out]
    if missing:
        raise ConfigError(f"fit report missing keys: {missing}")
    return out


def export_fit_curve_csv(curve: AdmittanceCurve, rep: FitReport,
                         path) -> None:
    """Model-vs-data admittance table for plotting.

    Every number is exactly Python's format(value, ".17g"), so float()
    of each field gives back the stored double.
    """
    y_model = mbvd_admittance(rep.params, curve.frequencies)
    write_csv(path, "freq_hz,re_y_data,im_y_data,re_y_model,im_y_model",
              np.column_stack((curve.frequencies, curve.y.real, curve.y.imag,
                               y_model.real, y_model.imag)))
