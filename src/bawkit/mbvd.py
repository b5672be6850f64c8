"""Measurement pipeline: Touchstone ingestion, S->Y conversion, and
modified Butterworth-Van Dyke (mBVD) parameter extraction.

The circuit is a motional branch (rm, lm, cm in series) in parallel with a
static branch (c0 in series with r0), the pair behind a series electrode
resistance rs.  Fitting runs in log-parameter space (positivity for free)
against the relative complex admittance residual, seeded by closed-form
heuristics from the conductance peak and the off-resonance susceptance.
The solver is MINPACK's Levenberg-Marquardt `lmder` with the exact
Jacobian, called through scipy's `leastsq`, which gives every supported
scipy (>= 1.10) MINPACK's own variable scaling; `least_squares` passed
diag = 1/x_scale before scipy 1.16.

Touchstone handling is a hand-rolled version-1 tokenizer because the
acceptance contract requires line-numbered rejection of malformed files,
which no off-the-shelf parser provides.  Besides bad syntax it rejects a
reference impedance that is not finite and > 0, an S value that is not
finite, and a frequency that is not > 0 or not finite in Hz.  Frequencies
move into Hz by an exact decimal shift, so they round once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .acoustic1d import AdmittanceCurve
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
    """Two-port S-parameter table with its source-format metadata."""

    frequencies: np.ndarray     # Hz
    s: np.ndarray               # (n, 2, 2) complex
    z0: float
    unit: str = "GHZ"
    data_format: str = "MA"

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if f.ndim != 1 or s.shape != (f.size, 2, 2):
            raise ConfigError("need frequencies (n,) and s (n, 2, 2)")
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


def _strip_comment(line: str) -> str:
    cut = line.find("!")
    return line if cut < 0 else line[:cut]


def parse_touchstone(text: str) -> TouchstoneData:
    """Parse version-1 two-port Touchstone text.

    Honors the option line `# <unit> S <format> R <z0>` (tokens in any
    order, case-insensitive, defaults GHZ/S/MA/50).  Data lines hold
    9 columns per frequency point -- f, then S11 S21 S12 S22 as value
    pairs -- and records may wrap across lines.  Errors carry the line
    number they were detected on.  Rejected besides bad syntax: a
    reference impedance that is not finite and > 0, a value that is not
    finite, and a frequency that is not > 0 or is not finite in Hz.
    """
    unit, fmt, z0 = "GHZ", "MA", 50.0
    param = "S"
    saw_option = False
    rows: list[list[str]] = []      # the value tokens of each data line
    row_lines: list[int] = []       # and that line's number
    lines = text.splitlines()
    for ln_no, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("#"):
            if saw_option:
                raise TouchstoneError(ln_no, "duplicate option line")
            if rows:
                raise TouchstoneError(ln_no, "option line after data")
            saw_option = True
            toks = line[1:].upper().split()
            i = 0
            while i < len(toks):
                t = toks[i]
                if t in FREQUENCY_UNITS:
                    unit = t
                elif t in DATA_FORMATS:
                    fmt = t
                elif t == "R":
                    if i + 1 >= len(toks):
                        raise TouchstoneError(ln_no, "R without an impedance")
                    try:
                        z0 = float(toks[i + 1])
                    except ValueError:
                        z0 = math.nan
                    if not 0 < z0 < math.inf:
                        raise TouchstoneError(
                            ln_no, f"reference impedance must be a finite "
                            f"number > 0, got {toks[i + 1]!r}")
                    i += 1
                elif t in ("S", "Y", "Z", "G", "H"):
                    param = t
                else:
                    raise TouchstoneError(ln_no, f"unknown option token {t!r}")
                i += 1
            if param != "S":
                raise TouchstoneError(
                    ln_no, f"expected S-parameters, file declares {param!r}")
            continue
        rows.append(line.split())
        row_lines.append(ln_no)

    if not saw_option:
        where = next((no for no, raw in enumerate(lines, start=1)
                      if _strip_comment(raw).strip()), 1)
        raise TouchstoneError(where, "missing option line ('# ...')")
    if not rows:
        raise TouchstoneError(len(lines) or 1, "no data records")
    tokens = [tok for row in rows for tok in row]
    if len(tokens) % 9 != 0:
        raise TouchstoneError(
            row_lines[-1], f"two-port records need 9 columns per frequency; "
            f"got {len(tokens)} values total")

    def line_of(index: int) -> int:
        """Line of tokens[index]; looked up only to report an error."""
        for ln_no, row in zip(row_lines, rows):
            index -= len(row)
            if index < 0:
                return ln_no

    try:
        values = list(map(float, tokens))
    except ValueError:
        for k, tok in enumerate(tokens):
            try:
                float(tok)
            except ValueError:
                raise TouchstoneError(line_of(k), f"not a number: {tok!r}")
        raise
    rec = np.array(values).reshape(-1, 9)
    n = rec.shape[0]
    bad = ~np.isfinite(rec)
    bad[:, 0] |= rec[:, 0] <= 0
    if bad.any():
        k = int(np.argmax(bad))
        what = "a frequency must be finite and > 0" if k % 9 == 0 \
            else "a value must be finite"
        raise TouchstoneError(line_of(k), f"{what}, got {tokens[k]!r}")

    # Shift each frequency (a finite decimal literal by now) into Hz by
    # rewriting its exponent, so float() rounds its exact value in Hz once.
    # The exponent goes through float(): int() refuses over 4300 digits,
    # which zero padding can reach in a finite literal.
    exp = FREQUENCY_UNITS[unit]
    split = (tok.lower().partition("e") for tok in tokens[::9])
    freqs = np.array([float(f"{m}e{int(float(p or 0)) + exp}")
                      for m, _, p in split])
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
            f"({rec[k, 0]:g} after {rec[k - 1, 0]:g})")

    a = rec[:, 1::2]
    b = rec[:, 2::2]
    if fmt == "RI":
        s_flat = a + 1j * b
    elif fmt == "MA":
        s_flat = a * np.exp(1j * np.deg2rad(b))
    else:   # DB
        s_flat = 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
    # v1 two-port column order: S11, S21, S12, S22
    s = s_flat[:, [0, 2, 1, 3]].reshape(n, 2, 2)
    return TouchstoneData(frequencies=freqs, s=s, z0=z0, unit=unit,
                          data_format=fmt)


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


def s_to_y(data: TouchstoneData) -> np.ndarray:
    """Two-port S to Y conversion; returns (n, 2, 2) complex admittances."""
    s = data.s
    s11, s12 = s[:, 0, 0], s[:, 0, 1]
    s21, s22 = s[:, 1, 0], s[:, 1, 1]
    delta = (1.0 + s11) * (1.0 + s22) - s12 * s21
    bad = np.abs(delta) < 1e-30
    if np.any(bad):
        f_bad = data.frequencies[np.argmax(bad)]
        raise ConversionError(
            f"S->Y conversion singular at {f_bad:.9g} Hz")
    y = np.empty_like(s)
    dz = delta * data.z0
    y[:, 0, 0] = ((1.0 - s11) * (1.0 + s22) + s12 * s21) / dz
    y[:, 0, 1] = -2.0 * s12 / dz
    y[:, 1, 0] = -2.0 * s21 / dz
    y[:, 1, 1] = ((1.0 + s11) * (1.0 - s22) + s12 * s21) / dz
    return y


def transmission_admittance(data: TouchstoneData,
                            topology: str = "series") -> AdmittanceCurve:
    """One-port admittance of the device embedded in a two-port.

    series (default): device bridges port 1 to port 2, Y_dev = -Y12.
    shunt: device hangs off port 1, Y_dev = Y11.
    """
    if topology not in TOPOLOGIES:
        raise ConfigError(
            f"topology must be one of {TOPOLOGIES}, got {topology!r}")
    y = s_to_y(data)
    y_dev = -y[:, 0, 1] if topology == "series" else y[:, 0, 0]
    return AdmittanceCurve(frequencies=data.frequencies, y=y_dev,
                           provenance="measured")


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


def _circuit(omega, rm, lm, cm, c0, r0, rs):
    """Motional and static branch impedances, their parallel admittance,
    and the admittance behind rs, at angular frequencies omega."""
    zm = rm + 1j * omega * lm + 1.0 / (1j * omega * cm)
    zs = r0 + 1.0 / (1j * omega * c0)
    y_par = 1.0 / zm + 1.0 / zs
    return zm, zs, y_par, 1.0 / (rs + 1.0 / y_par)


def mbvd_admittance(p: MbvdParams, f):
    """Model admittance at frequency f (scalar or array), e^{+jwt} sign."""
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr <= 0):
        raise ConfigError("frequencies must be > 0")
    y = _circuit(2.0 * math.pi * f_arr, *p.as_vector())[3]
    return y if f_arr.ndim else complex(y)


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


def _seed_parameters(freqs: np.ndarray, y: np.ndarray) -> MbvdParams:
    """Closed-form starting point from the conductance peak geometry."""
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
    sel = np.r_[0:edge, n - edge:n]
    c0 = float(np.median(y[sel].imag / (2.0 * math.pi * freqs[sel])))
    if not c0 > 0:
        c0 = float(np.median(np.abs(y[sel])) / (2.0 * math.pi * fs))
    cm = c0 * ((fp / fs) ** 2 - 1.0)
    if not cm > 0:
        cm = 0.02 * c0
    lm = 1.0 / ((2.0 * math.pi * fs) ** 2 * cm)
    g_peak = float(re_y[i_fs])
    rm = 1.0 / g_peak if g_peak > 0 else 1.0
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=c0, r0=1e-3, rs=1e-3)


def fit_mbvd(curve: AdmittanceCurve,
             band: tuple[float, float] | None = None) -> FitReport:
    """Fit the six mBVD values to an admittance curve.

    Minimizes sum |Y_model - Y_data|^2 / |Y_data|^2 over log-parameters
    with MINPACK's Levenberg-Marquardt `lmder` (scipy's `leastsq`, exact
    Jacobian, ftol = xtol = gtol = 1e-14, at most 20000 evaluations),
    started from closed-form seeds.  n_iterations is MINPACK's count of
    residual evaluations.  Non-convergence is reported through the flag,
    never raised.  Requires >= 50 points in the band and an interior
    conductance peak.
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
    i_peak = int(np.argmax(y.real))
    if i_peak in (0, freqs.size - 1):
        raise ConfigError("no conductance peak in band")

    # the floor only guards log(0) for zero resistances; femtofarad-scale
    # capacitances must pass through untouched
    x0 = np.log(np.maximum(_seed_parameters(freqs, y).as_vector(), 1e-30))
    weight = 1.0 / np.abs(y)
    omega = 2.0 * math.pi * freqs

    def values(x: np.ndarray) -> np.ndarray:
        # clamp keeps exp() finite if the optimizer wanders
        return np.exp(np.clip(x, -115.0, 115.0))

    last: list = [None, None, None]     # x, values(x), _circuit at x

    def circuit(x: np.ndarray):
        # the residual and the Jacobian at one x share a circuit; x is
        # compared by value because MINPACK may reuse its buffer
        if not np.array_equal(x, last[0]):
            p = values(x)
            last[:] = x.copy(), p, _circuit(omega, *p)
        return last[1], last[2]

    def residuals(x: np.ndarray) -> np.ndarray:
        diff = (circuit(x)[1][3] - y) * weight
        return np.concatenate([diff.real, diff.imag])

    def jacobian(x: np.ndarray) -> np.ndarray:
        # dY/d(ln p): chain through rs and the parallel pair.  High-Q
        # lines make finite differences too noisy for LM to converge, so
        # the Jacobian is exact.
        (rm, lm, cm, c0, r0, rs), (zm, zs, y_par, y_model) = circuit(x)
        outer = -y_model ** 2
        inner = outer * (-1.0 / y_par ** 2)
        grad = np.empty((6, freqs.size), dtype=complex)
        grad[0] = inner * (-1.0 / zm ** 2) * rm
        grad[1] = inner * (-1j * omega / zm ** 2) * lm
        grad[2] = inner * (1.0 / (1j * omega * cm * zm ** 2))
        grad[3] = inner * (1.0 / (1j * omega * c0 * zs ** 2))
        grad[4] = inner * (-1.0 / zs ** 2) * r0
        grad[5] = outer * rs
        grad *= weight
        return np.concatenate([grad.real, grad.imag], axis=1).T

    # imported here so that only a fit pays for loading scipy.optimize,
    # which would otherwise be most of the time of `import bawkit`
    from scipy.optimize import leastsq

    # full_output: without it leastsq warns instead of returning ier
    x, _, info, _, ier = leastsq(residuals, x0, Dfun=jacobian,
                                 full_output=True, ftol=1e-14, xtol=1e-14,
                                 gtol=1e-14, maxfev=20000)
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
    """Model-vs-data admittance table for plotting, 17 significant digits."""
    y_model = mbvd_admittance(rep.params, curve.frequencies)
    cols = np.column_stack((curve.frequencies, curve.y.real, curve.y.imag,
                            y_model.real, y_model.imag))
    row = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
    body = (row * cols.shape[0]) % tuple(cols.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,re_y_data,im_y_data,re_y_model,im_y_model\n" + body)
