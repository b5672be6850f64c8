"""Earlier, slower forms of numeric helpers that were rewritten for speed.

Each function here is the form the library used before its rewrite,
kept as it was apart from imports, comments and docstrings, so that
tests/test_bit_identity.py can require the library's rewrite to return
the same bits.  The rewrites
changed how many numpy and Python calls make each number, never the
operations or their order.
"""

import math

import numpy as np

from bawkit.acoustic1d import _non_finite_error
from bawkit.materials import ConfigError, derive_constants
from bawkit.mbvd import (DATA_FORMATS, FREQUENCY_UNITS, TouchstoneData,
                         TouchstoneError, _hz_literal, _refuse)
from bawkit.modal import (_CIRCLE_POINTS, _CIRCLE_RADIUS, _CLOSE_FRACTION,
                          _MAX_PASSES, _REFINE_TOL, _SHRINK, _TAIL_RATIO,
                          _circle_taylor, _interface, _kernel, _lossless_fs,
                          _model_newton)


def kernel_frequencies(f) -> np.ndarray:
    """acoustic1d._kernel_frequencies."""
    freqs = np.atleast_1d(np.asarray(f))
    freqs = freqs.astype(complex if np.iscomplexobj(freqs) else float,
                         copy=False)
    if not np.isfinite(freqs).all():
        raise ConfigError("frequencies must be finite")
    if np.any(freqs.real <= 0):
        raise ConfigError("frequencies must be > 0")
    return freqs


def bvp_solve(stack, dc, freqs: np.ndarray):
    """acoustic1d._bvp_solve, which returned (pq, alpha, delta, u_scale)."""
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

    a0 = np.zeros((2, n), dtype=complex)
    a0[0] = 1.0
    b0 = -a0 if stack.boundary_bottom == "rigid" else a0.copy()
    if stack.boundary_bottom == "free" and ip == 0:
        b0[1] = (-1j / s_lay[0]) * hd
    pq = [(a0, b0)]

    with np.errstate(all="ignore"):
        for i, lay in enumerate(stack.layers):
            ep = np.exp(jomega * (lay.thickness / dc.v_star[i]))
            em = 1.0 / ep
            a, b = pq[i]
            ea = em * a
            eb = ep * b
            if i == ip:
                chi = pm.e33 * u_scale / dc.eps_star
                volt = chi * (a + b - ea - eb)
                volt[1] += 1.0
            if i == nlay - 1:
                break
            r = s_lay[i] / s_lay[i + 1]
            na = (0.5 + 0.5 * r) * ea + (0.5 - 0.5 * r) * eb
            nb = (0.5 - 0.5 * r) * ea + (0.5 + 0.5 * r) * eb
            if ip in (i, i + 1):
                dq = (0.5j if i + 1 == ip else -0.5j) / s_lay[i + 1] * hd
                na[1] += dq
                nb[1] -= dq
            pq.append((na, nb))

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


def admittance_bvp(stack, f):
    """acoustic1d.admittance_bvp, without its series resistance."""
    freqs = kernel_frequencies(f)
    dc = derive_constants(stack)
    _, _, delta, _ = bvp_solve(stack, dc, freqs)
    t_p = stack.t_piezo
    d_field = delta * dc.eps_star / t_p
    return 1j * (2.0 * math.pi * freqs) * d_field * stack.area


def prufer_phase(phi: float, steps, omega: float) -> tuple[float, float]:
    """modal._prufer_phase, which called _interface at each interface."""
    dphi = 0.0
    for tau, s in steps:
        phi += omega * tau
        dphi += tau
        if s:
            phi, sin_p, cos_p = _interface(phi, s)
            dphi *= s / (cos_p * cos_p + s * s * sin_p * sin_p)
    return phi, dphi


def taylor_tails(c: np.ndarray):
    """modal._taylor_tails, which returned (too_wide, tails) lists."""
    mag = np.abs(c)
    order = _CIRCLE_POINTS // 2
    omitted = mag[:, order:]
    too_wide = omitted.max(axis=1) > _TAIL_RATIO * mag[:, :order].max(axis=1)
    return too_wide.tolist(), list(zip(
        omitted.sum(axis=1).tolist(),
        (omitted @ np.arange(order, mag.shape[1])).tolist()))


def refine_roots(evaluate, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 peak: np.ndarray, first: list, rel_tol: float):
    """modal._refine_roots, on arrays, with first a list of rows."""
    x, lo, hi = x.tolist(), lo.tolist(), hi.tolist()
    radius = [_CIRCLE_RADIUS * f for f in x]
    peak = peak.tolist()
    sure_lo, sure_hi = [False] * len(x), [False] * len(x)
    order = _CIRCLE_POINTS // 2

    def step(b, coef, too_wide, tail) -> bool:
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
            given, c[:, :order].tolist(), *taylor_tails(c))
            if not step(b, coef, too_wide, tail)}
        live = [b for b in live if b not in done]
    for _ in range(_MAX_PASSES):
        if not live:
            break
        c = _circle_taylor(evaluate, np.array([x[b] for b in live]),
                           np.array([radius[b] for b in live]))
        live = [b for b, coef, too_wide, tail in zip(
            live, c[:, :order].tolist(), *taylor_tails(c))
            if step(b, coef, too_wide, tail)]
    near = max(rel_tol, _REFINE_TOL)
    found = [not ((not sure_lo[b] and x[b] - lo[b] <= near * x[b])
                  or (not sure_hi[b] and hi[b] - x[b] <= near * x[b]))
             for b in range(len(x))]
    return np.array(x), np.array(found)


def search(stack, roots: list, backend: str, rel_tol: float):
    """modal._search, which returned arrays and knew no lossless stack."""
    f_top = max(root[1] for root in roots)
    y_top = 2.0 * math.pi * f_top * abs(derive_constants(stack).c0)
    if not math.isfinite(y_top * y_top):
        thinnest = min(stack.layers, key=lambda lay: lay.thickness)
        raise ConfigError(
            f"the open-circuit root at {f_top:.6g} Hz puts (2 pi f |C0|)^2 "
            f"past the double range: the layers are too thin, the thinnest "
            f"{thinnest.material.name!r} at {thinnest.thickness!r} m")
    numbers, f_oc, weight = (np.array(v) for v in zip(*roots))
    evaluate = _kernel(stack, backend)
    r = _CIRCLE_RADIUS * f_oc
    c = _circle_taylor(evaluate, f_oc, r)
    with np.errstate(all="ignore"):
        pole = f_oc + r * c[:, 2] / c[:, 3]
    pole = np.where(np.isfinite(pole), pole, f_oc)
    fs0 = pole.real
    half = np.maximum(2.0 * np.abs(pole.imag), f_oc - fs0)
    fp_hi = f_oc + half
    at_root = (fs0 < f_oc) & (f_oc < fp_hi)
    k = f_oc.size
    x, found = refine_roots(
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


def parse_touchstone(text: str) -> TouchstoneData:
    """mbvd.parse_touchstone, which split the whole text into lines."""
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
