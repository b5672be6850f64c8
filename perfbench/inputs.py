"""Seeded input generators owned by the benchmark.

Nothing here imports from the test suite, so editing a test cannot change
what the benchmark measures.  The library only ever receives the products:
Stack records for spectrum_scan and Touchstone text for fit_batch.

Both generators emit balanced blocks: every block holds the same mix of the
properties that set an item's cost (layer count and point count for a
spectrum, file format, unit and embedding for a fit), and the seed draws
the remaining values inside each stratum.  A run therefore measures the
same cost mix whatever the seed, and a change in seed moves the inputs
without moving the expected work.
"""

from __future__ import annotations

import math

import numpy as np

EPS0 = 8.8541878128e-12

# -- spectrum_scan: random stacks ---------------------------------------------

SPECTRUM_BAND_HZ = (0.5e9, 40e9)
# nominal point counts per stratum; each stack jitters its own by +-2%
POINT_STRATA = (1000, 2000, 4000, 8000, 16000)
LAYER_STRATA = (1, 2, 3, 4, 5)

# (name, density kg/m^3, c33e Pa, q_mech range) for the non-piezo media;
# thickness-mode constants in the range of sputtered metal and oxide films
_PASSIVE_MEDIA = (
    ("pt", 21450.0, 347e9, (100.0, 400.0)),
    ("mo", 10280.0, 470e9, (200.0, 1500.0)),
    ("w", 19250.0, 520e9, (200.0, 1500.0)),
    ("al", 2700.0, 111e9, (100.0, 400.0)),
    ("ti", 4506.0, 166e9, (100.0, 400.0)),
    ("ru", 12370.0, 560e9, (200.0, 1500.0)),
    ("sio2", 2200.0, 78e9, (500.0, 3000.0)),
    ("si", 2329.0, 165.7e9, (2000.0, 10000.0)),
)


def spectrum_block(rng: np.random.Generator) -> list[tuple]:
    """One balanced block of (stack, n_points) pairs in shuffled order.

    Every (layer count, point stratum) pair appears exactly once.  A stack
    has one piezo film (AlN to ScAlN-like constants) and up to four other
    layers placed on either side, each 0.1x to 3x the piezo thickness.
    """
    from bawkit import Layer, Material, Stack

    cells = [(n_lay, pts) for n_lay in LAYER_STRATA for pts in POINT_STRATA]
    order = rng.permutation(len(cells))
    block = []
    for k in order:
        n_lay, pts = cells[int(k)]
        sc = float(rng.uniform(0.0, 0.4))       # Sc fraction
        piezo = Material(
            name="piezo",
            density=3260.0 + 350.0 * sc,
            c33e=float(rng.uniform(0.9, 1.1)) * (395e9 - 375e9 * sc),
            q_mech=float(rng.uniform(300.0, 3000.0)),
            e33=1.55 + 3.0 * sc,
            eps33s=(10.0 + 15.0 * sc) * EPS0,
            tan_delta=float(rng.choice((0.0, 0.001, 0.003))))
        t_p = float(rng.uniform(200e-9, 1500e-9))
        layers = [Layer(piezo, t_p, "piezo")]
        for i in range(n_lay - 1):
            name, rho, c33, (q_lo, q_hi) = _PASSIVE_MEDIA[
                int(rng.integers(len(_PASSIVE_MEDIA)))]
            mat = Material(name=f"{name}{i}", density=rho, c33e=c33,
                           q_mech=float(rng.uniform(q_lo, q_hi)))
            role = "passive" if name in ("sio2", "si") else "electrode"
            layer = Layer(mat, t_p * float(rng.uniform(0.1, 3.0)), role)
            if rng.integers(2):
                layers.append(layer)
            else:
                layers.insert(0, layer)
        diameter = float(rng.uniform(20e-6, 100e-6))
        rs = float(rng.uniform(0.5, 5.0)) if rng.random() < 0.5 else 0.0
        stack = Stack(layers=tuple(layers),
                      area=math.pi * (diameter / 2.0) ** 2,
                      rs_electrical=rs,
                      boundary_bottom=str(rng.choice(("free", "rigid"))),
                      boundary_top=str(rng.choice(("free", "rigid"))))
        n_points = int(round(pts * float(rng.uniform(0.98, 1.02))))
        block.append((stack, n_points))
    return block


# -- fit_batch: mBVD devices as Touchstone text -------------------------------

DATA_FORMATS = ("RI", "MA", "DB")
UNITS = {"HZ": 1.0, "MHZ": 1e6, "GHZ": 1e9}
TOPOLOGIES = ("series", "shunt")
Z0 = 50.0
NOISE = 0.005
# transmission of the isolated second port in shunt files: nonzero so every
# format, DB included, can write it
_SHUNT_LEAK = 1e-6


def mbvd_y(params: dict, f: np.ndarray) -> np.ndarray:
    """Admittance of the six-element mBVD circuit (e^{+jwt})."""
    w = 2.0 * math.pi * f
    z_mot = params["rm"] + 1j * w * params["lm"] + 1.0 / (1j * w * params["cm"])
    z_st = params["r0"] + 1.0 / (1j * w * params["c0"])
    y_par = 1.0 / z_mot + 1.0 / z_st
    return 1.0 / (params["rs"] + 1.0 / y_par)


def draw_device(rng: np.random.Generator) -> tuple[dict, float]:
    """Circuit values for fs 2-20 GHz, Qs 100-2000, keff2 3-12%."""
    fs = float(np.exp(rng.uniform(math.log(2e9), math.log(20e9))))
    qs = float(np.exp(rng.uniform(math.log(100.0), math.log(2000.0))))
    k2 = float(rng.uniform(0.03, 0.12))
    x_c0 = float(np.exp(rng.uniform(math.log(20.0), math.log(200.0))))
    c0 = 1.0 / (2.0 * math.pi * fs * x_c0)       # |Z_c0| at fs in ohm
    cm = c0 * k2 * 8.0 / math.pi ** 2
    lm = 1.0 / ((2.0 * math.pi * fs) ** 2 * cm)
    rm = 2.0 * math.pi * fs * lm / qs
    params = {"rm": rm, "lm": lm, "cm": cm, "c0": c0,
              "r0": float(rng.uniform(0.5, 3.0)),
              "rs": float(rng.uniform(0.5, 3.0))}
    return params, fs


def _two_port(y: np.ndarray, topology: str) -> tuple[np.ndarray, ...]:
    """(s11, s21, s12, s22) of the device in a Z0 two-port."""
    if topology == "series":
        zd = 1.0 / y
        s11 = zd / (zd + 2.0 * Z0)
        s21 = 2.0 * Z0 / (zd + 2.0 * Z0)
        return s11, s21, s21, s11
    s11 = (1.0 - Z0 * y) / (1.0 + Z0 * y)
    leak = np.full_like(s11, _SHUNT_LEAK)
    return s11, leak, leak, np.ones_like(s11)


def touchstone_text(freqs: np.ndarray, s_cols, unit: str, fmt: str) -> str:
    """Version-1 two-port Touchstone text in the given unit and format."""
    scale = UNITS[unit]
    lines = ["! synthetic mBVD device", f"# {unit} S {fmt} R {Z0:g}"]
    for k in range(freqs.size):
        cols = [repr(float(freqs[k]) / scale)]
        for s in s_cols:
            v = complex(s[k])
            if fmt == "RI":
                a, b = v.real, v.imag
            elif fmt == "MA":
                a, b = abs(v), math.degrees(math.atan2(v.imag, v.real))
            else:
                a, b = 20.0 * math.log10(abs(v)), math.degrees(
                    math.atan2(v.imag, v.real))
            cols.append(repr(a))
            cols.append(repr(b))
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


def fit_block(rng: np.random.Generator) -> list[dict]:
    """One balanced block of synthetic devices in shuffled order.

    Every (format, unit, topology) triple appears exactly once.  Each
    device carries 0.5% complex multiplicative noise on Y and between 300
    and 600 points over fs * [0.94, 1.07].
    """
    combos = [(fmt, unit, topo) for fmt in DATA_FORMATS for unit in UNITS
              for topo in TOPOLOGIES]
    order = rng.permutation(len(combos))
    block = []
    for k in order:
        fmt, unit, topo = combos[int(k)]
        params, fs = draw_device(rng)
        n = int(rng.integers(300, 601))
        freqs = np.linspace(0.94 * fs, 1.07 * fs, n)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
        y = mbvd_y(params, freqs) * (1.0 + NOISE * noise)
        block.append({
            "name": f"{fmt}-{unit}-{topo}",
            "text": touchstone_text(freqs, _two_port(y, topo), unit, fmt),
            "topology": topo,
            "band": None,
            "fs_true": fs,
        })
    return block
