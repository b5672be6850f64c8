"""Shared fixtures and builders for the test suite."""

import math

import numpy as np
import pytest

from bawkit import (FrequencyGrid, Layer, Material, Stack,
                    calibrate_piezo_stiffness, nominal_stack)
from bawkit.materials import EPS0

AREA_30UM = math.pi * (15e-6) ** 2

CAL_TARGET_HZ = 4.9e9
CAL_BAND = FrequencyGrid(3e9, 15e9, 1201)


def make_metal(name="metal", density=21450.0, c33e=347e9, q_mech=200.0,
               lossless=False):
    return Material(name=name, density=density, c33e=c33e, q_mech=q_mech,
                    lossless=lossless)


def make_piezo(name="pz", density=3400.0, c33e=250e9, q_mech=2000.0,
               e33=2.5, eps33s=16 * EPS0, tan_delta=0.0, lossless=False):
    return Material(name=name, density=density, c33e=c33e, q_mech=q_mech,
                    e33=e33, eps33s=eps33s, tan_delta=tan_delta,
                    lossless=lossless)


def plate(material, thickness, area=AREA_30UM, **kw):
    """Single-layer free/free stack around one material."""
    return Stack(layers=(Layer(material, thickness, "piezo"),),
                 area=area, **kw)


def random_stack(rng, with_rs=True, with_rigid=True, tan_delta=0.0):
    """One piezo layer plus 0-4 passive layers with randomized constants.

    Thicknesses span 0.1x to 3x the piezo layer, q_mech spans 50 to 5000,
    extra layers land on either side of the piezo at random.  tan_delta
    is the piezo's dielectric loss; it draws nothing from rng.
    """
    t_p = 250e-9
    piezo = make_piezo(q_mech=float(rng.uniform(50, 5000)),
                       tan_delta=tan_delta)
    layers = [Layer(piezo, t_p, "piezo")]
    for i in range(int(rng.integers(0, 5))):
        mat = make_metal(name=f"m{i}",
                         density=float(rng.uniform(2000, 22000)),
                         c33e=float(rng.uniform(60e9, 500e9)),
                         q_mech=float(rng.uniform(50, 5000)))
        layer = Layer(mat, t_p * float(rng.uniform(0.1, 3.0)), "electrode")
        if rng.integers(0, 2):
            layers.append(layer)
        else:
            layers.insert(0, layer)
    kinds = ("free", "rigid") if with_rigid else ("free",)
    rs = float(rng.uniform(0.0, 5.0)) if with_rs and rng.random() < 0.5 else 0.0
    return Stack(layers=tuple(layers), area=AREA_30UM, rs_electrical=rs,
                 boundary_bottom=str(rng.choice(kinds)),
                 boundary_top=str(rng.choice(kinds)))


@pytest.fixture(scope="session")
def nominal():
    return nominal_stack()


@pytest.fixture(scope="session")
def calibrated(nominal):
    """Nominal stack with the piezo stiffness scaled so mode-0 fs = 4.9 GHz."""
    return calibrate_piezo_stiffness(nominal, target_fs=CAL_TARGET_HZ,
                                     band=CAL_BAND)


@pytest.fixture(scope="session")
def calibrated_stack(calibrated):
    return calibrated[0]
