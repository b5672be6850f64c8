"""Material table, stack configuration, and derived-constant checks."""

import dataclasses
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bawkit import (ConfigError, FrequencyGrid, Layer, Material, Stack,
                    find_modes, load_stack)
from bawkit.materials import (EPS0, default_materials, derive_constants,
                              nominal_stack, serialize_stack)

from conftest import AREA_30UM, make_metal, make_piezo, plate


# -- Material ----------------------------------------------------------------

def test_material_rejects_bad_values():
    with pytest.raises(ConfigError):
        Material(name="", density=1e3, c33e=1e11, q_mech=100)
    with pytest.raises(ConfigError):
        Material(name="x", density=-1.0, c33e=1e11, q_mech=100)
    with pytest.raises(ConfigError):
        Material(name="x", density=1e3, c33e=0.0, q_mech=100)
    with pytest.raises(ConfigError):
        Material(name="x", density=1e3, c33e=1e11, q_mech=0.0)
    with pytest.raises(ConfigError):
        # coupling without a permittivity
        Material(name="x", density=1e3, c33e=1e11, q_mech=100, e33=1.0)
    with pytest.raises(ConfigError):
        Material(name="x", density=1e3, c33e=1e11, q_mech=100,
                 e33=1.0, eps33s=1e-10, tan_delta=-0.1)


@pytest.mark.parametrize("key, value", [
    ("density", math.inf),
    ("e33", math.nan),
    ("lossless", "no"),       # truthy: would drop the medium's loss
    ("lossless", 1),          # serialize_stack text load_stack refuses
    ("citation", None),
])
def test_material_checks_its_fields(nominal, key, value):
    mat = nominal.layers[nominal.piezo_index].material
    with pytest.raises(ConfigError, match=f"material 'scaln30': {key} "):
        dataclasses.replace(mat, **{key: value})


def test_stiffened_constants_match_direct_arithmetic():
    m = make_piezo(c33e=250e9, e33=2.5, eps33s=16 * EPS0)
    c33d = 250e9 + 2.5 ** 2 / (16 * EPS0)
    assert m.c33d == pytest.approx(c33d, rel=1e-15)
    assert m.kt2_mat == pytest.approx(2.5 ** 2 / (c33d * 16 * EPS0), rel=1e-15)
    assert m.v_d == pytest.approx(math.sqrt(c33d / 3400.0), rel=1e-15)


def test_plain_material_has_zero_coupling():
    m = make_metal()
    assert m.kt2_mat == 0.0
    assert m.c33d == m.c33e


def test_bundled_piezo_coupling_value():
    mat = default_materials()["scaln30"]
    assert mat.e33 == 2.5
    assert mat.eps33s == pytest.approx(16 * EPS0, rel=1e-12)
    # frozen value of e33^2 / (c33d * eps33s) for the bundled constants
    assert mat.kt2_mat == pytest.approx(0.14999969549629816, rel=1e-12)


# -- Layer / Stack -----------------------------------------------------------

def test_layer_and_stack_validation():
    pz = make_piezo()
    met = make_metal()
    with pytest.raises(ConfigError):
        Layer(met, 100e-9, "glue")
    with pytest.raises(ConfigError):
        Layer(met, 0.0, "electrode")
    with pytest.raises(ConfigError):
        # piezo role needs a permittivity for C0
        Layer(met, 100e-9, "piezo")
    with pytest.raises(ConfigError):
        Stack(layers=(Layer(met, 100e-9, "electrode"),), area=AREA_30UM)
    with pytest.raises(ConfigError):
        Stack(layers=(Layer(pz, 100e-9, "piezo"),
                      Layer(pz, 100e-9, "piezo")), area=AREA_30UM)
    with pytest.raises(ConfigError):
        Stack(layers=(Layer(pz, 100e-9, "piezo"),), area=-1.0)
    with pytest.raises(ConfigError):
        Stack(layers=(Layer(pz, 100e-9, "piezo"),), area=1.0,
              rs_electrical=-0.5)
    with pytest.raises(ConfigError):
        Stack(layers=(Layer(pz, 100e-9, "piezo"),), area=1.0,
              boundary_top="clamped")


@pytest.mark.parametrize("build, key", [
    (lambda: Layer(make_metal(), math.inf, "electrode"), "thickness"),
    (lambda: Stack(layers=(Layer(make_piezo(), 100e-9, "piezo"),),
                   area=math.inf), "area_m2"),
    (lambda: Stack(layers=(Layer(make_piezo(), 100e-9, "piezo"),),
                   area=1.0, rs_electrical=math.nan), "rs_ohm"),
], ids=["thickness", "area_m2", "rs_ohm"])
def test_layer_and_stack_reject_non_finite_numbers(build, key):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        build()


def test_stack_helpers():
    s = nominal_stack()
    assert len(s.layers) == 3
    assert s.piezo_index == 1
    assert s.t_piezo == pytest.approx(250e-9, rel=1e-12)
    assert [l.thickness for l in s.layers] == pytest.approx(
        [240e-9, 250e-9, 160e-9], rel=1e-12)
    assert s.area == pytest.approx(AREA_30UM, rel=1e-12)
    assert s.boundary_bottom == "free" and s.boundary_top == "free"
    assert s.rs_electrical == 0.0
    s2 = s.with_layer_thickness(0, 300e-9)
    assert s2.layers[0].thickness == 300e-9
    assert s.layers[0].thickness == pytest.approx(240e-9)  # original untouched


# -- derive_constants --------------------------------------------------------

def test_derived_constants_loss_convention(nominal):
    dc = derive_constants(nominal)
    assert dc.piezo_index == 1
    pz = nominal.layers[1].material
    assert dc.h_piezo == pytest.approx(pz.e33 / pz.eps33s, rel=1e-15)
    for c, v in zip(dc.c_star, dc.v_star):
        # lossy stiffness in the upper half plane, velocity likewise so the
        # e^{+j w t} waves decay along their travel direction
        assert c.imag > 0
        assert v.imag > 0
        assert v.real > 0
    assert dc.eps_star.imag == 0.0  # tan_delta = 0 in the bundled table


def test_derived_constants_dielectric_loss():
    pz = make_piezo(tan_delta=0.02)
    dc = derive_constants(plate(pz, 250e-9))
    assert dc.eps_star == pytest.approx(pz.eps33s * (1 - 0.02j), rel=1e-15)


def test_derive_constants_is_pure(nominal):
    a = derive_constants(nominal)
    b = derive_constants(nominal)
    assert a.c_star == b.c_star
    assert a.v_star == b.v_star
    assert a.eps_star == b.eps_star


def test_derive_constants_once_per_stack(nominal, monkeypatch):
    """The constants are computed once per Stack object: a find_modes call
    on a fresh stack builds them once, a copy builds its own."""
    module = sys.modules[derive_constants.__module__]
    built = []
    original = module.DerivedConstants

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "DerivedConstants", counting)
    stack = dataclasses.replace(nominal)
    find_modes(stack, FrequencyGrid(1.5e9, 34e9, 2), 3)
    assert len(built) == 1
    a = derive_constants(stack)
    assert derive_constants(stack) is a and len(built) == 1
    copy = dataclasses.replace(stack)
    assert derive_constants(copy) is not a
    assert derive_constants(copy) == a and len(built) == 2
    thicker = stack.with_layer_thickness(stack.piezo_index, 300e-9)
    assert derive_constants(thicker).c0 != a.c0


# -- load_stack / serialize_stack --------------------------------------------

def test_nominal_stack_file_loads(nominal):
    mats = [l.material.name for l in nominal.layers]
    assert mats == ["pt", "scaln30", "alsicu"]
    roles = [l.role for l in nominal.layers]
    assert roles == ["electrode", "piezo", "electrode"]


def test_default_materials_table():
    table = default_materials()
    for key in ("pt", "alsicu", "scaln30", "ti", "si"):
        assert key in table
    assert table["pt"].q_mech == 200.0
    assert table["scaln30"].q_mech == 2000.0


def test_nominal_stack_mirrors_the_bundled_table(nominal):
    table = default_materials()
    for lay in nominal.layers:
        mat = lay.material
        assert mat == dataclasses.replace(table[mat.name],
                                          citation=mat.citation)


def test_serialize_round_trip(nominal):
    text = serialize_stack(nominal)
    again = load_stack(text)
    assert len(again.layers) == len(nominal.layers)
    for a, b in zip(again.layers, nominal.layers):
        assert a.thickness == pytest.approx(b.thickness, rel=1e-12)
        assert a.role == b.role
        assert a.material.c33e == pytest.approx(b.material.c33e, rel=1e-12)
        assert a.material.e33 == b.material.e33
    assert again.area == pytest.approx(nominal.area, rel=1e-12)
    assert again.boundary_top == nominal.boundary_top


def test_load_stack_rejects_uncoupled_piezo(nominal):
    text = serialize_stack(nominal).replace("e33: 2.5", "e33: 0.0")
    with pytest.raises(ConfigError):
        load_stack(text)


def test_load_stack_rejects_unknown_material(nominal):
    text = serialize_stack(nominal).replace("material: pt", "material: au")
    with pytest.raises(ConfigError):
        load_stack(text)


@pytest.mark.parametrize("key, bad", [
    ("rs_ohm", "rs_ohm: .nan"),
    ("rs_ohm", "rs_ohm: .inf"),
    ("area_m2", "area_m2: .inf"),
    ("area_m2", "diameter_um: .inf"),
    ("thickness_nm", "thickness_nm: .inf"),
])
def test_load_stack_rejects_non_finite_stack_numbers(nominal, key, bad):
    """A stack number that is NaN or infinite is refused by its key, not
    carried into a search that warns or returns a number."""
    text, n = re.subn(rf"(?m)^(\s*){key}: .*$", rf"\g<1>{bad}",
                      serialize_stack(nominal), count=1)
    assert n == 1
    with pytest.raises(ConfigError,
                       match=f"{bad.split(':')[0]} must be finite"):
        load_stack(text)


def test_load_stack_rejects_garbage():
    with pytest.raises(ConfigError):
        load_stack("just some text\n")
    with pytest.raises(ConfigError):
        load_stack("layers: []\n")


# one piezo layer; each case below edits one line of it
MINIMAL_STACK = """\
area_m2: 1.0e-9
materials:
  pz: {density: 3400, c33e: 2.5e11, q_mech: 2000, e33: 2.5, eps33s: 1.4e-10}
layers:
- {material: pz, thickness_nm: 250, role: piezo}
"""


@pytest.mark.parametrize("old, new, message", [
    ("area_m2: 1.0e-9", "area_m2: true", "area_m2 must be a number, got True"),
    ("area_m2: 1.0e-9", "area_m2: null", "area_m2 must be a number, got None"),
    ("area_m2: 1.0e-9", "area_m2: big", "area_m2 must be a number, got 'big'"),
    ("area_m2: 1.0e-9", "area_m2: [1]", "area_m2 must be a number, got [1]"),
    ("area_m2: 1.0e-9", "area_m2: 1.0e-9\nboundary: 3",
     "boundary must be a mapping"),
    ("area_m2: 1.0e-9", "area_m2: 1.0e-9\ncolor: red",
     "stack: unknown keys ['color']"),
    ("materials:\n  pz: {density: 3400, c33e: 2.5e11, q_mech: 2000, e33: 2.5, "
     "eps33s: 1.4e-10}", "materials: {}",
     "materials must be a non-empty mapping"),
    ("density: 3400, ", "", "materials.pz: missing required key 'density'"),
    ("materials:\n  pz: {density: 3400, c33e: 2.5e11, q_mech: 2000, e33: 2.5, "
     "eps33s: 1.4e-10}\n", "", "stack: missing required key 'materials'"),
    ("layers:\n- {material: pz, thickness_nm: 250, role: piezo}\n", "",
     "stack: missing required key 'layers'"),
    ("layers:\n- {material: pz, thickness_nm: 250, role: piezo}",
     "layers: []", "layers must be a non-empty list"),
    (", role: piezo", "", "layers[0]: missing required key 'role'"),
], ids=["bool", "null", "word", "list", "section-not-a-mapping",
        "unknown-key", "empty-materials", "material-missing-key",
        "no-materials", "no-layers", "empty-layers", "layer-missing-key"])
def test_load_stack_refusals_name_their_key(old, new, message):
    assert load_stack(MINIMAL_STACK).piezo_index == 0
    assert MINIMAL_STACK.count(old) == 1
    with pytest.raises(ConfigError) as err:
        load_stack(MINIMAL_STACK.replace(old, new))
    assert str(err.value) == message


def test_load_stack_refuses_invalid_yaml():
    with pytest.raises(ConfigError) as err:
        load_stack("layers: [\n")
    assert str(err.value).startswith("stack config is not valid YAML: ")


@pytest.mark.parametrize("build, message", [
    (lambda: Stack(layers=(), area=AREA_30UM),
     "stack must contain at least one layer"),
    (lambda: Material(name="x", density=1e3, c33e=1e11, q_mech=100,
                      eps33s=-1e-10),
     "material 'x': eps33s must be >= 0"),
    (lambda: serialize_stack(Stack(
        layers=(Layer(make_metal("m"), 100e-9, "electrode"),
                Layer(make_piezo(), 250e-9, "piezo"),
                Layer(make_metal("m", density=2700.0), 100e-9, "electrode")),
        area=AREA_30UM)),
     "two different materials share the name 'm'"),
], ids=["no-layers", "negative-eps33s", "shared-name"])
def test_in_memory_refusals(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


positive = st.floats(min_value=1e-30, max_value=1e30)


@st.composite
def materials(draw, name, piezo):
    """A Material with every field drawn; a piezo one has e33 != 0."""
    e33 = draw(st.floats(min_value=-10, max_value=10).filter(bool) if piezo
               else st.sampled_from([0.0, 2.5]))
    eps33s = draw(positive if piezo or e33 else st.sampled_from([0.0, 1e-10]))
    return Material(name=name, density=draw(positive), c33e=draw(positive),
                    q_mech=draw(positive), e33=e33, eps33s=eps33s,
                    tan_delta=draw(st.sampled_from([0.0, 0.02]) | positive),
                    lossless=draw(st.booleans()),
                    citation=draw(st.text()))


@st.composite
def stacks(draw):
    """Up to four layers whose thicknesses are nm * 1e-9, as read from a file."""
    thickness = st.integers(1, 10 ** 6).map(lambda nm: nm * 1e-9)
    n = draw(st.integers(1, 4))
    ip = draw(st.integers(0, n - 1))
    layers = tuple(
        Layer(draw(materials(f"m{i}", i == ip)), draw(thickness),
              "piezo" if i == ip else draw(st.sampled_from(["electrode",
                                                             "passive"])))
        for i in range(n))
    return Stack(layers=layers, area=draw(positive),
                 rs_electrical=draw(st.sampled_from([0.0, 2.0]) | positive),
                 boundary_bottom=draw(st.sampled_from(["free", "rigid"])),
                 boundary_top=draw(st.sampled_from(["free", "rigid"])))


@settings(max_examples=200, deadline=None)
@given(stack=stacks(),
       thickness=st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False))
def test_serialize_round_trip_contract(stack, thickness):
    """A stack whose thicknesses came from nm in a file loads back equal;
    any other thickness loads back equal or is refused, never changed."""
    assert load_stack(serialize_stack(stack)) == stack
    other = stack.with_layer_thickness(0, thickness)
    try:
        text = serialize_stack(other)
    except ConfigError as exc:
        assert "no exact nm representation" in str(exc)
    else:
        assert load_stack(text) == other
