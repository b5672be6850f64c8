"""Layer media, resonator stacks, and the constants derived from them.

Thicknesses are stored in meters internally; config files carry them in
nanometers.  All records are frozen dataclasses and safe to share between
workers.  Constants in the bundled material file are configuration values
sourced from open literature, not ground truth; swap them per deposition
recipe as needed.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources

import yaml

EPS0 = 8.8541878128e-12  # vacuum permittivity, F/m

LAYER_ROLES = ("piezo", "electrode", "passive")
BOUNDARY_KINDS = ("free", "rigid")

_LAYER_KEYS = ("material", "thickness_nm", "role")
_STACK_KEYS = {"area_m2", "diameter_um", "rs_ohm", "boundary", "materials", "layers"}


class ConfigError(ValueError):
    """A material, layer, or stack definition violates the schema."""


@dataclass(frozen=True)
class Material:
    """Thickness-mode constants of one medium.  Every field but name is a
    material key of a stack file, required when it has no default.  A
    number that is not finite, a lossless that is not a bool or a citation
    that is not a str raises ConfigError naming the material and the field.

    Args:
        name: identifier used by layer records.
        density: mass density, kg/m^3.
        c33e: stiffness at constant electric field, Pa.
        e33: piezoelectric stress constant, C/m^2 (0 for plain media).
        eps33s: clamped permittivity, F/m (required when e33 != 0).
        q_mech: mechanical quality factor of the medium.
        tan_delta: dielectric loss tangent (piezo media only).
        lossless: drop mechanical loss entirely; for limit checks only.
        citation: free-text source note for the numbers.
    """

    name: str
    density: float
    c33e: float
    q_mech: float
    e33: float = 0.0
    eps33s: float = 0.0
    tan_delta: float = 0.0
    lossless: bool = False
    citation: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("material name must be non-empty")
        for key, kind in _FIELD_KINDS:
            value = getattr(self, key)
            if kind is not None:
                if not isinstance(value, kind):
                    raise ConfigError(
                        f"material {self.name!r}: {key} must be a "
                        f"{_KIND_WORDS[kind]}, got {value!r}")
            # a float is a numbers.Real: the faster test first
            elif not ((type(value) is float
                       or isinstance(value, numbers.Real))
                      and math.isfinite(value)):
                raise ConfigError(f"material {self.name!r}: {key} must be a "
                                  f"finite number, got {value!r}")
        if not self.density > 0:
            raise ConfigError(f"material {self.name!r}: density must be > 0")
        if not self.c33e > 0:
            raise ConfigError(f"material {self.name!r}: c33e must be > 0")
        if not self.q_mech > 0:
            raise ConfigError(f"material {self.name!r}: q_mech must be > 0")
        if self.e33 != 0.0 and not self.eps33s > 0:
            raise ConfigError(
                f"material {self.name!r}: eps33s must be > 0 when e33 != 0")
        if self.eps33s < 0:
            raise ConfigError(f"material {self.name!r}: eps33s must be >= 0")
        if self.tan_delta < 0:
            raise ConfigError(f"material {self.name!r}: tan_delta must be >= 0")

    @property
    def c33d(self) -> float:
        """Piezoelectrically stiffened stiffness, Pa."""
        if self.e33 == 0.0:
            return self.c33e
        return self.c33e + self.e33 ** 2 / self.eps33s

    @property
    def kt2_mat(self) -> float:
        """Material coupling coefficient e33^2 / (c33d * eps33s)."""
        if self.e33 == 0.0:
            return 0.0
        return self.e33 ** 2 / (self.c33d * self.eps33s)

    @property
    def v_d(self) -> float:
        """Lossless stiffened longitudinal velocity, m/s."""
        return math.sqrt(self.c33d / self.density)


# a material entry's keys; a bool or str default fixes the value's type
_MATERIAL_FIELDS = {f.name: f for f in fields(Material) if f.name != "name"}
_KIND_WORDS = {bool: "boolean", str: "string"}
# (key, the type a bool or str default fixes, else None) of each field
_FIELD_KINDS = tuple(
    (key, type(f.default) if type(f.default) in _KIND_WORDS else None)
    for key, f in _MATERIAL_FIELDS.items())


@dataclass(frozen=True)
class Layer:
    """One physical layer: a material, a thickness in m, and a role."""

    material: Material
    thickness: float
    role: str

    def __post_init__(self):
        if self.role not in LAYER_ROLES:
            raise ConfigError(
                f"layer role must be one of {LAYER_ROLES}, got {self.role!r}")
        if not 0 < self.thickness < math.inf:
            raise ConfigError(
                f"layer {self.material.name!r}: thickness must be finite "
                f"and > 0, got {self.thickness!r}")
        # C0 needs a permittivity, with or without coupling.  The e33 != 0
        # requirement on piezo layers is enforced at config load; in-memory
        # stacks may zero the coupling for limit checks.
        if self.role == "piezo" and not self.material.eps33s > 0:
            raise ConfigError(
                f"piezo layer {self.material.name!r}: eps33s must be > 0")


@dataclass(frozen=True)
class Stack:
    """An ordered layer stack (bottom to top) with electrical context.

    piezo_index, the index of its one piezo layer, is set on construction.
    """

    layers: tuple[Layer, ...]
    area: float
    rs_electrical: float = 0.0
    boundary_bottom: str = "free"
    boundary_top: str = "free"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ConfigError("stack must contain at least one layer")
        roles = [lay.role for lay in self.layers]
        n_piezo = roles.count("piezo")
        if n_piezo != 1:
            raise ConfigError(
                f"stack must contain exactly one piezo layer, got {n_piezo}")
        object.__setattr__(self, "piezo_index", roles.index("piezo"))
        if not 0 < self.area < math.inf:
            raise ConfigError(
                f"area_m2 must be finite and > 0, got {self.area!r}")
        if not 0 <= self.rs_electrical < math.inf:
            raise ConfigError(
                f"rs_ohm must be finite and >= 0, got {self.rs_electrical!r}")
        for side, kind in (("bottom", self.boundary_bottom),
                           ("top", self.boundary_top)):
            if kind not in BOUNDARY_KINDS:
                raise ConfigError(
                    f"boundary.{side} must be one of {BOUNDARY_KINDS}, "
                    f"got {kind!r}")

    @property
    def t_piezo(self) -> float:
        return self.layers[self.piezo_index].thickness

    def with_layer_thickness(self, index: int, thickness: float) -> "Stack":
        """Copy of the stack with one layer's thickness replaced."""
        layers = list(self.layers)
        layers[index] = replace(layers[index], thickness=thickness)
        return replace(self, layers=tuple(layers))


@dataclass(frozen=True)
class DerivedConstants:
    """Per-layer lossy constants plus stack-level electrical quantities.

    c_star follows c_eff * (1 + j/q_mech) with c_eff = c33d on the piezo
    layer and c33e elsewhere; the lossless flag zeroes the imaginary part.
    v_star = sqrt(c_star/rho) takes the principal branch, which makes
    forward-propagating waves decay under the exp(+j*omega*t) convention.
    lossless is True when the stack has no loss at all: every layer is
    lossless, the piezo's tan_delta is 0 and rs_electrical is 0.
    """

    c_star: tuple[complex, ...]
    v_star: tuple[complex, ...]
    z_acoustic: tuple[complex, ...]
    c0: complex
    f0_piezo: float
    h_piezo: float
    eps_star: complex
    piezo_index: int
    lossless: bool = False


def derive_constants(stack: Stack) -> DerivedConstants:
    """Compute engine constants for a stack.  Pure and deterministic.

    The stack, its layers and their materials are frozen, so the result
    is computed once per Stack object and kept on it: later calls on the
    same object return the same DerivedConstants.  A copy made with
    dataclasses.replace starts without one.
    """
    cached = vars(stack).get("_derived")
    if cached is not None:
        return cached
    c_star = []
    v_star = []
    z_ac = []
    for lay in stack.layers:
        mat = lay.material
        c_eff = mat.c33d if lay.role == "piezo" else mat.c33e
        if mat.lossless:
            c = complex(c_eff, 0.0)
        else:
            c = c_eff * (1.0 + 1j / mat.q_mech)
        v = cmath.sqrt(c / mat.density)
        c_star.append(c)
        v_star.append(v)
        z_ac.append(mat.density * v * stack.area)

    ip = stack.piezo_index
    piezo = stack.layers[ip]
    pm = piezo.material
    eps_star = pm.eps33s * (1.0 - 1j * pm.tan_delta)
    c0 = eps_star * stack.area / piezo.thickness
    h = pm.e33 / pm.eps33s if pm.eps33s else 0.0
    f0 = v_star[ip].real / (2.0 * piezo.thickness)
    dc = DerivedConstants(
        c_star=tuple(c_star),
        v_star=tuple(v_star),
        z_acoustic=tuple(z_ac),
        c0=c0,
        f0_piezo=f0,
        h_piezo=h,
        eps_star=eps_star,
        piezo_index=ip,
        lossless=(all(lay.material.lossless for lay in stack.layers)
                  and pm.tan_delta == 0.0 and stack.rs_electrical == 0.0),
    )
    object.__setattr__(stack, "_derived", dc)
    return dc


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        # YAML 1.1 leaves floats like "1e9" (no dot) as strings.
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{where} must be a number, got {value!r}") from None
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _check_keys(mapping: dict, allowed, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(mapping).difference(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def parse_materials_table(table: dict) -> dict[str, Material]:
    """Parse a {name: fields} material table into Material records."""
    if not isinstance(table, dict) or not table:
        raise ConfigError("materials must be a non-empty mapping")
    out = {}
    for name, entry in table.items():
        here = f"materials.{name}"
        _check_keys(entry, _MATERIAL_FIELDS, here)
        values = {}
        for key, field in _MATERIAL_FIELDS.items():
            value = entry.get(key, field.default)
            if value is MISSING:
                raise ConfigError(f"{here}: missing required key {key!r}")
            if type(field.default) not in _KIND_WORDS:
                value = _as_number(value, f"{here}.{key}")
            values[key] = value
        out[str(name)] = Material(name=str(name), **values)
    return out


def load_stack(text: str) -> Stack:
    """Parse and fully validate a stack config from YAML text.

    Raises ConfigError with the offending key or layer named.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"stack config is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("stack config must be a mapping")
    _check_keys(doc, _STACK_KEYS, "stack")

    has_area = "area_m2" in doc
    has_diam = "diameter_um" in doc
    if has_area == has_diam:
        raise ConfigError(
            "exactly one of area_m2 or diameter_um must be given")
    if has_area:
        area = _as_number(doc["area_m2"], "area_m2")
    else:
        d_um = _as_number(doc["diameter_um"], "diameter_um")
        if not 0 < d_um < math.inf:
            raise ConfigError(
                f"diameter_um must be finite and > 0, got {d_um!r}")
        area = math.pi * (d_um * 1e-6 / 2.0) ** 2

    rs = _as_number(doc.get("rs_ohm", 0.0), "rs_ohm")

    boundary = doc.get("boundary", {})
    if boundary is None:
        boundary = {}
    _check_keys(boundary, {"bottom", "top"}, "boundary")
    b_bot = boundary.get("bottom", "free")
    b_top = boundary.get("top", "free")

    if "materials" not in doc:
        raise ConfigError("stack: missing required key 'materials'")
    materials = parse_materials_table(doc["materials"])

    if "layers" not in doc:
        raise ConfigError("stack: missing required key 'layers'")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ConfigError("layers must be a non-empty list")

    layers = []
    for li, entry in enumerate(raw_layers):
        here = f"layers[{li}]"
        _check_keys(entry, _LAYER_KEYS, here)
        for req in _LAYER_KEYS:
            if req not in entry:
                raise ConfigError(f"{here}: missing required key {req!r}")
        mat_name = entry["material"]
        if mat_name not in materials:
            raise ConfigError(
                f"{here}: material {mat_name!r} is not defined "
                f"(have {sorted(materials)})")
        t_nm = _as_number(entry["thickness_nm"], f"{here}.thickness_nm")
        if not 0 < t_nm < math.inf:
            raise ConfigError(
                f"{here}.thickness_nm must be finite and > 0, got {t_nm!r}")
        role = entry["role"]
        mat = materials[mat_name]
        if role == "piezo" and mat.e33 == 0.0:
            raise ConfigError(
                f"{here}: role 'piezo' requires a material with e33 != 0")
        layers.append(Layer(material=mat, thickness=t_nm * 1e-9, role=role))

    return Stack(
        layers=tuple(layers),
        area=area,
        rs_electrical=rs,
        boundary_bottom=b_bot,
        boundary_top=b_top,
    )


def _nm_value(thickness_m: float) -> float:
    """Find an nm value whose parse (nm * 1e-9) lands on thickness_m exactly."""
    nm = thickness_m * 1e9
    if nm * 1e-9 == thickness_m:
        return nm
    for _ in range(4):
        toward = math.inf if nm * 1e-9 < thickness_m else -math.inf
        nm = math.nextafter(nm, toward)
        if nm * 1e-9 == thickness_m:
            return nm
    raise ConfigError(
        f"thickness {thickness_m!r} m has no exact nm representation")


def serialize_stack(stack: Stack) -> str:
    """Emit YAML text that load_stack parses back to an identical Stack.

    Raises ConfigError for a thickness that no nm value maps back onto
    under nm * 1e-9: about 6% of arbitrary ones, none read from a file.
    """
    materials = {}
    for lay in stack.layers:
        mat = lay.material
        entry = {key: getattr(mat, key) for key, field in _MATERIAL_FIELDS.items()
                 if getattr(mat, key) != field.default}  # MISSING equals no value
        prior = materials.get(mat.name)
        if prior is not None and prior != entry:
            raise ConfigError(
                f"two different materials share the name {mat.name!r}")
        materials[mat.name] = entry

    doc = {
        "area_m2": stack.area,
        "rs_ohm": stack.rs_electrical,
        "boundary": {"bottom": stack.boundary_bottom,
                     "top": stack.boundary_top},
        "materials": materials,
        "layers": [
            {"material": lay.material.name,
             "thickness_nm": _nm_value(lay.thickness),
             "role": lay.role}
            for lay in stack.layers
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def _read_data_text(filename: str) -> str:
    return resources.files("bawkit").joinpath("data", filename).read_text()


def default_materials() -> dict[str, Material]:
    """Material table bundled with the package (see data/materials.yaml)."""
    doc = yaml.safe_load(_read_data_text("materials.yaml"))
    _check_keys(doc, {"materials"}, "materials file")
    return parse_materials_table(doc["materials"])


def nominal_stack() -> Stack:
    """The bundled reference device: Pt / ScAlN-30% / AlSiCu on a 30 um disc."""
    return load_stack(_read_data_text("nominal_stack.yaml"))
