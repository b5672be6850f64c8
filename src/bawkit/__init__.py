"""Design and measurement toolkit for thin-film bulk acoustic resonators."""

from .materials import (
    EPS0,
    ConfigError,
    DerivedConstants,
    Layer,
    Material,
    Stack,
    default_materials,
    derive_constants,
    load_stack,
    nominal_stack,
    serialize_stack,
)
from .acoustic1d import (
    AdmittanceCurve,
    EnergyPartition,
    FieldProfile,
    FrequencyGrid,
    PhysicsError,
    SingularFrequencyError,
    admittance_bvp,
    admittance_mason,
    export_spectrum_csv,
    field_profile,
    spectrum,
    strain_energy,
)
from .modal import (
    ModeSearchError,
    ModeSummary,
    calibrate_piezo_stiffness,
    estimate_frequency,
    estimate_thickness,
    export_modes_csv,
    find_modes,
    keff2,
    mode_count,
    qm_from_partition,
)

__version__ = "0.1.0"

__all__ = [
    "EPS0", "ConfigError", "DerivedConstants", "Layer", "Material", "Stack",
    "default_materials", "derive_constants", "load_stack", "nominal_stack",
    "serialize_stack",
    "AdmittanceCurve", "EnergyPartition", "FieldProfile", "FrequencyGrid",
    "PhysicsError", "SingularFrequencyError", "admittance_bvp",
    "admittance_mason", "export_spectrum_csv", "field_profile", "spectrum",
    "strain_energy",
    "ModeSearchError", "ModeSummary", "calibrate_piezo_stiffness",
    "estimate_frequency", "estimate_thickness", "export_modes_csv",
    "find_modes", "keff2", "mode_count", "qm_from_partition",
    "__version__",
]
