"""Skin-effect field penetration in a degenerate collisionless plasma.

The package computes the transverse permittivity of the free-electron
gas, the oscillatory integral giving the field profile below the metal
surface, the closed-form inverse-square tail that follows from the
permittivity-derivative singularity, and the depth where that tail
overtakes the exponential skin law.
"""

from .analysis import (
    AnalysisError,
    CrossoverResult,
    FitResult,
    NoCrossoverError,
    WavelengthEstimate,
    crossover,
    envelope_fit,
    near_surface_fit,
    wavelength_extract,
)
from .constants import SPEED_OF_LIGHT
from .field import (
    AsymptoticCoefficients,
    DispersionRootError,
    FieldProfile,
    ProfileEvaluationError,
    amplitude_A,
    amplitude_B,
    asymptotic_coefficients,
    asymptotic_field,
    f_of_Omega,
    f_of_Omega_dimensional,
    field_ratio_direct,
    field_ratio_ibp,
    field_ratio_rescaled,
    profile,
)
from .materials import (
    BUILTIN_MATERIALS,
    Material,
    PlasmaParams,
    fermi_velocity,
    get_material,
    load_materials_file,
    params_for,
    plasma_frequency,
    to_dimensionless,
)
from .permittivity import (
    KohnScanResult,
    SeriesValue,
    d2_eps_dq2,
    d2_eps_near_singularity,
    d_eps_dq,
    eps_tr,
    kohn_scan,
    small_q_series,
)
from .quadrature import QuadratureError, QuadratureResult

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AsymptoticCoefficients",
    "BUILTIN_MATERIALS",
    "CrossoverResult",
    "DispersionRootError",
    "FieldProfile",
    "FitResult",
    "KohnScanResult",
    "Material",
    "NoCrossoverError",
    "PlasmaParams",
    "ProfileEvaluationError",
    "QuadratureError",
    "QuadratureResult",
    "SeriesValue",
    "SPEED_OF_LIGHT",
    "WavelengthEstimate",
    "amplitude_A",
    "amplitude_B",
    "asymptotic_coefficients",
    "asymptotic_field",
    "crossover",
    "d2_eps_dq2",
    "d2_eps_near_singularity",
    "d_eps_dq",
    "envelope_fit",
    "eps_tr",
    "f_of_Omega",
    "f_of_Omega_dimensional",
    "fermi_velocity",
    "field_ratio_direct",
    "field_ratio_ibp",
    "field_ratio_rescaled",
    "get_material",
    "kohn_scan",
    "load_materials_file",
    "near_surface_fit",
    "params_for",
    "plasma_frequency",
    "profile",
    "small_q_series",
    "to_dimensionless",
    "wavelength_extract",
]
