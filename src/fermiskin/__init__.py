"""Skin-effect field penetration in a degenerate collisionless plasma.

The package computes the transverse permittivity of the free-electron
gas, the oscillatory integral giving the field profile below the metal
surface, the closed-form inverse-square tail that follows from the
permittivity-derivative singularity, and the depth where that tail
overtakes the exponential skin law.

Each export is imported from its submodule on first access (PEP 562), so
a process that takes field points never loads the analysis, the
permittivity evaluators, the closed-form far field or the command line.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "analysis": ("FitResult", "WavelengthEstimate", "envelope_fit", "near_surface_fit",
                 "wavelength_extract"),
    "asymptotic": ("AnalysisError", "CrossoverResult", "NoCrossoverError", "amplitude_A",
                   "amplitude_B", "asymptotic_values", "crossover", "f_of_Omega"),
    "constants": ("SPEED_OF_LIGHT",),
    "field": ("DispersionRootError", "FieldProfile", "field_ratio_ibp", "field_ratio_rescaled",
              "profile"),
    "materials": ("BUILTIN_MATERIALS", "Material", "PlasmaParams", "get_material",
                  "load_materials_file", "params_for"),
    "permittivity": ("KohnScanResult", "SeriesValue", "d2_eps_dq2", "d2_eps_near_singularity",
                     "d_eps_dq", "eps_tr", "kohn_scan", "small_q_series"),
    "quadrature": ("QuadratureError", "QuadratureResult"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule here; __import__, unlike
    # importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
