"""Closed-form far field: the inverse-square-damped oscillation and its amplitudes.

The tail that the permittivity's derivative singularity at |q| = Omega
leaves past the skin layer, in closed form with no quadrature: this
module imports neither field nor _kernels. Depths and E(x)/E'(0) are in cm.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .constants import SPEED_OF_LIGHT
from .materials import Material


@contextmanager
def _Omega_checked(Omega: float, material: Material):
    """Name Omega in a ValueError if it is not finite and > 0, or if the
    closed form under the with block overflows a float there: it raises
    OverflowError, or divides by a power of Omega that underflows to 0."""
    if not 0.0 < Omega < math.inf:
        raise ValueError(f"Omega must be finite and > 0, got {Omega}")
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"Omega = {Omega:g} is too {'large' if Omega > 1.0 else 'small'} for "
            f"material {material.name!r}: the closed form overflows"
        ) from None


def _bracket(material: Material, Omega: float, *, relativistic: bool = True) -> float:
    r = 1.5 + (SPEED_OF_LIGHT * Omega / material.v_F) ** 2
    if relativistic:
        r -= Omega**2
    return r


def f_of_Omega(Omega: float, material: Material) -> float:
    """Dimensionless oscillation-strength factor 2 Omega^2 / bracket^2."""
    with _Omega_checked(Omega, material):
        return 2.0 * Omega**2 / _bracket(material, Omega) ** 2


_A_MODES = ("exact8", "nonrel9", "low", "high")


def amplitude_A(Omega: float, material: Material, mode: str = "exact8") -> float:
    """Far-field envelope coefficient A (cm^3): E/E'(0) ~ -(A/x^2) sin.

    Modes: "exact8" keeps the full quadratic bracket, "nonrel9" drops
    its relativistic -Omega^2 correction, "low" and "high" are the
    frequency-limit forms the first two reduce to.
    """
    c, v, wp = SPEED_OF_LIGHT, material.v_F, material.omega_p
    with _Omega_checked(Omega, material):
        if mode == "exact8":
            A = 3.0 * c**2 * v / (wp**3 * _bracket(material, Omega) ** 2)
        elif mode == "nonrel9":
            A = 3.0 * c**2 * v / (wp**3 * _bracket(material, Omega, relativistic=False) ** 2)
        elif mode == "low":
            A = 4.0 * c**2 * v / (3.0 * wp**3)
        elif mode == "high":
            A = 3.0 * v**5 / (c**2 * wp**3 * Omega**4)
        else:
            raise ValueError(f"unknown mode {mode!r}; choose from {_A_MODES}")
        # a product that overflows under float * gives 0 or inf, not an
        # OverflowError
        if not 0.0 < A < math.inf:
            raise OverflowError
    return A


def amplitude_B(Omega: float, material: Material) -> float:
    """Envelope coefficient B = (omega_p/c) A (cm^2) for the E(x)/E(0)
    normalization."""
    return material.omega_p / SPEED_OF_LIGHT * amplitude_A(Omega, material)


class AsymptoticCoefficients(NamedTuple):
    A: float
    B: float
    f_Omega: float
    wavenumber: float


def asymptotic_coefficients(Omega: float, material: Material) -> AsymptoticCoefficients:
    """Closed-form far-field quantities for one material and frequency.

    wavenumber = Omega omega_p / v_F (cm^-1); successive zeros of the
    oscillation sit pi/wavenumber apart.
    """
    return AsymptoticCoefficients(
        A=amplitude_A(Omega, material),
        B=amplitude_B(Omega, material),
        f_Omega=f_of_Omega(Omega, material),
        wavenumber=Omega * material.omega_p / material.v_F,
    )


def asymptotic_field(
    x_cm,
    Omega: float,
    material: Material,
    *,
    normalization: str = "per_Eprime0",
):
    """Leading far-field oscillation, an inverse-square-damped sine.

    per_Eprime0 gives E/E'(0) = -(A/x^2) sin(Omega omega_p x / v_F) in
    cm; per_E0 gives the dimensionless E/E(0) = +(B/x^2) sin(...). The
    signs differ because E(0)/E'(0) = -c/omega_p near the surface.
    """
    x = np.asarray(x_cm, dtype=np.float64)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"x must be finite, got {bad.flat[0]}")
    if np.any(x <= 0):
        raise ValueError("asymptotic form needs x > 0")
    u = Omega * material.omega_p * x / material.v_F
    if normalization == "per_Eprime0":
        return -amplitude_A(Omega, material) / x**2 * np.sin(u)
    if normalization == "per_E0":
        return amplitude_B(Omega, material) / x**2 * np.sin(u)
    raise ValueError(f"unknown normalization {normalization!r}")
