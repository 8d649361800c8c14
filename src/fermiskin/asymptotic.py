"""Closed-form far field: the inverse-square-damped oscillation and its amplitudes.

The tail that the permittivity's derivative singularity at |q| = Omega
leaves past the skin layer, in closed form with no quadrature: this
module imports neither field nor _kernels, and loads numpy only for
asymptotic_field's ndarray. Depths and E(x)/E'(0) are in cm.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

from .constants import SPEED_OF_LIGHT
from .materials import Material, _check_regime


@contextmanager
def _Omega_checked(Omega: float, material: Material):
    """Refuse an Omega that is not finite and > 0, and name Omega in a
    ValueError if the closed form under the with block overflows a float
    there."""
    _check_regime(Omega)
    try:
        yield
    except OverflowError:
        raise ValueError(
            f"Omega = {Omega:g} is too large for material {material.name!r}: "
            "the closed form overflows"
        ) from None


def _bracket(material: Material, Omega: float) -> float:
    # 1.5 + Omega^2 ((c/v_F)^2 - 1) > 1.5, since v_F < c
    return 1.5 + (SPEED_OF_LIGHT * Omega / material.v_F) ** 2 - Omega**2


def f_of_Omega(Omega: float, material: Material) -> float:
    """Dimensionless oscillation-strength factor 2 Omega^2 / bracket^2."""
    with _Omega_checked(Omega, material):
        return 2.0 * Omega**2 / _bracket(material, Omega) ** 2


def amplitude_A(Omega: float, material: Material) -> float:
    """Far-field envelope coefficient A (cm^3): E/E'(0) ~ -(A/x^2) sin.

    A = 3 c^2 v_F / (omega_p^3 bracket^2) with the full quadratic
    bracket 1.5 + (c Omega/v_F)^2 - Omega^2; it tends to
    4 c^2 v_F / (3 omega_p^3) as Omega -> 0 and to
    3 v_F^5 / (c^2 omega_p^3 Omega^4) once (c Omega/v_F)^2 >> 1.
    """
    c, v, wp = SPEED_OF_LIGHT, material.v_F, material.omega_p
    with _Omega_checked(Omega, material):
        A = 3.0 * c**2 * v / (wp**3 * _bracket(material, Omega) ** 2)
        # a denominator that overflows under float * gives A = 0, not an
        # OverflowError
        if A == 0.0:
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


def asymptotic_values(
    xs: list[float],
    Omega: float,
    material: Material,
    *,
    normalization: str = "per_Eprime0",
) -> list[float]:
    """Leading far-field oscillation at each depth of xs, an
    inverse-square-damped sine, in plain floats.

    per_Eprime0 gives E/E'(0) = -(A/x^2) sin(Omega omega_p x / v_F) in
    cm; per_E0 gives the dimensionless E/E(0) = +(B/x^2) sin(...). The
    signs differ because E(0)/E'(0) = -c/omega_p near the surface.
    """
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
    if any(x <= 0 for x in xs):
        raise ValueError("asymptotic form needs x > 0")
    if normalization == "per_Eprime0":
        amp = -amplitude_A(Omega, material)
    elif normalization == "per_E0":
        amp = amplitude_B(Omega, material)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    w, v = Omega * material.omega_p, material.v_F
    ys = []
    for x in xs:
        # x * x, as numpy squares: 0 below x = 1.6e-162, where the division
        # raises, and inf above 1.3e154, where y is 0 while the phase is
        # finite; an infinite phase makes sin raise
        try:
            y = amp / (x * x) * math.sin(w * x / v)
        except (ZeroDivisionError, ValueError):
            y = math.inf
        if not math.isfinite(y):
            raise ValueError(f"the closed form overflows a float at x = {x:g} cm")
        ys.append(y)
    return ys


def asymptotic_field(
    x_cm,
    Omega: float,
    material: Material,
    *,
    normalization: str = "per_Eprime0",
):
    """asymptotic_values over an array of depths, as a float64 ndarray of
    the same shape (a numpy scalar for a scalar depth)."""
    import numpy as np

    x = np.asarray(x_cm, dtype=np.float64)
    ys = asymptotic_values(x.ravel().tolist(), Omega, material,
                           normalization=normalization)
    return np.array(ys, dtype=np.float64).reshape(x.shape)[()]
