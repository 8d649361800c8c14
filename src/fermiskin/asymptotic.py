"""Closed-form far field: the inverse-square-damped oscillation and its amplitudes.

The tail that the permittivity's derivative singularity at |q| = Omega
leaves past the skin layer, in closed form with no quadrature, one
function per quantity on plain floats: this module imports neither
numpy, field nor _kernels. Depths and E(x)/E'(0) are in cm.
"""

from __future__ import annotations

import math

from .constants import SPEED_OF_LIGHT
from .materials import Material, _check_regime


def _too_large(Omega: float, material: Material) -> ValueError:
    return ValueError(
        f"Omega = {Omega:g} is too large for material {material.name!r}: "
        "the closed form overflows"
    )


def _bracket_squared(Omega: float, material: Material) -> float:
    """bracket^2, bracket = 1.5 + (c Omega/v_F)^2 - Omega^2 > 1.5 since v_F < c.
    Refuses an Omega that is not finite and > 0, or at which it overflows."""
    _check_regime(Omega)
    try:
        return (1.5 + (SPEED_OF_LIGHT * Omega / material.v_F) ** 2 - Omega**2) ** 2
    except OverflowError:
        raise _too_large(Omega, material) from None


def f_of_Omega(Omega: float, material: Material) -> float:
    """Dimensionless oscillation-strength factor 2 Omega^2 / bracket^2."""
    # the bracket first: it names an Omega whose square overflows
    b2 = _bracket_squared(Omega, material)
    return 2.0 * Omega**2 / b2


def amplitude_A(Omega: float, material: Material) -> float:
    """Far-field envelope coefficient A (cm^3): E/E'(0) ~ -(A/x^2) sin.

    A = 3 c^2 v_F / (omega_p^3 bracket^2) with the full quadratic
    bracket 1.5 + (c Omega/v_F)^2 - Omega^2; it tends to
    4 c^2 v_F / (3 omega_p^3) as Omega -> 0 and to
    3 v_F^5 / (c^2 omega_p^3 Omega^4) once (c Omega/v_F)^2 >> 1.
    """
    c, v, wp = SPEED_OF_LIGHT, material.v_F, material.omega_p
    A = 3.0 * c**2 * v / (wp**3 * _bracket_squared(Omega, material))
    # a denominator that overflows under float * gives A = 0, not an
    # OverflowError
    if A == 0.0:
        raise _too_large(Omega, material)
    return A


def amplitude_B(Omega: float, material: Material) -> float:
    """Envelope coefficient B = (omega_p/c) A (cm^2) for the E(x)/E(0)
    normalization."""
    return material.omega_p / SPEED_OF_LIGHT * amplitude_A(Omega, material)


def asymptotic_values(
    xs,
    Omega: float,
    material: Material,
    *,
    normalization: str = "per_Eprime0",
) -> list[float]:
    """Leading far-field oscillation at each depth of xs, any iterable of
    real depths, an inverse-square-damped sine, as a list of plain floats.

    per_Eprime0 gives E/E'(0) = -(A/x^2) sin(Omega omega_p x / v_F) in
    cm; per_E0 gives the dimensionless E/E(0) = +(B/x^2) sin(...). The
    signs differ because E(0)/E'(0) = -c/omega_p near the surface.
    Successive zeros sit pi/wavenumber apart, wavenumber = Omega omega_p / v_F.
    """
    xs = [float(x) for x in xs]
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
