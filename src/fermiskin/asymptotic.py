"""Closed-form far field: the inverse-square-damped oscillation, its
amplitudes, and the depth where it overtakes the skin exponential.

The tail that the permittivity's derivative singularity at |q| = Omega
leaves past the skin layer, in closed form with no quadrature, one
function per quantity on plain floats: this module imports neither
numpy, field nor _kernels. Depths and E(x)/E'(0) are in cm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import SPEED_OF_LIGHT
from .materials import Material, _check_regime

_RESIDUAL_TOL = 1e-10


class AnalysisError(RuntimeError):
    """Extraction or root-finding failed on structurally unsuitable input."""


class NoCrossoverError(AnalysisError):
    """The oscillatory tail exceeds the exponential at every depth."""


class CrossoverResult(NamedTuple):
    """Crossover depth x_star (cm), |g(x_star)| and the Halley steps taken."""

    x_star: float
    g_residual: float
    iterations: int


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


def _lambert_w_lower(y: float) -> tuple[float, int]:
    """Lower real branch W_{-1}(y) for -1/e <= y < 0, and the steps taken.

    Four Halley steps on w e^w = y, started from the branch-point series
    in p = -sqrt(2(1 + e y)) below y = -1/4 and from log(-y) - log(-log(-y))
    above (Corless et al., Adv. Comput. Math. 5, 329 (1996)). At
    y = -1/e the start is the root w = -1, where no step is taken.
    """
    if y < -0.25:
        p = -math.sqrt(2.0 * (1.0 + math.e * y))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    else:
        w = math.log(-y) - math.log(-math.log(-y))
    steps = 0
    while steps < 4 and w != -1.0:
        ew = math.exp(w)
        f = w * ew - y
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        steps += 1
    return w, steps


def crossover(Omega: float, material: Material) -> CrossoverResult:
    """Depth where the oscillatory tail overtakes the surface exponential.

    The root of B/x^2 = exp(-k x), k = omega_p / c, beyond the minimum of
    g(x) = ln B - 2 ln x + k x at x = 2/k; g is convex, so past that
    point the inverse-square tail wins for good. The equation reads
    x e^{-kx/2} = sqrt(B), so x_star = -(2/k) W_{-1}(-k sqrt(B)/2), which
    exists when k sqrt(B)/2 <= 1/e. The residual |g(x_star)| must come
    out below _RESIDUAL_TOL = 1e-10.
    """
    B = amplitude_B(Omega, material)
    k = material.omega_p / SPEED_OF_LIGHT

    def g(x: float) -> float:
        return math.log(B) - 2.0 * math.log(x) + k * x

    y = -k * math.sqrt(B) / 2.0
    if y < -1.0 / math.e:
        x_min = 2.0 / k
        raise NoCrossoverError(
            "no crossover: Friedel tail dominates everywhere "
            f"(min of ln(y1/y2) is {g(x_min):.3g} > 0 at x = {x_min:.3g} cm)"
        )
    w, iterations = _lambert_w_lower(y)
    x_star = -2.0 * w / k
    residual = abs(g(x_star))
    # written so that a NaN residual fails too
    if not residual <= _RESIDUAL_TOL:
        raise AnalysisError(
            f"crossover root residual {residual:.3g} exceeds {_RESIDUAL_TOL:g}"
        )
    return CrossoverResult(x_star=x_star, g_residual=residual, iterations=iterations)
