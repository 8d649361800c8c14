"""Electric-field profile inside the metal half-space.

The normalized field E(x)/E'(0) is a half-line cosine transform of the
reciprocal dispersion denominator. A profile takes it on the
plasma-scaled "rescaled" axis or integrated by parts ("ibp");
field_ratio_direct, the same integral on the mean-free-path axis, is a
cross-check for the tests. The closed-form far-field oscillation with
its amplitude coefficients is asymptotic_field, the one closed-form path.

Time enters as exp(-i omega t), as in permittivity; np.conj of a field
value gives the mirror convention exp(+i omega t).

Depths are in cm; the E(x)/E'(0) normalization carries a length, so
those values are in cm too, while E(x)/E(0) is dimensionless.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._kernels import KERNEL_IBP_EXACT, KERNEL_RECIPROCAL
from .constants import SPEED_OF_LIGHT
from .materials import Material, PlasmaParams
from .quadrature import QuadratureResult, oscillatory_halfline


class DispersionRootError(RuntimeError):
    """The dispersion denominator vanishes on the integration contour."""


PROFILE_METHODS = ("rescaled", "ibp")

def check_dispersion_roots(params: PlasmaParams) -> None:
    """Raise DispersionRootError if the denominator has a real-axis zero.

    Only the collisionless window 0 <= q < Omega can host one: there the
    permittivity is real, so a zero of D(q) = eps_tr(q) - b q^2 is a pole
    of the integrand. Beyond the edge the collisionless damping step
    keeps D complex, and eps > 0 moves the zero off the axis (unchecked).
    In the window the small-q series of _kernels converges,

        eps_tr(q) = 1 - (3/Omega^2) sum_m (q/Omega)^(2m) / ((2m+1)(2m+3)),

    so D falls strictly from D(0) = 1 - 1/Omega^2 to D(Omega-) =
    1 - 3/(2 Omega^2) - b Omega^2 (the sum telescopes to 1/2), and has a
    zero there exactly when D(0) >= 0 > D(Omega-). Material enforces
    v_F < c, so b Omega^2 = (c/v_F)^2 > 1 and D(Omega-) < 0: the test is
    Omega >= 1.
    """
    if params.eps == 0.0 and params.Omega >= 1.0:
        raise DispersionRootError(
            f"dispersion root on contour at Omega = {params.Omega:g}: at eps = 0 "
            "the denominator has a real zero for every Omega >= 1"
        )


class FieldPointInfo(NamedTuple):
    value: complex
    abs_err_est: float
    phase: float
    quad: QuadratureResult


def _field_point(
    x_cm: float,
    params: PlasmaParams,
    route: str,
    kernel_id: int,
) -> FieldPointInfo:
    if not math.isfinite(x_cm):
        raise ValueError(f"x must be finite, got {x_cm}")
    if x_cm < 0:
        raise ValueError(f"x must be >= 0, got {x_cm}")
    mat = params.material
    # omega_p * x alone overflows from about 2e292 cm
    x_scaled = x_cm * (mat.omega_p / mat.v_F)
    if route == "rescaled":
        kappa = 1.0
        bcoef = params.b
        phase = x_scaled
        pref = params.b * mat.v_F / (math.pi * mat.omega_p)
    elif route == "direct":
        if params.eps == 0.0:
            raise ValueError(
                "direct route needs eps > 0; use the rescaled route, the "
                "asymptotic form, or a small eps such as 1e-5"
            )
        kappa = params.eps
        bcoef = params.a
        phase = params.eps * x_scaled
        pref = params.a * params.l / math.pi
    else:
        raise ValueError(f"unknown route {route!r}")
    check_dispersion_roots(params)
    try:
        quad = oscillatory_halfline(phase, kernel_id, params.Omega, params.eps, bcoef,
                                    kappa)
    except ValueError as exc:
        raise ValueError(f"x = {x_cm:g} cm: {exc}") from None
    scale = 2.0 * pref
    if kernel_id == KERNEL_IBP_EXACT:
        scale = -2.0 * pref / phase**2
    value = scale * quad.value
    abs_err = abs(scale) * (quad.error + quad.tail_bound)
    return FieldPointInfo(
        value=complex(value),
        abs_err_est=float(abs_err),
        phase=phase,
        quad=quad,
    )


def field_ratio_rescaled(
    x_cm: float,
    params: PlasmaParams,
    *,
    full_output: bool = False,
):
    """E(x)/E'(0) in cm via the plasma-scaled axis. Works at eps = 0."""
    info = _field_point(x_cm, params, "rescaled", KERNEL_RECIPROCAL)
    return (info.value, info) if full_output else info.value


def field_ratio_direct(
    x_cm: float,
    params: PlasmaParams,
    *,
    full_output: bool = False,
):
    """E(x)/E'(0) in cm via the mean-free-path axis; requires eps > 0.

    Same integral as field_ratio_rescaled under a change of variable, so
    the two must agree to quadrature accuracy. Kept separate as a
    cross-check, not merged.
    """
    info = _field_point(x_cm, params, "direct", KERNEL_RECIPROCAL)
    return (info.value, info) if full_output else info.value


def field_ratio_ibp(
    x_cm: float,
    params: PlasmaParams,
    *,
    full_output: bool = False,
):
    """E(x)/E'(0) after integrating the transform by parts twice.

    The kernel under the transform is the second derivative of the
    reciprocal denominator; the boundary terms vanish, so the value
    agrees with the plain routes to quadrature accuracy. Needs eps > 0,
    where the second derivative has no pole on the axis, and a depth
    whose phase is at least 1e-9 / s_peak (x = 0 and depths too
    small for the 1/x^2 prefactor raise ValueError). Its error bar has the
    parts of the plain routes' (see quadrature), with the same rounding
    floor of 1e-14 of the summed Legendre-term magnitudes.
    """
    info = _field_point(x_cm, params, "rescaled", KERNEL_IBP_EXACT)
    return (info.value, info) if full_output else info.value


class FieldProfile(NamedTuple):
    """Field ratio sampled on a strictly increasing depth grid.

    values is complex E(x)/E'(0) in cm; abs_err the per-point error
    estimate; diagnostics the per-point quadrature records.
    """

    xs: np.ndarray
    values: np.ndarray
    abs_err: np.ndarray
    params: PlasmaParams
    method: str
    diagnostics: list


def profile(
    xs,
    params,
    method: str = "rescaled",
) -> FieldProfile:
    """Evaluate the field ratio on an array of depths.

    params is a PlasmaParams (see params_for). method is one of
    PROFILE_METHODS (rescaled / ibp). The closed form is
    asymptotic_field. Depths must be strictly increasing.
    Every depth is summed on the same cached mesh, so a profile returns
    every depth or raises: QuadratureError if the mesh exceeds its panel
    budget, ValueError naming the first depth outside the route's domain.
    """
    if not isinstance(params, PlasmaParams):
        raise TypeError(
            f"params must be a PlasmaParams, got {type(params).__name__}; "
            "build one with params_for(material, Omega, eps)"
        )
    x = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if x.size == 0:
        raise ValueError("empty depth grid")
    if x.size > 1 and np.any(np.diff(x) <= 0):
        raise ValueError("depths must be strictly increasing")
    if method not in PROFILE_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {PROFILE_METHODS}")

    # looked up here, not at import, so that a wrapper installed on the
    # module sees every point
    route = {"rescaled": field_ratio_rescaled, "ibp": field_ratio_ibp}[method]
    infos = [route(float(xi), params, full_output=True)[1] for xi in x]
    return FieldProfile(
        xs=x,
        values=np.array([info.value for info in infos]),
        abs_err=np.array([info.abs_err_est for info in infos]),
        params=params,
        method=method,
        diagnostics=[info.quad for info in infos],
    )


# ---------------------------------------------------------------------------
# far-field asymptotics
# ---------------------------------------------------------------------------


def _bracket(material: Material, Omega: float, *, relativistic: bool = True) -> float:
    r = 1.5 + (SPEED_OF_LIGHT * Omega / material.v_F) ** 2
    if relativistic:
        r -= Omega**2
    return r


def f_of_Omega(Omega: float, material: Material) -> float:
    """Dimensionless oscillation-strength factor 2 Omega^2 / bracket^2."""
    if not 0.0 < Omega < math.inf:
        raise ValueError(f"Omega must be finite and > 0, got {Omega}")
    return 2.0 * Omega**2 / _bracket(material, Omega) ** 2


def f_of_Omega_dimensional(omega: float, material: Material) -> float:
    """Same factor from the laboratory frequency omega (rad/s)."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    c, v, wp = SPEED_OF_LIGHT, material.v_F, material.omega_p
    denom = 1.5 * wp**2 + omega**2 * ((c / v) ** 2 - 1.0)
    return 2.0 * omega**2 * wp**2 / denom**2


_A_MODES = ("exact8", "nonrel9", "low", "high")


def amplitude_A(Omega: float, material: Material, mode: str = "exact8") -> float:
    """Far-field envelope coefficient A (cm^3): E/E'(0) ~ -(A/x^2) sin.

    Modes: "exact8" keeps the full quadratic bracket, "nonrel9" drops
    its relativistic -Omega^2 correction, "low" and "high" are the
    frequency-limit forms the first two reduce to.
    """
    if not 0.0 < Omega < math.inf:
        raise ValueError(f"Omega must be finite and > 0, got {Omega}")
    c, v, wp = SPEED_OF_LIGHT, material.v_F, material.omega_p
    if mode == "exact8":
        return 3.0 * c**2 * v / (wp**3 * _bracket(material, Omega) ** 2)
    if mode == "nonrel9":
        return 3.0 * c**2 * v / (wp**3 * _bracket(material, Omega, relativistic=False) ** 2)
    if mode == "low":
        return 4.0 * c**2 * v / (3.0 * wp**3)
    if mode == "high":
        return 3.0 * v**5 / (c**2 * wp**3 * Omega**4)
    raise ValueError(f"unknown mode {mode!r}; choose from {_A_MODES}")


def amplitude_B(Omega: float, material: Material, E0: float = 1.0) -> float:
    """Envelope coefficient B (cm^2) for the E(x)/E(0) normalization.

    B = (omega_p/c) A E0; E0 is an overall surface-field scale used
    mostly to probe the crossover logic.
    """
    if not 0.0 < E0 < math.inf:
        raise ValueError(f"E0 must be finite and > 0, got {E0}")
    return material.omega_p / SPEED_OF_LIGHT * amplitude_A(Omega, material) * E0


class AsymptoticCoefficients(NamedTuple):
    A: float
    B: float
    f_Omega: float
    wavenumber: float


def asymptotic_coefficients(
    Omega: float, material: Material, E0: float = 1.0
) -> AsymptoticCoefficients:
    """Closed-form far-field quantities for one material and frequency.

    wavenumber = Omega omega_p / v_F (cm^-1); successive zeros of the
    oscillation sit pi/wavenumber apart.
    """
    return AsymptoticCoefficients(
        A=amplitude_A(Omega, material),
        B=amplitude_B(Omega, material, E0),
        f_Omega=f_of_Omega(Omega, material),
        wavenumber=Omega * material.omega_p / material.v_F,
    )


def asymptotic_field(
    x_cm,
    Omega: float,
    material: Material,
    *,
    normalization: str = "per_Eprime0",
    E0: float = 1.0,
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
        return amplitude_B(Omega, material, E0) / x**2 * np.sin(u)
    raise ValueError(f"unknown normalization {normalization!r}")
