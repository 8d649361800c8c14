"""Electric-field profile inside the metal half-space.

The normalized field E(x)/E'(0) is a half-line cosine transform of the
reciprocal dispersion denominator. A profile takes it on the
plasma-scaled "rescaled" axis or integrated by parts ("ibp");
field_ratio_direct, the same integral on the mean-free-path axis, is a
cross-check for the tests. The closed-form far field and its amplitudes
are in fermiskin.asymptotic, which this module does not import.

Time enters as exp(-i omega t), as in permittivity; np.conj of a field
value gives the mirror convention exp(+i omega t).

Depths are in cm; the E(x)/E'(0) normalization carries a length, so
those values are in cm too, while E(x)/E(0) is dimensionless.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._kernels import KERNEL_IBP_EXACT, KERNEL_RECIPROCAL
from .materials import PlasmaParams
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


@functools.lru_cache(maxsize=32)
def _constants(params: PlasmaParams, kappa: float) -> tuple[float, float, float]:
    """omega_p / v_F, bcoef and the field prefactor of params on the axis s = q/kappa."""
    omega_p, v_F = params.material.omega_p, params.material.v_F
    bcoef = params.b * kappa * kappa
    pref = bcoef * v_F / (math.pi * omega_p * kappa)
    # named before the mesh is built: its envelope overflows (a numpy
    # RuntimeWarning) from Omega of about 1e-150 for Na. Raised on every
    # call: an exception is never cached
    if pref == math.inf:
        raise ValueError(
            f"Omega = {params.Omega:g} is too small for material "
            f"{params.material.name!r}: the field prefactor overflows"
        )
    return omega_p / v_F, bcoef, pref


def _field_point(x_cm: float, params: PlasmaParams, kernel_id: int,
                 kappa: float) -> FieldPointInfo:
    # the transform on the axis s = q/kappa: kappa = 1 is the plasma-scaled
    # axis, kappa = eps the mean-free-path axis
    if not math.isfinite(x_cm):
        raise ValueError(f"x must be finite, got {x_cm}")
    if x_cm < 0:
        raise ValueError(f"x must be >= 0, got {x_cm}")
    ratio, bcoef, pref = _constants(params, kappa)
    # omega_p * x alone overflows from about 2e292 cm
    phase = kappa * (x_cm * ratio)
    check_dispersion_roots(params)
    try:
        quad = oscillatory_halfline(phase, kernel_id, params.Omega, params.eps, bcoef, kappa)
    except ValueError as exc:
        raise ValueError(f"x = {x_cm:g} cm: {exc}") from None
    scale = -2.0 * pref / phase**2 if kernel_id == KERNEL_IBP_EXACT else 2.0 * pref
    return FieldPointInfo(scale * quad.value, abs(scale) * (quad.error + quad.tail_bound),
                          phase, quad)


def field_ratio_rescaled(
    x_cm: float,
    params: PlasmaParams,
    *,
    full_output: bool = False,
):
    """E(x)/E'(0) in cm via the plasma-scaled axis. Works at eps = 0."""
    info = _field_point(x_cm, params, KERNEL_RECIPROCAL, 1.0)
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
    if params.eps == 0.0:
        raise ValueError(
            "direct route needs eps > 0; use the rescaled route, the "
            "asymptotic form, or a small eps such as 1e-5"
        )
    info = _field_point(x_cm, params, KERNEL_RECIPROCAL, params.eps)
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
    info = _field_point(x_cm, params, KERNEL_IBP_EXACT, 1.0)
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
    asymptotic.asymptotic_values. Depths must be strictly increasing.
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
    if x.ndim != 1:
        raise ValueError(f"depths must be a 1-d array, got shape {x.shape}")
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
