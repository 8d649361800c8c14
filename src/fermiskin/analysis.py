"""Observable extraction from field profiles, and the crossover solver.

The extractors quantify the three signatures of the computed profiles:
the inverse-square envelope of the far-field oscillation, its spatial
period, and the exponential decay constant near the surface. The
crossover solver finds the depth beyond which the oscillatory tail
permanently overtakes the near-surface exponential.

Extractors accept either a FieldProfile or a plain (xs, values) pair,
so synthetic signals can be fed through the same code path the real
profiles use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .field import FieldProfile, amplitude_B
from .materials import Material

# fewest refined peaks, sign changes and near-surface samples a fit accepts
_MIN_EXTREMA = 4
_MIN_CROSSINGS = 3
_MIN_POINTS = 5
_REL_WIDTH = 1e-12
_RESIDUAL_TOL = 1e-10
_MAX_EXPAND = 1e6


class AnalysisError(RuntimeError):
    """Extraction or root-finding failed on structurally unsuitable input."""


class NoCrossoverError(AnalysisError):
    """The oscillatory tail exceeds the exponential at every depth."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through extracted points.

    window is the depth interval (cm) actually used; n_points the
    number of fitted samples (refined peaks for the envelope fit, raw
    samples for the near-surface fit).
    """

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class WavelengthEstimate:
    """Oscillation wavelength from zero-crossing spacing.

    wavelength is twice the mean crossing spacing; std is twice the
    sample standard deviation of the spacings, a grid-noise gauge, not
    a rigorous confidence interval.
    """

    wavelength: float
    std: float
    n_crossings: int
    crossings: np.ndarray


@dataclass(frozen=True)
class CrossoverResult:
    x_star: float
    bracket: tuple[float, float]
    g_residual: float
    branch: str
    iterations: int


def _coerce_profile(profile) -> tuple[np.ndarray, np.ndarray]:
    """Accept a FieldProfile or an (xs, values) pair; drop failed points."""
    if isinstance(profile, FieldProfile):
        x = profile.xs
        y = profile.values
    else:
        try:
            x, y = profile
        except (TypeError, ValueError):
            raise TypeError(
                "profile must be a FieldProfile or an (xs, values) pair"
            ) from None
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and values must be matching 1-d arrays")
    ok = np.isfinite(x) & np.isfinite(np.real(y)) & np.isfinite(np.imag(np.asarray(y, dtype=np.complex128)))
    if not ok.all():
        x, y = x[ok], y[ok]
    if x.size < 4:
        raise AnalysisError("profile has fewer than 4 usable points")
    return x, np.real(y).astype(np.float64)


def _in_window(x: np.ndarray, window) -> np.ndarray:
    if window is None:
        return np.ones(x.shape, dtype=bool)
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi):
        raise ValueError(f"bad window ({lo:g}, {hi:g})")
    if hi < x[0] or lo > x[-1]:
        raise AnalysisError(
            f"window ({lo:g}, {hi:g}) lies outside the profile range "
            f"({x[0]:g}, {x[-1]:g})"
        )
    return (x >= lo) & (x <= hi)


def _line_fit(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r2


def _refined_peaks(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of m by three-point comparison, parabolic refinement."""
    i = np.nonzero((m[1:-1] > m[:-2]) & (m[1:-1] >= m[2:]))[0] + 1
    xs, ps = [], []
    for j in i:
        tx = x[j - 1 : j + 2]
        ty = m[j - 1 : j + 2]
        # quadratic through the triplet; keep the vertex only when it is
        # a genuine interior maximum, else fall back to the grid node
        c2, c1, c0 = np.polyfit(tx, ty, 2)
        xv = float(x[j])
        pv = float(m[j])
        if np.isfinite(c2) and c2 < 0.0:
            cand = -c1 / (2.0 * c2)
            val = c0 + c1 * cand + c2 * cand * cand
            if tx[0] < cand < tx[2] and val > 0.0:
                xv, pv = float(cand), float(val)
        xs.append(xv)
        ps.append(pv)
    return np.asarray(xs), np.asarray(ps)


def envelope_fit(profile, window=None) -> FitResult:
    """Power-law exponent of the oscillation envelope.

    Finds local maxima of |Re value| inside the window and fits
    ln(peak) against ln(x); a slope of -2 is the inverse-square
    envelope of the far-field oscillation.
    """
    x, y = _coerce_profile(profile)
    keep = _in_window(x, window)
    x, y = x[keep], y[keep]
    m = np.abs(y)
    xs, ps = _refined_peaks(x, m)
    pos = ps > 0
    xs, ps = xs[pos], ps[pos]
    if xs.size < _MIN_EXTREMA:
        raise AnalysisError(
            f"need at least {_MIN_EXTREMA} local extrema in the window, "
            f"found {xs.size}"
        )
    slope, intercept, r2 = _line_fit(np.log(xs), np.log(ps))
    lo = float(window[0]) if window is not None else float(x[0])
    hi = float(window[1]) if window is not None else float(x[-1])
    return FitResult(
        slope=slope, intercept=intercept, r_squared=r2,
        window=(lo, hi), n_points=int(xs.size),
    )


def wavelength_extract(profile, window=None) -> WavelengthEstimate:
    """Oscillation wavelength from linear-interpolated zero crossings.

    The wavelength is twice the mean spacing of consecutive sign
    changes of Re value. Constant-sign input has no crossings and is
    rejected.
    """
    x, y = _coerce_profile(profile)
    keep = _in_window(x, window)
    x, y = x[keep], y[keep]
    s = np.sign(y)
    # a sample exactly on zero joins the following interval
    flip = np.nonzero(s[:-1] * s[1:] < 0)[0]
    crossings = x[flip] - y[flip] * (x[flip + 1] - x[flip]) / (y[flip + 1] - y[flip])
    exact = np.nonzero(s == 0)[0]
    if exact.size:
        crossings = np.sort(np.concatenate([crossings, x[exact]]))
    if crossings.size < _MIN_CROSSINGS:
        raise AnalysisError(
            f"need at least {_MIN_CROSSINGS} sign changes, found {crossings.size}"
        )
    spacings = np.diff(crossings)
    return WavelengthEstimate(
        wavelength=2.0 * float(spacings.mean()),
        std=2.0 * float(spacings.std(ddof=1)) if spacings.size > 1 else 0.0,
        n_crossings=int(crossings.size),
        crossings=crossings,
    )


def near_surface_fit(profile, window, *, delta: float | None = None) -> FitResult:
    """Exponential decay constant of the near-surface field.

    Fits ln|value| against x inside the window, which must sit inside
    (0, 1.5*delta]; the slope estimates -omega_p/c. delta is taken from
    the profile's params when present, so it only needs passing for
    synthetic input.
    """
    x, y = _coerce_profile(profile)
    if delta is None:
        if isinstance(profile, FieldProfile):
            delta = profile.params.delta
        else:
            raise ValueError("delta must be given for synthetic input")
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"bad window ({lo:g}, {hi:g})")
    if hi > 1.5 * delta * (1.0 + 1e-12):
        raise ValueError(
            f"window must end within 1.5*delta = {1.5 * delta:g} cm, got {hi:g}"
        )
    keep = _in_window(x, (lo, hi))
    x, y = x[keep], y[keep]
    m = np.abs(y)
    pos = m > 0
    x, m = x[pos], m[pos]
    if x.size < _MIN_POINTS:
        raise AnalysisError(
            f"need at least {_MIN_POINTS} samples in the window, found {x.size}"
        )
    slope, intercept, r2 = _line_fit(x, np.log(m))
    if slope >= 0:
        raise AnalysisError("field does not decay over the near-surface window")
    return FitResult(
        slope=slope, intercept=intercept, r_squared=r2,
        window=(lo, hi), n_points=int(x.size),
    )


def crossover(Omega: float, material: Material, E0: float = 1.0) -> CrossoverResult:
    """Depth where the oscillatory tail overtakes the surface exponential.

    Solves B/x^2 = exp(-omega_p x / c) for the root beyond the minimum
    of g(x) = ln B - 2 ln x + omega_p x / c at x_min = 2c/omega_p; g is
    convex, so past that point the inverse-square tail wins for good.
    Bisection to relative width _REL_WIDTH = 1e-12, polished by a few
    Newton steps; the residual |g(x_star)| must come out below
    _RESIDUAL_TOL = 1e-10, and the bracket may grow to _MAX_EXPAND = 1e6
    times 2c/omega_p.
    """
    B = amplitude_B(Omega, material, E0)
    k = material.omega_p / SPEED_OF_LIGHT

    def g(x: float) -> float:
        return math.log(B) - 2.0 * math.log(x) + k * x

    def dg(x: float) -> float:
        return -2.0 / x + k

    x_min = 2.0 / k
    g_min = g(x_min)
    if g_min > 0.0:
        raise NoCrossoverError(
            "no crossover: Friedel tail dominates everywhere "
            f"(min of ln(y1/y2) is {g_min:.3g} > 0 at x = {x_min:.3g} cm)"
        )

    # g < 0 at the minimum and grows linearly beyond it: double outward
    lo, hi = x_min, 2.0 * x_min
    expansions = 0
    while g(hi) < 0.0:
        lo = hi
        hi *= 2.0
        expansions += 1
        if hi > _MAX_EXPAND * x_min:
            raise AnalysisError(
                f"crossover bracket expansion exceeded {_MAX_EXPAND:g} * x_min"
            )

    iterations = expansions
    while (hi - lo) > _REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1

    x_star = 0.5 * (lo + hi)
    for _ in range(3):
        step = g(x_star) / dg(x_star)
        x_new = x_star - step
        if not (lo <= x_new <= hi):
            break
        x_star = x_new
        iterations += 1

    residual = abs(g(x_star))
    # written so that a NaN residual fails too
    if not residual <= _RESIDUAL_TOL:
        raise AnalysisError(
            f"crossover root residual {residual:.3g} exceeds {_RESIDUAL_TOL:g}"
        )
    return CrossoverResult(
        x_star=x_star,
        bracket=(lo, hi),
        g_residual=residual,
        branch="beyond_minimum",
        iterations=iterations,
    )
