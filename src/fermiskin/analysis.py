"""Observable extraction from field profiles, on numpy.

The extractors quantify the three signatures of the computed profiles:
the inverse-square envelope of the far-field oscillation, its spatial
period, and the exponential decay constant near the surface (the
crossover depth is closed form, in asymptotic). They accept either a
FieldProfile, told apart by its xs attribute so that field is not
imported, or a plain (xs, values) pair, so synthetic signals take the
same code path as the real profiles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# crossover, because perfbench calls and wraps analysis.crossover
from .asymptotic import AnalysisError, crossover

# fewest refined peaks, sign changes and near-surface samples a fit accepts
_MIN_EXTREMA = 4
_MIN_CROSSINGS = 3
_MIN_POINTS = 5


class FitResult(NamedTuple):
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


class WavelengthEstimate(NamedTuple):
    """Oscillation wavelength from zero-crossing spacing.

    wavelength is twice the mean crossing spacing; std is twice the
    sample standard deviation of the spacings, a grid-noise gauge, not
    a rigorous confidence interval.
    """

    wavelength: float
    std: float
    n_crossings: int
    crossings: np.ndarray


def _coerce_profile(profile) -> tuple[np.ndarray, np.ndarray]:
    """Accept a FieldProfile or an (xs, values) pair; drop non-finite points."""
    if hasattr(profile, "xs"):
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
    ok = np.isfinite(x) & np.isfinite(y)
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
    j = np.nonzero((m[1:-1] > m[:-2]) & (m[1:-1] >= m[2:]))[0] + 1
    x0, x1, x2 = x[j - 1], x[j], x[j + 1]
    y1 = m[j]
    # the parabola through each triplet, from divided differences: slope
    # s at x1 and curvature c2; keep its vertex when it is a maximum, else
    # fall back to the grid node. y1 > m[j-1] >= 0 puts the vertex between
    # the triplet's midpoints, and h has the sign of s, so pv >= y1 > 0
    d01 = (y1 - m[j - 1]) / (x1 - x0)
    c2 = ((m[j + 1] - y1) / (x2 - x1) - d01) / (x2 - x0)
    s = d01 + c2 * (x1 - x0)
    ok = c2 < 0.0
    h = np.divide(-s, 2.0 * c2, out=np.zeros_like(s), where=ok)
    return np.where(ok, x1 + h, x1), np.where(ok, y1 + 0.5 * s * h, y1)


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
        if hasattr(profile, "xs"):
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
