"""Transverse permittivity of the degenerate collisionless electron gas.

Public entry points for eps_tr(q, Omega, eps), its small-q series, its
analytic q-derivatives, and the scan and bisection that localize the
derivative singularity at |q| = Omega (the wavevector where the phase
velocity meets the Fermi-surface edge; the seed of the spatial
oscillations computed downstream) as the root of d|eps'|^2/dq.

All evaluators accept scalars or array-likes in q and return matching
shapes. They raise ValueError for a q that is not finite, for the
collisionless singular point |q| = Omega at eps = 0, and naming q and
Omega where the value overflows a float (a tiny Omega, or a tiny or zero
q for the pole pair); every other q, q = 0 included, returns a finite
value, out to |q| = 1e300. Omega and eps are scalars by design: one
frequency point per call keeps the branch bookkeeping trivial. Time enters as
exp(-i omega t), so z = Omega + i eps; np.conj of any value gives the
mirror convention exp(+i omega t).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import N_SERIES_TERMS
from .materials import _check_regime

def _check_domain(arr: np.ndarray, Omega: float, eps: float) -> None:
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"q must be finite, got {bad.flat[0]}")
    if eps == 0.0 and np.any(np.abs(arr) == Omega):
        raise ValueError(
            f"|q| = Omega = {Omega:g} is the collisionless singular point"
        )


def _overflow(q: float, Omega: float, eps: float) -> ValueError:
    return ValueError(f"value overflows at q = {q:g}, Omega = {Omega:g}, eps = {eps:g}")


def _eval(q, which: int, Omega: float, eps: float):
    _check_regime(Omega, eps)
    arr = np.asarray(q, dtype=np.float64)
    _check_domain(arr, Omega, eps)
    with np.errstate(over="ignore"):
        out = _kernels.family_grid(arr.ravel(), which, Omega, eps)
    # every q that passed _check_domain has a finite value unless it overflows
    if not np.isfinite(out).all():
        raise _overflow(arr.ravel()[~np.isfinite(out)][0], Omega, eps)
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def eps_tr(q, Omega: float, eps: float = 0.0):
    """Transverse dielectric function at scaled wavevector q.

    q is in units of omega_p/v_F, Omega = omega/omega_p, eps = nu/omega_p.
    eps = 0 means the limit of vanishing collisions taken from Im z > 0,
    which is real for |q| < Omega and carries the collisionless damping
    step for |q| > Omega.

    Below |q/z| = 0.4 the closed form loses digits to cancellation and
    the series takes over transparently.
    """
    return _eval(q, 0, Omega, eps)


def d_eps_dq(q, Omega: float, eps: float = 0.0):
    """First q-derivative of eps_tr, closed form. Odd in q.

    Diverges logarithmically at |q| = Omega in the collisionless limit;
    that point is rejected, and eps > 0 rounds the divergence into a
    finite peak of width ~eps.
    """
    return _eval(q, 1, Omega, eps)


def d2_eps_dq2(q, Omega: float, eps: float = 0.0):
    """Full second q-derivative of eps_tr, closed form; even in q.

    Carries a simple pole pair at q = +-z, so it grows like 1/eps on
    approach to |q| = Omega at finite collisionality. Below |q| = 0.4 |z|
    it needs |z|^3, so there it refuses |z| above about 5.6e102.
    """
    return _eval(q, 2, Omega, eps)


def d2_eps_near_singularity(q, Omega: float, eps: float = 0.0):
    """Pole-pair part of the second derivative alone.

    Keeps only the terms of d2_eps_dq2 that blow up at |q| = Omega;
    agreement with the full derivative improves as the singularity is
    approached. It is -3 w / (Omega q^3 (w^2 - 1)) with w = z/q, i.e.
    -3 z / (Omega q^2 (z^2 - q^2)), even in q.
    """
    return _eval(q, 3, Omega, eps)


class SeriesValue(NamedTuple):
    value: complex
    error_bound: float


def small_q_series(q: float, Omega: float, eps: float = 0.0) -> SeriesValue:
    """Expansion of eps_tr in powers of (q/z)^2, with a truncation bound.

    The N_SERIES_TERMS-term sum that eps_tr itself takes below its series
    switch. Valid for |q| < |z| (divergent outside, rejected); q = 0 is
    fine and returns the leading term 1 - 1/(Omega z). The bound is the
    magnitude of the last retained term: a true remainder bound once
    |q/z| < 1/2 and plain bookkeeping closer to the edge.
    """
    _check_regime(Omega, eps)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    z = complex(Omega, eps)
    w = q / z
    if abs(w) >= 1.0:
        raise ValueError(
            f"series diverges for |q| >= |z|; got |q/z| = {abs(w):.3g}"
        )
    qs = np.array([float(q)])
    value = complex(_kernels._series(0, qs, (qs / z) ** 2, Omega, z)[0])
    bound = (abs(3.0 / (Omega * z)) * abs(w) ** (2 * N_SERIES_TERMS - 2)
             * _kernels.SERIES_COEF[-1])
    return SeriesValue(value, float(bound))


class KohnScanResult(NamedTuple):
    """Outcome of the derivative-singularity scan.

    q_star is the wavevector of largest |d eps_tr/dq|, the root of its
    q-derivative to adjacent floats; max_abs_derivative the modulus
    there; grid and values the uniform scan that bracketed it.
    """

    q_star: float
    max_abs_derivative: float
    grid: np.ndarray
    values: np.ndarray


def kohn_scan(
    Omega: float,
    eps: float,
    q_min: float,
    q_max: float,
    n_points: int,
) -> KohnScanResult:
    """Localize the singular wavevector as the peak of |d eps_tr/dq|.

    A uniform scan over [q_min, q_max] brackets the peak between the
    neighbours of its largest sample, and bisection on
    d|eps'|^2/dq = 2 Re(conj(eps') eps'') takes the bracket down to
    adjacent floats. At finite eps the peak sits a fraction of eps above
    Omega. A scan whose largest sample is an end node has not bracketed
    the peak, and raises ValueError naming that node and the step; a
    sample that overflows raises ValueError naming q and Omega. At
    eps = 0 the peak is the singular point q = Omega itself, where the
    derivative diverges, and is refused by name.
    """
    _check_regime(Omega, eps)
    if eps == 0.0:
        raise ValueError(
            f"at eps = 0 |d eps_tr/dq| diverges at the singular point q = Omega = "
            f"{Omega:g}, which is its peak; scan at eps > 0"
        )
    if n_points < 10:
        raise ValueError(f"n_points must be >= 10, got {n_points}")
    if not (0.0 < q_min < q_max):
        raise ValueError("need 0 < q_min < q_max")
    grid = np.linspace(q_min, q_max, n_points)
    values = np.abs(d_eps_dq(grid, Omega, eps))
    i = int(np.argmax(values))
    if i in (0, n_points - 1):
        raise ValueError(
            f"|d eps_tr/dq| is largest at the end node q = {grid[i]:g} of a grid of step "
            f"{(q_max - q_min) / (n_points - 1):g}: the peak is not bracketed; widen the grid"
        )
    # the sign of Re(conj(eps') eps'') from the members at Omega = 1, since
    # eps' = Omega^-3 H'(q/Omega) and eps'' = Omega^-4 H''(q/Omega) with H the
    # permittivity at (1, eps/Omega): their product overflows at a tiny Omega
    # where the scan does not. The real part is summed by hand: the product's
    # imaginary part overflows first. At mid = Omega and eps/Omega below about
    # 1e-308 eps'', there its pole pair 1.5i Omega/eps, overflows to NaN; with
    # Im eps' = 3 pi/4 > 0 the sign is +
    lo, hi = float(grid[i - 1]), float(grid[i + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
            d1, d2 = _kernels._family_members(np.array([mid / Omega]), (1, 2), 1.0, eps / Omega)
            if d1.real[0] * d2.real[0] + d1.imag[0] * d2.imag[0] <= 0.0:
                hi = mid
            else:  # > 0, or NaN
                lo = mid
    return KohnScanResult(lo, abs(d_eps_dq(lo, Omega, eps)), grid, values)
