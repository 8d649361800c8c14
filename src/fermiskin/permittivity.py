"""Transverse permittivity of the degenerate collisionless electron gas.

Public entry points for eps_tr(q, Omega, eps), its small-q series, its
analytic q-derivatives, and the grid scan that localizes the derivative
singularity at |q| = Omega (the wavevector where the phase velocity
meets the Fermi-surface edge; the seed of the spatial oscillations
computed downstream).

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

_SCAN_ROUNDS = 3
_SCAN_REFINE = 10


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
    approach to |q| = Omega at finite collisionality.
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

    q_star is the grid point of largest |d eps_tr/dq| after refinement,
    refined_step the final grid spacing (the localization resolution),
    grid and values the last refinement round, n_skipped the number of
    non-finite samples dropped (a node landing exactly on the
    collisionless singularity is skipped, not fatal).
    """

    q_star: float
    max_abs_derivative: float
    refined_step: float
    grid: np.ndarray
    values: np.ndarray
    n_skipped: int


def kohn_scan(
    Omega: float,
    eps: float,
    q_min: float,
    q_max: float,
    n_points: int,
) -> KohnScanResult:
    """Localize the singular wavevector by scanning |d eps_tr/dq|.

    A uniform scan over [q_min, q_max] is followed by _SCAN_ROUNDS = 3
    zoom stages, each shrinking the step by _SCAN_REFINE = 10 with
    2*_SCAN_REFINE + 1 nodes around the running argmax, which resolves
    the peak to a thousandth of the initial spacing. A round whose largest
    sample sits on an end node of its grid has not bracketed the peak, and
    raises ValueError naming that node and the step; a sample that overflows
    raises ValueError naming q and Omega. Note that at finite
    eps the peak of the broadened modulus sits a fraction of eps above
    Omega, so the resolution worth asking for is bounded by eps itself.
    """
    _check_regime(Omega, eps)
    if n_points < 10:
        raise ValueError(f"n_points must be >= 10, got {n_points}")
    if not (0.0 < q_min < q_max):
        raise ValueError("need 0 < q_min < q_max")
    grid = np.linspace(q_min, q_max, n_points)
    step = (q_max - q_min) / (n_points - 1)
    n_skipped = 0
    for r in range(_SCAN_ROUNDS + 1):
        # raw kernel call: a sample on the singularity must be skipped
        # here, not raised as it would be by the public evaluator
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.abs(_kernels.family_grid(grid, 1, Omega, eps))
        ok = np.isfinite(vals)
        # any other non-finite sample is an overflow, not the singular point
        if not ok[grid != Omega].all():
            raise _overflow(grid[~ok & (grid != Omega)][0], Omega, eps)
        n_skipped += int((~ok).sum())
        masked = np.where(ok, vals, -np.inf)
        i = int(np.argmax(masked))
        if i in (0, grid.size - 1):
            raise ValueError(
                f"|d eps_tr/dq| is largest at the end node q = {grid[i]:g} of a grid "
                f"of step {step:g}: the peak is not bracketed; widen the grid"
            )
        center = float(grid[i])
        best = float(vals[i])
        if r < _SCAN_ROUNDS:
            # zoom: 2*_SCAN_REFINE + 1 nodes spanning +- one current step
            step /= _SCAN_REFINE
            grid = center + step * np.arange(-_SCAN_REFINE, _SCAN_REFINE + 1,
                                             dtype=np.float64)
            grid = grid[grid > 0.0]
    return KohnScanResult(
        q_star=center,
        max_abs_derivative=best,
        refined_step=step,
        grid=grid,
        values=vals,
        n_skipped=n_skipped,
    )
