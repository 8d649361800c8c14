"""Transverse permittivity of the degenerate collisionless electron gas.

Public entry points for eps_tr(q, Omega, eps), its small-q series, its
analytic q-derivatives, and the grid scan that localizes the derivative
singularity at |q| = Omega (the wavevector where the phase velocity
meets the Fermi-surface edge; the seed of the spatial oscillations
computed downstream).

All evaluators accept scalars or array-likes in q and return matching
shapes. Omega and eps are scalars by design: one frequency point per
call keeps the branch bookkeeping trivial. Time enters as
exp(-i omega t), so z = Omega + i eps; np.conj of any value gives the
mirror convention exp(+i omega t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import N_SERIES_TERMS

_SCAN_ROUNDS = 3
_SCAN_REFINE = 10


def _validate(Omega: float, eps: float) -> None:
    if not 0.0 < Omega < math.inf:
        raise ValueError(f"Omega must be finite and > 0, got {Omega}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


def _check_domain(arr: np.ndarray, Omega: float, eps: float) -> None:
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"q must be finite, got {bad.flat[0]}")
    if np.any(arr == 0.0):
        raise ValueError("q = 0 is outside the closed-form domain; use small_q_series")
    if eps == 0.0 and np.any(np.abs(arr) == Omega):
        raise ValueError(
            f"|q| = Omega = {Omega:g} is the collisionless singular point"
        )


def _eval(q, which: int, Omega: float, eps: float):
    _validate(Omega, eps)
    arr = np.asarray(q, dtype=np.float64)
    _check_domain(arr, Omega, eps)
    out = _kernels.family_grid(arr.ravel(), which, Omega, eps)
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def eps_tr(q, Omega: float, eps: float = 0.0):
    """Transverse dielectric function at scaled wavevector q.

    q is in units of omega_p/v_F, Omega = omega/omega_p, eps = nu/omega_p.
    eps = 0 means the limit of vanishing collisions taken from Im z > 0,
    which is real for |q| < Omega and carries the collisionless damping
    step for |q| > Omega.

    Below |q/z| = 0.1 the closed form loses digits to cancellation and
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
    approached. Even in q: the bracket is odd and the 1/q^3 prefactor
    is odd.
    """
    return _eval(q, 3, Omega, eps)


class SeriesValue(NamedTuple):
    value: complex
    error_bound: float


def small_q_series(
    q: float,
    Omega: float,
    eps: float = 0.0,
    n_terms: int = N_SERIES_TERMS,
) -> SeriesValue:
    """Expansion of eps_tr in powers of (q/z)^2, with a truncation bound.

    Valid for |q| < |z| (divergent outside, rejected); q = 0 is fine and
    returns the leading term 1 - 1/(Omega z). The bound is the magnitude
    of the last retained term: a true remainder bound once |q/z| < 1/2
    and plain bookkeeping closer to the edge.
    """
    _validate(Omega, eps)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    z = complex(Omega, eps)
    w = q / z
    if abs(w) >= 1.0:
        raise ValueError(
            f"series diverges for |q| >= |z|; got |q/z| = {abs(w):.3g}"
        )
    w2 = w * w
    pref = 3.0 / (Omega * z)
    acc = 0.0 + 0.0j
    for m in range(n_terms - 1, -1, -1):
        acc = acc * w2 + 1.0 / ((2 * m + 1) * (2 * m + 3))
    last = n_terms - 1
    bound = abs(pref) * abs(w2) ** last / ((2 * last + 1) * (2 * last + 3))
    return SeriesValue(1.0 - pref * acc, bound)


@dataclass(frozen=True)
class KohnScanResult:
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
    the peak to a thousandth of the initial spacing. Note that at finite
    eps the peak of the broadened modulus sits a fraction of eps above
    Omega, so the resolution worth asking for is bounded by eps itself.
    """
    _validate(Omega, eps)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs(_kernels.family_grid(grid, 1, Omega, eps))
        ok = np.isfinite(vals)
        n_skipped += int((~ok).sum())
        if not ok.any():
            raise ValueError("every sample hit the singularity; change the grid")
        masked = np.where(ok, vals, -np.inf)
        i = int(np.argmax(masked))
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
