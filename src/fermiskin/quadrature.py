"""Adaptive quadrature for the half-line cosine integrals of the field.

The target integrals have the shape

    I(phase) = int_0^inf cos(phase * s) K(s) ds

where K is one of the envelope kernels of _kernels (reciprocal
denominator or its second derivative). K is smooth except for
a logarithmic structure at s = Om/kappa, decays like 1/(bcoef s^2) (or
faster for the IBP kernel), and the phase can range from 0 to ~1e6.

Strategy: one algorithm for every depth. Split [0, S0] at every
half-period pi/phase and at the known structure points, refine with
batched Gauss-Kronrod 15(7) panels, then sum the tail half-period
by half-period and accelerate the alternating partial sums by repeated
averaging (two binomially weighted sums of the last 48). The mesh's
kernel call also evaluates the first 64 tail half-periods, or 16 where
one half-period spans the whole structure region and is graded into
geometric panels [s, 1.6 s]; there the tail stops after 4-16.

Refinement splits every panel above its share of the target in rounds.
It returns at the target tol_rel |sum| or at the kernel's rounding
floor times the summed panel magnitudes: 64 machine epsilon for the
reciprocal kernel, 3e-13 for the integrated-by-parts one. Past
_PANEL_BUDGET panels it raises.

A phase below 0.1 tol_rel / s_peak, x = 0 included, takes the "envelope"
path: a mesh graded out to a depth S, closed by -1/(bcoef S), the
integral of the asymptotic envelope -1/(bcoef s^2) past it. Only the
reciprocal kernel takes it: the integrated-by-parts kernel raises
ValueError there, and at zi = 0, where (1/D)'' has a pole.

Truncation honesty: QuadratureResult.tail_bound bounds what lies past
the last evaluated point s_end: on the half-period tail, for either
kernel, the last half-period integral (proved in oscillatory_halfline).
On the envelope path S is pushed out until the remainder bound is below
1e-4 tol_rel of the Lorentzian core's integral pi / (2 bcoef s_peak),
and a phase adds phase pi / (2 bcoef) for the cos(phase s) it ignores.
The integrated-by-parts kernel cancels below what the Gauss-Kronrod
estimate sees, so its error carries its rounding floor, 3e-13 times the
summed panel and tail-term magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import KERNEL_RECIPROCAL

# mesh panels and oscillatory-tail half-periods allowed before failing
_PANEL_BUDGET = 20000
_TAIL_HALF_PERIODS = 8000
_EULER_WINDOW = 48
# row m - 1 holds C(m - 1, k) / 2^(m - 1), k < m: the weights that m - 1
# rounds of pairwise averaging give the m points of a window
_EULER_WEIGHTS = [
    np.array([math.comb(m - 1, k) for k in range(m)], dtype=np.float64) / 2.0 ** (m - 1)
    for m in range(1, _EULER_WINDOW + 1)
]
_MACH_EPS = float(np.finfo(np.float64).eps)
# tail half-periods per kernel call; in the mesh's call where one
# half-period spans the structure region
_OSC_CHUNK = 64
_OSC_FIRST_GRADED = 16
# growth ratio of geometrically graded panels
_GRADE = 1.6
# rounding floor of the integrated-by-parts kernel per unit of summed
# panel and tail-term magnitude: its refinement stops there, and its
# error carries it
_IBP_FLOOR = 3e-13


class QuadratureError(RuntimeError):
    """The integral could not be brought within budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    tail_bound: float
    s_max: float
    q_max: float
    n_panels: int
    n_evals: int  # every kernel evaluation, refinement and tail included
    n_tail_terms: int
    branch: str


def _euler_limit(psums: np.ndarray) -> tuple[complex, float]:
    # repeated averaging of the trailing partial sums, m - 1 rounds over a
    # window of m, in closed form; for an alternating tail each round
    # roughly halves the remainder, and the last round's change is the error
    v = psums[-_EULER_WINDOW:]
    m = v.size
    if m == 1:
        return v[0], 0.0
    corner = _EULER_WEIGHTS[m - 1] @ v
    prev = _EULER_WEIGHTS[m - 2] @ v[1:]
    return corner, abs(corner - prev)


def _structure_edges(kohn: float, s_peak: float, zi: float, kappa: float, a_end: float):
    pts = [0.0, a_end]
    for f in (0.5, 1.0, 2.0, 4.0):
        pts.append(f * s_peak)
    pts.append(0.5 * kohn)
    pts.append(kohn)
    pts.append(2.0 * kohn)
    # resolve the collision-broadened layer around the singular wavevector
    w = max(zi, 1e-9) / kappa
    for f in (1.0, 3.0, 10.0, 30.0, 100.0):
        pts.append(kohn - f * w)
        pts.append(kohn + f * w)
    for r in (1e-3, 1e-2, 1e-1):
        pts.append(kohn * (1.0 - r))
        pts.append(kohn * (1.0 + r))
    arr = np.array([p for p in pts if 0.0 <= p <= a_end], dtype=np.float64)
    arr = np.unique(arr)
    keep = np.concatenate(([True], np.diff(arr) > 1e-15 * a_end))
    return arr[keep]


def _refine(lo, hi, vals, errs, batch, tol_rel, floor):
    """Split worst panels in rounds; batch(lo, hi) integrates panels.
    Returns the updated arrays plus the evaluation count once the summed
    error meets tol_rel |sum| or the kernel's rounding floor, floor times
    the summed panel magnitudes; raises QuadratureError past the panel
    budget. Every round splits a panel, so the loop needs no round cap."""
    n_evals = 0
    while True:
        target = tol_rel * abs(vals.sum())
        tot_err = errs.sum()
        # a strongly cancelling sum cannot be refined below the rounding
        # noise of its own panel magnitudes; splitting past this point
        # adds panels, not digits
        if tot_err <= 0.5 * target or tot_err <= floor * np.abs(vals).sum():
            break
        # errs sums past 0.5 target, so some panel exceeds this share
        mask = errs > 0.5 * target / lo.size
        if lo.size + int(mask.sum()) > _PANEL_BUDGET:
            raise QuadratureError(
                f"panel budget {_PANEL_BUDGET} exhausted at error {tot_err:.3e}"
            )
        mid = 0.5 * (lo[mask] + hi[mask])
        child_lo = np.concatenate((lo[mask], mid))
        child_hi = np.concatenate((mid, hi[mask]))
        cvals, cerrs, ev = batch(child_lo, child_hi)
        n_evals += ev
        vals = np.concatenate((vals[~mask], cvals))
        errs = np.concatenate((errs[~mask], cerrs))
        lo = np.concatenate((lo[~mask], child_lo))
        hi = np.concatenate((hi[~mask], child_hi))
    return lo, hi, vals, errs, n_evals


def _graded(start: float, end: float) -> list[float]:
    # geometric edges start * _GRADE^k below end / _GRADE, so that the
    # panel closing at end is no shorter than the others
    pts = []
    s = start
    while s < end / _GRADE:
        pts.append(s)
        s *= _GRADE
    return pts


def oscillatory_halfline(
    phase: float,
    kernel_id: int,
    Om: float,
    zi: float,
    bcoef: float,
    kappa: float,
    *,
    tol_rel: float = 1e-8,
) -> QuadratureResult:
    """Evaluate int_0^inf cos(phase*s) K(s) ds for an envelope kernel K
    at z = Om + i zi, zi >= 0 (see _kernels for the convention).

    Every phase of at least 0.1 tol_rel / s_peak runs the half-period
    mesh and the averaged half-period tail (branch "oscillatory"); a
    smaller one, 0 included, integrates a graded mesh to a depth S and
    closes it analytically (branch "envelope"); the integrated-by-parts
    kernel (1) raises ValueError there and at zi = 0. The mesh may hold
    _PANEL_BUDGET panels and the tail may sum _TAIL_HALF_PERIODS
    half-periods; past either the integral raises QuadratureError.

    The tail stops once the Euler error meets 0.3 tol_rel of the value.
    For either kernel tail_bound is |Re t_n| + |Im t_n|, t_n the
    last half-period integral, which ends at s_end. Proof: the tail grid
    starts at s0 = m h, h = pi / phase, so with a_k the start of
    half-period k, the part of t_k from f = Re K or Im K is

        t_k = +-int_0^(h/2) cos(phase t) [f(a_k + t) - f(a_k + h - t)] dt,

    the sign flipping with k and cos(phase t) >= 0. If f is monotone and
    |f'| non-increasing past s0, the bracket keeps one sign and its size
    is the integral of |f'| over [a_k + t, a_k + h - t], which does not
    grow as a_k moves on: the t_k alternate and fall to 0, so what lies
    past s_end is at most |t_(n+1)| <= |t_n|; error already holds the
    Gauss-Kronrod error of the computed t_n. The condition holds past
    s0 >= q_smooth = max(4 Om / kappa, 12 s_peak), where bcoef s^2
    exceeds |eps_tr| 144-fold (149 at least for Na, Au, Al, Omega 1e-4
    to 0.99, eps 0 to 1e-2): Re K is -(1 + O(1/144)) / (bcoef s^2), and
    Im K = -Im eps_tr |K|^2, Im eps_tr ~ 3 pi / (4 Om kappa s), falls as
    s^-5. Kernel 1 is K'': there its real part is -6 (1 + O(1/100)) /
    (bcoef s^4) and its imaginary part falls as s^-6 to s^-7.
    tests/test_quadrature.py samples the condition for both kernels.
    """
    if bcoef <= 0 or kappa <= 0 or Om <= 0 or zi < 0:
        raise ValueError("need Om > 0, zi >= 0, bcoef > 0, kappa > 0")
    phase = abs(float(phase))
    z = complex(Om, zi)
    kohn = Om / kappa
    e0 = abs(1.0 - 1.0 / (Om * z))
    s_peak = math.sqrt(e0 / bcoef)
    q_smooth = max(4.0 * kohn, 12.0 * s_peak)
    if kernel_id != KERNEL_RECIPROCAL and (zi == 0.0 or phase * s_peak < 0.1 * tol_rel):
        # (1/D)'' has a pole at s = kohn when zi = 0; below the envelope
        # threshold its integral, -phase^2 times the reciprocal kernel's,
        # sinks under its own rounding floor
        raise ValueError(
            f"integrated-by-parts kernel: need eps > 0 (zi = {zi:g}) and a phase "
            f"of at least 0.1 tol_rel / s_peak = {0.1 * tol_rel / s_peak:.3g} "
            f"(phase = {phase:g}; x = 0 has phase 0)"
        )
    floor = 64.0 * _MACH_EPS if kernel_id == KERNEL_RECIPROCAL else _IBP_FLOOR

    # the integrand, bound once; panel_batch is looked up on each call so
    # that a wrapper installed on the module sees every evaluation
    def batch(lo, hi):
        return _kernels.panel_batch(
            lo, hi, phase, kernel_id, Om, zi, bcoef, kappa
        )

    def remainder_bound(s):
        # |int_s^inf (1/D + 1/(bcoef t^2)) dt| for the reciprocal kernel
        eps_s = abs(_kernels.family_grid(np.array([kappa * s]), 0, Om, zi)[0])
        return 3.0 * max(eps_s, 1.5) / (bcoef * bcoef * s**3)

    if phase * s_peak >= 0.1 * tol_rel:
        branch = "oscillatory"
        halfw = math.pi / phase
        n_half = int(math.ceil(q_smooth / halfw))
        s0 = n_half * halfw
        grid = halfw * np.arange(n_half + 1, dtype=np.float64)
        n_first = _OSC_CHUNK
        if n_half == 1:
            grid = np.append(grid, _graded(q_smooth, s0))
            n_first = _OSC_FIRST_GRADED
        edges = np.union1d(_structure_edges(kohn, s_peak, zi, kappa, s0), grid)
        keep = np.concatenate(([True], np.diff(edges) > 1e-15 * s0))
        edges = edges[keep]
        # the tail always starts with these half-periods: evaluate them in
        # the mesh's call
        tail_edges = s0 + halfw * np.arange(n_first + 1, dtype=np.float64)
        s_end = float(tail_edges[-1])
    else:
        branch = "envelope"
        s_end = max(38.0 * s_peak, 2.0 * q_smooth)
        # the Lorentzian core carries pi / (2 bcoef s_peak)
        core = math.pi / (2.0 * bcoef * s_peak)
        while remainder_bound(s_end) > 1e-4 * tol_rel * core:
            s_end *= _GRADE
        edges = np.union1d(
            _structure_edges(kohn, s_peak, zi, kappa, q_smooth),
            _graded(q_smooth, s_end) + [s_end],
        )
        tail_edges = np.empty(0)

    lo = np.concatenate((edges[:-1], tail_edges[:-1]))
    hi = np.concatenate((edges[1:], tail_edges[1:]))
    n_mesh = edges.size - 1
    vals, errs, n_evals = batch(lo, hi)
    cvals, cerrs = vals[n_mesh:], errs[n_mesh:]
    lo, hi, vals, errs = lo[:n_mesh], hi[:n_mesh], vals[:n_mesh], errs[:n_mesh]
    lo, hi, vals, errs, ev = _refine(lo, hi, vals, errs, batch, tol_rel, floor)
    n_evals += ev
    value = vals.sum()
    err = errs.sum()

    terms: list[complex] = []
    if branch == "oscillatory":
        gk_err = 0.0
        while True:
            gk_err += cerrs.sum()
            terms.extend(cvals.tolist())
            psums = np.cumsum(np.asarray(terms, dtype=np.complex128))
            tail_est, acc_err = _euler_limit(psums)
            target = tol_rel * abs(value + tail_est)
            if acc_err <= 0.3 * target:
                break
            if len(terms) >= _TAIL_HALF_PERIODS:
                raise QuadratureError(
                    f"tail budget {_TAIL_HALF_PERIODS} half-periods exhausted at "
                    f"error {acc_err:.3e}"
                )
            e = s_end + halfw * np.arange(_OSC_CHUNK + 1, dtype=np.float64)
            cvals, cerrs, ev = batch(e[:-1], e[1:])
            n_evals += ev
            s_end = float(e[-1])
        value += tail_est
        err += acc_err + gk_err
        tail_bound = abs(terms[-1].real) + abs(terms[-1].imag)
    else:
        # int_S^inf -1/(bcoef s^2) ds, with cos(phase s) taken as 1
        value += -1.0 / (bcoef * s_end)
        tail_bound = remainder_bound(s_end) + phase * math.pi / (2.0 * bcoef)
    if kernel_id != KERNEL_RECIPROCAL:
        err += _IBP_FLOOR * (np.abs(vals).sum() + np.abs(terms).sum())

    return QuadratureResult(
        value=complex(value),
        error=float(err),
        tail_bound=float(tail_bound),
        s_max=float(s_end),
        q_max=float(kappa * s_end),
        n_panels=int(lo.size + len(terms)),
        n_evals=int(n_evals),
        n_tail_terms=len(terms),
        branch=branch,
    )
