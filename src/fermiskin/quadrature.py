"""Adaptive quadrature for the half-line cosine integrals of the field.

The target integrals have the shape

    I(phase) = int_0^inf cos(phase * s) K(s) ds

where K is one of the envelope kernels of _kernels (reciprocal
denominator or an integrated-by-parts variant). K is smooth except for
a logarithmic structure at s = Om/kappa, decays like 1/(bcoef s^2) (or
faster for the IBP kernels), and the phase can range from 0 to ~1e6.

Strategy: split [0, S0] at every half-period pi/phase and at the known
structure points, refine adaptively with batched Gauss-Kronrod 15(7)
panels, then sum the tail half-period by half-period, 64 per kernel call,
and accelerate the alternating partial sums by repeated averaging. The
first 64 tail half-periods are evaluated in the same kernel call as the
initial mesh, since the tail always needs them. The averaging is computed
in closed form, as two binomially weighted sums of the last 48 partial
sums, and refinement stops when three rounds in a row fail to halve the
best error so far (the rounding floor). When the phase is too
small to oscillate over the structure region the tail is instead summed
with geometric panels, evaluated four per call beyond the floor that no
panel may stop before, and closed with an analytic envelope remainder.

Truncation honesty: the tail beyond the last evaluated point s_end is
bounded by the envelope bound reported in QuadratureResult.tail_bound,
and s_end is never allowed below the fixed physical-axis floor
20 kappa / (bcoef * TAIL_TOL), which keeps the envelope bound at or
under a tenth of the 1e-6 working target for integrals on the unscaled
wavevector axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import KERNEL_RECIPROCAL

TAIL_TOL = 1e-6

_MAX_REFINE_ROUNDS = 60
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
# oscillatory-branch tail: half-periods per kernel call
_OSC_CHUNK = 64
# envelope-branch tail: panel growth ratio, panels per kernel call beyond
# the stopping floor, and the cap on panels summed
_TAIL_GROW = 1.6
_TAIL_CHUNK = 4
_TAIL_PANELS = 400


def _si_complement(x: float) -> float:
    """pi/2 - Si(x) for x >= 0, where Si is the sine integral.

    A power series below x = 4 and, above it, the continued fraction for
    E1(ix) = -Ci(x) - i (pi/2 - Si(x)) (Numerical Recipes cisi; A&S 5.2),
    evaluated by the modified Lentz method. The complement is formed
    directly, so it keeps its accuracy where Si(x) is close to pi/2.
    """
    if x < 4.0:
        # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
        x2 = x * x
        term = x
        si = x
        for n in range(3, 41, 2):
            term *= -x2 / ((n - 1) * n)
            si += term / n
        return 0.5 * math.pi - si
    b = complex(1.0, x)
    c = 1e300  # Lentz start: 1/tiny stands in for the empty numerator
    d = h = 1.0 / b
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 2.0 * _MACH_EPS:
            break
    # E1(ix) = exp(-ix) h
    return math.sin(x) * h.real - math.cos(x) * h.imag


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
    n_evals: int  # includes speculative tail panels evaluated and discarded
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


def _refine(lo, hi, vals, errs, batch, tol_rel, tol_abs):
    """Split worst panels in rounds until the summed error estimate meets
    the target; batch(lo, hi) integrates panels. Returns updated arrays
    plus the evaluation count."""
    n_evals = 0
    best = math.inf
    stall = 0
    for _ in range(_MAX_REFINE_ROUNDS):
        total = vals.sum()
        target = max(tol_rel * abs(total), tol_abs)
        tot_err = errs.sum()
        if tot_err <= 0.5 * target:
            break
        # a strongly cancelling sum cannot be refined below the rounding
        # noise of its own panel magnitudes; splitting past this point
        # adds panels, not digits
        if tot_err <= 64.0 * _MACH_EPS * np.abs(vals).sum():
            break
        # a round that does not halve the best error so far is a stall;
        # three in a row mean the rounding floor, whose error is reported
        if tot_err < 0.5 * best:
            best = tot_err
            stall = 0
        else:
            stall += 1
            if stall >= 3:
                break
        allow = 0.5 * target / max(lo.size, 1)
        mask = errs > allow
        if not mask.any():
            mask = errs >= errs.max()
        if lo.size + int(mask.sum()) > _PANEL_BUDGET:
            raise QuadratureError(
                f"panel budget {_PANEL_BUDGET} exhausted at error {tot_err:.3e}"
            )
        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate((lo[~mask], lo[mask], mid))
        new_hi = np.concatenate((hi[~mask], mid, hi[mask]))
        child_lo = new_lo[lo.size - int(mask.sum()):]
        child_hi = new_hi[lo.size - int(mask.sum()):]
        cvals, cerrs, ev = batch(child_lo, child_hi)
        n_evals += ev
        vals = np.concatenate((vals[~mask], cvals))
        errs = np.concatenate((errs[~mask], cerrs))
        lo, hi = new_lo, new_hi
    return lo, hi, vals, errs, n_evals


def _envelope_tail(s0, min_end, value_a, batch, tol_rel, tol_abs):
    """Sum geometric panels [s, 1.6 s] from s0 until one ending at or past
    min_end is below a quarter of the target.

    Panels ending below min_end cannot stop the sum, so the first kernel
    call evaluates all of them plus _TAIL_CHUNK more; each later call
    evaluates _TAIL_CHUNK. Panels past the stopping one are discarded but
    counted in the evaluations. Returns (value, error, s_end, n_panels,
    n_evals).
    """
    edges = [s0]
    while edges[-1] < min_end and len(edges) <= _TAIL_PANELS:
        edges.append(edges[-1] * _TAIL_GROW)
    n_call = len(edges) - 2 + _TAIL_CHUNK  # the panels ending below min_end
    tail_val = 0.0 + 0.0j
    tail_err = 0.0
    n_tail = 0
    n_evals = 0
    while n_tail < _TAIL_PANELS:
        n_call = min(n_call, _TAIL_PANELS - n_tail)
        while len(edges) <= n_tail + n_call:
            edges.append(edges[-1] * _TAIL_GROW)
        e = np.array(edges[n_tail:n_tail + n_call + 1])
        cvals, cerrs, ev = batch(e[:-1], e[1:])
        n_evals += ev
        for c, c_err, s_end in zip(cvals.tolist(), cerrs.tolist(), e[1:].tolist()):
            tail_val += c
            tail_err += c_err
            n_tail += 1
            target = max(tol_rel * abs(value_a + tail_val), tol_abs)
            if abs(c) <= 0.25 * target and s_end >= min_end:
                return tail_val, tail_err, s_end, n_tail, n_evals
        n_call = _TAIL_CHUNK
    raise QuadratureError(
        f"tail budget {_TAIL_PANELS} geometric panels exhausted at "
        f"s = {s_end:.3e}, last panel {abs(c):.3e}"
    )


def oscillatory_halfline(
    phase: float,
    kernel_id: int,
    Om: float,
    zi: float,
    bcoef: float,
    kappa: float,
    *,
    tol_rel: float = 1e-8,
    tol_abs: float = 1e-300,
) -> QuadratureResult:
    """Evaluate int_0^inf cos(phase*s) K(s) ds for an envelope kernel K
    at z = Om + i zi, zi >= 0 (see _kernels for the convention).

    The mesh may hold _PANEL_BUDGET panels and the oscillatory tail may
    sum _TAIL_HALF_PERIODS half-periods (the envelope tail _TAIL_PANELS
    geometric panels); past either the integral raises QuadratureError.
    The tail never stops before 20 kappa / (bcoef * TAIL_TOL).
    """
    if bcoef <= 0 or kappa <= 0 or Om <= 0 or zi < 0:
        raise ValueError("need Om > 0, zi >= 0, bcoef > 0, kappa > 0")
    phase = abs(float(phase))
    z = complex(Om, zi)
    kohn = Om / kappa
    e0 = abs(1.0 - 1.0 / (Om * z))
    s_peak = math.sqrt(e0 / bcoef)
    q_smooth = max(4.0 * kohn, 12.0 * s_peak)
    s_floor = 20.0 * kappa / (bcoef * TAIL_TOL)

    # the integrand, bound once; panel_batch is looked up on each call so
    # that a wrapper installed on the module sees every evaluation
    def batch(lo, hi):
        return _kernels.panel_batch(
            lo, hi, phase, kernel_id, Om, zi, bcoef, kappa
        )

    n_evals = 0
    if phase * q_smooth >= 2.0:
        branch = "oscillatory"
        halfw = math.pi / phase
        n_half = int(math.ceil(q_smooth / halfw))
        s0 = n_half * halfw
        edges = np.union1d(
            _structure_edges(kohn, s_peak, zi, kappa, s0),
            halfw * np.arange(n_half + 1, dtype=np.float64),
        )
        keep = np.concatenate(([True], np.diff(edges) > 1e-15 * s0))
        edges = edges[keep]
    else:
        branch = "envelope"
        s0 = q_smooth
        edges = _structure_edges(kohn, s_peak, zi, kappa, s0)

    lo, hi = edges[:-1], edges[1:]
    n_mesh = lo.size
    if branch == "oscillatory":
        # the tail always starts with this chunk: evaluate it in the mesh's call
        tail_edges = s0 + halfw * np.arange(_OSC_CHUNK + 1, dtype=np.float64)
        s_end = float(tail_edges[-1])
        lo = np.concatenate((lo, tail_edges[:-1]))
        hi = np.concatenate((hi, tail_edges[1:]))
    vals, errs, ev = batch(lo, hi)
    n_evals += ev
    cvals, cerrs = vals[n_mesh:], errs[n_mesh:]
    lo, hi, vals, errs = lo[:n_mesh], hi[:n_mesh], vals[:n_mesh], errs[:n_mesh]
    lo, hi, vals, errs, ev = _refine(lo, hi, vals, errs, batch, tol_rel, tol_abs)
    n_evals += ev
    value_a = vals.sum()
    err_a = errs.sum()

    if branch == "oscillatory":
        terms: list[complex] = []
        gk_err = 0.0
        while True:
            gk_err += cerrs.sum()
            terms.extend(cvals.tolist())
            n_tail = len(terms)
            psums = np.cumsum(np.asarray(terms, dtype=np.complex128))
            tail_est, acc_err = _euler_limit(psums)
            target = max(tol_rel * abs(value_a + tail_est), tol_abs)
            if acc_err <= 0.3 * target and s_end >= s_floor:
                break
            if n_tail >= _TAIL_HALF_PERIODS:
                raise QuadratureError(
                    f"tail budget {_TAIL_HALF_PERIODS} half-periods exhausted at "
                    f"error {acc_err:.3e}"
                )
            e = s_end + halfw * np.arange(_OSC_CHUNK + 1, dtype=np.float64)
            cvals, cerrs, ev = batch(e[:-1], e[1:])
            n_evals += ev
            s_end = float(e[-1])
        value = value_a + tail_est
        err = err_a + (acc_err + gk_err)
        if kernel_id == KERNEL_RECIPROCAL:
            tail_bound = 2.0 / (bcoef * s_end)
        else:
            tail_bound = 8.0 / (bcoef * s_end**3)
    else:
        # no oscillation to alternate over: geometric panels, then an
        # analytic remainder for the asymptotic envelope -1/(bcoef s^2)
        min_end = max(s_floor, 38.0 * s_peak, 2.0 * s0)
        tail_val, tail_err, s_end, n_tail, ev = _envelope_tail(
            s0, min_end, value_a, batch, tol_rel, tol_abs
        )
        n_evals += ev
        value = value_a + tail_val
        err = err_a + tail_err
        if kernel_id == KERNEL_RECIPROCAL:
            # int_S^inf cos(ps)/s^2 ds = cos(pS)/S - p*(pi/2 - Si(pS))
            rem = (
                math.cos(phase * s_end) / s_end
                - phase * _si_complement(phase * s_end)
            )
            value += -(1.0 / bcoef) * rem
            eps_tail = max(
                abs(_kernels.family_grid(np.array([kappa * s_end]), 0, Om, zi)[0]),
                1.5,
            )
            tail_bound = 3.0 * eps_tail / (bcoef * bcoef * s_end**3)
        else:
            tail_bound = 8.0 / (bcoef * s_end**3)

    return QuadratureResult(
        value=complex(value),
        error=float(err),
        tail_bound=float(tail_bound),
        s_max=float(s_end),
        q_max=float(kappa * s_end),
        n_panels=int(lo.size + n_tail),
        n_evals=int(n_evals),
        n_tail_terms=int(n_tail),
        branch=branch,
    )
