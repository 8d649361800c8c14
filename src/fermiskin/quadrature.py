"""Filon-Legendre quadrature for the half-line cosine integrals of the field.

The target integrals have the shape

    I(phase) = int_0^inf cos(phase * s) K(s) ds

where K is one of the envelope kernels of _kernels (reciprocal
denominator or its second derivative). K is smooth except for
a logarithmic structure at s = Om/kappa, decays like 1/(bcoef s^2) (or
faster for the integrated-by-parts kernel), and the phase can range from
0 to ~1e6. K does not depend on the depth; only cos(phase s) does. So one
mesh of K serves every depth, as in Filon's rule (Proc. R. Soc. Edinb. 49,
38, 1928; error and stability theory in Iserles & Norsett, Proc. R. Soc. A
461, 1383, 2005):

* The mesh. Panels at the structure points (_structure_edges) up to
  q_smooth, then 20 geometric panels [s, 1.585 s] out to S = 1e4 q_smooth.
  _kernels.panel_batch fits K on each panel by its Legendre interpolant
  c_0..c_23 at 24 Gauss-Legendre nodes. A panel is bisected until its
  truncation 2h (|c_21| + |c_22| + |c_23|) (h the half-width) is at most
  _FLOOR times the largest panel integral |2 h c_0|. _FLOOR = 1e-14 is
  the rounding level of both kernels, below which the noise in
  c_21..c_23 keeps bisection from going; the accuracy of a depth is the
  error bar below. Past _PANEL_BUDGET panels the mesh raises
  QuadratureError. Meshes are cached per (kernel, Om, zi, bcoef, kappa),
  _MESH_CACHE of them.
* Each depth. The plane-wave expansion e^(iwt) = sum_k (2k + 1) i^k
  j_k(w) P_k(t) gives int_{-1}^{1} P_k(t) e^(iwt) dt = 2 i^k j_k(w), so a
  panel of midpoint c contributes
  h sum_k c_k 2 j_k(phase h) cos(phase c + k pi/2). _sph_bessel's table of
  j_k(phase h) is one matrix product on each side of phase h = 40: below,
  a 56-point Gauss-Legendre rule for that integral; above, the finite
  Hankel sum of j_k. The table is within 8.3e-16 of j_k. The mesh keeps
  h, c and the products of h with the rule's nodes as one array, so every
  cos and sin of a depth (of phase c, of phase h and at the nodes) comes
  from one tan of the half angle; and it keeps 2 h c_k, signed for those
  cosines, as real and imaginary rows and their modulus, so one product
  gives the sum and the magnitudes of its terms.
* Past S, K is replaced by its asymptote -1/(bcoef s^2) (or -6/(bcoef s^4)
  for (1/D)''), whose cosine integral is closed form in the sine integral.

The error bar, QuadratureResult.error plus tail_bound, has three parts:

* Legendre truncation: the panels' truncations summed, which bound the
  neglected part of each fit against cos(phase s) at any phase;
* rounding: _FLOOR times the summed magnitudes of the panel terms
  h |c_k| |2 j_k| and of the closed-form tail's terms;
* tail_bound: the integral of |K - asymptote| past S, from
  K - asymptote = O(|eps_tr| / (bcoef^2 s^4)) for 1/D (its second
  derivative for (1/D)'').
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import KERNEL_RECIPROCAL, N_LEGENDRE

# mesh panels allowed before failing
_PANEL_BUDGET = 20000
# the mesh ends at S = _S_END q_smooth, reached by _N_GRADED geometric
# panels [s, 1.585 s]
_S_END = 1e4
_N_GRADED = 20
# the kernels' rounding level per unit of panel magnitude: the mesh is
# refined down to it, and the error carries it
_FLOOR = 1e-14
_MESH_CACHE = 32
_MACH_EPS = float(np.finfo(np.float64).eps)
# the sign of cos(x + k pi/2) against cos(x) for even k, sin(x) for odd k
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0] * (N_LEGENDRE // 4))
# _sph_bessel: a Gauss-Legendre sum below _HANKEL_FROM, the Hankel sum above
_GAUSS_NODES = 56
_HANKEL_FROM = 40.0
_POWERS = -np.arange(1.0, N_LEGENDRE + 1)[:, None]
# lengths per panel in _lengths: h, c and h t_i for the positive nodes t_i
_LENGTHS = 2 + _GAUSS_NODES // 2


class QuadratureError(RuntimeError):
    """The integral could not be brought within budget."""


class QuadratureResult(NamedTuple):
    value: complex
    error: float  # Legendre truncation plus rounding
    tail_bound: float  # |K - asymptote| integrated past s_max
    s_max: float
    q_max: float
    n_panels: int
    n_evals: int  # kernel evaluations of the mesh, made once per cached mesh
    n_tail_terms: int  # 0: the tail past s_max is closed form
    branch: str  # "filon"


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


def _by_parity(a: np.ndarray) -> np.ndarray:
    """The rows k of a in parity order, shaped (2, N_LEGENDRE // 2, ...):
    row k at [k % 2, k // 2]."""
    return a.reshape(N_LEGENDRE // 2, 2, *a.shape[1:]).swapaxes(0, 1)


@functools.cache
def _bessel_constants():
    """The fixed matrices of _sph_bessel, built on first use: the positive
    nodes t_i of the _GAUSS_NODES-point Gauss-Legendre rule (Newton from
    Tricomi's estimates; four steps take the weights to rounding), the
    columns (-1)^(k//2) W_i P_k(t_i) (W_i the weights) for even k, then odd
    k, and the coefficients of (w/2)^-(m+1) cos(w), then sin(w), column m,
    in the Hankel sum of j_k(w), rows in the same order."""
    t = np.cos(np.pi * (np.arange(_GAUSS_NODES // 2) + 0.75) / (_GAUSS_NODES + 0.5))
    t, w = _kernels._gauss_legendre(t, _GAUSS_NODES, 4)
    # (-1)^(k//2) (i^-k for even k, i^(1-k) for odd k): even k on cos(w t), odd k on sin(w t)
    sign = (-1.0) ** (np.arange(N_LEGENDRE) // 2)[:, None]
    gauss = _by_parity(_kernels._legendre(t) * w * sign).swapaxes(1, 2)
    k, m = np.ogrid[:N_LEGENDRE, :N_LEGENDRE]
    # a_km = (k+m)! / (m! (k-m)! 4^m 2), zero past m = k
    step = (k + m + 1) * (k - m) / (4.0 * (m + 1))
    a = np.cumprod(np.hstack((np.full((N_LEGENDRE, 1), 0.5), step[:, :-1])), axis=1)
    # (-i)^(k+1) i^m e^(iw) has the real part cos(w + p pi/2), p = m - k - 1
    p = (m - k - 1) % 4
    hankel = np.hstack((np.where(p % 2, 0.0, (1 - p) * a), np.where(p % 2, (p - 2) * a, 0.0)))
    hankel = _by_parity(hankel).reshape(N_LEGENDRE, -1)
    return tuple(map(_frozen, (t, gauss, hankel)))


def _lengths(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """What a phase multiplies into every angle of _sph_bessel: the panel
    half-widths h, then the midpoints c, then h t_i for each h, t_i the
    positive nodes of its Gauss rule."""
    return np.concatenate((h, c, (h[:, None] * _bessel_constants()[0]).ravel()))


def _sph_bessel(phase: float, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """j_k(w), k < N_LEGENDRE, for w = phase h, from _lengths(h, c) with h
    ascending and >= 0, as the (2, N_LEGENDRE // 2, h.size) table in parity
    order (j_k at [k % 2, k // 2]); and the rows cos(phase c), sin(phase c).

    Below w = _HANKEL_FROM, a prefix of w, the Gauss-Legendre sum of
    2 i^k j_k(w) = int_{-1}^{1} P_k(t) e^(iwt) dt on the positive nodes:
    cos(w t) for even k, sin(w t) for odd k. From there on, the finite
    Hankel sum
    j_k(w) = Re[(-i)^(k+1) e^(iw)/w sum_{m<=k} (k+m)!/(m!(k-m)!) (i/2w)^m]
    in powers of 2/w. Each side is one matrix product over all its w. Every
    cosine and sine, of w, of phase c and of w t on the Gauss side, comes
    from one tan sweep of the half angles. Absolute error at most 8.3e-16 on
    the Gauss side (the poles of the half angle's tan included) and 4.8e-16
    on the Hankel side, measured against 40-digit mpmath on [0, 2e3]: the
    Gauss rule loses digits above w = 40, the Hankel sum to cancellation
    below it.
    """
    _, gauss, hankel = _bessel_constants()
    n = lengths.size // _LENGTHS
    trig = np.empty((2, lengths.size))
    half = np.multiply(0.5 * phase, lengths, out=trig[0])
    m = half[:n].searchsorted(0.5 * _HANKEL_FROM)
    if m < n:
        powers = half[m:n] ** _POWERS
    # cos and sin of an angle from s = tan(angle / 2): 1 + cos = 2 / (1 + s^2)
    # and sin = s (1 + cos); the Gauss side ends the lengths, so the angles
    # w t_i of w >= 40 are left out
    g = lengths.size - (n - m) * (_GAUSS_NODES // 2)
    cos, sin = trig[0, :g], trig[1, :g]
    np.tan(cos, out=sin)
    np.square(sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0
    table = np.empty((2, N_LEGENDRE // 2, n))
    if m:
        np.matmul(trig[:, 2 * n:g].reshape(2, m, -1), gauss, out=table[..., :m].swapaxes(1, 2))
    if m < n:
        x = powers * trig[:, None, m:n]
        np.matmul(hankel, x.reshape(2 * N_LEGENDRE, -1), out=table.reshape(N_LEGENDRE, n)[:, m:])
    return table, trig[:, n:2 * n]


def _ascending_distinct(a: np.ndarray, gap: float = 0.0) -> np.ndarray:
    """a sorted, keeping each value that exceeds the one before it by more
    than gap: np.unique at gap = 0, without the numpy.ma it loads."""
    a = np.sort(a)
    return a[np.concatenate(([True], np.diff(a) > gap))]


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
    return _ascending_distinct(arr, 1e-15 * a_end)


def _s_peak(Om: float, zi: float, bcoef: float) -> float:
    return math.sqrt(abs(1.0 - 1.0 / (Om * complex(Om, zi))) / bcoef)


class _Mesh(NamedTuple):
    """A Legendre mesh of one kernel, panels in ascending half-width h.

    lengths holds the half-widths h, then the midpoints c, then the
    products of each h with the nodes of _sph_bessel (_lengths). The
    weights W are 2 h c_k times the sign of cos(phase c + k pi/2) against
    cos(phase c) (k even) or sin(phase c) (k odd), in the order of
    _sph_bessel's table (k % 2, k // 2, panel), flattened; weights holds the
    rows Re W, Im W and |W|. Every array is read-only."""

    lengths: np.ndarray
    weights: np.ndarray
    trunc: float
    s_end: float
    remainder: float
    n_evals: int


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_MESH_CACHE)
def _mesh(kernel_id: int, Om: float, zi: float, bcoef: float, kappa: float) -> _Mesh:
    kohn = Om / kappa
    s_peak = _s_peak(Om, zi, bcoef)
    q_smooth = max(4.0 * kohn, 12.0 * s_peak)
    s_end = _S_END * q_smooth
    edges = _ascending_distinct(np.concatenate((
        _structure_edges(kohn, s_peak, zi, kappa, q_smooth),
        np.geomspace(q_smooth, s_end, _N_GRADED + 1),
    )))
    lo, hi = edges[:-1], edges[1:]
    args = (kernel_id, Om, zi, bcoef, kappa)
    # panel_batch is looked up on each call so that a wrapper installed on
    # the module sees every evaluation
    coef, trunc, n_evals = _kernels.panel_batch(lo, hi, *args)
    while True:
        split = trunc > _FLOOR * np.abs((hi - lo) * coef[:, 0]).max()
        if not split.any():
            break
        if lo.size + int(split.sum()) > _PANEL_BUDGET:
            root = ((1.0 - 1.0 / (Om * complex(Om, zi))) / bcoef) ** 0.5
            raise QuadratureError(
                f"panel budget {_PANEL_BUDGET} exhausted at error {trunc.sum():.3e}" + (
                    f"; at Omega = {Om:g} > 1 the denominator has a zero just above the real axis,"
                    f" the transmitted light wave at s = {root:.4g}" if Om > 1 else ""))
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate((lo[split], mid))
        child_hi = np.concatenate((mid, hi[split]))
        ccoef, ctrunc, ev = _kernels.panel_batch(child_lo, child_hi, *args)
        n_evals += ev
        lo = np.concatenate((lo[~split], child_lo))
        hi = np.concatenate((hi[~split], child_hi))
        coef = np.concatenate((coef[~split], ccoef))
        trunc = np.concatenate((trunc[~split], ctrunc))
    h = 0.5 * (hi - lo)
    order = np.argsort(h, kind="stable")
    h, c = h[order], (lo + h)[order]
    weights = _by_parity((coef[order] * (2.0 * h)[:, None] * _SIGNS).T).ravel()
    # past s_end, where bcoef s^2 exceeds |eps_tr| 1e8-fold, K - asymptote
    # is -eps_tr / (bcoef^2 s^4) for 1/D and about -20 eps_tr / (bcoef^2
    # s^6) for (1/D)''; |eps_tr| -> 1 falls past s_end, and the bound
    # exceeds both integrals 7- to 12-fold (measured against mpmath)
    eps_end = abs(_kernels.family_grid(np.array([kappa * s_end]), 0, Om, zi)[0])
    remainder = 3.0 * max(eps_end, 1.5) / (bcoef * bcoef * s_end**3)
    if kernel_id != KERNEL_RECIPROCAL:
        remainder *= 12.0 / (s_end * s_end)
    return _Mesh(
        lengths=_frozen(_lengths(h, c)),
        weights=_frozen(np.stack((weights.real, weights.imag, np.abs(weights)))),
        trunc=float(trunc.sum()),
        s_end=s_end,
        remainder=float(remainder),
        n_evals=int(n_evals),
    )


def _asymptote_tail(phase: float, s_end: float, bcoef: float, kernel_id: int):
    """int_S^inf cos(phase s) A(s) ds for the asymptote A = -1/(bcoef s^2)
    (kernel 0) or -6/(bcoef s^4) (kernel 1), as the list of terms that sum
    to it; their magnitudes enter the rounding estimate."""
    x = phase * s_end
    cos_x = math.cos(x)
    # C2 = int_S^inf cos(phase s) / s^2 ds, by parts down to pi/2 - Si
    c2 = (cos_x / s_end, -phase * _si_complement(x))
    if kernel_id == KERNEL_RECIPROCAL:
        return [-t / bcoef for t in c2]
    # C4 = cos(x) / (3 S^3) - phase sin(x) / (6 S^2) - phase^2 C2 / 6
    c4 = (cos_x / (3.0 * s_end**3), -phase * math.sin(x) / (6.0 * s_end**2),
          *(-phase * phase * t / 6.0 for t in c2))
    return [-6.0 * t / bcoef for t in c4]


def oscillatory_halfline(
    phase: float,
    kernel_id: int,
    Om: float,
    zi: float,
    bcoef: float,
    kappa: float,
) -> QuadratureResult:
    """Evaluate int_0^inf cos(phase*s) K(s) ds for an envelope kernel K
    at z = Om + i zi, zi >= 0 (see _kernels for the convention).

    Every phase, 0 included, is summed on the kernel's cached mesh (see the
    module docstring); only the first call for a mesh evaluates K. The
    integrated-by-parts kernel (1) raises ValueError at zi = 0, below a
    phase of 1e-9 / s_peak and where the phase squared is not finite, and
    every kernel raises ValueError where phase times the mesh end is not
    finite. A mesh that needs more than _PANEL_BUDGET panels raises
    QuadratureError.
    """
    if bcoef <= 0 or kappa <= 0 or Om <= 0 or zi < 0:
        raise ValueError("need Om > 0, zi >= 0, bcoef > 0, kappa > 0")
    phase = abs(float(phase))
    if kernel_id != KERNEL_RECIPROCAL:
        s_peak = _s_peak(Om, zi, bcoef)
        if zi == 0.0 or phase * s_peak < 1e-9:
            # (1/D)'' has a pole at s = kohn when zi = 0; below the threshold
            # its integral, -phase^2 times the reciprocal kernel's, sinks
            # under its own rounding floor
            raise ValueError(
                f"integrated-by-parts kernel: need eps > 0 (zi = {zi:g}) and a phase "
                f"of at least 1e-9 / s_peak = {1e-9 / s_peak:.3g} "
                f"(phase = {phase:g}; x = 0 has phase 0)"
            )
    mesh = _mesh(kernel_id, float(Om), float(zi), float(bcoef), float(kappa))
    if not math.isfinite(phase * mesh.s_end):
        raise ValueError(
            f"phase {phase:g} times the mesh end S = {mesh.s_end:.3g} is not finite"
        )
    if kernel_id != KERNEL_RECIPROCAL and not math.isfinite(phase * phase):
        # the asymptote's tail of (1/D)'' carries phase^2
        raise ValueError(f"integrated-by-parts kernel: phase {phase:g} squared is not finite")
    table, trig = _sph_bessel(phase, mesh.lengths)
    n = table.shape[-1]
    # the panel terms, then |table|: one product gives Re and Im of the sum
    # and the summed term magnitudes
    terms = np.empty((2, N_LEGENDRE * n))
    np.multiply(table, trig[:, None], out=terms[0].reshape(table.shape))
    np.abs(table, out=terms[1].reshape(table.shape))
    (re, _), (im, _), (_, magnitude) = (mesh.weights @ terms.T).tolist()
    tail = _asymptote_tail(phase, mesh.s_end, bcoef, kernel_id)
    value = complex(re, im) + sum(tail)
    return QuadratureResult(
        value=value,
        error=mesh.trunc + _FLOOR * (magnitude + sum(abs(t) for t in tail)),
        tail_bound=mesh.remainder,
        s_max=mesh.s_end,
        q_max=kappa * mesh.s_end,
        n_panels=n,
        n_evals=mesh.n_evals,
        n_tail_terms=0,
        branch="filon",
    )
