"""Shared numerical kernels: the transverse permittivity family and batched
Legendre fits of the integrand envelope on panels.

One vectorized numpy path. The series/closed-form split is taken once per
call and the logarithm branch of eps_tr at |q| = Om is chosen in one place,
_log_branch, whose result every family member an envelope kernel needs
shares. It computes log((z - q)/(z + q)) in real arithmetic, the
modulus as log1p and the argument as arctan2, which is the principal
branch of the complex logarithm without its complex division, and at
zi = 0 its limit from Im z > 0.
tests/test_kernels.py checks the branch and the family against independent
mpmath oracles and the panel fits against adaptive quadrature.

Conventions used throughout:
  * q is the wavevector scaled by omega_p/v_F, Om = omega/omega_p.
  * Time enters as exp(-i omega t), so z = Om + i*zi with zi = eps =
    nu/omega_p >= 0. zi = 0 is the collisionless limit, taken from
    Im z > 0; _log_branch makes that choice. The mirror convention
    exp(+i omega t) is the complex conjugate of every value (np.conj).
  * The small-argument series in q/z and the closed form are switched at
    |q/z| = 0.1 with a fixed 24-term tail, which keeps the crossover
    error below 1e-13 of the leading term.
"""

from __future__ import annotations

import functools

import numpy as np

# read by perfbench/run.py for its "# meta" line; they select nothing
HAVE_NUMBA = False


def jit_enabled():
    return False


# Kernel selector for the oscillatory integrand envelope.
KERNEL_RECIPROCAL = 0  # 1/D
KERNEL_IBP_EXACT = 1  # (2 D'^2 - D'' D)/D^3, i.e. (1/D)''

SERIES_SWITCH = 0.1
N_SERIES_TERMS = 24

_M = np.arange(N_SERIES_TERMS, dtype=np.float64)
# eps_tr = 1 - (3/(Om z)) sum_m (q/z)^(2m) / ((2m+1)(2m+3)), m = 0..23
SERIES_COEF = 1.0 / ((2.0 * _M + 1.0) * (2.0 * _M + 3.0))
_M1 = _M + 1.0
# term-by-term derivatives of the same series; index j holds m = j + 1
D1_COEF = 2.0 * _M1 / ((2.0 * _M1 + 1.0) * (2.0 * _M1 + 3.0))
D2_COEF = 2.0 * _M1 * (2.0 * _M1 - 1.0) / ((2.0 * _M1 + 1.0) * (2.0 * _M1 + 3.0))

N_LEGENDRE = 24


def _legendre(t):
    """P_0..P_24 at t by recurrence, as legvander without numpy.polynomial's 1 MB."""
    p = np.ones((N_LEGENDRE + 1, t.size))
    p[1] = t
    for k in range(1, N_LEGENDRE):
        p[k + 1] = ((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1)
    return p


@functools.cache
def _legendre_fit():
    """The 24 Gauss-Legendre nodes, ascending, and the matrix that takes
    values at them to the Legendre coefficients of their degree-23
    interpolant; built on first use, which keeps it out of the import.

    The nodes come from Newton's method on P_24 from Tricomi's estimates
    (four steps reach rounding), the weights from 2 / ((1 - t^2)
    P_24'(t)^2). The matrix is the inverse of V = P_k(t_i): the Gauss sums
    c_k = (k + 1/2) sum_i w_i P_k(t_i) f_i and one Newton-Schulz step
    M (2 - V M), which takes the residual |1 - V M| from 6e-15 to 3e-16.
    At 6e-15 the noise in c_21..c_23 can keep a panel from meeting the
    mesh test of quadrature. Products here and in panel_batch use einsum,
    not matmul, whose BLAS buffers would add 0.3 MB to the process.
    """
    t = -np.cos(np.pi * (np.arange(N_LEGENDRE) + 0.75) / (N_LEGENDRE + 0.5))
    for _ in range(6):
        p = _legendre(t)
        dp = N_LEGENDRE * (t * p[-1] - p[-2]) / (t * t - 1.0)
        t = t - p[-1] / dp
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    v = _legendre(t)[:-1]
    m = (v * w * (np.arange(N_LEGENDRE) + 0.5)[:, None]).T
    m += np.einsum("ij,jk->ik", m, np.eye(N_LEGENDRE) - np.einsum("ij,jk->ik", v, m))
    t.flags.writeable = m.flags.writeable = False
    return t, m


def _log_branch(q, Om, zi):
    # the principal log((z - q)/(z + q)) in real arithmetic: the modulus
    # is written as log1p of a non-negative argument, which stays
    # accurate both where the ratio is near 1 and where |z - q| -> |zi|.
    # At zi = 0 the signed zero of 2 zi q makes arctan2 take the limit
    # from Im z > 0: the absorption step +-pi past |q| = Om
    aq = np.abs(q)
    d = Om - aq
    re = np.copysign(0.5 * np.log1p(4.0 * Om * aq / (d * d + zi * zi)), -q)
    im = np.arctan2(2.0 * zi * q, d * (Om + aq) + zi * zi)
    return re + 1j * im


def _series(which, qs, w2, Om, z):
    # one member below the series switch; the pole pair (3) has no series
    if which == 3:
        return -3.0 / (4.0 * Om * qs**3) * ((z + qs) / (z - qs) - (z - qs) / (z + qs))
    coef = (SERIES_COEF, D1_COEF, D2_COEF)[which]
    s = np.zeros(w2.shape, np.complex128)
    for j in range(N_SERIES_TERMS - 1, -1, -1):
        s = s * w2 + coef[j]
    if which == 0:
        return 1.0 - 3.0 / (Om * z) * s
    if which == 1:
        return -3.0 / (Om * z) * (qs / (z * z)) * s
    return -3.0 / (Om * z**3) * s


def _closed(which, qb, q2, z, z2, L, Om):
    # one member above the series switch, from the shared logarithm L
    if which == 3:
        return -3.0 / (4.0 * Om * q2 * qb) * ((z + qb) / (z - qb) - (z - qb) / (z + qb))
    if which == 0:
        return 1.0 - 3.0 / (4.0 * Om * q2 * qb) * (2.0 * z * qb + (z2 - q2) * L)
    if which == 1:
        return 3.0 / (4.0 * Om * q2 * q2) * (6.0 * z * qb + (3.0 * z2 - q2) * L)
    return -3.0 / (4.0 * Om * q2 * q2 * qb) * (
        18.0 * z * qb
        + 2.0 * z * qb * (3.0 * z2 - q2) / (z2 - q2)
        + 2.0 * (6.0 * z2 - q2) * L
    )


def _family_members(q, members, Om, zi):
    """Evaluate several family members (see family_grid) at the float64 nodes q.

    The series/closed-form split and the logarithm branch are computed
    once and shared by every member; returns a list of one array per
    member.
    """
    z = complex(Om, zi)
    outs = [np.empty(q.shape, dtype=np.complex128) for _ in members]
    small = np.abs(q) < SERIES_SWITCH * abs(z)
    if small.any():
        qs = q[small]
        w2 = (qs / z) ** 2
        for which, out in zip(members, outs):
            out[small] = _series(which, qs, w2, Om, z)
    big = ~small
    if big.any():
        qb = q[big]
        q2 = qb * qb
        z2 = z * z
        with np.errstate(divide="ignore", invalid="ignore"):
            # only the pole-pair member (3) does without the logarithm
            L = None if members == (3,) else _log_branch(qb, Om, zi)
            for which, out in zip(members, outs):
                out[big] = _closed(which, qb, q2, z, z2, L, Om)
    return outs


# family members (see family_grid) each envelope kernel needs, eps_tr first
_KERNEL_MEMBERS = {
    KERNEL_RECIPROCAL: (0,),
    KERNEL_IBP_EXACT: (0, 1, 2),
}


def family_grid(q, which, Om, zi, im_sign=1):
    """Evaluate one member of the permittivity family on a 1-d grid.

    which: 0 = eps_tr, 1 = d eps/dq, 2 = d2 eps/dq2, 3 = pole-pair
    approximation of d2 eps/dq2. im_sign = -1 returns the mirror
    convention's values, the complex conjugates; the argument stays
    because perfbench/run.py passes all five positionally.
    """
    q = np.ascontiguousarray(q, dtype=np.float64)
    out = _family_members(q, (which,), float(Om), float(zi))[0]
    return np.conj(out) if im_sign < 0 else out


def envelope_grid(s, kernel_id, Om, zi, bcoef, kappa):
    """Oscillation-free factor of the field integrand on a 1-d grid."""
    s = np.ascontiguousarray(s, dtype=np.float64)
    Om, zi = float(Om), float(zi)
    bcoef, kappa = float(bcoef), float(kappa)
    q = kappa * s
    e, *derivs = _family_members(q, _KERNEL_MEMBERS[kernel_id], Om, zi)
    D = e - bcoef * s * s
    if kernel_id == KERNEL_RECIPROCAL:
        return 1.0 / D
    e1, e2 = derivs
    Dp = kappa * e1 - 2.0 * bcoef * s
    Dpp = kappa * kappa * e2 - 2.0 * bcoef
    return (2.0 * Dp * Dp - Dpp * D) / (D * D * D)


def panel_batch(lo, hi, kernel_id, Om, zi, bcoef, kappa):
    """Legendre fit of the envelope K over a batch of panels [lo, hi].

    K is evaluated at the 24 Gauss-Legendre nodes of each panel. Returns
    (coefficients, truncation, n_evaluations): row i of coefficients holds
    the Legendre coefficients c_0..c_23 of K on panel i in its local
    variable t in [-1, 1], so its integral is 2 h c_0 (h the half-width);
    truncation[i] = 2 h (|c_21| + |c_22| + |c_23|) stands in for what the
    coefficients past c_23 carry, and bounds the integral of the neglected
    part against any weight of modulus at most 1, cos(phase s) included.
    """
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    h = 0.5 * (hi - lo)
    t, to_legendre = _legendre_fit()
    nodes = (lo + h)[:, None] + h[:, None] * t[None, :]
    f = envelope_grid(nodes.ravel(), kernel_id, Om, zi, bcoef, kappa).reshape(nodes.shape)
    coef = np.einsum("ij,jk->ik", f, to_legendre)
    trunc = 2.0 * h * np.abs(coef[:, -3:]).sum(axis=1)
    return coef, trunc, f.size
