"""Shared numerical kernels: the transverse permittivity family and batched
Legendre fits of the integrand envelope on panels.

One vectorized numpy path. The series/closed-form split is taken once per
call and the logarithm branch of eps_tr at |q| = Om is chosen in one place,
_log_branch, whose result every family member an envelope kernel needs
shares. It computes log((z - q)/(z + q)) in real arithmetic, the
modulus as log1p (a difference of logs where its ratio overflows) and
the argument as arctan2, which is the principal branch of the complex
logarithm without its complex division, and at zi = 0 its limit from
Im z > 0.
tests/test_kernels.py checks the branch and the family against independent
mpmath oracles and the panel fits against adaptive quadrature.

Conventions used throughout:
  * q is the wavevector scaled by omega_p/v_F, Om = omega/omega_p.
  * Time enters as exp(-i omega t), so z = Om + i*zi with zi = eps =
    nu/omega_p >= 0. zi = 0 is the collisionless limit, taken from
    Im z > 0; _log_branch makes that choice. The mirror convention
    exp(+i omega t) is the complex conjugate of every value (np.conj).
  * The small-argument series in q/z and the closed form are switched at
    |q/z| = 0.4 with a fixed 24-term tail: there the series is within
    5e-16 of mpmath and the closed form's cancellation costs at most
    4e-13 (d2 eps/dq2). The closed forms are written in w = z/q and
    1/q, so they stay finite out to |q| = 1e300 and past.
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

SERIES_SWITCH = 0.4
N_SERIES_TERMS = 24

_M = np.arange(N_SERIES_TERMS, dtype=np.float64)
# eps_tr = 1 - (3/(Om z)) sum_m (q/z)^(2m) / ((2m+1)(2m+3)), m = 0..23
SERIES_COEF = 1.0 / ((2.0 * _M + 1.0) * (2.0 * _M + 3.0))
_M1 = _M + 1.0
# term-by-term derivatives of the same series; index j holds m = j + 1
D1_COEF = 2.0 * _M1 / ((2.0 * _M1 + 1.0) * (2.0 * _M1 + 3.0))
D2_COEF = 2.0 * _M1 * (2.0 * _M1 - 1.0) / ((2.0 * _M1 + 1.0) * (2.0 * _M1 + 3.0))

N_LEGENDRE = 24
# the series of d2 eps/dq2 takes z**3, which raises OverflowError from
# |z| of about 5.6e102: the cube root of the largest float
_CUBE_MAX = float(np.finfo(np.float64).max) ** (1.0 / 3.0)


def _legendre(t):
    """P_0..P_23 at t by recurrence, as legvander without numpy.polynomial's 1 MB."""
    p = np.ones((N_LEGENDRE, t.size))
    p[1] = t
    for k in range(1, N_LEGENDRE - 1):
        p[k + 1] = ((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1)
    return p


def _gauss_legendre(t, n, steps):
    """Nodes of the n-point Gauss-Legendre rule by Newton's method on P_n
    from the estimates t, and their weights 2 / ((1 - t^2) P_n'(t)^2), with
    P_n' taken at the last step's start: they need one step more than the
    nodes."""
    for _ in range(steps):
        p0, p1 = 1.0, t
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        dp = n * (t * p1 - p0) / (t * t - 1.0)
        t = t - p1 / dp
    return t, 2.0 / ((1.0 - t * t) * dp * dp)


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
    not matmul: matmul sums in another order, which moves the last digits
    of the coefficients and with them the pinned field values and goldens.
    """
    t = -np.cos(np.pi * (np.arange(N_LEGENDRE) + 0.75) / (N_LEGENDRE + 0.5))
    t, w = _gauss_legendre(t, N_LEGENDRE, 6)
    v = _legendre(t)
    m = (v * w * (np.arange(N_LEGENDRE) + 0.5)[:, None]).T
    m += np.einsum("ij,jk->ik", m, np.eye(N_LEGENDRE) - np.einsum("ij,jk->ik", v, m))
    t.flags.writeable = m.flags.writeable = False
    return t, m


def _log_branch(q, Om, zi):
    # the principal log((z - q)/(z + q)) in real arithmetic, with no power
    # of q, so that no |q| overflows it. The real part is
    # -sign(q) log1p(4 Om |q| / m^2) / 2 with m = hypot(Om - |q|, zi),
    # accurate both where the ratio is near 1 and where m -> zi; the
    # imaginary part is the argument of (z - q)(conj(z) + q) = Om^2 +
    # zi^2 - q^2 + 2 i zi q, both parts divided by Om + |q|. At zi = 0 the
    # signed zero of zi q makes arctan2 take the limit from Im z > 0: the
    # absorption step +-pi past |q| = Om. Where the ratio overflows (zi
    # below about 1e-154 Om at |q| = Om), 1 + ratio = (s^2 + zi^2) / m^2
    # gives the log1p as 2 (log hypot(s, zi) - log m)
    aq = np.abs(q)
    d = Om - aq
    s = Om + aq
    m = np.hypot(d, zi)
    with np.errstate(over="ignore"):
        lg = np.log1p(4.0 * Om / m * (aq / m))
    over = ~np.isfinite(lg)
    if over.any():
        lg[over] = 2.0 * (np.log(np.hypot(s[over], zi)) - np.log(m[over]))
    re = np.copysign(0.5 * lg, -q)
    im = np.arctan2(2.0 * zi * (q / s), d + zi * (zi / s))
    return re + 1j * im


def _series(which, qs, w2, Om, z):
    # eps_tr (0) or one of its first two q-derivatives below the series switch
    coef = (SERIES_COEF, D1_COEF, D2_COEF)[which]
    s = np.zeros(w2.shape, np.complex128)
    for j in range(N_SERIES_TERMS - 1, -1, -1):
        s = s * w2 + coef[j]
    if which == 0:
        return 1.0 - 3.0 / (Om * z) * s
    if which == 1:
        return -3.0 / (Om * z) * (qs / (z * z)) * s
    return -3.0 / (Om * z**3) * s


def _pole_pair(q, z, Om):
    # -3 w / (Om q^3 (w^2 - 1)), w = z/q: the terms of d2 eps/dq2 that blow
    # up at q = +-z. Exact, so it serves every q; z - q keeps its digits
    # at the poles and 1/q^2 is the only power of q
    p = 1.0 / q
    return -3.0 / Om * p * p * (z / (z - q)) / (z + q)


def _closed(which, q, z, L, Om):
    # one member above the series switch from the shared logarithm L, in
    # w = z/q and p = 1/q, so that no power of q overflows
    p = 1.0 / q
    w = z * p
    if which == 0:
        return 1.0 - 0.75 * p / Om * (2.0 * w + (w * w - 1.0) * L)
    if which == 1:
        return 0.75 * p * p / Om * (6.0 * w + (3.0 * w * w - 1.0) * L)
    return _pole_pair(q, z, Om) - 1.5 * p**3 / Om * (12.0 * w + (6.0 * w * w - 1.0) * L)


def _family_members(q, members, Om, zi):
    """Evaluate several family members (see family_grid) at the float64 nodes q.

    The series/closed-form split and the logarithm branch are computed
    once and shared by every member; returns a list of one array per
    member.
    """
    z = complex(Om, zi)
    outs = [np.empty(q.shape, dtype=np.complex128) for _ in members]
    small = np.abs(q) < SERIES_SWITCH * abs(z)
    big = ~small
    qs, qb = q[small], q[big]
    if 2 in members and qs.size and abs(z) > _CUBE_MAX:
        raise ValueError(f"eps = {zi:g} is too large for d2 eps/dq2: its series takes "
                         f"|Omega + i eps|^3, which overflows past |Omega + i eps| = "
                         f"{_CUBE_MAX:.4g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        # only the pole-pair member (3) does without the logarithm
        L = None if members == (3,) or not qb.size else _log_branch(qb, Om, zi)
        for which, out in zip(members, outs):
            if which == 3:
                out[:] = _pole_pair(q, z, Om)
                continue
            if qs.size:
                out[small] = _series(which, qs, (qs / z) ** 2, Om, z)
            if qb.size:
                out[big] = _closed(which, qb, z, L, Om)
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
