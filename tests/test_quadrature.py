"""Engine checks against independent oracles.

scipy is deliberately kept out of the runtime integration path; here it
arbitrates: QAWO for the oscillatory weight, plain QAGS for phase 0,
spherical_jn for the Bessel table and sici for the sine integral. The
error bar is checked against a mesh refined to 1e-15 of its largest panel
integral, and the remainder past the mesh against the mpmath permittivity
of conftest and, over the field's parameter grid, a float form of it.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from conftest import _mp_eps_tr
from scipy.integrate import IntegrationWarning, quad
from scipy.special import sici, spherical_jn

import fermiskin._kernels as k
from fermiskin import quadrature
from fermiskin.field import field_ratio_rescaled
from fermiskin.materials import get_material, params_for
from fermiskin.quadrature import QuadratureError, oscillatory_halfline


@pytest.fixture(scope="module")
def na_params():
    return params_for(get_material("na"), 1e-2, 1e-4)


def _qawo(p, phase, kernel_id, *, upper=40.0):
    """QAWO over [0, upper] split at the Kohn point, plus the asymptote's
    cosine integral past upper. At zi = 0 K has a logarithmic zero at the
    Kohn point, which QAWO's end-point nodes must not hit, so a band of
    1e-13 of it is left out (K is bounded there)."""

    def part(re, a, b):
        def f(s):
            v = k.envelope_grid(np.array([s]), kernel_id, p.Omega, p.eps, p.b, 1.0)[0]
            return v.real if re else v.imag

        args = dict(weight="cos", wvar=phase, limit=4000, epsabs=1e-22, epsrel=1e-13)
        with warnings.catch_warnings():
            # tolerances are pushed past what QAWO will certify; the
            # value it returns anyway is what we want
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(f, a, b, **args)[0]

    kohn = p.Omega
    pts = [0.0, kohn * (1 - 1e-13), kohn * (1 + 1e-13), 2.0, upper]
    out = sum(
        complex(part(True, a, b), part(False, a, b))
        for i, (a, b) in enumerate(zip(pts[:-1], pts[1:]))
        if i != 1
    )
    return out + sum(quadrature._asymptote_tail(phase, upper, p.b, kernel_id))


def _scipy_env(p, kernel_id):
    def part(re):
        def f(s):
            v = k.envelope_grid(np.array([s]), kernel_id, p.Omega, p.eps, p.b, 1.0)[0]
            return v.real if re else v.imag

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            lo, _ = quad(f, 0.0, 2.0, limit=2000, epsabs=1e-18, epsrel=1e-13,
                         points=[p.Omega, 2 * p.Omega])
            hi, _ = quad(f, 2.0, np.inf, limit=2000, epsabs=1e-18, epsrel=1e-13)
        return lo + hi

    return complex(part(True), part(False))


def _reference(args, floor):
    """The same integral on a mesh refined to `floor` of its largest
    panel integral."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_FLOOR", floor)
        quadrature._mesh.cache_clear()
        ref = oscillatory_halfline(*args)
    quadrature._mesh.cache_clear()
    return ref


def _table(w):
    """_sph_bessel's table at an ascending w, rows in k order, with its
    cos and sin of the midpoints, here w itself."""
    table, trig = quadrature._sph_bessel(1.0, quadrature._lengths(w, w))
    return table.swapaxes(0, 1).reshape(k.N_LEGENDRE, -1), trig


@pytest.mark.parametrize(
    "w",
    [np.array([0.0]), np.array([1e-300, 1e-10, 1e-4]),
     np.sort(np.concatenate((np.geomspace(1e-3, 1e5, 400),
                             [math.pi, 2 * math.pi, 4.493409457909064, 23.999999, 24.0])))],
    ids=["zero", "tiny", "grid"],
)
def test_bessel_table_against_scipy(w):
    # the Gauss sum below w = 40 and the Hankel sum above, near zero and
    # at the zeros of j_0 and j_1; the cos and sin of the same tan sweep
    got, trig = _table(w)
    want = np.array([spherical_jn(n, w) for n in range(k.N_LEGENDRE)])
    assert np.all(np.abs(got - want) <= 4e-15 + 1e-12 * np.abs(want))
    assert np.all(np.abs(trig - (np.cos(w), np.sin(w))) <= 1e-15)


def _mp_sph_bessel(w):
    # j_k(w) = sqrt(pi / (2 w)) J_(k+1/2)(w) for the top two k, then the
    # recurrence j_(k-1) = (2k + 1) j_k / w - j_(k+1) downwards, in which
    # j_k is the dominant solution, at 40 digits
    n = k.N_LEGENDRE
    if w == 0.0:
        return [1.0] + [0.0] * (n - 1)
    with mpmath.workdps(40):
        x = mpmath.mpf(w)
        f = mpmath.sqrt(mpmath.pi / (2 * x))
        j = [f * mpmath.besselj(m + mpmath.mpf(0.5), x) for m in (n - 1, n - 2)]
        for m in range(n - 2, 0, -1):
            j.append((2 * m + 1) / x * j[-1] - j[-2])
        return [float(v) for v in reversed(j)]


def test_bessel_table_against_mpmath():
    # both sides of the split at w = 40, the zeros of j_0 (n pi) and of j_1
    # (tan w = w) on either side of it, a dense grid on both sides out to
    # 2e3, and the poles of the Gauss side's half-angle tan: each w below 40
    # with w t_i = (2j + 1) pi for a positive node t_i (113 of them), with
    # its two neighbouring floats; ascending as the table requires (the
    # Gauss side is the prefix below w = 40)
    with mpmath.workdps(40):
        j1_zeros = [float(mpmath.findroot(lambda x: mpmath.tan(x) - x, (n + 0.5) * mpmath.pi
                                          - 1 / ((n + 0.5) * mpmath.pi)))
                    for n in (1, 2, 7, 12, 13, 600)]
    t = quadrature._bessel_constants()[0]
    poles = np.pi * np.arange(1, quadrature._HANKEL_FROM / np.pi, 2)[:, None] / t
    poles = poles[poles < quadrature._HANKEL_FROM]
    assert poles.size == 113
    w = np.concatenate((
        [0.0, 1e-300, 1e-10, 1e-4],
        np.geomspace(1e-3, 2e3, 120),
        np.linspace(39.5, 40.5, 11), [np.nextafter(quadrature._HANKEL_FROM, 0.0)],
        np.pi * np.array([1, 2, 12, 13, 600]), j1_zeros,
        np.linspace(0.0, 40.0, 800)[1:-1], np.linspace(40.0, 80.0, 401),
        np.geomspace(80.0, 2e3, 101)[1:],
        np.nextafter(poles, 0.0), poles, np.nextafter(poles, np.inf),
    ))
    w = np.sort(w)
    got, _ = _table(w)
    want = np.array([_mp_sph_bessel(x) for x in w]).T
    err = np.abs(got - want)
    assert err.max() <= 1e-15, (w[err.max(axis=0).argmax()], err.max())


def _distinct_by_unique(a, gap=0.0):
    # the edge removal as np.unique (np.union1d of two arrays is np.unique
    # of their concatenation) followed by the gap mask
    u = np.unique(a)
    return u[np.concatenate(([True], np.diff(u) > gap))]


@pytest.mark.parametrize("kernel_id", [k.KERNEL_RECIPROCAL, k.KERNEL_IBP_EXACT])
def test_mesh_edges_match_union1d(monkeypatch, kernel_id):
    # the mesh removes duplicate edges with a sort and one adjacent-difference
    # mask, not np.unique or np.union1d (which load numpy.ma): over a grid of
    # plasmas, the first edges and the whole mesh are bit-identical
    def build(distinct, p):
        first = []
        batch = k.panel_batch

        def recorded(lo, hi, *args):
            if not first:
                first.append(np.append(lo, hi[-1]))
            return batch(lo, hi, *args)

        with monkeypatch.context() as mp:
            mp.setattr(quadrature, "_ascending_distinct", distinct)
            mp.setattr(k, "panel_batch", recorded)
            mesh = quadrature._mesh.__wrapped__(kernel_id, p.Omega, p.eps, p.b, 1.0)
        return first[0], mesh

    for name, Omega, eps in itertools.product(("na", "au", "al"), (1e-4, 1e-2, 0.5),
                                              (0.0, 1e-4, 1e-2)):
        if kernel_id == k.KERNEL_IBP_EXACT and eps == 0.0:
            continue
        p = params_for(get_material(name), Omega, eps)
        edges, mesh = build(quadrature._ascending_distinct, p)
        want_edges, want = build(_distinct_by_unique, p)
        assert np.array_equal(edges, want_edges), (name, Omega, eps)
        for got_field, want_field in zip(mesh, want):
            assert np.array_equal(got_field, want_field), (name, Omega, eps)


@pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 3.9, 4.0, 4.1, 10.0, 1e3, 1e6])
def test_si_complement_against_scipy(x):
    si, _ = sici(x)
    assert quadrature._si_complement(x) == pytest.approx(0.5 * math.pi - si, rel=1e-13,
                                                          abs=1e-15)


def _mp_asymptote_tail(phase, s_end, bcoef, kernel_id):
    # C2 = int_S^inf cos(p s) / s^2 ds = cos(pS)/S - p (pi/2 - Si(pS)) and
    # C4 = cos(pS)/(3 S^3) - p sin(pS)/(6 S^2) - p^2 C2 / 6, by parts, at
    # 40 digits with mpmath's own sine integral
    with mpmath.workdps(40):
        p, S, b = mpmath.mpf(phase), mpmath.mpf(s_end), mpmath.mpf(bcoef)
        c2 = mpmath.cos(p * S) / S - p * (mpmath.pi / 2 - mpmath.si(p * S))
        if kernel_id == 0:
            return float(-c2 / b)
        c4 = (mpmath.cos(p * S) / (3 * S**3) - p * mpmath.sin(p * S) / (6 * S**2)
              - p * p * c2 / 6)
        return float(-6 * c4 / b)


@pytest.mark.parametrize("kernel_id", [0, 1])
def test_asymptote_tail_formula_by_quadrature(kernel_id):
    # the by-parts closed form against mpmath's oscillatory quadrature
    bcoef, s_end, phase = 2.5, 3.0, 1.0
    power, scale = (2, 1.0) if kernel_id == 0 else (4, 6.0)
    with mpmath.workdps(20):
        want = mpmath.quadosc(lambda s: -scale * mpmath.cos(phase * s) / (bcoef * s**power),
                              [s_end, mpmath.inf], omega=phase)
    assert _mp_asymptote_tail(phase, s_end, bcoef, kernel_id) == pytest.approx(
        float(want), rel=1e-14)


@pytest.mark.parametrize("kernel_id", [0, 1])
@pytest.mark.parametrize("phase", [0.0, 0.3, 3.0, 30.0, 1e4])
def test_asymptote_tail_against_mpmath(kernel_id, phase):
    # the float closed form: its terms cancel as (phase S)^2 for the
    # second kernel, which the rounding part of the error bar carries as
    # 1e-14 of their summed magnitudes
    bcoef, s_end = 2.5, 3.0
    want = _mp_asymptote_tail(phase, s_end, bcoef, kernel_id)
    terms = quadrature._asymptote_tail(phase, s_end, bcoef, kernel_id)
    assert abs(sum(terms) - want) <= 1e-14 * sum(abs(t) for t in terms)


# (material, Omega, eps, u, kernel_id) against QAWO: the skin and mid zone
# for both kernels, the far zone of figures 2-4 at eps = 0
_QAWO_CASES = [
    *((m, 1e-2, 1e-4, u, kid) for m, u, kid in itertools.product(
        ("na", "al"), (0.03, 0.3, 3.0, 30.0, 100.0), (0, 1))),
    ("al", 1e-2, 0.0, 1000.0, 0),
    ("al", 1e-3, 0.0, 300.0, 0),
    ("au", 1e-4, 0.0, 100.0, 0),
]


@pytest.mark.parametrize("material,Omega,eps,u,kernel_id", _QAWO_CASES)
def test_against_qawo(material, Omega, eps, u, kernel_id):
    # QAWO's own rounding reaches about 1e-13 of the phase-0 integral of
    # the reciprocal kernel, |I(0)|; at u = 100 that is 5e-8 of the value,
    # where a brute-force 24-point Gauss sum on 2e-4-wide panels agrees with
    # the engine to 1.8e-10
    p = params_for(get_material(material), Omega, eps)
    phase = u / Omega
    res = oscillatory_halfline(phase, kernel_id, Omega, eps, p.b, 1.0)
    ref = _qawo(p, phase, kernel_id)
    scale = abs(oscillatory_halfline(0.0, 0, Omega, eps, p.b, 1.0).value)
    if kernel_id == 1:
        scale *= phase * phase  # int (1/D)'' cos = -phase^2 int cos / D
    assert abs(res.value - ref) <= 1e-8 * abs(ref) + 1e-12 * scale


def test_phase_zero_against_qags(na_params):
    p = na_params
    res = oscillatory_halfline(0.0, 0, p.Omega, p.eps, p.b, 1.0)
    ref = _scipy_env(p, 0)
    assert abs(res.value - ref) <= 1e-7 * abs(ref)


# the error bar against a 1e-15 mesh, ten times finer than the production
# floor, over the skin, mid and far zones
_BAR_CASES = [
    (m, Om, eps, u, kid)
    for m, Om, eps, u, kid in itertools.product(
        ("na", "au", "al"), (1e-4, 1e-3, 1e-2), (0.0, 1e-4),
        (0.01, 0.3, 10.0, 300.0, 2000.0), (0, 1))
    if kid == 0 or (eps > 0.0 and Om == 1e-2)
]


@pytest.mark.parametrize("material,Omega,eps,u,kernel_id", _BAR_CASES)
def test_error_bar_covers_a_finer_mesh(material, Omega, eps, u, kernel_id):
    p = params_for(get_material(material), Omega, eps)
    args = (u / Omega, kernel_id, Omega, eps, p.b, 1.0)
    res = oscillatory_halfline(*args)
    ref = _reference(args, 1e-15)
    assert abs(res.value - ref.value) <= res.error + res.tail_bound


def _mp_remainder(p, kernel_id, s_end):
    """int_S^inf |K - asymptote| ds at 30 digits, from the mpmath
    permittivity of conftest."""
    with mpmath.workdps(30):
        b = mpmath.mpf(p.b)

        def rest(t):
            return 1 / (_mp_eps_tr(t, p.Omega, p.eps, 1) - b * t * t) + 1 / (b * t * t)

        if kernel_id == 0:
            def f(t):
                return abs(rest(t))
        else:
            def f(t):
                return abs(mpmath.diff(rest, t, 2))

        return float(mpmath.quad(f, [s_end, 10 * s_end, mpmath.inf]))


@pytest.mark.parametrize("kernel_id", [0, 1])
@pytest.mark.parametrize("material,Omega", [("na", 1e-2), ("al", 1e-4)])
def test_tail_bound_covers_the_remainder_past_s_max(material, Omega, kernel_id):
    # tail_bound = 3 E / (b^2 S^3) (times 12 / S^2 for (1/D)''), E = max(
    # |eps_tr|, 1.5) at S: at least the integral of |K - asymptote| past S,
    # and not far above it
    eps = 1e-4
    p = params_for(get_material(material), Omega, eps)
    res = oscillatory_halfline(1.0, kernel_id, Omega, eps, p.b, 1.0)
    rest = _mp_remainder(p, kernel_id, res.s_max)
    assert rest <= res.tail_bound <= 100.0 * rest
    # the float remainder of the premise test below, on its grid
    assert _remainder_integral(res.s_max, kernel_id, Omega, eps, p.b, 1.0) == pytest.approx(
        rest, rel=1e-4)


def _remainder_grid(s, kernel_id, Om, eps, bcoef, kappa):
    """K - asymptote on a grid, free of cancellation: 1/D + 1/(bcoef s^2)
    is g = eps_tr / M with M = bcoef s^2 D, and (1/D)'' + 6/(bcoef s^4) is
    g'' by the quotient rule (M, M' and M'' each keep one sign there)."""
    q = kappa * s
    e = k.family_grid(q, 0, Om, eps)
    D = e - bcoef * s * s
    M = bcoef * s * s * D
    if kernel_id == 0:
        return e / M
    e1 = kappa * k.family_grid(q, 1, Om, eps)
    e2 = kappa * kappa * k.family_grid(q, 2, Om, eps)
    Dp = e1 - 2.0 * bcoef * s
    Dpp = e2 - 2.0 * bcoef
    Mp = 2.0 * bcoef * s * D + bcoef * s * s * Dp
    Mpp = 2.0 * bcoef * D + 4.0 * bcoef * s * Dp + bcoef * s * s * Dpp
    return e2 / M - 2.0 * e1 * Mp / M**2 + e * (2.0 * Mp * Mp / M - Mpp) / M**2


# the direct axis and the integrated-by-parts kernel need eps > 0
_PREMISE_CASES = [
    (m, Om, eps, axis, kernel_id)
    for kernel_id, m, Om, eps, axis in itertools.product(
        (0, 1),
        ("na", "au", "al"),
        (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.99),
        (0.0, 1e-4, 1e-2),
        ("rescaled", "direct"),
    )
    if eps > 0.0 or (axis == "rescaled" and kernel_id == 0)
]


def _remainder_integral(s_end, kernel_id, Om, eps, bcoef, kappa):
    # trapezoid in log s over [S, 1e4 S]; what lies past 1e4 S is 1e-12
    # of it
    s = np.geomspace(s_end, 1e4 * s_end, 4001)
    f = s * np.abs(_remainder_grid(s, kernel_id, Om, eps, bcoef, kappa))
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(np.log(s))))


@pytest.mark.parametrize("material,Omega,eps,axis,kernel_id", _PREMISE_CASES)
def test_tail_bound_premise_past_s_max(material, Omega, eps, axis, kernel_id):
    # the tail bound takes bcoef s^2 >= 1e8 |eps_tr| and |eps_tr| <= E =
    # max(|eps_tr(S)|, 1.5) past S; sample [S, 1e4 S] on both axes of the
    # field, and check the bound against the integral of |K - asymptote|
    p = params_for(get_material(material), Omega, eps)
    kappa, bcoef = (1.0, p.b) if axis == "rescaled" else (eps, p.a)
    res = oscillatory_halfline(1.0, kernel_id, Omega, eps, bcoef, kappa)
    s = np.geomspace(res.s_max, 1e4 * res.s_max, 4001)
    eps_tr = np.abs(k.family_grid(kappa * s, 0, Omega, eps))
    assert np.all(bcoef * s * s >= 1e8 * eps_tr)
    assert np.all(eps_tr <= max(eps_tr[0], 1.5))
    rest = _remainder_integral(res.s_max, kernel_id, Omega, eps, bcoef, kappa)
    assert rest <= res.tail_bound <= 100.0 * rest


@pytest.mark.parametrize("material", ["na", "au", "al"])
@pytest.mark.parametrize("Omega", [0.5, 0.99])
def test_near_omega_one_against_qawo(material, Omega):
    # at eps = 0 and x = 1e-6 cm near Omega = 1, where the denominator's
    # value at s = 0, 1 - 1/Omega^2, approaches zero: K(0) = -49 at 0.99,
    # so QAWO from s = 1e-15 instead of 0 once missed 4.9e-14, 60 times
    # the bar
    p = params_for(get_material(material), Omega, 0.0)
    _, info = field_ratio_rescaled(1e-6, p, full_output=True)
    res = info.quad
    ref = _qawo(p, info.phase, 0)
    assert abs(res.value - ref) <= 1e-8 * abs(ref)
    assert abs(res.value - ref) <= res.error + res.tail_bound
    assert res.n_evals < 10_000


@pytest.mark.parametrize("u", [0.03, 0.1, 0.3])
def test_skin_layer_against_qawo(na_params, u):
    # the skin layer, u = Omega omega_p x / v_F below ~0.46: the value must
    # be within 1e-8 of QAWO, not only sit inside a wide error bar
    p = na_params
    phase = u / p.Omega
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    ref = _qawo(p, phase, 0)
    assert abs(res.value - ref) <= 1e-8 * abs(ref)


def test_result_metadata(na_params):
    p = na_params
    phase = p.material.omega_p * 1e-5 / p.material.v_F
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.q_max == pytest.approx(res.s_max, rel=1e-15)  # kappa = 1 here
    assert res.n_panels > 0
    assert res.n_evals >= k.N_LEGENDRE * res.n_panels
    assert res.error >= 0.0 and res.tail_bound >= 0.0
    assert res.branch == "filon"
    assert res.n_tail_terms == 0


def test_one_mesh_serves_every_depth(na_params, monkeypatch):
    # the kernel is evaluated for the first depth only; the cached mesh is
    # read-only
    p = na_params
    calls = []
    orig = k.panel_batch

    def counted(*args):
        out = orig(*args)
        calls.append(out[2])
        return out

    monkeypatch.setattr(k, "panel_batch", counted)
    first = oscillatory_halfline(0.0, 0, p.Omega, p.eps, p.b, 1.0)
    n_first = len(calls)
    for phase in (1.0, 1e2, 1e4):
        res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
        assert res.n_evals == first.n_evals == sum(calls)
    assert len(calls) == n_first
    mesh = quadrature._mesh(0, p.Omega, p.eps, p.b, 1.0)
    with pytest.raises(ValueError):
        mesh.weights[0] = 0.0
    assert quadrature._mesh.cache_info().maxsize == quadrature._MESH_CACHE


def test_panel_budget_exhaustion_raises(na_params, monkeypatch):
    p = na_params
    phase = p.material.omega_p * 1e-5 / p.material.v_F
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 20)
    with pytest.raises(QuadratureError, match="panel budget 20 exhausted") as exc:
        oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    # below the plasma frequency there is no light wave to name
    assert "light wave" not in str(exc.value)


_MESH_CASES = [(name, eps, kernel_id)
               for name, eps, kernel_id in itertools.product(
                   ("na", "au", "al"), (0.0, 1e-4), (k.KERNEL_RECIPROCAL, k.KERNEL_IBP_EXACT))
               if eps > 0.0 or kernel_id == k.KERNEL_RECIPROCAL]


@pytest.mark.parametrize("name,eps,kernel_id", _MESH_CASES)
def test_mesh_layout_of_the_depth_pass(name, eps, kernel_id):
    # the depth pass reads h, c and the Gauss side's h t_i from one array,
    # takes the Gauss side of the Bessel table as the prefix of phase h
    # below 40 (searchsorted, so h ascends), and shares the cached arrays
    # with every caller
    p = params_for(get_material(name), 1e-2, eps)
    mesh = quadrature._mesh(kernel_id, p.Omega, p.eps, p.b, 1.0)
    t = quadrature._bessel_constants()[0]
    n = mesh.weights.shape[1] // k.N_LEGENDRE
    h, c = mesh.lengths[:n], mesh.lengths[n:2 * n]
    assert mesh.weights.shape == (3, k.N_LEGENDRE * n)
    assert mesh.lengths.shape == ((2 + t.size) * n,)
    assert np.array_equal(mesh.lengths[2 * n:].reshape(n, t.size), h[:, None] * t)
    assert h[0] > 0.0 and np.all(np.diff(h) >= 0.0)
    # the panels [c - h, c + h] tile [0, s_end]
    order = np.argsort(c)
    lo, hi = (c - h)[order], (c + h)[order]
    assert lo[0] == 0.0 and hi[-1] == pytest.approx(mesh.s_end, rel=1e-15)
    assert np.allclose(lo[1:], hi[:-1], rtol=1e-14, atol=0.0)
    # and the weights belong to them: row k = 0 (the first, in parity
    # order) is 2 h c_0, the panel integral; the last row is |W|
    coef, _, _ = k.panel_batch(c - h, c + h, kernel_id, p.Omega, p.eps, p.b, 1.0)
    w = mesh.weights[0] + 1j * mesh.weights[1]
    assert np.allclose(w[:n], 2.0 * h * coef[:, 0], rtol=1e-12, atol=0.0)
    assert np.array_equal(mesh.weights[2], np.abs(w))
    for field in mesh:
        if isinstance(field, np.ndarray):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 0.0


def _oracle_phases(mesh, kernel_id, s_peak):
    """All-Gauss phases (phase h < 40 on every panel), all-Hankel ones
    (phase h >= 40 on every panel) and each split 40 / h_p with its two
    neighbouring floats."""
    h = mesh.lengths[:mesh.lengths.size // quadrature._LENGTHS]
    low = 1e-9 / s_peak if kernel_id else 0.0
    split = quadrature._HANKEL_FROM / h[::7]
    return [
        *(p for p in (0.0, 1e-100, 1e-10, 1e-3 / h[-1], 30.0 / h[-1]) if p >= low),
        quadrature._HANKEL_FROM / h[0], 3.0 * quadrature._HANKEL_FROM / h[0],
        *np.nextafter(split, 0.0), *split, *np.nextafter(split, np.inf),
    ]


@pytest.mark.parametrize("name,Omega,eps,kernel_id",
                         [("na", 1e-2, 1e-4, 0), ("na", 1e-2, 1e-4, 1), ("al", 1e-3, 0.0, 0)])
def test_depth_pass_against_a_plain_sum(monkeypatch, name, Omega, eps, kernel_id):
    # the Filon sum of the module docstring written out with scipy's j_k on
    # the mesh's panels, refitted by panel_batch:
    # sum_k,p W_kp j_k(phase h_p) cos(phase c_p + k pi/2), W_kp = 2 h_p c_k,
    # plus the closed-form tail; and the summed magnitudes |W_kp| |j_k| that
    # the rounding part of the bar carries
    p = params_for(get_material(name), Omega, eps)
    args = (kernel_id, Omega, eps, p.b, 1.0)
    mesh = quadrature._mesh(*args)
    n = mesh.lengths.size // quadrature._LENGTHS
    h, c = mesh.lengths[:n], mesh.lengths[n:2 * n]
    coef, _, _ = k.panel_batch(c - h, c + h, *args)
    weights = 2.0 * h * coef.T
    orders = np.arange(k.N_LEGENDRE)[:, None]
    s_peak = quadrature._s_peak(Omega, eps, p.b)
    for phase in _oracle_phases(mesh, kernel_id, s_peak):
        j = spherical_jn(orders, phase * h)
        x = phase * c
        # cos(x + k pi/2) for k = 0, 1, 2, 3 mod 4
        shifted = np.array((np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)))[orders[:, 0] % 4]
        tail = quadrature._asymptote_tail(phase, mesh.s_end, p.b, kernel_id)
        want = np.sum(weights * j * shifted) + sum(tail)
        magnitude = np.sum(np.abs(weights) * np.abs(j))
        res = oscillatory_halfline(phase, *args)
        assert abs(res.value - want) <= 0.1 * (res.error + res.tail_bound), phase
        # at a floor of 1, and without the tail, the bar is the truncation
        # plus the panels' magnitudes (the mesh stays the cached one, built
        # at the production floor)
        with monkeypatch.context() as mp:
            mp.setattr(quadrature, "_FLOOR", 1.0)
            mp.setattr(quadrature, "_asymptote_tail", lambda *_: [0.0])
            bar = oscillatory_halfline(phase, *args).error
        assert bar - mesh.trunc == pytest.approx(magnitude, rel=1e-13, abs=0.0), phase


def test_parameter_validation(na_params):
    p = na_params
    with pytest.raises(ValueError):
        oscillatory_halfline(1.0, 0, p.Omega, p.eps, -1.0, 1.0)
    with pytest.raises(ValueError):
        oscillatory_halfline(1.0, 0, p.Omega, p.eps, p.b, 0.0)
    with pytest.raises(ValueError):
        oscillatory_halfline(1.0, 0, 0.0, p.eps, p.b, 1.0)
    with pytest.raises(ValueError, match="zi >= 0"):
        oscillatory_halfline(1.0, 0, p.Omega, -1e-4, p.b, 1.0)


@pytest.mark.parametrize("phase,zi", [(2.0, 0.0), (0.0, 1e-4)])
def test_ibp_kernel_domain(phase, zi):
    # (1/D)'' has a pole at the Kohn point when zi = 0, and below the
    # threshold (phase 0 here) its integral, -phase^2 times the reciprocal
    # kernel's, is lost under its own rounding floor
    p = params_for(get_material("na"), 1e-2, zi)
    with pytest.raises(ValueError, match="need eps > 0 .* x = 0"):
        oscillatory_halfline(phase, 1, p.Omega, zi, p.b, 1.0)


@pytest.mark.parametrize("phase", [None, 2.0])
def test_n_evals_counts_every_kernel_evaluation(na_params, monkeypatch, phase):
    p = na_params
    if phase is None:
        phase = p.material.omega_p * 1e-5 / p.material.v_F
    total = [0]
    orig = k.panel_batch

    def counted(*args):
        out = orig(*args)
        total[0] += out[2]
        return out

    monkeypatch.setattr(k, "panel_batch", counted)
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.n_evals == total[0]
