"""The permittivity family and the Legendre panel fits against
independent references.

The logarithm branch is checked against mpmath's principal logarithm. The
family members are checked against the mpmath oracle of conftest,
which takes the derivatives by numerical differentiation of the closed
form at 60 digits and codes the pole pair directly, so it shares neither
the series nor the derivative formulas with the package. The panels are
checked against scipy's adaptive quadrature of the same integrand. The
envelope, which shares one series split and one logarithm branch among
the family members, is checked bit for bit against its members
evaluated one by one. The mirror convention exp(+i omega t) is the
conjugate that family_grid returns for im_sign = -1, checked against the
oracle at z = Om - i zi.
"""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import fermiskin._kernels as k
from fermiskin.materials import get_material, params_for

# spans the small-q series region, the switch, the singular shell
# neighborhood, and the far tail
QGRID = np.concatenate([
    np.geomspace(1e-6, 5e-3, 40),
    np.linspace(5e-3, 0.0995, 60),
    0.1 + np.geomspace(1e-6, 0.3, 60),
    np.linspace(0.5, 5.0, 40),
])


@pytest.mark.parametrize("zi", [1e-4, -1e-4, 1e-6, -1e-6, 0.0, 1e-160, 1e-300, 5e-324])
def test_log_branch_against_mpmath(zi):
    # the real-arithmetic branch must be the principal log((z - q)/(z + q))
    # on both sides of q = 0, at the singular shell q = +-Om and far past
    # it; a slip by 2 pi or a flipped sign in the argument fails by far.
    # zi = 0 is the limit from Im z > 0, which z = Om + 1e-60 i stands
    # in for; the shell itself is the log singularity there and is left out.
    # Below zi = 1e-154 Om the modulus ratio 4 Om^2 / zi^2 on the shell
    # overflows a float, while the real part there, -+log(2 Om / zi), does not
    Om = 1e-2
    g = np.geomspace(1e-6, 1e3, 300)
    q = np.concatenate((-g[::-1], g) if zi == 0.0 else (-g[::-1], [-Om], g, [Om]))
    got = k._log_branch(q, Om, zi)
    with mpmath.workdps(40):
        z = mpmath.mpc(Om, zi if zi != 0.0 else 1e-60)
        want = np.array([complex(mpmath.log((z - x) / (z + x))) for x in q.tolist()])
    np.testing.assert_allclose(got.real, want.real, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.imag, want.imag, rtol=1e-13, atol=1e-40)


@pytest.mark.parametrize("which", [0, 1, 2, 3])
@pytest.mark.parametrize("zi", [1e-4, 0.0, -1e-4])
def test_family_against_mpmath(family_oracle, which, zi):
    # the closed form's cancellation just above the series switch
    # (|q| = 0.4 |z|) sets the worst case, about 1e-13 for d2
    im_sign = 1 if zi >= 0 else -1
    got = k.family_grid(QGRID, which, 0.1, abs(zi), im_sign)
    want = np.array([family_oracle(q, which, 0.1, abs(zi), im_sign) for q in QGRID])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("Om,zi", [(0.1, 0.01), (1e-2, 1e-4), (1e-4, 0.0)])
def test_pole_pair_to_rounding(family_oracle, Om, zi):
    # the pole pair has one exact form at every q, with no cancellation at
    # either end: |q/z| from 1e-6 to 1e6, both signs, through the poles
    z = abs(complex(Om, zi))
    r = np.concatenate((np.geomspace(1e-6, 1e6, 61), [0.4, 0.99, 1.01]))
    q = np.concatenate((-r[::-1], r)) * z
    q = q[np.abs(q) != Om]
    got = k.family_grid(q, 3, Om, zi)
    want = np.array([family_oracle(x, 3, Om, zi) for x in q])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_legendre_fit_is_exact_for_degree_23():
    # the 24 nodes are the roots of P_24, and the fit returns the Legendre
    # coefficients of any polynomial of degree below 24
    nodes, to_legendre = k._legendre_fit()
    assert np.abs(np.polynomial.legendre.legval(nodes, [0] * 24 + [1])).max() < 1e-13
    coef = np.random.default_rng(3).standard_normal((5, k.N_LEGENDRE))
    values = np.polynomial.legendre.legval(nodes, coef.T)
    np.testing.assert_allclose(values @ to_legendre, coef, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kernel_id", [0, 1])
def test_panel_batch_against_quad(kernel_id):
    # the fit's c_0 integrates K over each panel, and its Legendre series
    # reproduces K inside the panel, both within the panel's truncation
    # plus rounding, which reaches 2e-12 of (1/D)'' just past the series
    # switch; some panels straddle the Kohn point s = 0.01
    p = params_for(get_material("na"), 1e-2, 1e-4)
    edges = np.geomspace(1e-3, 1.0, 41)
    lo, hi = edges[:-1], edges[1:]
    args = (kernel_id, p.Omega, p.eps, p.b, 1.0)
    coef, trunc, n = k.panel_batch(lo, hi, *args)
    assert coef.shape == (lo.size, k.N_LEGENDRE)
    assert n == k.N_LEGENDRE * lo.size

    def panel_quad(a, b):
        def part(f):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        def f(s):
            return k.envelope_grid(np.array([s]), *args)[0]

        return complex(part(lambda s: f(s).real), part(lambda s: f(s).imag))

    t = np.linspace(-0.95, 0.95, 7)
    rounding = 1e-12 if kernel_id == k.KERNEL_RECIPROCAL else 1e-11
    for a, b, c, err in zip(lo, hi, coef, trunc):
        h = 0.5 * (b - a)
        integral = 2.0 * h * c[0]
        assert abs(integral - panel_quad(a, b)) <= err + 1e-13 * abs(integral), (a, b)
        K = k.envelope_grid(0.5 * (a + b) + h * t, *args)
        series = np.polynomial.legendre.legval(t, c)
        assert np.all(np.abs(series - K) <= err / (2.0 * h) + rounding * np.abs(K)), (a, b)


@pytest.mark.parametrize("kernel_id", [0, 1])
@pytest.mark.parametrize("zi", [0.0, 1e-4])
def test_envelope_bit_identical_to_family_members(kernel_id, zi):
    # QGRID crosses both the series switch (|q| = 0.1 |z|) and |q| = Om
    Om, bcoef, kappa = 0.1, 2.7, 0.3
    s = QGRID / kappa
    q = kappa * s

    def member(which):
        return k.family_grid(q, which, Om, zi)

    e = member(0)
    D = e - bcoef * s * s
    if kernel_id == k.KERNEL_RECIPROCAL:
        want = 1.0 / D
    else:
        Dp = kappa * member(1) - 2.0 * bcoef * s
        Dpp = kappa * kappa * member(2) - 2.0 * bcoef
        want = (2.0 * Dp * Dp - Dpp * D) / (D * D * D)
    got = k.envelope_grid(s, kernel_id, Om, zi, bcoef, kappa)
    assert np.isfinite(got).all()
    assert np.array_equal(got, want)
