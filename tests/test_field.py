import cmath
import math
import re
import warnings

import numpy as np
import pytest

from fermiskin import _kernels, cli, quadrature
from fermiskin.asymptotic import (
    amplitude_A,
    amplitude_B,
    asymptotic_values,
    f_of_Omega,
)
from fermiskin.constants import SPEED_OF_LIGHT
from fermiskin.field import (
    DispersionRootError,
    FieldProfile,
    check_dispersion_roots,
    field_ratio_direct,
    field_ratio_ibp,
    field_ratio_rescaled,
    profile,
)
from fermiskin.materials import Material, get_material, params_for
from fermiskin.permittivity import eps_tr
from fermiskin.quadrature import QuadratureError

# Frozen cross-route references for Na at Omega = 1e-2, eps = 1e-4,
# computed with an adaptive QAWO evaluation of the same transform plus
# the analytic far-tail remainder (quadrature error below 1e-17).
QAWO_REFS = {
    1e-5: -1.5884504680885026e-07 - 2.1855541411803967e-09j,
    3e-5: -4.2630945824250907e-10 + 3.0286961928590405e-10j,
    1e-4: 1.4569133017952493e-11 - 9.650148443586974e-12j,
}

# Frozen engine values at eps = 1e-5 (near-surface regression anchors).
E_AT_0 = -3.229708862537981e-06 - 1.7518850318439067e-08j
E_AT_DELTA = -1.2090822951369451e-06 + 4.5691094675646505e-09j

# Frozen closed-form coefficients for Na.
FROZEN_COEFFS = {
    1e-2: (2.2717461333836598e-6, 4.2220675948846401e-21, 1.2933585755081764e-15),
    5e-3: (4.1508045523485917e-6, 3.0857281340794886e-20, 9.4526031481208337e-15),
    1e-3: (8.0234295229630422e-7, 1.4911640561829445e-19, 4.5679273867865753e-14),
}


# Oracle forms of the far-field amplitude A (cm^3) that the full bracket
# 1.5 + (c Omega/v_F)^2 - Omega^2 reduces to: without the relativistic
# -Omega^2, and its low- and high-frequency limits.
def amplitude_nonrel(Omega, m):
    c, v = SPEED_OF_LIGHT, m.v_F
    return 3.0 * c**2 * v / (m.omega_p**3 * (1.5 + (c * Omega / v) ** 2) ** 2)


def amplitude_low(m):
    return 4.0 * SPEED_OF_LIGHT**2 * m.v_F / (3.0 * m.omega_p**3)


def amplitude_high(Omega, m):
    return 3.0 * m.v_F**5 / (SPEED_OF_LIGHT**2 * m.omega_p**3 * Omega**4)


@pytest.fixture(scope="module")
def p_1em4(na):
    return params_for(na, 1e-2, 1e-4)


@pytest.fixture(scope="module")
def p_1em5(na):
    return params_for(na, 1e-2, 1e-5)


@pytest.fixture(scope="module")
def far_zone(na):
    # the [5, 50] oscillation window is clean of the exponential skin
    # term and of collision damping only in a band of Omega; 2e-3 sits
    # inside it for eps = 1e-5
    Omega = 2e-3
    p = params_for(na, Omega, 1e-5)
    L = na.v_F / (Omega * na.omega_p)
    us = np.linspace(4.6, 50.4, 100)
    prof = profile(us * L, p, "rescaled")
    return prof, Omega, L


class TestDispersionDenominator:
    def test_collisionless_margin_inside_window(self, na):
        # the physical denominator stays far from zero over the whole
        # window that could host a contour root
        p = params_for(na, 1e-2, 0.0)
        qs = np.linspace(p.Omega / 1e4, p.Omega * (1 - 1e-4), 10000)
        d = eps_tr(qs, p.Omega, 0.0) - p.b * qs**2
        assert np.all(d.imag == 0.0)
        assert np.abs(d.real).min() > 1.0

    @pytest.mark.parametrize("name", ["na", "au", "al"])
    @pytest.mark.parametrize("Omega", [1e-2, 1e-1, 0.5, 0.99])
    def test_root_check_passes_for_builtins(self, name, Omega):
        # D(0) = 1 - 1/Omega^2 < 0 and D falls across the window
        check_dispersion_roots(params_for(get_material(name), Omega, 0.0))

    @pytest.mark.parametrize("name", ["na", "au", "al"])
    @pytest.mark.parametrize("Omega", [0.99, 1.01, 1.04])
    def test_root_check_matches_the_denominator(self, name, Omega):
        # a dense evaluation of D over the window: D falls strictly, ends
        # below zero, and changes sign exactly where the check raises
        p = params_for(get_material(name), Omega, 0.0)
        qs = np.linspace(Omega / 1e4, Omega * (1 - 1e-4), 10000)
        d = (eps_tr(qs, Omega, 0.0) - p.b * qs**2).real
        assert np.all(np.diff(d) < 0.0) and d[-1] < 0.0
        if d[0] > 0.0:
            with pytest.raises(DispersionRootError):
                check_dispersion_roots(p)
        else:
            check_dispersion_roots(p)

    @pytest.mark.parametrize("name", ["na", "au", "al"])
    @pytest.mark.parametrize("Omega", [1.0, 1.01, 1.04])
    def test_root_from_omega_one_is_named(self, name, Omega):
        # D(0) = 1 - 1/Omega^2 >= 0 while D(Omega-) < 0 for every v_F < c
        p = params_for(get_material(name), Omega, 0.0)
        with pytest.raises(DispersionRootError, match="dispersion root on contour"):
            field_ratio_rescaled(1e-6, p)

    @pytest.mark.parametrize("Omega,eps", [(1.2, 1e-6), (2.0, 1e-8)])
    def test_light_wave_above_omega_one_is_named(self, na, Omega, eps):
        # above the plasma frequency D(q) = eps_tr(q) - b q^2 has a zero at
        # the transmitted light wave, q0 = sqrt(eps_tr(0) / b) to leading
        # order (Re D changes sign within 1e-5 of it), and eps lifts it off
        # the axis only by about 1e-3 eps; the mesh spends its budget there,
        # and the error says so
        p = params_for(na, Omega, eps)
        q0 = cmath.sqrt(complex(eps_tr(0.0, Omega, eps)) / p.b)
        assert 1e-4 * eps < q0.imag < 1e-2 * eps
        q = q0.real * np.array([1.0 - 1e-5, 1.0 + 1e-5])
        d = (eps_tr(q, Omega, eps) - p.b * q**2).real
        assert d[0] > 0.0 > d[1]
        with pytest.raises(QuadratureError, match="panel budget 20000 exhausted") as exc:
            field_ratio_rescaled(1e-5, p)
        assert str(exc.value).endswith(
            f"; at Omega = {Omega:g} > 1 the denominator has a zero just above the real "
            f"axis, the transmitted light wave at s = {q0:.4g}")

    def test_root_check_trips_on_soft_stiffness(self):
        # a fictitious density with v_F = 0.9 c; the crossing comes from
        # Omega >= 1, where D(0) = 1 - 1/Omega^2 is no longer negative
        fict = Material("fict", 4.3e29)
        assert fict.v_F == pytest.approx(0.9 * SPEED_OF_LIGHT, rel=1e-2)
        p = params_for(fict, 2.0, 0.0)
        with pytest.raises(DispersionRootError, match="dispersion root on contour"):
            check_dispersion_roots(p)
        with pytest.raises(DispersionRootError):
            field_ratio_rescaled(1e-6, p)


class TestRoutesAgainstFrozenReferences:
    def test_rescaled_matches_qawo(self, p_1em4):
        for x, ref in QAWO_REFS.items():
            got = field_ratio_rescaled(x, p_1em4)
            assert abs(got - ref) <= 1e-14

    def test_direct_matches_qawo(self, p_1em4):
        for x, ref in QAWO_REFS.items():
            got = field_ratio_direct(x, p_1em4)
            assert abs(got - ref) <= 1e-14

    def test_direct_equals_rescaled_spec_points(self, p_1em4):
        for x in QAWO_REFS:
            d = field_ratio_direct(x, p_1em4, full_output=True)[1]
            r = field_ratio_rescaled(x, p_1em4, full_output=True)[1]
            assert abs(d.value - r.value) <= d.abs_err_est + r.abs_err_est

    def test_direct_equals_rescaled_randomized(self, na):
        rng = np.random.default_rng(42)
        for _ in range(6):
            Om = rng.uniform(5e-3, 5e-2)
            e = 10 ** rng.uniform(-5, -3)
            x = 10 ** rng.uniform(-6, math.log10(6e-5))
            p = params_for(na, Om, e)
            d = field_ratio_direct(x, p, full_output=True)[1]
            r = field_ratio_rescaled(x, p, full_output=True)[1]
            assert abs(d.value - r.value) <= d.abs_err_est + r.abs_err_est

    def test_ibp_exact_equals_rescaled(self, p_1em4):
        for x in QAWO_REFS:
            i = field_ratio_ibp(x, p_1em4)
            r = field_ratio_rescaled(x, p_1em4)
            assert abs(i - r) <= 1e-4 * max(abs(i), abs(r))

    @pytest.mark.parametrize("material", ["na", "au", "al"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    @pytest.mark.parametrize("u", [0.03, 0.1, 0.3])
    def test_ibp_exact_equals_rescaled_in_skin_layer(self, material, eps, u):
        # two independent integrands of the same field, at depths where one
        # half-period of the transform spans the whole structure region
        p = params_for(get_material(material), 1e-2, eps)
        x = u * p.material.v_F / (p.Omega * p.material.omega_p)
        i = field_ratio_ibp(x, p)
        r = field_ratio_rescaled(x, p)
        assert abs(i - r) <= 1e-8 * abs(r)


# the near-surface probe of the ibp bars, where the 1/x^2 prefactor undoes
# the ibp integrand's cancellation: every point's gap to rescaled must lie
# inside the two summed bars
_IBP_PROBE = [
    pytest.param(m, eps, x, id=f"{m}-{eps:g}-{x:g}")
    for m in ("na", "au", "al")
    for eps in (1e-2, 1e-3, 1e-4, 1e-5)
    for x in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9)
]


@pytest.mark.parametrize("material,eps,x", _IBP_PROBE)
def test_ibp_bars_cover_the_gap_near_the_surface(material, eps, x):
    p = params_for(get_material(material), 1e-2, eps)
    vi, ii = field_ratio_ibp(x, p, full_output=True)
    vr, ir = field_ratio_rescaled(x, p, full_output=True)
    assert abs(vi - vr) <= ii.abs_err_est + ir.abs_err_est


class TestRouteDomains:
    def test_direct_needs_collisions(self, na):
        with pytest.raises(ValueError, match="direct route needs eps > 0"):
            field_ratio_direct(1e-5, params_for(na, 1e-2, 0.0))

    def test_ibp_needs_positive_depth(self, p_1em4):
        with pytest.raises(ValueError, match="x = 0"):
            field_ratio_ibp(0.0, p_1em4)

    def test_ibp_needs_collisions(self, na):
        with pytest.raises(ValueError, match="need eps > 0"):
            field_ratio_ibp(1e-5, params_for(na, 1e-2, 0.0))

    def test_ibp_needs_a_depth_above_the_envelope_threshold(self, p_1em4):
        # at 1e-16 cm the phase is far below 1e-9 / s_peak; the
        # 1/x^2 prefactor once turned a -3.2e-6 cm field into -2.5e5 +- 1e6
        with pytest.raises(ValueError, match="phase of at least"):
            field_ratio_ibp(1e-16, p_1em4)

    def test_negative_depth_rejected(self, p_1em4):
        with pytest.raises(ValueError, match="x must be >= 0"):
            field_ratio_rescaled(-1e-5, p_1em4)

    @pytest.mark.parametrize(
        "x,fragment",
        [(float("nan"), "x must be finite, got nan"),
         (float("inf"), "x must be finite, got inf"),
         # finite, but its phase times the mesh end overflows
         (1e298, r"x = 1e\+298 cm: phase 8.6\d*e\+305 times the mesh end S = .* "
                 "is not finite")],
    )
    def test_non_finite_depth_rejected(self, p_1em4, x, fragment):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=fragment):
                field_ratio_rescaled(x, p_1em4)

    @pytest.mark.parametrize("x", [1e150, 1e290])
    def test_ibp_phase_squared_must_be_finite(self, p_1em4, x):
        # the tail of (1/D)'' carries phase^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phase .* squared is not finite") as exc:
                field_ratio_ibp(x, p_1em4)
        assert str(exc.value).startswith(f"x = {x:g} cm: integrated-by-parts kernel")

    # the phase is x times omega_p / v_F, so it stays finite up to about
    # 5e297 cm for Na, and its square for the ibp kernel up to about 1.6e146 cm
    @pytest.mark.parametrize("route,x", [(field_ratio_rescaled, 1e297),
                                         (field_ratio_ibp, 1e140)])
    def test_huge_depths_below_the_overflow_return(self, p_1em4, route, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, info = route(x, p_1em4, full_output=True)
        assert np.isfinite(v) and np.isfinite(info.abs_err_est)

    def test_rescaled_works_collisionless(self, na):
        p = params_for(na, 1e-2, 0.0)
        v = field_ratio_rescaled(3e-5, p)
        assert np.isfinite(v)

    def test_tiny_omega_below_the_overflow_returns(self, na):
        # from about 2.2e-148 the prefactor b v_F overflows and the point
        # raises (test_cli); just above, the values stand
        v, info = field_ratio_rescaled(1e-6, params_for(na, 1e-146), full_output=True)
        assert v == pytest.approx(-1.1593015167470724e42 - 6.6932304276586376e41j,
                                  rel=1e-12)
        assert info.abs_err_est == pytest.approx(2.469260952652263e28, rel=1e-12)


# the fields of FieldPointInfo and of its QuadratureResult, and their types
_BUILT_IN = {"value": complex, "abs_err_est": float, "phase": float, "error": float,
             "tail_bound": float, "s_max": float, "q_max": float, "n_panels": int,
             "n_evals": int, "n_tail_terms": int, "branch": str}


@pytest.mark.parametrize("route,x", [(field_ratio_rescaled, 1e-5), (field_ratio_direct, 1e-5),
                                     (field_ratio_ibp, 1e-5), (field_ratio_rescaled, 0.0),
                                     (field_ratio_direct, 0.0)])
def test_records_hold_built_in_scalars(p_1em4, route, x):
    # every field is exactly a Python float, complex, int or str, never a
    # numpy scalar, so records print, compare and serialize as plain numbers
    _, info = route(x, p_1em4, full_output=True)
    fields = {**info._asdict(), **info.quad._asdict()}
    del fields["quad"]
    assert fields.keys() == _BUILT_IN.keys()
    for name, v in fields.items():
        assert type(v) is _BUILT_IN[name], (name, type(v))


class TestNearSurface:
    def test_frozen_regression_values(self, p_1em5):
        assert abs(field_ratio_rescaled(0.0, p_1em5) - E_AT_0) <= 1e-12 * abs(E_AT_0)
        got = field_ratio_rescaled(p_1em5.delta, p_1em5)
        assert abs(got - E_AT_DELTA) <= 1e-12 * abs(E_AT_DELTA)

    @pytest.mark.parametrize("x", [1e-310, 1e-200, 1e-30, 1e-16])
    def test_tiny_depths_match_the_surface(self, p_1em5, x):
        # depths whose phase is too small to oscillate over the structure
        # region: no overflow, no lost structure edges, and the surface
        # value plus the slope the normalization fixes, E(x)/E'(0) =
        # E(0)/E'(0) + x + O(x^2 / delta); the slope comes from the
        # 1/(b s^2) wing, whose cosine transform has a kink pi |p| / (2 b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v0, i0 = field_ratio_rescaled(0.0, p_1em5, full_output=True)
            v, info = field_ratio_rescaled(x, p_1em5, full_output=True)
        assert abs(v - v0 - x) <= info.abs_err_est + i0.abs_err_est

    def test_surface_value_is_minus_skin_depth(self, p_1em5):
        # E(0)/E'(0) = -c/omega_p to within the ten-percent contract
        v = field_ratio_rescaled(0.0, p_1em5)
        delta = p_1em5.delta
        assert abs(v + delta) <= 0.1 * delta
        assert v.real < 0

    def test_one_skin_depth_is_one_efolding(self, p_1em5):
        v0 = field_ratio_rescaled(0.0, p_1em5)
        vd = field_ratio_rescaled(p_1em5.delta, p_1em5)
        assert abs(vd) / abs(v0) == pytest.approx(1.0 / math.e, rel=0.15)

    def test_eps_continuity_at_fixed_depth(self, na):
        # collisional values converge to the collisionless limit
        lim = field_ratio_rescaled(1e-4, params_for(na, 1e-2, 0.0))
        gaps = [
            abs(field_ratio_rescaled(1e-4, params_for(na, 1e-2, e)) - lim)
            for e in (1e-4, 1e-5, 1e-6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-12


class TestNormalSkinEffect:
    @pytest.mark.parametrize("eps", [10.0, 100.0])
    @pytest.mark.parametrize("Omega", [1e-2, 0.1])
    @pytest.mark.parametrize("name", ["na", "au", "al"])
    def test_profile_matches_the_local_limit(self, name, Omega, eps):
        # where |q/z| is small over the whole skin layer (large eps) the
        # series gives D = e0 - b' s^2 + O(s^4), e0 = 1 - 1/(Omega z),
        # b' = b + 1/(5 Omega z^3), and the cosine transform is closed:
        # E(x)/E'(0) = -(b/b') (v_F/omega_p) e^{-p a}/a, a = sqrt(-e0/b'),
        # Re a > 0, p = x omega_p/v_F; at b' = b it is the Drude skin law
        m = get_material(name)
        params = params_for(m, Omega, eps)
        z = complex(Omega, eps)
        b = params.b
        b1 = b + 1.0 / (5.0 * Omega * z**3)
        a = cmath.sqrt(-(1.0 - 1.0 / (Omega * z)) / b1)
        a = a if a.real > 0 else -a
        lengths = np.linspace(0.0, 10.0, 41)  # decay lengths 1/Re a in p
        ps = lengths / a.real
        prof = profile(ps * (m.v_F / m.omega_p), params)
        closed = -(b / b1) * (m.v_F / m.omega_p) * np.exp(-ps * a) / a
        gap = np.abs(prof.values - closed)
        # 1e-13 is the O(s^4) term the closed form drops: at x = 0 the
        # engine is within 1.8e-16 of a 60-digit integral of 1/D, yet
        # 4.6e-14 from the closed form (Al, Omega = 0.1, eps = 10)
        near = lengths <= 3.0
        assert np.all(gap[near] <= 1e-13 * np.abs(closed[near]))
        assert np.all(gap <= prof.abs_err + 1e-13 * np.abs(closed))


class TestInverseSquareLaw:
    def test_x2_scaled_envelope_is_flat(self, p_1em5, na):
        # |E| x^2 probed one oscillation apart in the deep far zone must
        # agree within a factor well inside two
        k = 1e-2 * na.omega_p / na.v_F
        half = math.pi / k
        peaks = []
        for xc in (8e-4, 9e-4):
            xs = np.linspace(xc - half / 2, xc + half / 2, 7)
            peaks.append(
                max(abs(field_ratio_rescaled(float(x), p_1em5)) * x**2 for x in xs)
            )
        ratio = peaks[0] / peaks[1]
        assert 0.5 < ratio < 2.0

    def test_far_zone_envelope_slope(self, far_zone):
        from fermiskin.analysis import envelope_fit

        prof, Omega, L = far_zone
        fit = envelope_fit(prof, window=(5 * L, 50 * L))
        assert fit.slope == pytest.approx(-2.0, abs=0.15)
        assert fit.r_squared > 0.99

    def test_far_zone_wavelength(self, far_zone, na):
        from fermiskin.analysis import wavelength_extract

        prof, Omega, L = far_zone
        wl = wavelength_extract(prof, window=(5 * L, 50 * L))
        expected = 2.0 * math.pi * na.v_F / (Omega * na.omega_p)
        assert wl.wavelength == pytest.approx(expected, rel=0.02)

    def test_measured_coefficient_is_A_over_Omega(self, far_zone, na):
        from fermiskin.analysis import envelope_fit

        prof, Omega, L = far_zone
        fit = envelope_fit(prof, window=(5 * L, 50 * L))
        C = math.exp(fit.intercept)
        ratio = C * Omega / amplitude_A(Omega, na)
        assert 0.5 < ratio < 2.0

    @pytest.mark.xfail(
        strict=True,
        reason="the fitted envelope coefficient measures A/Omega, not A; "
        "kept as a strict expected failure so any change is noticed",
    )
    def test_measured_coefficient_is_A_literally(self, far_zone, na):
        from fermiskin.analysis import envelope_fit

        prof, Omega, L = far_zone
        fit = envelope_fit(prof, window=(5 * L, 50 * L))
        C = math.exp(fit.intercept)
        ratio = C / amplitude_A(Omega, na)
        print(f"measured coefficient / A = {ratio:.3g} (about 1/Omega)")
        assert 0.5 < ratio < 2.0


class TestOscillationStrength:
    @pytest.mark.parametrize("Omega", sorted(FROZEN_COEFFS))
    def test_frozen_values(self, na, Omega):
        f_ref, A_ref, B_ref = FROZEN_COEFFS[Omega]
        assert f_of_Omega(Omega, na) == pytest.approx(f_ref, rel=1e-12)
        assert amplitude_A(Omega, na) == pytest.approx(A_ref, rel=1e-12)
        assert amplitude_B(Omega, na) == pytest.approx(B_ref, rel=1e-12)

    def test_low_frequency_limit(self, na):
        # f / Omega^2 -> 8/9 as Omega -> 0
        assert f_of_Omega(1e-6, na) / 1e-12 == pytest.approx(8.0 / 9.0, rel=1e-6)

    def test_validation(self, na):
        with pytest.raises(ValueError):
            f_of_Omega(0.0, na)
        with pytest.raises(ValueError, match="Omega must be finite"):
            f_of_Omega(float("nan"), na)
        with pytest.raises(ValueError, match="Omega must be finite"):
            amplitude_A(float("inf"), na)

    def test_huge_omega_named(self, na):
        # the squared bracket overflows a float long before 1e160
        msg = r"Omega = 1e\+160 is too large for material 'na': the closed form overflows"
        with pytest.raises(ValueError, match=msg):
            f_of_Omega(1e160, na)
        with pytest.raises(ValueError, match=msg):
            amplitude_A(1e160, na)

    def test_zero_amplitude_named(self, na):
        # a denominator product that overflows under float * leaves A = 0
        # with no OverflowError: from about 4.4e62, below which A is a
        # normal float
        msg = "Omega = 1e+70 is too large for material 'na': the closed form overflows"
        with pytest.raises(ValueError, match=re.escape(msg)):
            amplitude_A(1e70, na)
        assert 1e-300 < amplitude_A(1e62, na) < 1e-250


class TestAmplitudeModes:
    def test_exact_reduces_to_low_limit(self, na):
        # no power of Omega divides, so the tiniest Omega is the limit itself
        for Omega in (1e-6, 1e-300):
            assert amplitude_A(Omega, na) == pytest.approx(amplitude_low(na), rel=1e-4)

    def test_nonrel_reduces_to_high_limit(self, na):
        # 0.38% apart at Omega = 0.1 for Na, where (c Omega/v_F)^2 is about 800
        for a in (amplitude_A(0.1, na), amplitude_nonrel(0.1, na)):
            assert a == pytest.approx(amplitude_high(0.1, na), rel=0.01)

    def test_relativistic_correction_is_small(self, na):
        # the full form differs from the nonrelativistic one only by the
        # (v_F/c)^2-suppressed bracket correction
        a8 = amplitude_A(1e-2, na)
        a9 = amplitude_nonrel(1e-2, na)
        assert abs(a8 - a9) / a8 <= 5.0 * (na.v_F / SPEED_OF_LIGHT) ** 2


class TestAsymptoticField:
    def test_zeros_on_the_comb(self, na):
        k = 1e-2 * na.omega_p / na.v_F
        A = amplitude_A(1e-2, na)
        for n in (3, 10, 41):
            xn = n * math.pi / k
            assert abs(asymptotic_values([xn], 1e-2, na)[0]) * xn**2 / A < 1e-9

    def test_first_half_period_is_negative(self, na):
        k = 1e-2 * na.omega_p / na.v_F
        xs = np.linspace(0.05, 0.95, 12) * math.pi / k
        assert all(y < 0 for y in asymptotic_values(xs, 1e-2, na))

    def test_normalizations_related_by_skin_depth(self, na):
        x = [1e-4]
        [per_ep] = asymptotic_values(x, 1e-2, na, normalization="per_Eprime0")
        [per_e0] = asymptotic_values(x, 1e-2, na, normalization="per_E0")
        assert abs(per_e0) == pytest.approx(
            na.omega_p / SPEED_OF_LIGHT * abs(per_ep), rel=1e-12
        )
        # surface value E(0)/E'(0) is negative, so the two signs flip
        assert per_e0 * per_ep <= 0

    def test_domain(self, na):
        with pytest.raises(ValueError, match="x > 0"):
            asymptotic_values([0.0], 1e-2, na)
        with pytest.raises(ValueError, match="normalization"):
            asymptotic_values([1e-4], 1e-2, na, normalization="per_B")

    def test_non_finite_depth_rejected(self, na):
        with pytest.raises(ValueError, match="x must be finite, got nan"):
            asymptotic_values([1e-4, float("nan")], 1e-2, na)

    def test_any_iterable_gives_plain_floats(self, na):
        # a list, an ndarray and a generator of the same depths give the
        # same list of Python floats
        xs = np.linspace(1e-4, 3e-4, 6)
        ref = asymptotic_values(xs.tolist(), 1e-2, na)
        for given in (xs, iter(xs), (float(x) for x in xs)):
            got = asymptotic_values(given, 1e-2, na)
            assert got == ref and all(type(y) is float for y in got)

    @pytest.mark.parametrize("normalization", ["per_Eprime0", "per_E0"])
    @pytest.mark.parametrize("xs,named", [
        # Omega omega_p x overflows before the division by v_F
        ([1e-4, 1e300, 1e301], "1e+300"),
        # x^2 underflows, so A/x^2 is infinite
        ([1e-170, 1e-4], "1e-170"),
    ])
    def test_overflowing_depth_named(self, na, xs, named, normalization):
        # refused by its first depth, with no numpy RuntimeWarning, from a
        # list and from an ndarray of depths alike
        for given in (xs, np.array(xs)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as exc:
                    asymptotic_values(given, 1e-2, na, normalization=normalization)
            assert str(exc.value) == f"the closed form overflows a float at x = {named} cm"


def numpy_closed_form(xs, Omega, m, normalization="per_Eprime0"):
    """The closed form as an ndarray expression: the oracle of the plain-float
    asymptotic_values, inf or NaN where a float overflows."""
    amp = -amplitude_A(Omega, m) if normalization == "per_Eprime0" else amplitude_B(Omega, m)
    x = np.asarray(xs, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return amp / x**2 * np.sin(Omega * m.omega_p * x / m.v_F)


class TestClosedFormAgainstNumpy:
    @pytest.mark.parametrize("normalization", ["per_Eprime0", "per_E0"])
    def test_values_match_within_1e_15(self, na, au, al, normalization):
        # the nine curves of figures 2-4 (13,200 depths) and 10,800 seeded
        # log-uniform depths; math.sin and numpy's sin may differ in the
        # last bit, so the two agree to 1e-15, not bit for bit
        grids = [(np.linspace(2e-5, 2e-3, 400), m, 1e-4) for m in (na, au, al)]
        grids += [(np.linspace(9e-5, 3e-3, 2000), m, 1e-3) for m in (na, au, al)]
        grids += [(np.linspace(1.5e-3, 1.8e-3, 2000), al, om) for om in (1e-4, 1e-3, 1e-2)]
        rng = np.random.default_rng(25)
        for m in (na, au, al):
            for om in (1e-4, 1e-2, 0.5):
                grids.append((10.0 ** rng.uniform(-8.0, 2.0, 1200), m, om))
        assert sum(xs.size for xs, _, _ in grids) == 24000
        for xs, m, om in grids:
            ref = numpy_closed_form(xs, om, m, normalization)
            got = np.array(asymptotic_values(xs.tolist(), om, m, normalization=normalization))
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (m.name, om)

    @pytest.mark.parametrize("normalization", ["per_Eprime0", "per_E0"])
    @pytest.mark.parametrize("lo,hi", [(1e-163, 1e-161), (1e294, 1e295)])
    def test_refused_exactly_where_numpy_overflows(self, na, normalization, lo, hi):
        # bisect for the adjacent depths where numpy's value turns non-finite
        # (x^2 underflows below, Omega omega_p x overflows above): the
        # finite side is computed, the other refused
        finite = lambda x: bool(np.isfinite(numpy_closed_form([x], 1e-2, na, normalization)[0]))
        ok, bad = (hi, lo) if lo < 1.0 else (lo, hi)
        assert finite(ok) and not finite(bad)
        while math.nextafter(ok, bad) != bad:
            mid = math.sqrt(ok) * math.sqrt(bad)
            if mid in (ok, bad):
                mid = math.nextafter(ok, bad)
            ok, bad = (mid, bad) if finite(mid) else (ok, mid)
        assert math.isfinite(asymptotic_values([ok], 1e-2, na, normalization=normalization)[0])
        with pytest.raises(ValueError, match="the closed form overflows a float at x = "):
            asymptotic_values([bad], 1e-2, na, normalization=normalization)


class TestProfile:
    def test_numeric_matches_single_calls(self, p_1em4):
        xs = np.array([1e-5, 2e-5, 3e-5])
        prof = profile(xs, p_1em4, "rescaled")
        assert isinstance(prof, FieldProfile)
        for x, v, e, d in zip(xs, prof.values, prof.abs_err, prof.diagnostics):
            value, info = field_ratio_rescaled(float(x), p_1em4, full_output=True)
            assert (v, e, d) == (value, info.abs_err_est, info.quad)
        assert prof.method == "rescaled"

    def test_figure_grids_are_certified(self):
        # the numeric figures 2-4: their nine curves (13,200 depths) at
        # eps = 0, every bar within 1e-7 of its value (6.5e-8 measured)
        n = 0
        for x_lo, x_hi, size, _, curves in cli._FIG_PROFILE.values():
            xs = np.linspace(x_lo, x_hi, size)
            for _, name, Om in curves:
                prof = profile(xs, params_for(get_material(name), Om, 0.0))
                assert np.all(prof.abs_err <= 1e-7 * np.abs(prof.values)), (name, Om)
                n += xs.size
        assert n == 13200

    def test_params_must_be_plasma_params(self, na):
        with pytest.raises(TypeError, match="params_for"):
            profile([1e-5, 2e-5], (1e-2, na), "rescaled")

    def test_grid_validation(self, p_1em4):
        with pytest.raises(ValueError, match="empty"):
            profile([], p_1em4)
        with pytest.raises(ValueError, match="strictly increasing"):
            profile([2e-5, 1e-5], p_1em4)
        for xs in ([[1e-5, 2e-5]], [[1e-5], [2e-5]]):
            with pytest.raises(ValueError) as exc:
                profile(xs, p_1em4)
            shape = np.shape(xs)
            assert str(exc.value) == f"depths must be a 1-d array, got shape {shape}"
        with pytest.raises(ValueError, match="unknown method"):
            profile([1e-5], p_1em4, "magic")
        # the direct axis is a cross-check (field_ratio_direct), not a method
        with pytest.raises(ValueError, match="unknown method"):
            profile([1e-5], p_1em4, "direct")
        # the closed form is asymptotic_values, not a profile method
        with pytest.raises(ValueError, match="unknown method"):
            profile([1e-5], p_1em4, "asymptotic")

    def test_mesh_failure_raises_once(self, p_1em4, monkeypatch):
        # every depth shares one mesh, so a mesh past its panel budget fails
        # the profile at its first depth, after one kernel batch
        calls = []
        real = _kernels.panel_batch

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 10)
        monkeypatch.setattr(_kernels, "panel_batch", counted)
        with pytest.raises(QuadratureError, match="panel budget 10 exhausted"):
            profile([1e-5, 2e-5, 3e-5, 4e-5], p_1em4, "rescaled")
        assert len(calls) == 1
