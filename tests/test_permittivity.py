import warnings

import mpmath
import numpy as np
import pytest
from conftest import _mp_eps_tr
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiskin import _kernels, cli
from fermiskin.permittivity import (
    KohnScanResult,
    d2_eps_dq2,
    d2_eps_near_singularity,
    d_eps_dq,
    eps_tr,
    kohn_scan,
    small_q_series,
)

# Frozen from independent prototype evaluations (50-digit mpmath for the
# closed form, 60-term exact-rational series); regenerating them is a
# one-liner against tests/conftest.py's oracle.
SERIES_REF_60 = -98.009900991981955 + 9.9009900995903139j  # q=1e-6, Om=0.1, e=0.01
LEADING_REF = -98.00990099009901 + 9.900990099009901j      # q=0,   Om=0.1, e=0.01
CLOSED_REF_A = -104.6103892065566 + 1.1831697194173912j    # q=0.05, Om=0.1, e=1e-3
CLOSED_REF_B = -99.78495596835895 + 10.463991114132048j    # q=0.3|z|, Om=0.1, e=0.01
COLLISIONLESS_REF = -69.862353252746142 + 123.70021073509811j  # q=0.2, Om=0.08, e=0
D1_REF = -232.95293934632862 + 85.427747354325187j         # q=0.05, Om=0.1, e=0.01
D2_REF = -6825.0814114183874 + 3198.2830163273956j
D2_POLE_REF = -155207.62423417291 + 25731.790333560245j
D1_REF_B = 1126.8877909717249 + 345.28984740273737j        # q=0.15, Om=0.1, e=1e-3


def _close(a, b, rel):
    assert abs(a - b) <= rel * abs(b), f"{a} vs {b}"


class TestValues:
    def test_frozen_closed_form(self):
        _close(eps_tr(0.05, 0.1, 1e-3), CLOSED_REF_A, 1e-12)
        _close(eps_tr(0.030149626863362671, 0.1, 0.01), CLOSED_REF_B, 1e-12)
        _close(eps_tr(0.2, 0.08, 0.0), COLLISIONLESS_REF, 1e-12)

    def test_frozen_derivatives(self):
        _close(d_eps_dq(0.05, 0.1, 0.01), D1_REF, 1e-12)
        _close(d2_eps_dq2(0.05, 0.1, 0.01), D2_REF, 1e-12)
        _close(d2_eps_near_singularity(0.05, 0.1, 0.01), D2_POLE_REF, 1e-12)
        _close(d_eps_dq(0.15, 0.1, 1e-3), D1_REF_B, 1e-12)

    @pytest.mark.parametrize(
        "q,Omega,eps",
        [
            (0.05, 0.1, 1e-3),
            (0.3, 0.25, 0.01),
            (1.7, 0.9, 1e-4),
            (0.2, 0.08, 0.0),
            (0.5, 0.1, 0.0),
            (0.05, 0.1, 0.0),
            (0.03, 0.08, 0.0),
        ],
    )
    def test_against_independent_oracle(self, eps_tr_oracle, q, Omega, eps):
        ref = complex(eps_tr_oracle(q, Omega, eps))
        _close(eps_tr(q, Omega, eps), ref, 1e-12)

    def test_collisionless_real_below_omega(self, eps_tr_oracle):
        v = eps_tr(0.05, 0.1, 0.0)
        assert v.imag == 0.0
        _close(v.real, float(eps_tr_oracle(0.05, 0.1, 0.0).real), 1e-12)

    def test_scalar_and_array_shapes(self):
        scalar = eps_tr(0.05, 0.1, 1e-3)
        assert isinstance(scalar, complex)
        arr = eps_tr([0.05, 0.07], 0.1, 1e-3)
        assert arr.shape == (2,)
        assert arr[0] == scalar
        grid = eps_tr(np.full((3, 4), 0.05), 0.1, 1e-3)
        assert grid.shape == (3, 4)
        assert np.all(grid == scalar)


class TestParity:
    # q ranges straddle the singular shell on both sides
    QS = np.array([0.03, 0.07, 0.099, 0.101, 0.18, 0.9])

    def test_eps_tr_even(self):
        for eps in (1e-3, 0.0):
            plus = eps_tr(self.QS, 0.1, eps)
            minus = eps_tr(-self.QS, 0.1, eps)
            np.testing.assert_allclose(minus, plus, rtol=1e-12)

    def test_first_derivative_odd(self):
        for eps in (1e-3, 0.0):
            plus = d_eps_dq(self.QS, 0.1, eps)
            minus = d_eps_dq(-self.QS, 0.1, eps)
            np.testing.assert_allclose(minus, -plus, rtol=1e-12)

    def test_second_derivative_even(self):
        # second differences amplify cancellation noise; a shade looser
        plus = d2_eps_dq2(self.QS, 0.1, 1e-3)
        minus = d2_eps_dq2(-self.QS, 0.1, 1e-3)
        np.testing.assert_allclose(minus, plus, rtol=1e-11)

    def test_pole_part_even(self):
        plus = d2_eps_near_singularity(self.QS, 0.1, 1e-3)
        minus = d2_eps_near_singularity(-self.QS, 0.1, 1e-3)
        np.testing.assert_allclose(minus, plus, rtol=1e-11)


class TestCollisionlessDamping:
    def test_imag_closed_form_randomized(self):
        rng = np.random.default_rng(20260822)
        Omegas = rng.uniform(1e-3, 0.9, size=1000)
        qs = Omegas * (1.0 + rng.uniform(1e-6, 50.0, size=1000))
        for Omega, q in zip(Omegas, qs):
            ref = 3.0 * np.pi * (q * q - Omega * Omega) / (4.0 * Omega * q**3)
            got = eps_tr(q, Omega, 0.0).imag
            assert got == pytest.approx(ref, rel=1e-10)

    def test_imag_vanishes_below_omega(self):
        rng = np.random.default_rng(7)
        Omegas = rng.uniform(1e-3, 0.9, size=200)
        qs = Omegas * rng.uniform(1e-3, 0.999, size=200)
        vals = np.array([eps_tr(q, Om, 0.0) for q, Om in zip(qs, Omegas)])
        assert np.all(vals.imag == 0.0)

    def test_damping_monotone_in_eps(self):
        # the collisional imaginary part approaches the collisionless
        # step monotonically as eps shrinks
        for q in (0.15, 0.2, 0.3):
            lim = eps_tr(q, 0.1, 0.0).imag
            gaps = [abs(eps_tr(q, 0.1, e).imag - lim) for e in (1e-3, 1e-4, 1e-5)]
            assert gaps[0] > gaps[1] > gaps[2]


class TestSeries:
    def test_frozen_reference(self):
        # terms past m = 1 are below 1e-20 here, so the fixed 24-term sum
        # meets the 60-term reference
        got = small_q_series(1e-6, 0.1, 0.01)
        _close(got.value, SERIES_REF_60, 1e-12)

    def test_q_zero_leading_term(self):
        got = small_q_series(0.0, 0.1, 0.01)
        _close(got.value, LEADING_REF, 1e-13)
        assert got.error_bound == 0.0

    def test_closed_form_switches_to_series(self):
        # the public evaluator must hand off below the cancellation
        # threshold; 1e-8 is the contract there
        auto = eps_tr(1e-6, 0.1, 0.01)
        _close(auto, SERIES_REF_60, 1e-8)

    def test_series_matches_closed_form_in_annulus(self):
        Omega, eps = 0.1, 0.01
        z_abs = abs(complex(Omega, eps))
        for ratio in (0.05, 0.12, 0.2, 0.35, 0.5):
            q = ratio * z_abs
            ref = eps_tr(q, Omega, eps)
            got = small_q_series(q, Omega, eps).value
            _close(got, ref, 1e-9)

    def test_divergent_region_rejected(self):
        with pytest.raises(ValueError, match="series diverges"):
            small_q_series(0.2, 0.1, 0.01)

    def test_error_bound_covers_truncation(self):
        # at |q/z| = 0.6 the truncation (3e-12) stands well above the
        # value's rounding (2e-14); the reference is a 40-term sum at 30 digits
        import mpmath as mp

        q, Omega, eps = 0.06, 0.1, 0.01
        with mp.workdps(30):
            z = mp.mpc(Omega, eps)
            w2 = (q / z) ** 2
            ref = 1 - 3 / (Omega * z) * mp.fsum(
                w2**m / ((2 * m + 1) * (2 * m + 3)) for m in range(40))
            ref = complex(ref)
        got = small_q_series(q, Omega, eps)
        gap = abs(got.value - ref)
        assert gap <= got.error_bound <= 10.0 * gap


class TestDerivativesAgainstFiniteDifferences:
    @staticmethod
    def _richardson_d1(q, Omega, eps, h):
        def diff(hh):
            return (eps_tr(q + hh, Omega, eps) - eps_tr(q - hh, Omega, eps)) / (2 * hh)

        return (4.0 * diff(h / 2) - diff(h)) / 3.0

    @staticmethod
    def _richardson_d2(q, Omega, eps, h):
        def diff(hh):
            return (
                d_eps_dq(q + hh, Omega, eps) - d_eps_dq(q - hh, Omega, eps)
            ) / (2 * hh)

        return (4.0 * diff(h / 2) - diff(h)) / 3.0

    @pytest.mark.parametrize(
        "q,Omega,eps", [(0.05, 0.1, 0.01), (0.15, 0.1, 1e-3), (0.4, 0.25, 1e-3)]
    )
    def test_first_derivative(self, q, Omega, eps):
        fd = self._richardson_d1(q, Omega, eps, 1e-4)
        _close(d_eps_dq(q, Omega, eps), fd, 1e-6)

    @pytest.mark.parametrize(
        "q,Omega,eps", [(0.05, 0.1, 0.01), (0.15, 0.1, 1e-3), (0.4, 0.25, 1e-3)]
    )
    def test_second_derivative(self, q, Omega, eps):
        fd = self._richardson_d2(q, Omega, eps, 1e-4)
        _close(d2_eps_dq2(q, Omega, eps), fd, 1e-6)

    def test_pole_part_tracks_full_curvature_near_shell(self):
        # relative agreement of the pole-pair part with the full second
        # derivative must improve on approach to |q| = Omega; the floor
        # is set by eps (regular terms stay finite inside the broadened
        # core), so approach down to the eps scale
        Omega, eps = 0.1, 1e-5
        devs = []
        for dq in (1e-2, 1e-3, 1e-4, 1e-5):
            q = Omega + dq
            full = d2_eps_dq2(q, Omega, eps)
            pole = d2_eps_near_singularity(q, Omega, eps)
            devs.append(abs(pole - full) / abs(full))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[-1] < 0.01


class TestDomain:
    def test_q_zero_values(self):
        # the series branch covers q = 0: the leading term, an odd first
        # derivative, a finite even second one; only the pole pair
        # -3 z / (Omega q^2 (z^2 - q^2)) overflows there, as at a tiny q
        Omega, eps = 0.1, 0.01
        z = complex(Omega, eps)
        assert abs(eps_tr(0.0, Omega, eps) - (1 - 1 / (Omega * z))) <= 3e-16 * abs(1 / (Omega * z))
        assert eps_tr(0.0, Omega, eps) == small_q_series(0.0, Omega, eps).value
        assert d_eps_dq(np.array([0.05, 0.0]), Omega, eps)[1] == 0.0
        assert np.isfinite(d2_eps_dq2(0.0, Omega, eps))
        for q in (0.0, 1e-200):
            with pytest.raises(ValueError, match=f"value overflows at q = {q:g}, Omega = 0.1"):
                d2_eps_near_singularity(q, Omega, eps)

    @pytest.mark.parametrize(
        "call,bad",
        [
            (lambda: eps_tr(float("nan"), 0.1, 0.0), "nan"),
            (lambda: d_eps_dq([0.05, np.inf], 0.1, 0.0), "inf"),
            (lambda: small_q_series(float("nan"), 0.1), "nan"),
        ],
        ids=["eps_tr", "d_eps_dq", "small_q_series"],
    )
    def test_non_finite_wavevector_rejected(self, call, bad):
        # NaN slips through every comparison: it must be named, not returned
        with pytest.raises(ValueError, match=f"q must be finite, got {bad}"):
            call()

    def test_collisionless_singular_point_rejected(self):
        with pytest.raises(ValueError, match="singular point"):
            eps_tr(0.1, 0.1, 0.0)
        with pytest.raises(ValueError, match="singular point"):
            d_eps_dq(-0.1, 0.1, 0.0)
        # finite collisionality rounds it off
        assert np.isfinite(d_eps_dq(0.1, 0.1, 1e-3))

    @pytest.mark.parametrize(
        "call,q,Omega",
        [
            # eps_tr ~ 3 pi i / (4 Omega q) past |q| = Omega
            (eps_tr, 1.0, 1e-308),
            (d_eps_dq, [0.5, 1.0], 1e-308),
            # the pole pair ~ -3 / (Omega z q^2) far below it
            (d2_eps_near_singularity, 1e-160, 0.1),
        ],
        ids=["eps_tr", "d_eps_dq", "pole_pair"],
    )
    def test_overflowing_value_rejected(self, call, q, Omega):
        # a ValueError naming q and Omega, not a numpy warning and an inf
        first = np.atleast_1d(q)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"value overflows at q = {first:g}, "
                                                 f"Omega = {Omega:g}, eps = 0"):
                call(q, Omega, 0.0)

    @pytest.mark.parametrize("call", [eps_tr, d_eps_dq, d2_eps_dq2, d2_eps_near_singularity])
    @pytest.mark.parametrize("Omega,eps", [(0.1, 0.01), (1e-4, 0.0), (0.99, 1e-4), (10.0, 0.1)])
    def test_huge_wavevector_matches_asymptote(self, call, Omega, eps):
        # no power of q is formed, so every value is finite without a numpy
        # warning out to |q| = 1e300 (d2 and the pole pair underflow to 0
        # there, as their asymptotes do). For |q| >> |z|, with z = Omega +
        # i eps: eps_tr = 1 + 3 pi i / (4 Omega |q|) - 3 z / (Omega q^2),
        # d eps/dq = -3 pi i / (4 Omega q |q|), d2 eps/dq2 = 3 pi i /
        # (2 Omega |q|^3) and the pole pair 3 z / (Omega q^4), each up to a
        # relative O(z/q). The asymptotes are the reference here: this far
        # out the mpmath permittivity of conftest reads a spurious real part
        which = (eps_tr, d_eps_dq, d2_eps_dq2, d2_eps_near_singularity).index(call)
        q = np.array([1e60, 1e100, 1e150, 1e300])
        q = np.concatenate((q, -q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call(q, Omega, eps)
        assert np.all(np.isfinite(got))
        with mpmath.workdps(30):
            z = mpmath.mpc(Omega, eps)
            i_pi = mpmath.mpc(0, mpmath.pi)
            want = []
            for x in map(mpmath.mpf, q.tolist()):
                a = abs(x)
                want.append(complex((
                    1 + 3 * i_pi / (4 * Omega * a) - 3 * z / (Omega * x**2),
                    -3 * i_pi / (4 * Omega * x * a),
                    3 * i_pi / (2 * Omega * a**3),
                    3 * z / (Omega * x**4),
                )[which]))
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 1e-305), (got, want)

    @pytest.mark.parametrize("q", [0.1, -0.1])
    @pytest.mark.parametrize("eps", [1e-160, 1e-300])
    def test_singular_shell_at_tiny_eps(self, q, eps):
        # at |q| = Omega the modulus ratio of the logarithm, 4 Omega^2 /
        # eps^2, overflows a float; the values stay finite, with no numpy
        # warning, and agree with the mpmath permittivity (its derivative
        # taken at 700 digits, which resolve a step below eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (eps_tr(q, 0.1, eps), d_eps_dq(q, 0.1, eps))
        with mpmath.workdps(700):
            f = lambda t: _mp_eps_tr(t, 0.1, eps, 1)
            want = (complex(f(mpmath.mpf(q))), complex(mpmath.diff(f, mpmath.mpf(q))))
        for g, w in zip(got, want):
            _close(g, w, 1e-14)

    def test_second_derivative_refuses_a_cube_that_overflows(self):
        # the series of d2 eps/dq2 takes |Omega + i eps|^3, which overflows
        # (a bare OverflowError from z**3) just past |z| = 5.6438e102: the
        # last eps whose cube is a float works, the next is refused by name;
        # eps_tr takes no cube, and past the series switch neither does d2
        edge = _kernels._CUBE_MAX
        assert np.isfinite(d2_eps_dq2(0.05, 0.1, edge))
        for eps in (np.nextafter(edge, np.inf), 1e103):
            with pytest.raises(ValueError) as exc:
                d2_eps_dq2(0.05, 0.1, eps)
            assert str(exc.value) == (
                f"eps = {eps:g} is too large for d2 eps/dq2: its series takes "
                "|Omega + i eps|^3, which overflows past |Omega + i eps| = 5.644e+102")
        assert eps_tr(0.05, 0.1, 1e200) == pytest.approx(1.0 + 2e-199j, rel=1e-15)
        assert np.isfinite(d2_eps_dq2(3e103, 0.1, 1e103))

    def test_scan_to_a_huge_q_max(self):
        # the first grid steps by 2e198, so its largest sample is the end node
        # q_min and the peak at 0.1 is never bracketed; no sample overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"end node q = 0\.05 of a grid of step "
                                                 r"2\.04082e\+198: the peak is not bracketed"):
                kohn_scan(0.1, 0.01, 0.05, 1e200, 50)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            eps_tr(0.05, 0.0, 0.01)
        with pytest.raises(ValueError):
            eps_tr(0.05, 0.1, -1e-3)
        with pytest.raises(ValueError, match="Omega must be finite"):
            eps_tr(0.05, float("nan"), 0.01)
        with pytest.raises(ValueError, match="eps must be finite"):
            eps_tr(0.05, 0.1, float("inf"))


def _mp_kohn_root(Omega, eps):
    """The peak of |d eps_tr/dq| as the root of Re(conj(eps') eps'') in
    mpmath, with both derivatives taken by mp.diff on the conftest closed
    form; it lies in (Omega, Omega + eps), where the function changes sign."""
    with mpmath.workdps(40):
        def slope(q):
            d1, d2 = (mpmath.diff(lambda t: _mp_eps_tr(t, Omega, eps, 1), q, n) for n in (1, 2))
            return mpmath.re(mpmath.conj(d1) * d2)

        a, b = mpmath.mpf(Omega), mpmath.mpf(Omega) + mpmath.mpf(eps)
        assert slope(a) > 0 > slope(b)
        return float(mpmath.findroot(slope, (a, b), solver="anderson"))


KOHN_BOX = [(Om, e) for Om in (0.01, 0.08, 0.1, 0.5, 0.9, 2.0) for e in (1e-6, 1e-4, 1e-2)]


class TestKohnScan:
    def test_localizes_singular_wavevector(self):
        res = kohn_scan(0.08, 1e-4, 0.02, 0.2, 500)
        assert isinstance(res, KohnScanResult)
        assert res.q_star == pytest.approx(0.08004078578352956, rel=1e-12)
        assert res.grid.shape == res.values.shape == (500,)
        # broadened peak sits a fraction of eps above Omega
        assert 0.0 < res.q_star - 0.08 < 1e-4

    @pytest.mark.parametrize("Omega,eps", KOHN_BOX)
    def test_peak_is_the_mpmath_root(self, Omega, eps):
        res = kohn_scan(Omega, eps, Omega / 4, 4 * Omega, 100)
        assert res.q_star == pytest.approx(_mp_kohn_root(Omega, eps), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(log_Omega=st.floats(-3.0, 0.5), log_eps_ratio=st.floats(-5.0, 0.0),
           n_points=st.integers(10, 400))
    def test_peak_tops_the_scan_just_above_omega(self, log_Omega, log_eps_ratio, n_points):
        Omega = 10.0**log_Omega
        eps = Omega * 10.0**log_eps_ratio
        res = kohn_scan(Omega, eps, Omega / 3, 3 * Omega, n_points)
        assert np.all(res.max_abs_derivative >= res.values)
        assert 0.0 < res.q_star - Omega < eps

    @pytest.mark.parametrize("Omega,peak", [(0.08, 13792.0), (0.1, 7372.4)])
    def test_coarse_grid_refines_to_omega(self, Omega, peak):
        res = kohn_scan(Omega, 1e-4, 0.04, 0.4, 10)
        assert 0.0 < res.q_star - Omega < 1e-4
        assert res.max_abs_derivative == pytest.approx(peak, rel=1e-3)

    def test_peak_contrast(self):
        # the refined peak towers over samples two decades away
        res = kohn_scan(0.08, 1e-4, 0.04, 0.4, 10)
        far_lo = abs(d_eps_dq(res.q_star / 100.0, 0.08, 1e-4))
        far_hi = abs(d_eps_dq(min(res.q_star * 100.0, 8.0), 0.08, 1e-4))
        assert res.max_abs_derivative / far_lo > 1e3
        assert res.max_abs_derivative / far_hi > 1e3

    def test_collisionless_peak_is_refused(self, capsys):
        # at eps = 0 the peak is the singular point q = Omega itself
        msg = ("at eps = 0 |d eps_tr/dq| diverges at the singular point q = Omega = 0.08, "
               "which is its peak; scan at eps > 0")
        with pytest.raises(ValueError) as exc:
            kohn_scan(0.08, 0.0, 0.02, 0.2, 500)
        assert str(exc.value) == msg
        argv = ["kohn-scan", "--Omega", "0.08", "--eps", "0", "--grid", "0.02:0.2:500"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", msg + "\n")

    def test_overflow_is_refused_by_name(self):
        # at Omega = 1e-308 every |d eps/dq| overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"value overflows at q = 0\.02, "
                                                 r"Omega = 1e-308, eps = 0\.0001"):
                kohn_scan(1e-308, 1e-4, 0.02, 0.2, 50)

    @pytest.mark.parametrize("Omega,eps", [(1e-60, 1e-62), (1e-90, 1e-95)])
    def test_tiny_omega_peak(self, Omega, eps):
        # eps' eps'' overflows here where eps' does not; eps_tr - 1 scales as
        # Omega^-2 at fixed q/Omega and eps/Omega, so the peak is the one at
        # (1, eps/Omega) times Omega
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kohn_scan(Omega, eps, Omega / 4, 4 * Omega, 100)
        assert res.q_star == pytest.approx(Omega * _mp_kohn_root(1.0, eps / Omega), rel=1e-12)

    def test_tiny_eps_scan(self):
        # a bisection midpoint lands on Omega, where the logarithm's modulus
        # ratio overflows; the true peak, 0.2 eps above Omega, rounds to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kohn_scan(0.1, 1e-300, 0.05, 0.2, 50)
        assert res.q_star == 0.1 and np.isfinite(res.max_abs_derivative)

    @pytest.mark.parametrize("eps", [1e-307, 1e-310, 5e-324])
    def test_subnormal_eps_scan(self, eps):
        # at mid = Omega the product eps' eps'' overflows from eps = 1e-307
        # down, and eps'' itself, a pole pair 1.5i Omega/eps, below about
        # 1e-308; the sign of Re(conj(eps') eps'') is + there all the same
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kohn_scan(0.1, eps, 0.05, 0.2, 50)
        assert res.q_star == 0.1
        assert res.max_abs_derivative == abs(d_eps_dq(0.1, 0.1, eps))

    @pytest.mark.parametrize("q_min,q_max,end", [(0.12, 0.4, "0.12"), (0.02, 0.09, "0.09")])
    def test_unbracketed_peak_raises(self, q_min, q_max, end):
        # the peak at Omega = 0.1 lies outside the grid, so the largest sample
        # is the end node nearest to it
        with pytest.raises(ValueError, match=f"end node q = {end} of a grid of step"):
            kohn_scan(0.1, 1e-4, q_min, q_max, 50)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_points"):
            kohn_scan(0.1, 1e-4, 0.02, 0.2, 9)
        with pytest.raises(ValueError, match="q_min"):
            kohn_scan(0.1, 1e-4, 0.2, 0.02, 50)
        with pytest.raises(ValueError, match="q_min"):
            kohn_scan(0.1, 1e-4, 0.0, 0.2, 50)
