import numpy as np
import pytest

from fermiskin import permittivity
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
        got = small_q_series(1e-6, 0.1, 0.01, n_terms=60)
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
            got = small_q_series(q, Omega, eps, n_terms=40).value
            _close(got, ref, 1e-9)

    def test_divergent_region_rejected(self):
        with pytest.raises(ValueError, match="series diverges"):
            small_q_series(0.2, 0.1, 0.01)

    def test_error_bound_covers_truncation(self):
        s20 = small_q_series(0.05, 0.1, 0.01, n_terms=20)
        s40 = small_q_series(0.05, 0.1, 0.01, n_terms=40)
        assert abs(s20.value - s40.value) <= s20.error_bound
        assert s40.error_bound < s20.error_bound

    def test_n_terms_validation(self):
        with pytest.raises(ValueError):
            small_q_series(0.01, 0.1, 0.01, n_terms=0)


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
    def test_q_zero_rejected(self):
        with pytest.raises(ValueError, match="small_q_series"):
            eps_tr(0.0, 0.1, 0.01)
        with pytest.raises(ValueError, match="small_q_series"):
            d_eps_dq(np.array([0.05, 0.0]), 0.1, 0.01)

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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            eps_tr(0.05, 0.0, 0.01)
        with pytest.raises(ValueError):
            eps_tr(0.05, 0.1, -1e-3)
        with pytest.raises(ValueError, match="Omega must be finite"):
            eps_tr(0.05, float("nan"), 0.01)
        with pytest.raises(ValueError, match="eps must be finite"):
            eps_tr(0.05, 0.1, float("inf"))


class TestKohnScan:
    def test_localizes_singular_wavevector(self):
        res = kohn_scan(0.08, 1e-4, 0.02, 0.2, 500)
        assert isinstance(res, KohnScanResult)
        assert res.q_star == pytest.approx(0.08004064128256513, rel=1e-12)
        assert res.refined_step == pytest.approx(3.6072144288577153e-7, rel=1e-12)
        # broadened peak sits a fraction of eps above Omega
        assert 0.0 < res.q_star - 0.08 < 1e-4

    @pytest.mark.parametrize("Omega,peak", [(0.08, 13792.0), (0.1, 7372.4)])
    def test_coarse_grid_refines_to_omega(self, Omega, peak):
        res = kohn_scan(Omega, 1e-4, 0.04, 0.4, 10)
        assert abs(res.q_star - Omega) <= res.refined_step * (1 + 1e-9)
        assert res.refined_step == pytest.approx(4e-5, rel=1e-12)
        assert res.max_abs_derivative == pytest.approx(peak, rel=1e-3)

    def test_peak_contrast(self):
        # the refined peak towers over samples two decades away
        res = kohn_scan(0.08, 1e-4, 0.04, 0.4, 10)
        far_lo = abs(d_eps_dq(res.q_star / 100.0, 0.08, 1e-4))
        far_hi = abs(d_eps_dq(min(res.q_star * 100.0, 8.0), 0.08, 1e-4))
        assert res.max_abs_derivative / far_lo > 1e3
        assert res.max_abs_derivative / far_hi > 1e3

    def test_collisionless_scan_skips_singular_node(self, monkeypatch):
        grid = np.linspace(0.05, 0.25, 11)
        Omega = float(grid[3])  # an exact grid node
        monkeypatch.setattr(permittivity, "_SCAN_ROUNDS", 0)
        res = kohn_scan(Omega, 0.0, 0.05, 0.25, 11)
        assert res.grid.size == 11  # the uniform scan alone
        assert res.n_skipped >= 1
        assert np.isfinite(res.max_abs_derivative)
        assert res.q_star != Omega

    def test_collisionless_zoom_converges(self, monkeypatch):
        monkeypatch.setattr(permittivity, "_SCAN_ROUNDS", 6)
        res = kohn_scan(0.1, 0.0, 0.05, 0.2, 16)
        assert res.refined_step == pytest.approx(0.01 / 10**6, rel=1e-12)
        assert abs(res.q_star - 0.1) < 1e-5
        assert res.values.shape == res.grid.shape

    def test_validation(self):
        with pytest.raises(ValueError, match="n_points"):
            kohn_scan(0.1, 1e-4, 0.02, 0.2, 9)
        with pytest.raises(ValueError, match="q_min"):
            kohn_scan(0.1, 1e-4, 0.2, 0.02, 50)
        with pytest.raises(ValueError, match="q_min"):
            kohn_scan(0.1, 1e-4, 0.0, 0.2, 50)
