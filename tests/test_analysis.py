import math

import numpy as np
import pytest

from fermiskin import analysis
from fermiskin.analysis import (
    AnalysisError,
    CrossoverResult,
    NoCrossoverError,
    crossover,
    envelope_fit,
    near_surface_fit,
    wavelength_extract,
)
from fermiskin.constants import SPEED_OF_LIGHT
from fermiskin.field import amplitude_B, asymptotic_field, profile
from fermiskin.materials import Material, get_material, params_for

# Frozen crossover depths in micrometres (root of B/x^2 = e^{-x/delta},
# bisection + Newton polish; deterministic to machine precision).
CROSSOVER_UM = {
    ("na", 1e-2): 0.468223647679,
    ("na", 1e-1): 0.791951887308,
    ("au", 1e-2): 0.285087812881,
    ("au", 1e-1): 0.498924186989,
    ("al", 1e-2): 0.142042939147,
    ("al", 1e-1): 0.259253785093,
}
K_PROBE_UM = {1e-2: 0.693451814825, 1e-1: 1.14145953007}


def synthetic_wave(k=3.7, x0=6.0, n=2000, periods=10, amp=1.0, phase=0.0):
    # start several oscillations out: the true peaks of sin(kx)/x^2 sit
    # below the envelope by O((kx)^-2), which biases the fitted slope
    # when the window starts too close in
    xs = np.linspace(x0, x0 + periods * 2.0 * math.pi / k, n)
    return xs, amp * np.sin(k * xs + phase) / xs**2


class TestEnvelopeFit:
    def test_inverse_square_synthetic(self):
        xs, y = synthetic_wave()
        fit = envelope_fit((xs, y))
        assert fit.slope == pytest.approx(-2.0, abs=0.02)
        assert fit.r_squared > 0.999
        assert fit.n_points >= 8
        assert fit.window == (xs[0], xs[-1])

    def test_amplitude_lands_in_intercept(self):
        xs, y = synthetic_wave(amp=50.0)
        fit = envelope_fit((xs, y))
        assert math.exp(fit.intercept) == pytest.approx(50.0, rel=0.05)

    def test_asymptotic_profile_recovers_exponent(self, na):
        L = na.v_F / (1e-2 * na.omega_p)
        us = np.linspace(14.6, 50.4, 400)
        prof = (us * L, asymptotic_field(us * L, 1e-2, na))
        fit = envelope_fit(prof, window=(15 * L, 50 * L))
        assert fit.slope == pytest.approx(-2.0, abs=0.01)

    def test_monotone_input_rejected(self):
        xs = np.linspace(1.0, 10.0, 200)
        with pytest.raises(AnalysisError, match="local extrema"):
            envelope_fit((xs, 1.0 / xs**2))

    def test_failed_points_are_dropped(self):
        xs, y = synthetic_wave()
        y = y.copy()
        y[100:110] = np.nan
        fit = envelope_fit((xs, y))
        assert fit.slope == pytest.approx(-2.0, abs=0.02)

    def test_window_outside_profile(self):
        xs, y = synthetic_wave()
        with pytest.raises(AnalysisError, match="outside the profile range"):
            envelope_fit((xs, y), window=(100.0, 200.0))

    def test_bad_window_order(self):
        xs, y = synthetic_wave()
        with pytest.raises(ValueError, match="bad window"):
            envelope_fit((xs, y), window=(5.0, 5.0))

    def test_input_coercion_errors(self):
        with pytest.raises(TypeError, match="FieldProfile or an"):
            envelope_fit(42)
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            envelope_fit(([1.0, 2.0, 3.0], [1.0, 2.0]))
        with pytest.raises(AnalysisError, match="fewer than 4 usable"):
            envelope_fit(([1.0, 2.0, 3.0], [1.0, -1.0, 1.0]))


class TestWavelengthExtract:
    def test_synthetic_period(self):
        k = 3.7
        xs, y = synthetic_wave(k=k)
        est = wavelength_extract((xs, y))
        assert est.wavelength == pytest.approx(2.0 * math.pi / k, rel=5e-3)
        assert est.std < 1e-3 * est.wavelength
        assert est.n_crossings == len(est.crossings)

    def test_asymptotic_profile_period(self, na):
        L = na.v_F / (1e-2 * na.omega_p)
        us = np.linspace(14.6, 50.4, 400)
        prof = (us * L, asymptotic_field(us * L, 1e-2, na))
        est = wavelength_extract(prof, window=(15 * L, 50 * L))
        assert est.wavelength == pytest.approx(2.0 * math.pi * L, rel=5e-3)

    def test_constant_sign_rejected(self):
        xs = np.linspace(1.0, 10.0, 200)
        with pytest.raises(AnalysisError, match="sign changes"):
            wavelength_extract((xs, 1.0 / xs**2))

    def test_exact_zeros_counted(self):
        xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        y = np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0])
        est = wavelength_extract((xs, y))
        assert est.n_crossings == 4
        assert est.wavelength == pytest.approx(2.0, rel=1e-12)


class TestFuzzedExtraction:
    def test_randomized_waves(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = rng.uniform(0.5, 5.0)
            amp = 10 ** rng.uniform(-3, 3)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            x0 = 15.0 / k * rng.uniform(1.0, 1.5)
            periods = rng.uniform(8.0, 12.0)
            xs, y = synthetic_wave(
                k=k, x0=x0, n=1500, periods=periods, amp=amp, phase=phase
            )
            fit = envelope_fit((xs, y))
            est = wavelength_extract((xs, y))
            assert abs(fit.slope + 2.0) < 0.02
            assert abs(est.wavelength - 2.0 * math.pi / k) < 1e-3 * (2.0 * math.pi / k)


class TestNearSurfaceFit:
    def test_pure_exponential(self):
        d = 0.7
        xs = np.linspace(0.01 * d, 1.4 * d, 80)
        y = 3.0 * np.exp(-xs / d)
        fit = near_surface_fit((xs, y), (0.05 * d, 1.2 * d), delta=d)
        assert fit.slope == pytest.approx(-1.0 / d, rel=1e-6)
        assert fit.r_squared > 0.99
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-6)

    def test_numeric_profile_decays_at_light_skin_rate(self, na):
        p = params_for(na, 1e-2, 1e-5)
        d = p.delta
        xs = np.linspace(0.05 * d, 1.05 * d, 40)
        prof = profile(xs, p, "rescaled")
        fit = near_surface_fit(prof, (0.1 * d, d))
        assert fit.slope == pytest.approx(-na.omega_p / SPEED_OF_LIGHT, rel=0.15)
        assert fit.r_squared > 0.999

    def test_window_must_stay_near_surface(self):
        d = 0.7
        xs = np.linspace(0.01 * d, 3.0 * d, 80)
        y = np.exp(-xs / d)
        with pytest.raises(ValueError, match="must end within"):
            near_surface_fit((xs, y), (0.1 * d, 2.0 * d), delta=d)
        with pytest.raises(ValueError, match="bad window"):
            near_surface_fit((xs, y), (0.0, d), delta=d)

    def test_synthetic_needs_delta(self):
        xs = np.linspace(0.01, 1.0, 40)
        with pytest.raises(ValueError, match="delta must be given"):
            near_surface_fit((xs, np.exp(-xs)), (0.1, 1.0))

    def test_growing_field_rejected(self):
        d = 0.7
        xs = np.linspace(0.01 * d, 1.4 * d, 80)
        with pytest.raises(AnalysisError, match="does not decay"):
            near_surface_fit((xs, np.exp(xs / d)), (0.05 * d, d), delta=d)


class TestCrossover:
    @pytest.mark.parametrize("name,Omega", sorted(CROSSOVER_UM))
    def test_frozen_depths(self, name, Omega):
        r = crossover(Omega, get_material(name))
        assert isinstance(r, CrossoverResult)
        assert r.x_star * 1e4 == pytest.approx(CROSSOVER_UM[name, Omega], rel=1e-9)

    @pytest.mark.parametrize("Omega", sorted(K_PROBE_UM))
    def test_potassium_density_probe(self, Omega):
        kp = Material.from_density("potassium", 1.40e22)
        r = crossover(Omega, kp)
        assert r.x_star * 1e4 == pytest.approx(K_PROBE_UM[Omega], rel=1e-9)

    def test_root_quality(self, na):
        r = crossover(1e-2, na)
        assert r.branch == "beyond_minimum"
        assert r.g_residual <= 1e-10
        lo, hi = r.bracket
        assert lo <= r.x_star <= hi
        assert hi - lo <= 1e-11 * r.x_star
        # the root must sit beyond the minimum of the log-difference
        assert r.x_star > 2.0 * SPEED_OF_LIGHT / na.omega_p

    def test_root_satisfies_defining_equation(self, na):
        r = crossover(1e-2, na)
        B = amplitude_B(1e-2, na)
        k = na.omega_p / SPEED_OF_LIGHT
        assert B / r.x_star**2 == pytest.approx(math.exp(-k * r.x_star), rel=1e-9)

    def test_stronger_tail_pulls_crossover_in(self, na):
        # scaling the oscillation up makes it overtake the exponential
        # sooner; push far enough and the crossover disappears entirely
        assert crossover(1e-2, na, E0=10.0).x_star < crossover(1e-2, na).x_star

    def test_overdriven_surface_has_no_crossover(self, na):
        with pytest.raises(NoCrossoverError, match="dominates everywhere"):
            crossover(1e-2, na, E0=1e5)

    def test_nan_residual_fails(self, na, monkeypatch):
        # a NaN amplitude propagates to the residual, which must not pass
        # for a root; amplitude_B rejects a NaN E0 itself, so the NaN is
        # injected past it
        monkeypatch.setattr(analysis, "amplitude_B", lambda *args: math.nan)
        with pytest.raises(AnalysisError, match="residual nan"):
            crossover(1e-2, na)

    def test_depth_scales_with_skin_depth_alone(self, na):
        # in units of c/omega_p the crossover depends only on Omega and
        # v_F/c, so doubling omega_p at fixed v_F must collapse onto the
        # same dimensionless root
        fict = Material("fict", na.n_e, 2.0 * na.omega_p, na.v_F, check=False)
        u_na = crossover(1e-2, na).x_star * na.omega_p / SPEED_OF_LIGHT
        u_f = crossover(1e-2, fict).x_star * fict.omega_p / SPEED_OF_LIGHT
        assert u_f == pytest.approx(u_na, rel=1e-10)
