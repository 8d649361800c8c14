import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from fermiskin import analysis, asymptotic
from fermiskin.analysis import envelope_fit, near_surface_fit, wavelength_extract
from fermiskin.asymptotic import (
    AnalysisError,
    CrossoverResult,
    NoCrossoverError,
    amplitude_B,
    asymptotic_values,
    crossover,
)
from fermiskin.constants import SPEED_OF_LIGHT
from fermiskin.field import profile
from fermiskin.materials import Material, get_material, params_for

# Frozen crossover depths in micrometres (root of B/x^2 = e^{-x/delta},
# the closed form -(2/k) W_{-1}(-k sqrt(B)/2); deterministic to machine
# precision).
CROSSOVER_UM = {
    ("na", 1e-2): 0.468223647679,
    ("na", 1e-1): 0.791951887308,
    ("au", 1e-2): 0.285087812881,
    ("au", 1e-1): 0.498924186989,
    ("al", 1e-2): 0.142042939147,
    ("al", 1e-1): 0.259253785093,
}
K_PROBE_UM = {1e-2: 0.693451814825, 1e-1: 1.14145953007}
# Crossover depths (cm) at Omega = 1e-300, 1e-4, 1, 1e20 and 1e40 from the
# earlier root finder (bracket doubling, bisection to 1e-12, Newton polish)
BISECTION_X_CM = {
    "na": [3.2460502154982944e-05, 3.246479586025686e-05, 0.00011148184807730985,
           0.0007250347242257365, 0.001330326140223085],
    "au": [2.1020814160186038e-05, 2.102251699168794e-05, 7.160972162754522e-05,
           0.00048296478043615494, 0.000888636272401186],
    "al": [1.1408121554752136e-05, 1.1408588443596994e-05, 3.8393904501498693e-05,
           0.0002733864292562666, 0.0005050083635395315],
}
# at Omega = 1e-3, n_e of about 3.92541237e28 cm^-3 puts k sqrt(B)/2 at 1/e;
# a denser metal's tail dominates everywhere
DENSE = Material("dense", 5e28)


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
        prof = (us * L, np.array(asymptotic_values(us * L, 1e-2, na)))
        fit = envelope_fit(prof, window=(15 * L, 50 * L))
        assert fit.slope == pytest.approx(-2.0, abs=0.01)

    def test_monotone_input_rejected(self):
        xs = np.linspace(1.0, 10.0, 200)
        with pytest.raises(AnalysisError, match="local extrema"):
            envelope_fit((xs, 1.0 / xs**2))

    def test_failed_points_are_dropped(self):
        xs, y = synthetic_wave()
        y = y.astype(np.complex128)
        y[100:110] = np.nan
        # a finite real part does not save a point whose imaginary part failed
        y[150] = complex(y[150].real, np.inf)
        kept, _ = analysis._coerce_profile((xs, y))
        assert kept.tolist() == np.delete(xs, [*range(100, 110), 150]).tolist()
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
        prof = (us * L, np.array(asymptotic_values(us * L, 1e-2, na)))
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


    def test_peak_vertices_match_exact_arithmetic(self):
        # the vectorized vertex against the parabola through each triplet
        # in rational arithmetic, which keeps it wherever c2 < 0; rounded
        # values give flat tops (m[j] = m[j + 1]) and tied peaks, and grids
        # a few ulps apart test that rounding never moves a vertex out of
        # its triplet or below its node
        rng = np.random.default_rng(3)
        for trial in range(90):
            if trial < 60:
                x = np.sort(rng.uniform(0.0, 10.0, 40)) * 10.0 ** rng.integers(-8, 3)
            else:
                x = [rng.uniform(0.5, 1.0) * 10.0 ** rng.integers(-8, 3)]
                for k in rng.integers(1, 4, 39):
                    for _ in range(k):
                        x.append(np.nextafter(x[-1], np.inf))
                x = np.array(x)
            m = rng.uniform(0.0, 1.0, 40)
            if trial % 2:
                m = np.round(m, 1)
            xs, ps = analysis._refined_peaks(x, m)
            nodes = np.nonzero((m[1:-1] > m[:-2]) & (m[1:-1] >= m[2:]))[0] + 1
            assert xs.size == ps.size == nodes.size
            for xk, pk, j in zip(xs, ps, nodes):
                assert x[j - 1] <= xk <= x[j + 1] and pk >= m[j] > 0.0
                x0, x1, x2 = (Fraction(float(v)) for v in x[j - 1 : j + 2])
                y0, y1, y2 = (Fraction(float(v)) for v in m[j - 1 : j + 2])
                d01 = (y1 - y0) / (x1 - x0)
                c2 = ((y2 - y1) / (x2 - x1) - d01) / (x2 - x0)
                s = d01 + c2 * (x1 - x0)
                assert c2 < 0
                xv, pv = x1 - s / (2 * c2), y1 - s * s / (4 * c2)
                assert (x0 + x1) / 2 < xv <= (x1 + x2) / 2 and pv >= y1
                assert xk == pytest.approx(float(xv), rel=1e-14)
                assert pk == pytest.approx(float(pv), rel=1e-14)


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

    def test_too_few_samples_in_window(self):
        # 7 nodes in the window, 3 of them zero: the log fit keeps only 4
        d = 0.7
        xs = np.linspace(0.1 * d, d, 7)
        y = np.exp(-xs / d)
        y[1:4] = 0.0
        with pytest.raises(AnalysisError) as exc:
            near_surface_fit((xs, y), (0.1 * d, d), delta=d)
        assert str(exc.value) == "need at least 5 samples in the window, found 4"

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
        kp = Material("potassium", 1.40e22)
        r = crossover(Omega, kp)
        assert r.x_star * 1e4 == pytest.approx(K_PROBE_UM[Omega], rel=1e-9)

    def test_root_quality(self, na):
        r = crossover(1e-2, na)
        assert r.g_residual <= 1e-10
        assert r.iterations == 4
        # the root must sit beyond the minimum of the log-difference
        assert r.x_star > 2.0 * SPEED_OF_LIGHT / na.omega_p

    @pytest.mark.parametrize("name", sorted(BISECTION_X_CM))
    def test_closed_form_keeps_the_bisection_depths(self, name):
        m = get_material(name)
        for Omega, x_ref in zip((1e-300, 1e-4, 1.0, 1e20, 1e40), BISECTION_X_CM[name]):
            x = crossover(Omega, m).x_star
            assert abs(x - x_ref) <= 4 * math.ulp(x_ref), (Omega, x, x_ref)

    @pytest.mark.parametrize("n_e", [3.9e28, 3.92541e28, 3.92541237e28, 3.925412373e28])
    def test_residual_near_the_branch_point(self, n_e):
        # W_{-1} is steepest at -1/e, where x_star meets the minimum 2/k
        m = Material("edge", n_e)
        r = crossover(1e-3, m)
        x_min = 2.0 * SPEED_OF_LIGHT / m.omega_p
        assert r.g_residual <= 1e-10
        assert x_min < r.x_star < 1.05 * x_min

    def test_root_satisfies_defining_equation(self, na):
        r = crossover(1e-2, na)
        B = amplitude_B(1e-2, na)
        k = na.omega_p / SPEED_OF_LIGHT
        assert B / r.x_star**2 == pytest.approx(math.exp(-k * r.x_star), rel=1e-9)

    def test_stronger_tail_pulls_crossover_in(self, na):
        # in units of c/omega_p the tail k sqrt(B) grows with v_F/c, so in a
        # denser metal it overtakes the exponential sooner; push far enough
        # and the crossover disappears entirely
        depths = [crossover(1e-2, m).x_star * m.omega_p / SPEED_OF_LIGHT
                  for m in (na, Material("denser", 1e26), Material("densest", 1e28))]
        assert depths == sorted(depths, reverse=True)

    def test_overdriven_surface_has_no_crossover(self):
        for Omega, m in ((1e-3, DENSE), (1e-2, DENSE), (1e-3, Material("edge", 3.92541238e28))):
            with pytest.raises(NoCrossoverError, match="dominates everywhere"):
                crossover(Omega, m)

    def test_nan_residual_fails(self, na, monkeypatch):
        # a NaN amplitude propagates to the residual, which must not pass
        # for a root; amplitude_B never returns NaN, so it is injected
        monkeypatch.setattr(asymptotic, "amplitude_B", lambda *args: math.nan)
        with pytest.raises(AnalysisError, match="residual nan"):
            crossover(1e-2, na)

    def test_depth_scales_with_skin_depth_alone(self, na):
        # in units of c/omega_p the crossover depends only on Omega and
        # v_F/c, so doubling omega_p at fixed v_F must collapse onto the
        # same dimensionless root; no density gives that pair, so a
        # stand-in carries the two values crossover reads
        fict = SimpleNamespace(name="fict", omega_p=2.0 * na.omega_p, v_F=na.v_F)
        u_na = crossover(1e-2, na).x_star * na.omega_p / SPEED_OF_LIGHT
        u_f = crossover(1e-2, fict).x_star * fict.omega_p / SPEED_OF_LIGHT
        assert u_f == pytest.approx(u_na, rel=1e-10)


class TestLambertW:
    # the lower real branch, sampled from 1e-6 above the branch point -1/e
    # to -1e-170
    YS = ([-1.0 / math.e + 10.0**-j for j in range(6, 0, -1)]
          + [-0.3, -0.26, -0.25, -0.2499]
          + [-(10.0**-j) for j in range(1, 171, 3)])

    @pytest.mark.parametrize("y", YS)
    def test_against_mpmath(self, y):
        w, steps = asymptotic._lambert_w_lower(y)
        with mpmath.workdps(40):
            ref = mpmath.lambertw(y, -1).real
            rel = float(abs((w - ref) / ref))
            cond = float(1 / abs(1 + ref))
        assert steps == 4
        # the condition number 1/|1 + w| turns the rounding of w e^w - y,
        # an ulp of |y|, into a relative error that near -1/e exceeds 1e-15
        assert rel <= max(1e-15, sys.float_info.epsilon * cond), (rel, cond)

    def test_branch_point_is_minus_one(self):
        # the branch-point start is the root itself there: x_star = 2c/omega_p
        assert asymptotic._lambert_w_lower(-1.0 / math.e) == (-1.0, 0)
