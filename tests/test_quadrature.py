"""Engine checks against scipy.integrate.quad as an independent oracle.

scipy is deliberately kept out of the runtime integration path; here it
arbitrates. QAWO handles the oscillatory weight, plain QAGS the phase-0
(envelope-branch) case.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import sici

import fermiskin._kernels as k
from fermiskin import quadrature
from fermiskin.field import field_ratio_rescaled
from fermiskin.materials import get_material, params_for
from fermiskin.quadrature import QuadratureError, _euler_limit, oscillatory_halfline


@pytest.fixture(scope="module")
def na_params():
    return params_for(get_material("na"), 1e-2, 1e-4)


def _scipy_osc(p, phase, kernel_id, *, split=2.0, upper=40.0):
    def part(re):
        def f(s):
            v = k.envelope_grid(np.array([s]), kernel_id, p.Omega, p.eps, p.b, 1.0)[0]
            return v.real if re else v.imag

        args = dict(weight="cos", wvar=phase, limit=4000, epsabs=1e-18, epsrel=1e-13)
        with warnings.catch_warnings():
            # tolerances are pushed past what QAWO will certify; the
            # value it returns anyway is what we want
            warnings.simplefilter("ignore", IntegrationWarning)
            lo, _ = quad(f, 1e-15, split, **args)
            hi, _ = quad(f, split, upper, **args)
        return lo + hi

    out = complex(part(True), part(False))
    if kernel_id == 0:
        # truncating at `upper` leaves the 1/(b s^2) wing; fold it back
        # in analytically so the reference is a genuine [0, inf) value
        si, _ = sici(phase * upper)
        out += -(1.0 / p.b) * (
            math.cos(phase * upper) / upper - phase * (0.5 * math.pi - si)
        )
    return out


def _scipy_env(p, kernel_id):
    def part(re):
        def f(s):
            v = k.envelope_grid(np.array([s]), kernel_id, p.Omega, p.eps, p.b, 1.0)[0]
            return v.real if re else v.imag

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            lo, _ = quad(f, 1e-15, 2.0, limit=2000, epsabs=1e-18, epsrel=1e-13,
                         points=[p.Omega, 2 * p.Omega])
            hi, _ = quad(f, 2.0, np.inf, limit=2000, epsabs=1e-18, epsrel=1e-13)
        return lo + hi

    return complex(part(True), part(False))


def _averaged(psums):
    # reference for _euler_limit: the repeated pairwise averaging of the
    # last 48 partial sums that it evaluates in closed form
    v = psums[-48:].copy()
    corner = prev = v[-1]
    while v.size > 1:
        v = 0.5 * (v[:-1] + v[1:])
        prev, corner = corner, v[-1]
    return corner, abs(corner - prev)


def test_euler_limit_matches_repeated_averaging():
    # the closed form sums in another order: allow a few roundings of the
    # largest partial sum in the window
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(6)
    for size in range(1, 61):
        for _ in range(5):
            psums = np.cumsum(rng.standard_normal(size) + 1j * rng.standard_normal(size))
            tol = 4.0 * eps * np.abs(psums[-48:]).max()
            got, got_err = _euler_limit(psums)
            want, want_err = _averaged(psums)
            assert abs(got - want) <= tol, size
            assert abs(got_err - want_err) <= tol, size


def test_oscillatory_branch_against_qawo(na_params):
    p = na_params
    phase = p.omega_p * 1e-5 / p.v_F  # deep in the oscillatory regime
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.branch == "oscillatory"
    ref = _scipy_osc(p, phase, 0)
    assert abs(res.value - ref) <= 1e-6 * abs(ref)


def test_oscillatory_ibp_kernel_against_qawo(na_params):
    p = na_params
    phase = p.omega_p * 1e-4 / p.v_F
    res = oscillatory_halfline(phase, 1, p.Omega, p.eps, p.b, 1.0)
    ref = _scipy_osc(p, phase, 1)
    assert abs(res.value - ref) <= 1e-6 * abs(ref)


def test_envelope_branch_against_qags(na_params):
    p = na_params
    res = oscillatory_halfline(0.0, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.branch == "envelope"
    ref = _scipy_env(p, 0)
    assert abs(res.value - ref) <= 1e-7 * abs(ref)


def _scipy_remainder(p, phase, kernel_id, start):
    # int_start^inf cos(phase s) K(s) ds by QAWO on [start, upper]. For the
    # reciprocal kernel the 1/(b s^2) wing past upper is added, as in
    # _scipy_osc; the IBP kernel's -6/(b s^4) wing past its farther upper
    # is below 1e-3 of the remainder at every case here
    if kernel_id == 0:
        upper = max(40.0, 4.0 * start)
    else:
        upper = max(400.0, 40.0 * start)

    def part(re):
        def f(s):
            v = k.envelope_grid(np.array([s]), kernel_id, p.Omega, p.eps, p.b, 1.0)[0]
            return v.real if re else v.imag

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(f, start, upper, weight="cos", wvar=phase, limit=4000,
                        epsabs=1e-22, epsrel=1e-13)[0]

    out = complex(part(True), part(False))
    if kernel_id == 0:
        si, _ = sici(phase * upper)
        out += -(1.0 / p.b) * (math.cos(phase * upper) / upper - phase * (0.5 * math.pi - si))
    return out


# (phase, eps, material, kernel_id); the IBP kernel needs eps > 0
_HONESTY_CASES = [
    (phase, eps, m, kernel_id)
    for kernel_id, m, eps, phase in itertools.product(
        (0, 1), ("na", "au", "al"), (1e-4, 0.0), (None, 1.0, 10.0)
    )
    if not (kernel_id == 1 and eps == 0.0)
]


@pytest.mark.parametrize("phase,eps,material,kernel_id", _HONESTY_CASES)
def test_tail_bound_honesty(phase, eps, material, kernel_id):
    # the last half-period integral bounds everything past s_max; None is
    # x = 1e-5 cm, 1 and 10 are phases whose one half-period spans the
    # structure region
    p = params_for(get_material(material), 1e-2, eps)
    if phase is None:
        phase = p.omega_p * 1e-5 / p.v_F
    res = oscillatory_halfline(phase, kernel_id, p.Omega, p.eps, p.b, 1.0)
    assert res.branch == "oscillatory"
    rest = _scipy_remainder(p, phase, kernel_id, res.s_max)
    # a slowly varying alternating remainder is about half its first term
    assert abs(rest) <= res.tail_bound <= 4.0 * abs(rest)


# the direct axis and the IBP kernel need eps > 0
_CONDITION_CASES = [
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


@pytest.mark.parametrize("material,Omega,eps,axis,kernel_id", _CONDITION_CASES)
def test_tail_bound_condition_past_q_smooth(material, Omega, eps, axis, kernel_id):
    # the tail bound's proof needs Re K and Im K monotone with |K'|
    # non-increasing past the tail's start s0 >= q_smooth; sample
    # [q_smooth, 1e4 q_smooth] on both axes of the field
    p = params_for(get_material(material), Omega, eps)
    kappa, bcoef = (1.0, p.b) if axis == "rescaled" else (eps, p.a)
    e0 = abs(1.0 - 1.0 / (Omega * complex(Omega, eps)))
    q_smooth = max(4.0 * Omega / kappa, 12.0 * math.sqrt(e0 / bcoef))
    s = np.geomspace(q_smooth, 1e4 * q_smooth, 4001)
    K = k.envelope_grid(s, kernel_id, Omega, eps, bcoef, kappa)
    for f in (K.real, K.imag):
        slope = np.diff(f) / np.diff(s)
        assert np.all(slope > 0) or np.all(slope < 0)
        assert np.all(np.diff(np.abs(slope)) <= 0)
    # Re K is -(1 + O(1/144)) / (bcoef s^2) there: bcoef s^2 exceeds
    # |eps_tr| 144-fold
    eps_tr = k.family_grid(kappa * s, 0, Omega, eps)
    assert np.all(bcoef * s * s >= 144.0 * np.abs(eps_tr))


@pytest.mark.parametrize("material", ["na", "au", "al"])
@pytest.mark.parametrize("Omega", [0.5, 0.99])
def test_tail_stops_on_accuracy_near_omega_one(material, Omega):
    # at eps = 0 and x = 1e-6 cm the tail stops on its accuracy test; a
    # floor on its end once made Au at 0.99 and Al run out of half-periods
    # with the Euler error near 1e-24, Na at 0.99 take 102,900 evaluations
    # and Au at 0.5 51,210
    p = params_for(get_material(material), Omega, 0.0)
    _, info = field_ratio_rescaled(1e-6, p, full_output=True)
    res = info.quad
    ref = _scipy_osc(p, info.phase, 0)
    assert abs(res.value - ref) <= 1e-8 * abs(ref)
    assert abs(res.value - ref) <= res.error + res.tail_bound
    assert res.n_evals < 10_000


@pytest.mark.parametrize("kernel_id", [0, 1])
@pytest.mark.parametrize("phase", [None, 1.0, 5.0, 10.0])
def test_error_estimate_is_honest(na_params, phase, kernel_id):
    # None is x = 1e-5 cm, many half-periods into the structure region;
    # at phases 1-10 one half-period spans it and is graded geometrically
    p = na_params
    if phase is None:
        phase = p.omega_p * 1e-5 / p.v_F
    res = oscillatory_halfline(phase, kernel_id, p.Omega, p.eps, p.b, 1.0)
    ref = _scipy_osc(p, phase, kernel_id)
    assert abs(res.value - ref) <= 10.0 * res.error


@pytest.mark.parametrize("u", [0.03, 0.1, 0.3])
def test_skin_layer_against_qawo(na_params, u):
    # the skin layer, u = Omega omega_p x / v_F below ~0.46, where one
    # half-period spans the structure region: the value must meet
    # tol_rel, not only sit inside a wide error bar
    p = na_params
    phase = u / p.Omega
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    ref = _scipy_osc(p, phase, 0)
    assert abs(res.value - ref) <= 1e-8 * abs(ref)


def test_result_metadata(na_params):
    p = na_params
    phase = p.omega_p * 1e-5 / p.v_F
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.q_max == pytest.approx(res.s_max, rel=1e-15)  # kappa = 1 here
    assert res.n_panels > 0
    assert res.n_evals >= 15 * res.n_panels
    assert res.error >= 0.0
    assert res.n_tail_terms > 0


def _assert_one_kernel_call(monkeypatch, p, phase, n_tail):
    calls = []
    orig = k.panel_batch

    def recorded(lo, hi, *args):
        out = orig(lo, hi, *args)
        calls.append((float(np.asarray(hi)[-1]), out[2]))
        return out

    monkeypatch.setattr(k, "panel_batch", recorded)
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.branch == "oscillatory"
    assert res.n_tail_terms == n_tail
    assert len(calls) == 1
    assert calls[0][0] == res.s_max
    assert res.n_evals == calls[0][1] == 15 * res.n_panels


def test_oscillatory_integral_in_one_kernel_call(na_params, monkeypatch):
    # without refinement and with a tail that stops after one chunk, the
    # mesh and the first 64 half-periods of the tail share one kernel call
    p = na_params
    _assert_one_kernel_call(monkeypatch, p, p.omega_p * 1e-5 / p.v_F, 64)


def test_graded_integral_in_one_kernel_call(na_params, monkeypatch):
    # where one half-period spans the structure region (phase 10 at Na:
    # pi / 10 against q_smooth = 0.043) the mesh's call carries 16 tail
    # half-periods, enough for the tail to stop there
    _assert_one_kernel_call(monkeypatch, na_params, 10.0, 16)


@pytest.mark.parametrize("phase", [1.0, 3.0, 5.0])
def test_refine_stops_at_rounding_floor(phase):
    # at tol_rel 1e-10 the target lies below the IBP kernel's rounding
    # floor, 3e-13 times the summed panel magnitudes: refinement must stop
    # at that floor, not exhaust the panel budget, and the error, which
    # carries the floor, must cover the gap to the 1e-8 result
    p = params_for(get_material("al"), 1e-2, 1e-4)
    args = (phase, 1, p.Omega, p.eps, p.b, 1.0)
    tight = oscillatory_halfline(*args, tol_rel=1e-10)
    loose = oscillatory_halfline(*args, tol_rel=1e-8)
    assert abs(tight.value - loose.value) <= tight.error + loose.error


def test_tail_budget_exhaustion_raises(na_params, monkeypatch):
    # at phase 1 one half-period spans the structure region and the mesh's
    # kernel call carries 16 tail half-periods; tol_rel 1e-10 needs 80, so
    # a budget of 16 raises before a kernel call reaches past them (the
    # later calls refine the mesh)
    p = na_params
    calls = []
    orig = k.panel_batch

    def recorded(lo, hi, *args):
        calls.append(float(np.max(hi)))
        return orig(lo, hi, *args)

    monkeypatch.setattr(k, "panel_batch", recorded)
    monkeypatch.setattr(quadrature, "_TAIL_HALF_PERIODS", 16)
    with pytest.raises(QuadratureError, match="tail budget 16 half-periods"):
        oscillatory_halfline(1.0, 0, p.Omega, p.eps, p.b, 1.0, tol_rel=1e-10)
    assert calls[0] == pytest.approx(17 * math.pi)
    assert all(end < calls[0] for end in calls[1:])


def test_panel_budget_exhaustion_raises(na_params, monkeypatch):
    p = na_params
    phase = p.omega_p * 1e-5 / p.v_F
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 4)
    with pytest.raises(QuadratureError, match="panel budget 4 exhausted"):
        oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0, tol_rel=1e-13)


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
    # envelope threshold (phase 0 here) its integral, -phase^2 times the
    # reciprocal kernel's, is lost under its own rounding floor
    p = params_for(get_material("na"), 1e-2, zi)
    with pytest.raises(ValueError, match="need eps > 0 .* x = 0"):
        oscillatory_halfline(phase, 1, p.Omega, zi, p.b, 1.0)


# the IBP kernel needs eps > 0 and a phase above 0
_TAIL_CASES = [
    case
    for case in itertools.product(
        range(2), ("na", "au", "al"), (1e-4, 0.0), (0.0, 0.3, 2.0, 10.0), (1e-8, 1e-10)
    )
    if case[0] == 0 or (case[2] > 0.0 and case[3] > 0.0)
]


@functools.lru_cache(maxsize=None)
def _chunked_and_reference(kernel_id, material, eps, phase, tol_rel):
    # the reference sums the tail one half-period per kernel call after the
    # first chunk, which rides in the mesh's call, and so checks the stop
    # rule after every half-period from there on
    p = params_for(get_material(material), 1e-2, eps)
    args = (phase, kernel_id, p.Omega, p.eps, p.b, 1.0)
    res = oscillatory_halfline(*args, tol_rel=tol_rel)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_OSC_CHUNK", 1)
        ref = oscillatory_halfline(*args, tol_rel=tol_rel)
    return res, ref


@pytest.mark.parametrize("kernel_id,material,eps,phase,tol_rel", _TAIL_CASES)
def test_chunked_tail_stops_where_one_panel_loop_stops(kernel_id, material, eps, phase,
                                                       tol_rel):
    res, ref = _chunked_and_reference(kernel_id, material, eps, phase, tol_rel)
    if phase == 0.0:
        # the phase-0 path has no tail to chunk
        assert res.branch == ref.branch == "envelope"
        assert res.n_tail_terms == 0
        assert res == ref
        return
    assert res.branch == ref.branch == "oscillatory"
    # the chunked tail checks its stop rule once per kernel call: it ends
    # with the chunk in which the one-panel loop stops, 16 half-periods in
    # the mesh's call (one half-period spans the structure region at every
    # phase here) and then 64 per call
    n_first = quadrature._OSC_FIRST_GRADED
    assert ref.n_tail_terms >= n_first
    n_chunks = math.ceil((ref.n_tail_terms - n_first) / quadrature._OSC_CHUNK)
    assert res.n_tail_terms == n_first + quadrature._OSC_CHUNK * n_chunks
    assert res.s_max >= ref.s_max
    assert res.n_evals - ref.n_evals == 15 * (res.n_tail_terms - ref.n_tail_terms)
    if res.n_tail_terms == ref.n_tail_terms:
        # both stop with the mesh's call: the same evaluations throughout
        assert res == ref
    else:
        # the chunk's extra half-periods move the averaged limit within
        # the two error bars
        assert abs(res.value - ref.value) <= res.error + ref.error


def test_chunked_tail_grid_stops_at_every_chunk_position():
    # the grid reaches every place a tail can end: nowhere (phase 0), at
    # the end of the mesh's call, and at the end of a follow-on chunk in
    # which the one-panel loop stops part-way through
    stops, wasted = set(), set()
    for case in _TAIL_CASES:
        res, ref = _chunked_and_reference(*case)
        stops.add(res.n_tail_terms)
        wasted.add(res.n_tail_terms - ref.n_tail_terms)
    assert stops == {0, 16, 80}
    assert 0 in wasted and 0 < max(wasted) < quadrature._OSC_CHUNK


@pytest.mark.parametrize("phase", [None, 2.0])
def test_n_evals_counts_every_kernel_evaluation(na_params, monkeypatch, phase):
    # refinement and tail evaluations are all counted; 2.0 is a phase
    # whose one half-period spans the structure region
    p = na_params
    if phase is None:
        phase = p.omega_p * 1e-5 / p.v_F
    total = [0]
    orig = k.panel_batch

    def counted(*args):
        out = orig(*args)
        total[0] += out[2]
        return out

    monkeypatch.setattr(k, "panel_batch", counted)
    res = oscillatory_halfline(phase, 0, p.Omega, p.eps, p.b, 1.0)
    assert res.n_evals == total[0]
