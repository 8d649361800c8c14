"""Equivalence of the jit and plain-numpy kernel paths.

The two implementations are written independently (scalar loops vs
vectorized expressions), so agreement here is a real consistency check,
not a tautology. The env flag is read at call time, which is what makes
these tests possible in one process. The numpy envelope, which shares
one series split and one logarithm branch among the family members, is
also checked bit for bit against its members evaluated one by one.
"""

import numpy as np
import pytest

import fermiskin._kernels as k
from fermiskin.field import field_ratio_rescaled
from fermiskin.materials import get_material, params_for

# spans the small-q series region, the switch, the singular shell
# neighborhood, and the far tail
QGRID = np.concatenate([
    np.geomspace(1e-6, 5e-3, 40),
    np.linspace(5e-3, 0.0995, 60),
    0.1 + np.geomspace(1e-6, 0.3, 60),
    np.linspace(0.5, 5.0, 40),
])


@pytest.fixture
def jit_on(monkeypatch):
    if not k.HAVE_NUMBA:
        pytest.skip("numba not installed")
    monkeypatch.delenv(k.JIT_ENV_VAR, raising=False)


def test_env_flag_dispatch(monkeypatch):
    if not k.HAVE_NUMBA:
        pytest.skip("numba not installed")
    monkeypatch.delenv(k.JIT_ENV_VAR, raising=False)
    assert k.jit_enabled()
    monkeypatch.setenv(k.JIT_ENV_VAR, "0")
    assert k.jit_enabled()
    monkeypatch.setenv(k.JIT_ENV_VAR, "1")
    assert not k.jit_enabled()
    monkeypatch.setenv(k.JIT_ENV_VAR, "yes")
    assert not k.jit_enabled()


def test_missing_numba_forces_fallback(monkeypatch):
    monkeypatch.setattr(k, "HAVE_NUMBA", False)
    monkeypatch.delenv(k.JIT_ENV_VAR, raising=False)
    assert not k.jit_enabled()


@pytest.mark.parametrize("which", [0, 1, 2, 3])
@pytest.mark.parametrize("zi", [1e-4, 0.0, -1e-4])
def test_family_twins_agree(jit_on, which, zi):
    jit = k._grid_jit(QGRID, which, 0.1, zi, 1 if zi >= 0 else -1)
    plain = k._family_np(QGRID, which, 0.1, zi, 1 if zi >= 0 else -1)
    np.testing.assert_allclose(jit, plain, rtol=1e-8)


@pytest.mark.parametrize("kernel_id", [0, 1, 2, 3])
def test_envelope_twins_agree(jit_on, kernel_id):
    na = get_material("na")
    p = params_for(na, 1e-2, 1e-4)
    s = np.geomspace(1e-4, 2.0, 300)
    jit = k._envelope_jit(s, kernel_id, p.Omega, p.eps, 1, p.b, 1.0)
    plain = k._envelope_np(s, kernel_id, p.Omega, p.eps, 1, p.b, 1.0)
    np.testing.assert_allclose(jit, plain, rtol=1e-8)


def test_panel_twins_agree(jit_on):
    na = get_material("na")
    p = params_for(na, 1e-2, 1e-4)
    edges = np.geomspace(1e-3, 1.0, 41)
    lo, hi = edges[:-1], edges[1:]
    phase = 30.0
    vj, ej = k._panel_batch_jit(lo, hi, phase, 0, p.Omega, p.eps, 1, p.b, 1.0)
    vp, ep = k._panel_batch_np(lo, hi, phase, 0, p.Omega, p.eps, 1, p.b, 1.0)
    np.testing.assert_allclose(vj, vp, rtol=1e-10, atol=1e-300)
    _, _, n = k.panel_batch(lo, hi, phase, 0, p.Omega, p.eps, 1, p.b, 1.0)
    assert n == 15 * lo.size


def test_dispatchers_follow_flag(monkeypatch):
    if not k.HAVE_NUMBA:
        pytest.skip("numba not installed")
    q = np.array([0.05, 0.2])
    monkeypatch.delenv(k.JIT_ENV_VAR, raising=False)
    on = k.family_grid(q, 0, 0.1, 1e-4, 1)
    monkeypatch.setenv(k.JIT_ENV_VAR, "1")
    off = k.family_grid(q, 0, 0.1, 1e-4, 1)
    np.testing.assert_allclose(on, off, rtol=1e-10)


def test_field_point_identical_on_both_paths(monkeypatch):
    na = get_material("na")
    p = params_for(na, 1e-2, 1e-4)
    monkeypatch.delenv(k.JIT_ENV_VAR, raising=False)
    a = field_ratio_rescaled(3e-5, p)
    monkeypatch.setenv(k.JIT_ENV_VAR, "1")
    b = field_ratio_rescaled(3e-5, p)
    assert abs(a - b) <= 1e-9 * abs(a)


@pytest.mark.parametrize("kernel_id", [0, 1, 2, 3])
@pytest.mark.parametrize("eps", [0.0, 1e-4])
@pytest.mark.parametrize("im_sign", [1, -1])
def test_envelope_bit_identical_to_family_members(monkeypatch, kernel_id, eps, im_sign):
    # QGRID crosses both the series switch (|q| = 0.1 |z|) and |q| = Om
    monkeypatch.setenv(k.JIT_ENV_VAR, "1")
    Om, zi, bcoef, kappa = 0.1, eps * im_sign, 2.7, 0.3
    s = QGRID / kappa
    q = kappa * s

    def member(which):
        return k.family_grid(q, which, Om, zi, im_sign)

    e = member(0)
    D = e - bcoef * s * s
    if kernel_id == k.KERNEL_RECIPROCAL:
        want = 1.0 / D
    elif kernel_id == k.KERNEL_IBP_SECOND:
        want = kappa * kappa * member(2) / (D * D)
    elif kernel_id == k.KERNEL_IBP_KOHN:
        want = kappa * kappa * member(3) / (D * D)
    else:
        Dp = kappa * member(1) - 2.0 * bcoef * s
        Dpp = kappa * kappa * member(2) - 2.0 * bcoef
        want = (2.0 * Dp * Dp - Dpp * D) / (D * D * D)
    got = k.envelope_grid(s, kernel_id, Om, zi, im_sign, bcoef, kappa)
    assert np.isfinite(got).all()
    assert np.array_equal(got, want)
