import numpy as np
import pytest

import fermiskin as fs


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the CLI golden files instead of comparing against them",
    )


@pytest.fixture(scope="session")
def regen_golden(request):
    return request.config.getoption("--regen-golden")


@pytest.fixture(scope="session")
def na():
    return fs.get_material("na")


@pytest.fixture(scope="session")
def au():
    return fs.get_material("au")


@pytest.fixture(scope="session")
def al():
    return fs.get_material("al")


@pytest.fixture(scope="session")
def na_params_1em4(na):
    return fs.params_for(na, 1e-2, 1e-4)


@pytest.fixture(scope="session")
def na_params_1em5(na):
    return fs.params_for(na, 1e-2, 1e-5)


def _mp_eps_tr(q, Omega, eps, im_sign):
    # the closed form in mpmath arithmetic at the caller's precision
    import mpmath as mp

    z = mp.mpf(Omega) + im_sign * mp.mpc(0, 1) * mp.mpf(eps)
    if eps == 0:
        # limit from the physical half-plane: real log plus the
        # absorption step beyond |q| = Omega
        r = mp.log(abs((Omega - q) / (Omega + q)))
        i = mp.pi * im_sign * mp.sign(q) if abs(q) > Omega else mp.mpf(0)
        L = r + mp.mpc(0, 1) * i
    else:
        L = mp.log((z - q) / (z + q))
    return 1 - 3 / (4 * Omega * q**3) * (2 * z * q + (z**2 - q**2) * L)


def mp_eps_tr(q, Omega, eps, im_sign=1, dps=50):
    """Independent permittivity evaluation at high precision.

    Deliberately coded from the integral's closed form in one line of
    mpmath arithmetic, with no shared helpers with the package.
    """
    import mpmath as mp

    with mp.workdps(dps):
        return complex(_mp_eps_tr(mp.mpf(q), Omega, eps, im_sign))


def mp_family(q, which, Omega, eps, im_sign=1, dps=60):
    """Member `which` of the kernels' permittivity family at high precision.

    0-2 are eps_tr and its first two q-derivatives, taken by mp.diff on
    the same closed form as mp_eps_tr, so no series and no derivative
    formula is shared with the package; 3 is the pole pair of eps_tr'',
    coded directly.
    """
    import mpmath as mp

    with mp.workdps(dps):
        q = mp.mpf(q)
        if which == 3:
            z = mp.mpf(Omega) + im_sign * mp.mpc(0, 1) * mp.mpf(eps)
            return complex(
                -3 / (4 * Omega * q**3) * ((z + q) / (z - q) - (z - q) / (z + q))
            )
        return complex(mp.diff(lambda t: _mp_eps_tr(t, Omega, eps, im_sign), q, which))


@pytest.fixture(scope="session")
def eps_tr_oracle():
    return mp_eps_tr


@pytest.fixture(scope="session")
def family_oracle():
    return mp_family


@pytest.fixture(autouse=True)
def _cold_mesh_cache():
    """Every test starts without cached kernel meshes, so that budgets and
    evaluation counts it patches or counts do not depend on test order."""
    from fermiskin import quadrature

    quadrature._mesh.cache_clear()
    yield
    quadrature._mesh.cache_clear()
