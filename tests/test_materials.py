import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermiskin as fs
from fermiskin.constants import SPEED_OF_LIGHT
from fermiskin.materials import (
    BUILTIN_DENSITIES,
    Material,
    PlasmaParams,
    fermi_velocity,
    get_material,
    load_materials_file,
    params_for,
    plasma_frequency,
    to_dimensionless,
)

# frozen from a 50-digit prototype evaluation of the free-electron formulas
FROZEN = {
    "na": (9183631898663835.6, 106776608.68917826),
    "au": (13703059286791701.0, 139426342.78109226),
    "al": (24001081868601864.0, 202591097.35396571),
}
FROZEN_K_PROBE = (1.40e22, 6675065762949831.6, 86318425.597809077)


def test_plasma_frequency_zero():
    assert plasma_frequency(0.0) == 0.0


def test_plasma_frequency_negative_rejected():
    with pytest.raises(ValueError):
        plasma_frequency(-1.0)


def test_fermi_velocity_zero_and_negative():
    assert fermi_velocity(0.0) == 0.0
    with pytest.raises(ValueError):
        fermi_velocity(-0.5)


def test_plasma_frequency_sqrt_scaling():
    n = 3.3e22
    assert plasma_frequency(4 * n) == pytest.approx(2 * plasma_frequency(n), rel=1e-14)


def test_fermi_velocity_cbrt_scaling():
    n = 3.3e22
    assert fermi_velocity(8 * n) == pytest.approx(2 * fermi_velocity(n), rel=1e-14)


@pytest.mark.parametrize("name", sorted(BUILTIN_DENSITIES))
def test_builtin_frozen_values(name):
    m = get_material(name)
    wp, vf = FROZEN[name]
    assert m.omega_p == pytest.approx(wp, rel=1e-12)
    assert m.v_F == pytest.approx(vf, rel=1e-12)


def test_probe_density_frozen_values():
    n_e, wp, vf = FROZEN_K_PROBE
    assert plasma_frequency(n_e) == pytest.approx(wp, rel=1e-12)
    assert fermi_velocity(n_e) == pytest.approx(vf, rel=1e-12)


def test_material_round_trip():
    for n_e in (1e21, 2.65e22, 18.1e22):
        m = Material.from_density("x", n_e)
        assert m.omega_p == pytest.approx(plasma_frequency(n_e), rel=1e-10)
        assert m.v_F == pytest.approx(fermi_velocity(n_e), rel=1e-10)


def test_material_consistency_enforced():
    n_e = 2.65e22
    with pytest.raises(ValueError, match="inconsistent"):
        Material("bad", n_e, plasma_frequency(n_e) * 1.001, fermi_velocity(n_e))


def test_material_check_escape_for_fictitious():
    n_e = 2.65e22
    m = Material("fict", n_e, plasma_frequency(n_e) * 3.0, fermi_velocity(n_e),
                 check=False)
    assert m.omega_p == pytest.approx(3.0 * plasma_frequency(n_e))


def test_material_relativistic_rejected():
    with pytest.raises(ValueError, match="nonrelativistic"):
        Material("fast", 1e22, 1e15, 2 * SPEED_OF_LIGHT, check=False)


def test_skin_depth_identity(na):
    assert na.skin_depth * na.omega_p == pytest.approx(SPEED_OF_LIGHT, rel=1e-15)
    # frozen prototype value
    assert na.skin_depth == pytest.approx(3.2644215415865921e-6, rel=1e-12)


def test_to_dimensionless_collisionless(na):
    p = to_dimensionless(na.omega_p * 1e-2, 0.0, na)
    assert p.eps == 0.0
    assert p.a == 0.0
    assert p.b > 0
    assert math.isinf(p.l)
    assert math.isinf(p.tau)
    assert p.collisionless


def test_to_dimensionless_b_scaling(na):
    p1 = to_dimensionless(na.omega_p * 1e-2, 0.0, na)
    p2 = to_dimensionless(na.omega_p * 2e-2, 0.0, na)
    assert p2.Omega == pytest.approx(2 * p1.Omega, rel=1e-14)
    assert p2.b == pytest.approx(p1.b / 4, rel=1e-14)


def test_to_dimensionless_b_oracle(na):
    # independent evaluation of the stiffness coefficient
    p = params_for(na, 1e-2, 1e-6)
    b_ref = (SPEED_OF_LIGHT / (na.v_F * 1e-2)) ** 2
    assert p.b == pytest.approx(b_ref, rel=1e-13)
    assert p.a == pytest.approx(b_ref * 1e-12, rel=1e-12)
    assert p.l == pytest.approx(na.v_F / (1e-6 * na.omega_p), rel=1e-13)


def test_to_dimensionless_rejects_bad_omega(na):
    with pytest.raises(ValueError):
        to_dimensionless(0.0, 0.0, na)
    with pytest.raises(ValueError):
        to_dimensionless(-1e14, 0.0, na)
    with pytest.raises(ValueError):
        to_dimensionless(1e14, -1.0, na)
    with pytest.raises(ValueError, match="Omega must be finite"):
        to_dimensionless(float("nan"), 0.0, na)
    with pytest.raises(ValueError, match="eps must be finite"):
        params_for(na, 1e-2, float("inf"))


def test_params_store_only_the_regime():
    assert [f.name for f in dataclasses.fields(PlasmaParams)] == [
        "material", "Omega", "eps",
    ]
    # Au at Omega = 1e-4: (Omega omega_p)/omega_p rounds to 9.999999999999999e-05,
    # so a round trip through the dimensional pair would not keep it
    au = get_material("au")
    p = params_for(au, 1e-4, 1e-5)
    assert (p.Omega, p.eps) == (1e-4, 1e-5)
    assert p.b == (SPEED_OF_LIGHT / (au.v_F * 1e-4)) ** 2
    assert p.omega == 1e-4 * au.omega_p
    assert p.nu == 1e-5 * au.omega_p
    assert p.tau == 1.0 / p.nu
    assert p.delta == au.skin_depth


@settings(deadline=None, max_examples=60)
@given(
    Omega=st.floats(min_value=1e-6, max_value=0.5),
    eps=st.floats(min_value=0.0, max_value=1e-2),
)
def test_params_product_identity(Omega, eps):
    na = get_material("na")
    p = params_for(na, Omega, eps)
    assert p.b * p.eps**2 == pytest.approx(p.a, rel=1e-12, abs=1e-300)
    assert p.delta * p.material.omega_p == pytest.approx(SPEED_OF_LIGHT, rel=1e-14)


def test_get_material_unknown():
    with pytest.raises(ValueError, match="unknown material"):
        get_material("unobtainium")


def test_config_file_extends_and_shadows(tmp_path, monkeypatch):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([
        {"name": "k", "n_e_cm3": 1.40e22},
        {"name": "na", "n_e_cm3": 2.60e22},
    ]))
    k = get_material("k", str(cfg))
    assert k.omega_p == pytest.approx(FROZEN_K_PROBE[1], rel=1e-12)
    shadowed = get_material("na", str(cfg))
    assert shadowed.n_e == 2.60e22
    # and via the environment variable
    monkeypatch.setenv("FERMISKIN_MATERIALS", str(cfg))
    assert get_material("k").n_e == 1.40e22
    monkeypatch.delenv("FERMISKIN_MATERIALS")
    with pytest.raises(ValueError):
        get_material("k")


def test_config_file_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([{"name": "k", "n_e_cm3": 1e22, "color": "blue"}]))
    with pytest.raises(ValueError, match="unknown keys"):
        load_materials_file(str(cfg))


def test_config_file_missing_keys_rejected(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([{"name": "k"}]))
    with pytest.raises(ValueError, match="needs both"):
        load_materials_file(str(cfg))


@pytest.mark.parametrize("key", ["n_e_cm3", "omega_p", "v_F"])
def test_config_file_nan_values_rejected(tmp_path, key):
    entry = {"name": "k", "n_e_cm3": 1.40e22}
    entry[key] = math.nan  # json writes NaN, which json.load reads back
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([entry]))
    with pytest.raises(ValueError, match=f"{key.removesuffix('_cm3')} must be finite"):
        load_materials_file(str(cfg))


def test_config_file_explicit_values_checked(tmp_path):
    n_e = 1.40e22
    good = tmp_path / "good.json"
    good.write_text(json.dumps([{
        "name": "k", "n_e_cm3": n_e,
        "omega_p": plasma_frequency(n_e), "v_F": fermi_velocity(n_e),
    }]))
    assert load_materials_file(str(good))["k"].n_e == n_e
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{
        "name": "k", "n_e_cm3": n_e, "omega_p": 2 * plasma_frequency(n_e),
    }]))
    with pytest.raises(ValueError, match="inconsistent"):
        load_materials_file(str(bad))
