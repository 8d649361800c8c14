import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermiskin as fs
from fermiskin.constants import ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT
from fermiskin.materials import (
    BUILTIN_DENSITIES,
    Material,
    PlasmaParams,
    get_material,
    load_materials_file,
    params_for,
)

# frozen from a 50-digit prototype evaluation of the free-electron formulas
FROZEN = {
    "na": (9183631898663835.6, 106776608.68917826),
    "au": (13703059286791701.0, 139426342.78109226),
    "al": (24001081868601864.0, 202591097.35396571),
}
FROZEN_K_PROBE = (1.40e22, 6675065762949831.6, 86318425.597809077)


def test_plasma_frequency_sqrt_scaling():
    n = 3.3e22
    assert Material("x", 4 * n).omega_p == pytest.approx(2 * Material("x", n).omega_p,
                                                        rel=1e-14)


def test_fermi_velocity_cbrt_scaling():
    n = 3.3e22
    assert Material("x", 8 * n).v_F == pytest.approx(2 * Material("x", n).v_F, rel=1e-14)


@pytest.mark.parametrize("name", sorted(BUILTIN_DENSITIES))
def test_builtin_frozen_values(name):
    m = get_material(name)
    wp, vf = FROZEN[name]
    assert m.omega_p == pytest.approx(wp, rel=1e-12)
    assert m.v_F == pytest.approx(vf, rel=1e-12)


def test_probe_density_frozen_values():
    n_e, wp, vf = FROZEN_K_PROBE
    m = Material("k", n_e)
    assert m.omega_p == pytest.approx(wp, rel=1e-12)
    assert m.v_F == pytest.approx(vf, rel=1e-12)


def test_material_round_trip():
    # the density is the whole state; the scales are the formulas' values,
    # to the bit
    assert Material._fields == ("name", "n_e")
    for n_e in (1e21, 2.65e22, 18.1e22):
        m = Material("x", n_e)
        assert m.omega_p == math.sqrt(4.0 * math.pi * n_e * ELEMENTARY_CHARGE**2
                                      / ELECTRON_MASS)
        assert m.v_F == HBAR / ELECTRON_MASS * (3.0 * math.pi**2 * n_e) ** (1.0 / 3.0)


def test_material_relativistic_rejected():
    # v_F = 7.7e10 cm/s at this density: faster than light
    with pytest.raises(ValueError, match="nonrelativistic"):
        Material("fast", 1e31)


def test_every_construction_path_validates(na):
    # the records are named tuples: _make and _replace (which calls _make)
    # must run the checks of the constructor, and no field can be set
    with pytest.raises(ValueError, match="material 'bad': n_e must be finite and > 0, got -1"):
        Material._make(["bad", -1.0])
    with pytest.raises(ValueError, match="nonrelativistic"):
        na._replace(n_e=1e31)
    p = params_for(na, 1e-2, 1e-4)
    with pytest.raises(ValueError, match="Omega must be finite and > 0, got -1"):
        PlasmaParams._make([na, -1.0, 0.0])
    with pytest.raises(ValueError, match="eps must be finite and >= 0, got -1"):
        p._replace(eps=-1.0)
    assert p._replace(Omega=0.1) == params_for(na, 0.1, 1e-4)
    with pytest.raises(AttributeError):
        p.Omega = 0.1
    with pytest.raises(AttributeError):
        na.n_e = 1e22


@pytest.mark.parametrize("Omega", [2e-152, 1e-160, 1e-320])
def test_tiny_omega_rejected_by_name(na, Omega):
    # b = (c/(v_F Omega))^2 stops being a finite float below Omega ~ 2.1e-152
    # for Na: named, not an OverflowError from the first field point
    with pytest.raises(ValueError, match=f"Omega = {Omega:g} is too small for material 'na'"):
        params_for(na, Omega)
    assert math.isfinite(params_for(na, 3e-152).b)


def test_skin_depth_identity(na):
    assert na.skin_depth * na.omega_p == pytest.approx(SPEED_OF_LIGHT, rel=1e-15)
    # frozen prototype value
    assert na.skin_depth == pytest.approx(3.2644215415865921e-6, rel=1e-12)


def _drive(material, omega, nu):
    # a drive of omega and nu in rad/s, as params_for documents it
    return params_for(material, omega / material.omega_p, nu / material.omega_p)


def test_to_dimensionless_collisionless(na):
    p = _drive(na, na.omega_p * 1e-2, 0.0)
    assert p.eps == 0.0
    assert p.a == 0.0
    assert p.b > 0
    assert math.isinf(p.l)


def test_to_dimensionless_b_scaling(na):
    p1 = _drive(na, na.omega_p * 1e-2, 0.0)
    p2 = _drive(na, na.omega_p * 2e-2, 0.0)
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
        _drive(na, 0.0, 0.0)
    with pytest.raises(ValueError):
        _drive(na, -1e14, 0.0)
    with pytest.raises(ValueError):
        _drive(na, 1e14, -1.0)
    with pytest.raises(ValueError, match="Omega must be finite"):
        _drive(na, float("nan"), 0.0)
    with pytest.raises(ValueError, match="eps must be finite"):
        params_for(na, 1e-2, float("inf"))


def test_params_store_only_the_regime():
    assert PlasmaParams._fields == ("material", "Omega", "eps")
    # Au at Omega = 1e-4: (Omega omega_p)/omega_p rounds to 9.999999999999999e-05,
    # so a round trip through the dimensional pair would not keep it
    au = get_material("au")
    p = params_for(au, 1e-4, 1e-5)
    assert (p.Omega, p.eps) == (1e-4, 1e-5)
    assert p.b == (SPEED_OF_LIGHT / (au.v_F * 1e-4)) ** 2
    assert p.omega == 1e-4 * au.omega_p
    assert p.nu == 1e-5 * au.omega_p
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


def test_config_file_extends_and_shadows(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([
        {"name": "k", "n_e_cm3": 1.40e22},
        {"name": "na", "n_e_cm3": 2.60e22},
    ]))
    k = get_material("k", str(cfg))
    assert k.omega_p == pytest.approx(FROZEN_K_PROBE[1], rel=1e-12)
    shadowed = get_material("na", str(cfg))
    assert shadowed.n_e == 2.60e22
    # a lookup without the file sees the built-ins alone
    assert get_material("na").n_e == 2.65e22
    with pytest.raises(ValueError):
        get_material("k")


def test_config_file_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([{"name": "k", "n_e_cm3": 1e22, "color": "blue"}]))
    with pytest.raises(ValueError, match="unknown keys"):
        load_materials_file(str(cfg))


_NEEDS = "entry 1 needs a string 'name' and a number 'n_e_cm3', "


@pytest.mark.parametrize("doc,message", [
    ([{"name": "k", "n_e_cm3": True}], _NEEDS + "got \"k\" and true"),
    ([{"name": "k", "n_e_cm3": "2.65e22"}], _NEEDS + "got \"k\" and \"2.65e22\""),
    ([{"name": "k", "n_e_cm3": None}], _NEEDS + "got \"k\" and null"),
    ([{"name": "k", "n_e_cm3": [2.65e22]}], _NEEDS + "got \"k\" and [2.65e+22]"),
    ([{"name": None, "n_e_cm3": 2.65e22}], _NEEDS + "got null and 2.65e+22"),
    (["k"], "entry 1 is not an object"),
    ({"name": "k", "n_e_cm3": 1.4e22}, "expected a JSON array of material entries"),
], ids=["true", "string", "null", "list", "name-null", "not-object", "not-array"])
def test_config_file_malformed_entry_rejected(tmp_path, doc, message):
    # JSON true loads as a bool, which Python takes for the int 1; a list
    # follows a valid first entry
    cfg = tmp_path / "mats.json"
    if isinstance(doc, list):
        doc = [{"name": "na", "n_e_cm3": 2.6e22}] + doc
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_materials_file(str(cfg))
    assert str(exc.value) == f"{cfg}: {message}"


def test_config_file_name_repeated_in_another_case_rejected(tmp_path):
    # names are looked up lower-cased, so "K" and "k" name one material
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([{"name": "k", "n_e_cm3": 1.4e22},
                               {"name": "K", "n_e_cm3": 1.5e22}]))
    with pytest.raises(ValueError) as exc:
        load_materials_file(str(cfg))
    assert str(exc.value) == f"{cfg}: entry 1 repeats the name 'k' (in any case)"


def test_config_file_integer_density_accepted(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text('[{"name": "k", "n_e_cm3": 14000000000000000000000}]')
    assert load_materials_file(str(cfg))["k"].n_e == 1.4e22


def test_config_file_missing_keys_rejected(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([{"name": "k"}]))
    with pytest.raises(ValueError, match="needs both"):
        load_materials_file(str(cfg))


@pytest.mark.parametrize("key", ["n_e_cm3", "omega_p", "v_F"])
def test_config_file_nan_values_rejected(tmp_path, key):
    # a NaN density fails its own check; omega_p and v_F are derived, so a
    # NaN under either name is refused with the key itself
    entry = {"name": "k", "n_e_cm3": 1.40e22}
    entry[key] = math.nan  # json writes NaN, which json.load reads back
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([entry]))
    fragment = "n_e must be finite" if key == "n_e_cm3" else f"unknown keys \\['{key}'\\]"
    with pytest.raises(ValueError, match=fragment):
        load_materials_file(str(cfg))


@pytest.mark.parametrize("n_e,fragment", [
    ("NaN", "material 'k': n_e must be finite and > 0, got nan"),
    ("1e400", "material 'k': n_e must be finite and > 0, got inf"),
    ("0", "material 'k': n_e must be finite and > 0, got 0.0"),
    ("-1", "material 'k': n_e must be finite and > 0, got -1.0"),
    ("9" * 401, "int too large to convert to float"),
    ("1e31", "material 'k': v_F = "),
], ids=["nan", "1e400", "zero", "negative", "401-digit", "relativistic"])
def test_config_file_bad_density_names_file_and_entry(tmp_path, n_e, fragment):
    # the density is checked by Material itself; the file and entry are
    # named in front of its message
    cfg = tmp_path / "mats.json"
    cfg.write_text(f'[{{"name": "na", "n_e_cm3": 2.6e22}}, {{"name": "K", "n_e_cm3": {n_e}}}]')
    with pytest.raises(ValueError) as exc:
        load_materials_file(str(cfg))
    assert str(exc.value).startswith(f"{cfg}: entry 1: {fragment}")


def test_config_file_explicit_values_checked(tmp_path):
    # even the free-electron values themselves: a density is the whole entry
    k = Material("k", 1.40e22)
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([{
        "name": k.name, "n_e_cm3": k.n_e, "omega_p": k.omega_p, "v_F": k.v_F,
    }]))
    with pytest.raises(ValueError, match=r"unknown keys \['omega_p', 'v_F'\]"):
        load_materials_file(str(cfg))
