"""Free-electron materials and conversion to the dimensionless plasma regime.

A material is fully specified by its free-electron number density; the
plasma frequency and Fermi velocity follow from the free-electron-gas
formulas. A regime is the material plus the dimensionless pair
(Omega, eps) = (omega, nu)/omega_p; every other regime quantity
(a, b, omega, nu, l, delta) is derived from those three.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT

# Standard free-electron densities, cm^-3. Inputs chosen from the usual
# solid-state tables, not fitted to anything.
BUILTIN_DENSITIES = {
    "na": 2.65e22,
    "au": 5.90e22,
    "al": 18.1e22,
}


class Material(NamedTuple("_MaterialFields", [("name", str), ("n_e", float)])):
    """A free-electron metal, fixed by its electron density n_e (cm^-3).

    omega_p, v_F and the skin depth are derived from n_e by the
    free-electron formulas on every access.
    """

    __slots__ = ()
    # NamedTuple's _make, which _replace calls too, would bypass __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, name: str, n_e: float):
        if not 0.0 < n_e < math.inf:
            raise ValueError(f"material {name!r}: n_e must be finite and > 0, got {n_e}")
        self = super().__new__(cls, name, n_e)
        if self.v_F >= SPEED_OF_LIGHT:
            raise ValueError(
                f"material {name!r}: v_F = {self.v_F:g} cm/s is not "
                "nonrelativistic (v_F < c required)"
            )
        return self

    @property
    def omega_p(self) -> float:
        """Plasma (Langmuir) angular frequency sqrt(4 pi n e^2 / m), rad/s."""
        return math.sqrt(4.0 * math.pi * self.n_e * ELEMENTARY_CHARGE**2 / ELECTRON_MASS)

    @property
    def v_F(self) -> float:
        """Fermi velocity (hbar/m) (3 pi^2 n)^(1/3) of the degenerate gas, cm/s."""
        return HBAR / ELECTRON_MASS * (3.0 * math.pi**2 * self.n_e) ** (1.0 / 3.0)

    @property
    def skin_depth(self) -> float:
        """Collisionless infrared skin depth c/omega_p, cm."""
        return SPEED_OF_LIGHT / self.omega_p


BUILTIN_MATERIALS = {
    name: Material(name, n_e) for name, n_e in BUILTIN_DENSITIES.items()
}


def load_materials_file(path: str) -> dict[str, Material]:
    """Load a JSON material table.

    Schema: a JSON array of objects, each with exactly the keys ``name``
    (a string) and ``n_e_cm3`` (a number); any other key is rejected, and
    so is a name that an earlier entry has in any case.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of material entries")
    allowed = {"name", "n_e_cm3"}
    table: dict[str, Material] = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {i} is not an object")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(
                f"{path}: entry {i} has unknown keys {sorted(unknown)}; "
                f"allowed keys are {sorted(allowed)}"
            )
        if "name" not in entry or "n_e_cm3" not in entry:
            raise ValueError(f"{path}: entry {i} needs both 'name' and 'n_e_cm3'")
        name, n_e = entry["name"], entry["n_e_cm3"]
        # type(), not isinstance(): JSON true loads as a bool, an int to Python
        if not isinstance(name, str) or type(n_e) not in (int, float):
            raise ValueError(f"{path}: entry {i} needs a string 'name' and a number 'n_e_cm3', "
                             f"got {json.dumps(name)} and {json.dumps(n_e)}")
        name = name.lower()
        if name in table:
            raise ValueError(f"{path}: entry {i} repeats the name {name!r} (in any case)")
        try:
            table[name] = Material(name, float(n_e))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
    return table


def material_table(config_path: str | None = None) -> dict[str, Material]:
    """The built-in materials, extended by the file config_path if given;
    its entries may shadow the built-ins."""
    table = dict(BUILTIN_MATERIALS)
    if config_path:
        table.update(load_materials_file(config_path))
    return table


def get_material(name: str, config_path: str | None = None) -> Material:
    """Look up a material by name in material_table(config_path)."""
    key = name.lower()
    table = material_table(config_path)
    if key not in table:
        raise ValueError(
            f"unknown material {name!r}; known: {', '.join(sorted(table))}"
        )
    return table[key]


def _check_regime(Omega: float, eps: float = 0.0) -> None:
    """Refuse an Omega that is not finite and > 0, or an eps that is not
    finite and >= 0: the one check of the dimensionless regime."""
    if not 0.0 < Omega < math.inf:
        raise ValueError(f"Omega must be finite and > 0, got {Omega}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


class PlasmaParams(NamedTuple("_PlasmaFields", [("material", Material), ("Omega", float),
                                                 ("eps", float)])):
    """A material driven at Omega = omega/omega_p with collision rate
    eps = nu/omega_p; everything else is derived.

    b = (c/(v_F Omega))^2 and a = b*eps^2 are the quadratic
    coefficients of the two equivalent dispersion denominators. The
    mean free path l is infinite in the collisionless state eps = 0.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, material: Material, Omega: float, eps: float):
        _check_regime(Omega, eps)
        self = super().__new__(cls, material, Omega, eps)
        try:
            b = self.b
        except (OverflowError, ZeroDivisionError):
            b = math.inf
        if b == math.inf:
            raise ValueError(
                f"Omega = {Omega:g} is too small for material {material.name!r}: "
                "b = (c/(v_F Omega))^2 overflows"
            )
        return self

    @property
    def b(self) -> float:
        return (SPEED_OF_LIGHT / (self.material.v_F * self.Omega)) ** 2

    @property
    def a(self) -> float:
        return self.b * self.eps * self.eps

    @property
    def omega(self) -> float:
        """Drive angular frequency, rad/s."""
        return self.Omega * self.material.omega_p

    @property
    def nu(self) -> float:
        """Collision frequency, rad/s."""
        return self.eps * self.material.omega_p

    @property
    def l(self) -> float:
        """Mean free path v_F/nu, cm."""
        return self.material.v_F / self.nu if self.eps > 0.0 else math.inf

    @property
    def delta(self) -> float:
        """Collisionless skin depth c/omega_p, cm."""
        return self.material.skin_depth


def params_for(material: Material, Omega: float, eps: float = 0.0) -> PlasmaParams:
    """PlasmaParams of the dimensionless pair (Omega, eps); a drive of
    omega and nu in rad/s is (omega, nu) / material.omega_p."""
    return PlasmaParams(material, Omega, eps)
