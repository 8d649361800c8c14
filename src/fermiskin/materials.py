"""Free-electron materials and conversion to the dimensionless plasma regime.

A material is fully specified by its free-electron number density; the
plasma frequency and Fermi velocity follow from the free-electron-gas
formulas. A regime is the material plus the dimensionless pair
(Omega, eps) = (omega, nu)/omega_p; every other regime quantity
(a, b, omega, nu, l, tau, delta) is derived from those three.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import InitVar, dataclass

from .constants import ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT

MATERIALS_ENV_VAR = "FERMISKIN_MATERIALS"

# Standard free-electron densities, cm^-3. Inputs chosen from the usual
# solid-state tables, not fitted to anything.
BUILTIN_DENSITIES = {
    "na": 2.65e22,
    "au": 5.90e22,
    "al": 18.1e22,
}

# Relative slack for the construction-time consistency check between the
# stored omega_p/v_F and the free-electron formulas.
_CONSISTENCY_RTOL = 1e-10


def plasma_frequency(n_e: float) -> float:
    """Free-electron plasma (Langmuir) angular frequency, rad/s.

    omega_p = sqrt(4 pi n e^2 / m) in CGS. Zero density gives zero.
    """
    if n_e < 0:
        raise ValueError(f"electron density must be >= 0, got {n_e}")
    return math.sqrt(4.0 * math.pi * n_e * ELEMENTARY_CHARGE**2 / ELECTRON_MASS)


def fermi_velocity(n_e: float) -> float:
    """Fermi velocity of the degenerate electron gas, cm/s.

    v_F = (hbar/m) * (3 pi^2 n)^(1/3). Zero density gives zero.
    """
    if n_e < 0:
        raise ValueError(f"electron density must be >= 0, got {n_e}")
    return HBAR / ELECTRON_MASS * (3.0 * math.pi**2 * n_e) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Material:
    """A free-electron metal: density plus derived frequency scales.

    omega_p and v_F must stay consistent with n_e through the
    free-electron formulas; this is enforced on construction so a config
    file cannot smuggle in a contradictory parameter set. Pass
    check=False only to build deliberately fictitious materials (for
    scaling studies); the flag is not stored.
    """

    name: str
    n_e: float
    omega_p: float
    v_F: float
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        for label, value in (("n_e", self.n_e), ("omega_p", self.omega_p),
                             ("v_F", self.v_F)):
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"material {self.name!r}: {label} must be finite and > 0, "
                    f"got {value}"
                )
        if self.v_F >= SPEED_OF_LIGHT:
            raise ValueError(
                f"material {self.name!r}: v_F = {self.v_F:g} cm/s is not "
                "nonrelativistic (v_F < c required)"
            )
        if not check:
            return
        for label, stored, derived in (
            ("omega_p", self.omega_p, plasma_frequency(self.n_e)),
            ("v_F", self.v_F, fermi_velocity(self.n_e)),
        ):
            if abs(stored - derived) > _CONSISTENCY_RTOL * derived:
                raise ValueError(
                    f"material {self.name!r}: {label} = {stored:.12e} is "
                    f"inconsistent with n_e (free-electron value {derived:.12e})"
                )

    @classmethod
    def from_density(cls, name: str, n_e: float) -> "Material":
        """Build a material from its electron density alone."""
        return cls(
            name=name,
            n_e=n_e,
            omega_p=plasma_frequency(n_e),
            v_F=fermi_velocity(n_e),
        )

    @property
    def skin_depth(self) -> float:
        """Collisionless infrared skin depth c/omega_p, cm."""
        return SPEED_OF_LIGHT / self.omega_p


BUILTIN_MATERIALS = {
    name: Material.from_density(name, n_e) for name, n_e in BUILTIN_DENSITIES.items()
}


def load_materials_file(path: str) -> dict[str, Material]:
    """Load a JSON material table.

    Schema: a JSON array of objects, each with required keys
    ``name`` and ``n_e_cm3`` and optional ``omega_p`` / ``v_F`` (which
    must agree with the free-electron formulas to 1e-10 relative; they
    exist to pin serialized values, not to override the physics).
    Unknown keys are rejected.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of material entries")
    allowed = {"name", "n_e_cm3", "omega_p", "v_F"}
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
        name = str(entry["name"]).lower()
        n_e = float(entry["n_e_cm3"])
        mat = Material(
            name=name,
            n_e=n_e,
            omega_p=float(entry.get("omega_p", plasma_frequency(n_e))),
            v_F=float(entry.get("v_F", fermi_velocity(n_e))),
        )
        table[name] = mat
    return table


def material_table(config_path: str | None = None) -> dict[str, Material]:
    """The built-in materials, extended by a config file.

    The file is ``config_path`` if given, else the one named by the
    ``FERMISKIN_MATERIALS`` environment variable; its entries may shadow
    the built-ins.
    """
    table = dict(BUILTIN_MATERIALS)
    path = config_path or os.environ.get(MATERIALS_ENV_VAR)
    if path:
        table.update(load_materials_file(path))
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


@dataclass(frozen=True)
class PlasmaParams:
    """A material driven at Omega = omega/omega_p with collision rate
    eps = nu/omega_p; everything else is derived.

    b = (c/(v_F Omega))^2 and a = b*eps^2 are the quadratic
    coefficients of the two equivalent dispersion denominators. The
    mean free path l and relaxation time tau are infinite in the
    collisionless state eps = 0.
    """

    material: Material
    Omega: float
    eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.Omega < math.inf:
            raise ValueError(f"Omega must be finite and > 0, got {self.Omega}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")

    @property
    def omega_p(self) -> float:
        return self.material.omega_p

    @property
    def v_F(self) -> float:
        return self.material.v_F

    @property
    def b(self) -> float:
        return (SPEED_OF_LIGHT / (self.v_F * self.Omega)) ** 2

    @property
    def a(self) -> float:
        return self.b * self.eps * self.eps

    @property
    def omega(self) -> float:
        """Drive angular frequency, rad/s."""
        return self.Omega * self.omega_p

    @property
    def nu(self) -> float:
        """Collision frequency, rad/s."""
        return self.eps * self.omega_p

    @property
    def l(self) -> float:
        """Mean free path v_F/nu, cm."""
        return self.v_F / self.nu if self.eps > 0.0 else math.inf

    @property
    def tau(self) -> float:
        """Relaxation time 1/nu, s."""
        return 1.0 / self.nu if self.eps > 0.0 else math.inf

    @property
    def delta(self) -> float:
        """Collisionless skin depth c/omega_p, cm."""
        return self.material.skin_depth

    @property
    def collisionless(self) -> bool:
        return self.eps == 0.0


def to_dimensionless(omega: float, nu: float, material: Material) -> PlasmaParams:
    """PlasmaParams of a dimensional drive: omega and nu in rad/s."""
    return PlasmaParams(material, omega / material.omega_p, nu / material.omega_p)


def params_for(material: Material, Omega: float, eps: float = 0.0) -> PlasmaParams:
    """PlasmaParams of the dimensionless pair (Omega, eps)."""
    return PlasmaParams(material, Omega, eps)
