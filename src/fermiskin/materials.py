"""Free-electron materials and conversion to the dimensionless plasma regime.

A material is fully specified by its free-electron number density; the
plasma frequency and Fermi velocity follow from the free-electron-gas
formulas. Dimensional drive parameters (angular frequency omega and
collision frequency nu) convert to the dimensionless set
(Omega, eps, a, b) used by every downstream computation.
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
        if self.n_e <= 0:
            raise ValueError(f"material {self.name!r}: n_e must be > 0")
        if self.omega_p <= 0 or self.v_F <= 0:
            raise ValueError(f"material {self.name!r}: omega_p and v_F must be > 0")
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
    """Dimensionless regime parameters plus their dimensional carriers.

    Omega = omega/omega_p and eps = nu/omega_p set the regime;
    b = (c/(v_F Omega))^2 and a = b*eps^2 are the quadratic
    coefficients of the two equivalent dispersion denominators. The
    mean free path l and relaxation time tau are infinite in the
    collisionless state eps = 0.
    """

    material: Material
    Omega: float
    eps: float
    a: float
    b: float
    omega: float
    nu: float
    l: float
    delta: float
    tau: float

    def __post_init__(self) -> None:
        if not 0.0 < self.Omega < math.inf:
            raise ValueError(f"Omega must be finite and > 0, got {self.Omega}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        # b*eps^2 = a is definitional; tolerate only rounding.
        expect_a = self.b * self.eps * self.eps
        if abs(self.a - expect_a) > 1e-13 * max(expect_a, 1e-300):
            raise ValueError("inconsistent params: a != b*eps^2")

    @property
    def omega_p(self) -> float:
        return self.material.omega_p

    @property
    def v_F(self) -> float:
        return self.material.v_F

    @property
    def collisionless(self) -> bool:
        return self.eps == 0.0


def to_dimensionless(omega: float, nu: float, material: Material) -> PlasmaParams:
    """Convert a dimensional drive (omega, nu) to PlasmaParams.

    nu = 0 is the collisionless state: eps = 0, a = 0, and the mean
    free path is reported as infinity.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    w_p, v_f = material.omega_p, material.v_F
    Omega = omega / w_p
    eps = nu / w_p
    b = (SPEED_OF_LIGHT / (v_f * Omega)) ** 2
    a = b * eps * eps
    if nu > 0:
        l = v_f / nu
        tau = 1.0 / nu
    else:
        l = math.inf
        tau = math.inf
    return PlasmaParams(
        material=material,
        Omega=Omega,
        eps=eps,
        a=a,
        b=b,
        omega=omega,
        nu=nu,
        l=l,
        delta=SPEED_OF_LIGHT / w_p,
        tau=tau,
    )


def params_for(material: Material, Omega: float, eps: float = 0.0) -> PlasmaParams:
    """Convenience builder from the dimensionless pair (Omega, eps)."""
    if Omega <= 0:
        raise ValueError(f"Omega must be > 0, got {Omega}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return to_dimensionless(Omega * material.omega_p, eps * material.omega_p, material)
