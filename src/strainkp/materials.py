"""Band and elastic parameters for zincblende III-V materials.

Single source of truth for units and sign conventions:

* energies in eV, stresses and stiffness constants in GPa, strains
  dimensionless, lengths in nm;
* ``ev_av`` is the average valence-band-edge energy on the model-solid
  absolute scale; the HH/LH band edge sits at ``ev_av + delta/3``;
* the valence hydrostatic deformation potential ``av`` is positive
  (Chuang sign), i.e. the HH/LH edge shifts by ``+av * tr(strain)``.

Parameter values ship in ``data/materials_iii_v.ini`` and are never
hard-coded in the physics modules.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

__all__ = [
    "MaterialParams",
    "ParameterLoadError",
    "algaas",
    "default_parameter_table",
    "dump_parameter_table",
    "load_parameter_table",
    "parse_parameter_table",
    "vegard",
]

_DATA_FILE = "materials_iii_v.ini"
_REQUIRED_MATERIALS = ("GaAs", "AlAs")

# dataclass field -> key used in the parameter file (units in the name)
_FIELD_KEYS = {
    "eg": "band_gap_ev",
    "ev_av": "vb_edge_avg_ev",
    "delta": "spin_orbit_ev",
    "gamma1": "luttinger_gamma1",
    "gamma2": "luttinger_gamma2",
    "gamma3": "luttinger_gamma3",
    "me": "electron_mass_rel",
    "ac": "deform_ac_ev",
    "av": "deform_av_ev",
    "b": "deform_b_ev",
    "d": "deform_d_ev",
    "c11": "elastic_c11_gpa",
    "c12": "elastic_c12_gpa",
    "c44": "elastic_c44_gpa",
}


class ParameterLoadError(ValueError):
    """A parameter table could not be parsed or violates an invariant."""


@dataclass(frozen=True)
class MaterialParams:
    """Bulk parameters of one (possibly alloyed) zincblende material."""

    name: str
    eg: float       # fundamental gap at Gamma (eV)
    ev_av: float    # average VB edge, absolute model-solid scale (eV)
    delta: float    # spin-orbit splitting (eV)
    gamma1: float
    gamma2: float
    gamma3: float
    me: float       # CB effective mass / m0
    ac: float       # CB hydrostatic deformation potential (eV)
    av: float       # VB hydrostatic deformation potential, Chuang sign (eV)
    b: float        # tetragonal shear deformation potential (eV)
    d: float        # rhombohedral shear deformation potential (eV)
    c11: float      # elastic stiffness (GPa)
    c12: float
    c44: float

    @property
    def vb_edge(self) -> float:
        """HH/LH band-edge energy (eV): ev_av + delta/3."""
        return self.ev_av + self.delta / 3.0

    @property
    def cb_edge(self) -> float:
        """CB edge energy (eV) at zero strain."""
        return self.vb_edge + self.eg

    @property
    def poisson_ratio_100(self) -> float:
        """Poisson ratio for uniaxial stress along [100]: c12/(c11+c12)."""
        return self.c12 / (self.c11 + self.c12)

    def validate(self) -> None:
        """Raise ParameterLoadError if any physical invariant is violated."""
        # a NaN or inf passes some comparisons below and fails others, and
        # would surface later as a wrong result or a misnamed solver error
        bad = [f"{key} must be finite ({field}={getattr(self, field)})"
               for field, key in _FIELD_KEYS.items()
               if not math.isfinite(getattr(self, field))]
        if not self.eg > 0:
            bad.append(f"band gap must be positive (eg={self.eg})")
        if not self.delta > 0:
            bad.append(f"spin-orbit splitting must be positive "
                       f"(delta={self.delta})")
        if not (self.gamma1 > 2.0 * self.gamma2 >= 0.0):
            bad.append(f"need gamma1 > 2*gamma2 >= 0 "
                       f"(gamma1={self.gamma1}, gamma2={self.gamma2})")
        if not self.me > 0:
            bad.append(f"electron mass must be positive (me={self.me})")
        if not (self.c11 > self.c12 > 0.0 and self.c44 > 0.0):
            bad.append(f"cubic stability requires c11 > c12 > 0 and c44 > 0 "
                       f"(c11={self.c11}, c12={self.c12}, c44={self.c44})")
        if bad:
            raise ParameterLoadError(
                f"invalid parameters for {self.name!r}: " + "; ".join(bad))


def _parse_section(name: str, section) -> MaterialParams:
    values = {"name": name}
    for field, key in _FIELD_KEYS.items():
        if key not in section:
            raise ParameterLoadError(
                f"material {name!r}: missing field {key!r}")
        try:
            values[field] = float(section[key])
        except ValueError as exc:
            raise ParameterLoadError(
                f"material {name!r}: malformed value for {key!r}: "
                f"{section[key]!r}") from exc
    unknown = set(section) - set(_FIELD_KEYS.values())
    if unknown:
        raise ParameterLoadError(
            f"material {name!r}: unknown fields {sorted(unknown)}")
    params = MaterialParams(**values)
    params.validate()
    return params


def parse_parameter_table(text: str) -> dict[str, MaterialParams]:
    """Parse a parameter document (INI, one section per material).

    Either every entry loads and validates or a ParameterLoadError is
    raised; no partial table is ever returned.  A ``[DEFAULT]`` section
    that holds a key is rejected, as configparser would copy it into every
    material.
    """
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParameterLoadError(f"cannot parse parameter table: {exc}") \
            from exc
    if cp.defaults():
        raise ParameterLoadError("[DEFAULT] keys are not supported; set "
                                 "each field in its material's section")
    if not cp.sections():
        raise ParameterLoadError("parameter table contains no materials")
    table = {name: _parse_section(name, cp[name]) for name in cp.sections()}
    missing = [m for m in _REQUIRED_MATERIALS if m not in table]
    if missing:
        raise ParameterLoadError(f"required materials missing: {missing}")
    return table


def load_parameter_table(source: str | Path) -> dict[str, MaterialParams]:
    """Load a parameter table from a file path."""
    return parse_parameter_table(Path(source).read_text(encoding="utf-8"))


def default_parameter_table() -> dict[str, MaterialParams]:
    """Load the parameter table shipped with the package."""
    text = (resources.files(__package__) / "data" / _DATA_FILE) \
        .read_text(encoding="utf-8")
    return parse_parameter_table(text)


def dump_parameter_table(table: dict[str, MaterialParams]) -> str:
    """Serialize a table to the same INI format accepted by the loader."""
    lines = []
    for name, params in table.items():
        lines.append(f"[{name}]")
        for field, key in _FIELD_KEYS.items():
            lines.append(f"{key} = {getattr(params, field)!r}")
        lines.append("")
    return "\n".join(lines)


def vegard(x: float, a: MaterialParams, b: MaterialParams,
           name: str | None = None) -> MaterialParams:
    """Linear fieldwise interpolation (1-x)*a + x*b between two materials,
    for a fraction x in [0, 1]."""
    t = float(x)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"alloy fraction must lie in [0, 1], got {t}")
    # every field but the name, as the parameter file keys them
    values = {field: (1.0 - t) * getattr(a, field) + t * getattr(b, field)
              for field in _FIELD_KEYS}
    mixed = MaterialParams(
        name=name or f"{a.name}({1.0 - t:g})+{b.name}({t:g})", **values)
    mixed.validate()
    return mixed


def algaas(x: float, table: dict[str, MaterialParams]) -> MaterialParams:
    """Al(x)Ga(1-x)As parameters interpolated from the GaAs/AlAs entries."""
    t = float(x)
    return vegard(t, table["GaAs"], table["AlAs"],
                  name=f"Al{t:.2f}Ga{1.0 - t:.2f}As")
