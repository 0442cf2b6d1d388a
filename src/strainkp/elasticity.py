"""Stress -> strain conversion for cubic crystals (Voigt notation).

Engineering shears (2*e_yz etc.) appear only inside the stiffness map;
``StrainState`` stores tensor shear components, which is what the
strain Hamiltonian consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import MaterialParams

__all__ = [
    "ActuatorGeometry",
    "StrainState",
    "StressTensor",
    "actuator_strain",
    "biaxial_strain",
    "stiffness_matrix",
    "strain_from_stress",
    "stress_from_strain",
    "superpose",
    "uniaxial_strain",
    "uniaxial_sweep",
]

STRAIN_SANITY_BOUND = 0.1  # far beyond the ~1.7% fracture strain


@dataclass(frozen=True)
class StressTensor:
    """Symmetric stress tensor, Voigt components in GPa."""

    sxx: float = 0.0
    syy: float = 0.0
    szz: float = 0.0
    syz: float = 0.0
    sxz: float = 0.0
    sxy: float = 0.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"stress component {name} is not finite")

    def as_dict(self) -> dict[str, float]:
        return {"sxx": self.sxx, "syy": self.syy, "szz": self.szz,
                "syz": self.syz, "sxz": self.sxz, "sxy": self.sxy}

    def as_voigt(self) -> np.ndarray:
        """(sxx, syy, szz, syz, sxz, sxy) in GPa."""
        return np.array([self.sxx, self.syy, self.szz,
                         self.syz, self.sxz, self.sxy])


@dataclass(frozen=True)
class StrainState:
    """Symmetric strain tensor (tensor shears), optionally with the
    stress it was derived from."""

    exx: float = 0.0
    eyy: float = 0.0
    ezz: float = 0.0
    eyz: float = 0.0
    exz: float = 0.0
    exy: float = 0.0
    stress: StressTensor | None = None

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"strain component {name} is not finite")
            if abs(value) >= STRAIN_SANITY_BOUND:
                raise ValueError(
                    f"strain component {name}={value} exceeds the sanity "
                    f"bound |e| < {STRAIN_SANITY_BOUND}")

    def as_dict(self) -> dict[str, float]:
        return {"exx": self.exx, "eyy": self.eyy, "ezz": self.ezz,
                "eyz": self.eyz, "exz": self.exz, "exy": self.exy}

    def as_voigt(self) -> np.ndarray:
        """(exx, eyy, ezz, eyz, exz, exy), tensor shear convention."""
        return np.array([self.exx, self.eyy, self.ezz,
                         self.eyz, self.exz, self.exy])

    def trace(self) -> float:
        return self.exx + self.eyy + self.ezz


@dataclass(frozen=True)
class ActuatorGeometry:
    """Two-finger actuator: fingers of length l bridged by a gap d."""

    finger_length_mm: float
    gap_um: float

    def __post_init__(self):
        if not 0 < self.finger_length_mm < math.inf:
            raise ValueError("finger length must be positive and finite")
        if not 0 < self.gap_um < math.inf:
            raise ValueError("gap width must be positive and finite")
        if not self.amplification > 1:
            raise ValueError("geometry does not amplify (2l/d <= 1)")
        if not math.isfinite(self.amplification):
            raise ValueError("gain 2l/d overflows")

    @property
    def amplification(self) -> float:
        """Geometric gain 2l/d of the suspended membrane."""
        return 2.0 * (self.finger_length_mm * 1e3) / self.gap_um


def _check_stability(p: MaterialParams) -> None:
    if not (p.c11 > p.c12 > 0.0 and p.c44 > 0.0):
        raise ValueError(
            f"stiffness of {p.name!r} violates cubic stability "
            f"(c11={p.c11}, c12={p.c12}, c44={p.c44}); map is singular")


def stiffness_matrix(p: MaterialParams) -> np.ndarray:
    """6x6 cubic stiffness (GPa) acting on engineering-shear strain."""
    c = np.zeros((6, 6))
    c[:3, :3] = p.c12
    c[0, 0] = c[1, 1] = c[2, 2] = p.c11
    c[3, 3] = c[4, 4] = c[5, 5] = p.c44
    return c


def stress_from_strain(strain: StrainState, p: MaterialParams) \
        -> StressTensor:
    """Forward cubic Hooke map (tensor shears doubled internally)."""
    _check_stability(p)
    eng = strain.as_voigt()
    eng[3:] *= 2.0
    s = stiffness_matrix(p) @ eng
    return StressTensor(*s)


def strain_from_stress(stress: StressTensor, p: MaterialParams) \
        -> StrainState:
    """Invert the cubic stiffness map; exact to solver precision."""
    _check_stability(p)
    eng = np.linalg.solve(stiffness_matrix(p), stress.as_voigt())
    eng[3:] /= 2.0
    return StrainState(*eng, stress=stress)


def uniaxial_strain(sxx_gpa: float, p: MaterialParams) -> StrainState:
    """Strain for uniaxial stress along [100] (see ``uniaxial_sweep``)."""
    stress = StressTensor(sxx=sxx_gpa)
    return StrainState(*uniaxial_sweep([sxx_gpa], p)[0][0], stress=stress)


def uniaxial_sweep(stresses_gpa, p: MaterialParams,
                   prestress: StrainState | None = None) \
        -> tuple[np.ndarray, np.ndarray]:
    """Voigt strains (n, 6) along a sweep of uniaxial [100] stress: the
    uniaxial part alone and the total with ``prestress`` superposed.

    e_yy = e_zz = -nu * e_xx with nu = c12/(c11+c12); e_xx = s/E with the
    [100] Young modulus E = (c11-c12)(c11+2c12)/(c11+c12).  Every point
    passes the checks of ``StrainState``; the first failing one raises.
    """
    _check_stability(p)
    young = (p.c11 - p.c12) * (p.c11 + 2.0 * p.c12) / (p.c11 + p.c12)
    exx = np.asarray(stresses_gpa, dtype=float) / young
    uniaxial = np.zeros((exx.size, 6))
    uniaxial[:, 0] = exx
    uniaxial[:, 1] = uniaxial[:, 2] = -p.poisson_ratio_100 * exx
    total = uniaxial if prestress is None \
        else prestress.as_voigt() + uniaxial
    # per point, the uniaxial part is checked before the total
    stack = np.stack([uniaxial, total], axis=1).reshape(-1, 6)
    bad = np.flatnonzero(~np.all(np.abs(stack) < STRAIN_SANITY_BOUND,
                                 axis=1))
    if bad.size:
        StrainState(*stack[bad[0]])
    return uniaxial, total


def biaxial_strain(sxx_gpa: float, p: MaterialParams) -> StrainState:
    """Strain for biaxial stress s_xx = s_yy in the x-y plane.

    e_xx = e_yy and e_zz = -(2 c12/c11) e_xx.
    """
    _check_stability(p)
    exx = sxx_gpa * p.c11 / ((p.c11 - p.c12) * (p.c11 + 2.0 * p.c12))
    ezz = -2.0 * p.c12 / p.c11 * exx
    return StrainState(exx, exx, ezz,
                       stress=StressTensor(sxx=sxx_gpa, syy=sxx_gpa))


def superpose(a: StrainState, b: StrainState) -> StrainState:
    """Componentwise sum (linear elasticity); stresses add when both known."""
    stress = None
    if a.stress is not None and b.stress is not None:
        stress = StressTensor(*(a.stress.as_voigt() + b.stress.as_voigt()))
    return StrainState(*(a.as_voigt() + b.as_voigt()), stress=stress)


def actuator_strain(geometry: ActuatorGeometry, piezo_strain: float) -> float:
    """Membrane strain delivered by the actuator: (2l/d) * piezo strain."""
    if not math.isfinite(piezo_strain):
        raise ValueError(f"piezo strain must be finite, got {piezo_strain}")
    return geometry.amplification * piezo_strain
