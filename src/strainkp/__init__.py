"""Multiband k.p solver for strain-driven valence-band engineering in
GaAs/AlGaAs heterostructures: stress -> strain conversion, bulk and
quantum-well hole states, quantization-axis analysis, and optical
selection rules."""

from .axis import (ProjectionResult, QuantizationAxis, commutator_norm,
                   j_operator, mixing_curve, mixing_map, project_hgs)
from .elasticity import (ActuatorGeometry, StrainState, StressTensor,
                         actuator_strain, biaxial_strain, strain_from_stress,
                         stress_from_strain, superpose, uniaxial_strain)
from .kp_bulk import (HBAR2_OVER_2M0, build_h8, dispersion, eigensolve,
                      h4_topmost, h6_vb, top_valence_doublet)
from .materials import (MaterialParams, ParameterLoadError, algaas,
                        default_parameter_table, load_parameter_table)
from .optics import (AngularDensity, DipoleStrengths, Polarization,
                     RateCalibration, angular_density, dipole_strengths,
                     dipole_sweep, dlp_and_angle, rates)
from .qw import (DEFAULT_EMULATION_OFFSETS, EmulationOffsets, QwGeometry,
                 build_qw_hamiltonian, emulated_transition_energies,
                 envelope_projection, qw_mixing_vs_strain, solve_qw,
                 transition_energy)
from .states import BLOCH_LABELS, Doublet, EnvelopeState, SpinorState

__version__ = "0.1.0"
