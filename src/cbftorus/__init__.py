"""Pseudo-spectral solver and verification harness for the convective
Brinkman-Forchheimer (damped Navier-Stokes) equations on the periodic torus."""

from .errors import (BlowUpError, CbfError, ConfigError, ContractViolationError,
                     GridMismatchError, InvalidArgumentsError, InvalidExponentError,
                     InvalidFieldError, RegimeError, SnapshotFormatError,
                     SymmetryError)
from .fields import PhysicalField, SpectralField, to_physical, to_spectral, zero_field
from .grid import TorusGrid
from .operators import (CbfParams, advection, advection_form, cbf_operator,
                        damping, monotonicity_shift, recover_pressure,
                        regularity_rate, stokes)
from .solver import (DiagnosticsSample, Forcing, SimulationState, SolverConfig,
                     run, step)
from .spectral import (dealias, divergence, dual_norm, exp_filter, grad_norm,
                       gradient, h1_norm, l2_norm, l2_pairing, laplacian,
                       leray_project, lp_norm, truncate_modes)
from .verification import (CheckReport, FieldSampler, gronwall_envelope,
                           nonlinear_gronwall_envelope)

__version__ = "0.1.0"
