"""relspin: verification lab and spectral simulator for relativistic
electron-spin dynamics.

The package constructs the Dirac, mean-spin (block-diagonalizing transform)
and Pryce spin operators, checks the proper-spin-operator conditions to
machine precision, verifies printed spin-dynamics equations as operator
identities against the commutator ground truth on periodic grids, and
propagates spinor wavepackets to compare the three operators' expectation
trajectories.
"""

__version__ = "0.1.0"

from .algebra import anticommutator, commutator, dirac_matrices, herm_eigs, is_hermitian
from .errors import (BoundaryFluxError, ConfigError, GridResolutionError,
                     KrylovConvergenceError, PreconditionError,
                     SingularMomentumError)
from .fields import Envelope, PlaneWavePulse, UniformB, UniformE, ZeroField
from .grid import GridSpec, SpinorField, gaussian_packet, load_field, save_field, zero_mode_weight
from .hamiltonians import (NamedHamiltonian, build_dirac_em, build_free_dirac,
                           build_fw_direct, build_fw_full)
from .operators import (PhysParams, SpinKind, condition_checks, energy_ep,
                        free_dirac_matrix, position_correction, spin_operator)
from .dynamics import (ResidualReport, rhs, spin_expr, standard_battery,
                       total_j_identity, verify)
from .propagate import Trajectory, ehrenfest_residual, krylov_step, run, strang_step_dirac
from .scenario import Scenario, load_scenario, parse_scenario

__all__ = [
    "anticommutator", "commutator", "dirac_matrices", "herm_eigs",
    "is_hermitian", "BoundaryFluxError", "ConfigError",
    "GridResolutionError", "KrylovConvergenceError", "PreconditionError",
    "SingularMomentumError", "Envelope", "PlaneWavePulse", "UniformB", "UniformE",
    "ZeroField", "GridSpec", "SpinorField", "gaussian_packet",
    "load_field", "save_field", "zero_mode_weight", "NamedHamiltonian",
    "build_dirac_em", "build_free_dirac", "build_fw_direct", "build_fw_full",
    "PhysParams", "SpinKind", "condition_checks", "energy_ep", "free_dirac_matrix",
    "position_correction", "spin_operator", "ResidualReport", "rhs",
    "spin_expr", "standard_battery", "total_j_identity", "verify",
    "Trajectory", "ehrenfest_residual", "krylov_step", "run", "strang_step_dirac",
    "Scenario", "load_scenario", "parse_scenario",
]
