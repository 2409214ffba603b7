"""qcond: recovery of quasilinear conductivities a(u, grad u) from
boundary flux measurements on 2D domains.

Layers, bottom up: conductivity models and their structural bounds,
disk meshes with boundary frames, a quasilinear P1 Newton
solver with a variational flux map, barrier-based boundary-jet
prescription, linearized solves, the metric/magnetic-operator
dictionary, oscillatory-probe symbol extraction with the algebraic
inversion layer, and a staged run harness.
"""

from .conductivity import (ConductivitySpec, ConductivityError, ConditionReport,
                           JetRadius, PRESETS, check_structural_conditions,
                           evaluate_with_derivatives, jet_radius, linearized_conductivity,
                           make_preset)
from .geometry import (BoundaryFrame, Isometry, Mesh, boundary_frame_at, build_disk_mesh,
                       normalize_above_origin, save_mesh, transform_mesh)
from .forward import (DiscreteSolution, SolveError, boundary_jet_of, convergence_order, dn_map,
                      harmonic_extension, manufactured_solution, solve_dirichlet)
from .barriers import (Barrier, JetRequest, JetResult, MarginReport, exp_barrier,
                       in_paraboloid, log_barrier, prescribe_jet, verify_one_sided)
from .linearized import LinearizedOperator, fd_derivative_check, jacobian_check
from .geometric import (GeometricData, alpha_antisymmetry_residual, alpha_tensor,
                        dictionary_check, geometric_data, magnetic_coefficients,
                        metric_from_linearized, normal_identity_residual,
                        operator_equivalence_residual)
from .halfspace import halfspace_flux_symbol
from .recovery import (ChainRecord, PolarGrid, RecoveryGrid, SymbolEstimate, extract_symbol,
                       measured_invariants, oscillatory_probe,
                       radial_integration_recovery, reconstruct,
                       recover_from_tangential_matrix, spectrum_of_recovery_matrix)
from .harness import RunConfig, RunReport, load_config, parse_config, run

__version__ = "0.1.0"
