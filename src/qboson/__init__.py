"""Truncated bosonic Hamiltonians on qubit registers.

Operators in coordinate/momentum/Fock bases, Pauli-string decomposition,
QFT-sandwiched Trotter circuits, LCU block encodings, and resource counting.
"""

from .blockenc import (BlockEncoding, LCUPlan, block_encode, build_plan,
                       build_select, plan_from_spec, prepare_G,
                       verify_block_encoding)
from .circuits import (Circuit, Gate, GateCountReport, circuit_from_text,
                       circuit_to_text, qft_circuit, read_circuit, trotter_evolution,
                       trotter_step, write_circuit, zstring_rotation)
from .decompose import decompose_tensorized, decompose_trace, reconstruct
from .errors import (CapExceededError, QbosonError, SpecFileError,
                     VerificationError)
from .hamiltonian import (BasisChoice, HamiltonianSpec, KineticScheme, Monomial,
                          PolynomialPotential, anharmonic_potential,
                          double_well_potential, expand_potential_zsum,
                          fock_hamiltonian, fock_potential,
                          hamiltonian_spec_from_dict, kinetic_finite_difference,
                          kinetic_grid_diagonal, kinetic_zsum,
                          load_hamiltonian_spec, potential_grid_diagonal,
                          raw_string_count)
from .operators import (FockParams, TruncationConfig, coordinate_values, fock_ladder,
                        fock_p, fock_x, fourier_kernel, fourier_kernel_multi,
                        momentum_values, momentum_zsum, p2_finite_difference,
                        position_zsum, shift_matrix)
from .pauli import (PauliSum, PauliTerm, StringCensus, count_strings,
                    pauli_sum_from_text, pauli_sum_to_text, string_census)
from .scaling import FitResult, ScalingSeries, fit_scaling, series_from_csv, series_to_csv
from .simulate import (Propagator, StateVector, apply_circuit,
                       assemble_hamiltonian_matrix, circuit_matrix,
                       exact_propagator, trotter_error)
from .sparse import SparseOperator

__version__ = "0.1.0"
