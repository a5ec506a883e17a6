"""Truncating one boson onto a qubit register.

Walks through the coordinate grid, the position/momentum operators as Z-sums,
the finite-difference shift matrix, and the Fock-basis ladder operators.
"""
import numpy as np

from qboson import (FockParams, TruncationConfig, coordinate_values, fock_ladder,
                    fock_p, fock_x, momentum_values, position_zsum, reconstruct,
                    shift_matrix)

# One boson on Q = 3 qubits: the local Hilbert space has Lambda = 2^3 = 8
# levels, and the coordinate lives on a circle of circumference 2R.
config = TruncationConfig(bosons=1, qubits_per_boson=3, radius=4.0)
print(f"Lambda = {config.cutoff}, dx = {config.spacing}, dp = {config.momentum_spacing:.6f}")
print(f"dx * dp * Lambda = {config.spacing * config.momentum_spacing * config.cutoff:.12f}"
      f"  (always 2*pi = {2 * np.pi:.12f})")

print("\nCoordinate grid (symmetric, half-integer multiples of dx):")
print(" ", coordinate_values(config).tolist())
print("Momentum grid:")
print(" ", [round(v, 4) for v in momentum_values(config).tolist()])

# The position operator is diagonal in this basis and needs only Q
# single-Z strings; its matrix is exactly diag(grid values).
zsum = position_zsum(config)
print("\nPosition operator as Z-strings (msb-left labels):")
for term in zsum:
    print(f"  {term.coefficient.real:+.3f} * {term.label()}")
diag = np.diag(reconstruct(zsum).to_dense()).real
print("Reconstructed diagonal:", diag)

# The nearest-neighbor shift is the finite-difference kinetic kernel:
# p^2 ~ (2 I - S)/dx^2 when no Fourier transform is used.
print("\nShift matrix S for Q = 2 (open boundary):")
print(shift_matrix(2).to_dense().real)

# Fock route: truncate the ladder operators at Lambda levels instead.
a_dag = fock_ladder(8)
print("\nCreation operator subdiagonal (sqrt(1) .. sqrt(7)):")
print(" ", np.round(np.diag(a_dag.to_dense(), -1).real, 4))

x_mat = fock_x(8, FockParams())
p_mat = fock_p(8, FockParams())
comm = x_mat.to_dense() @ p_mat.to_dense() - p_mat.to_dense() @ x_mat.to_dense()
print("\n[x, p] diagonal (i far from the cutoff, distorted at the top level):")
print(" ", np.round(np.diag(comm).imag, 4))
