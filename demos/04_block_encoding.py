"""Block-encoding H/lambda as the <G|...|G> block of a select unitary.

The Hamiltonian is a weighted sum of Pauli strings: potential strings act
directly, kinetic strings act conjugated by the centered Fourier kernel.
A prepare unitary loads g_i = sqrt(|a_i|/lambda) on the ancillas; the select
unitary applies term i on ancilla branch |i>. The verification reads the
block off the branches, sum_i g_i^2 s_i U_i; the select operator is built
only where it is read (here, for its unitarity).
"""
import numpy as np

from qboson import (HamiltonianSpec, PauliSum, PauliTerm, PolynomialPotential,
                    TruncationConfig, assemble_hamiltonian_matrix, block_encode,
                    verify_block_encoding)
from qboson.blockenc import BlockEncoding, build_plan, prepare_G

# toy case first: H = X + Z on one qubit, lambda = 2, one ancilla
toy = build_plan(PauliSum.from_terms(1, [PauliTerm.from_label("X", 1.0),
                                         PauliTerm.from_label("Z", 1.0)]))
enc = BlockEncoding(toy, prepare_G(toy))  # verify reads the branches: no select is built
h_toy = np.array([[1.0, 1.0], [1.0, -1.0]])
print("toy H = X + Z:")
print(f"  lambda = {toy.lam}, ancillas = {toy.ancilla_count}, "
      f"amplitudes = {np.round(toy.amplitudes, 6)}")
print(f"  verification error = {verify_block_encoding(enc, h_toy):.2e}")

# anharmonic oscillator: potential strings + Fourier-conjugated kinetic strings
spec = HamiltonianSpec(TruncationConfig(bosons=1, qubits_per_boson=3, radius=2.0),
                       PolynomialPotential.one_boson({2: 1.0, 4: 1.0}))
encoding = block_encode(spec)
plan = encoding.plan
print("\nanharmonic oscillator H = p^2/2 + x^2 + x^4 at Q = 3:")
print(f"  {plan.n_terms} terms ({plan.n_potential} potential + {plan.n_kinetic} kinetic), "
      f"{plan.ancilla_count} ancillas, lambda = {plan.lam:.6f}")
# the plan is columns: mask words (one word up to 64 qubits) and signed coefficients
print("  term list (sign, |coeff|, tag):")
columns = (plan.x_words[:, 0].tolist(), plan.z_words[:, 0].tolist(), plan.coeffs.tolist())
for i, (x, z, c) in enumerate(zip(*columns)):
    label = PauliTerm(plan.n_system_qubits, x, z).label()
    tag = "potential" if i < plan.n_potential else "kinetic"
    print(f"    {int(np.sign(c)):+d}  {abs(c):10.6f}  {label}  [{tag}]")

h = assemble_hamiltonian_matrix(spec)
err = verify_block_encoding(encoding, h)
u = encoding.select.to_dense()
unitarity = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
print(f"\n  (<G| (x) I) U (|G> (x) I) vs H/lambda: max error = {err:.2e}")
print(f"  select unitarity defect = {unitarity:.2e}")
print(f"  lambda >= max |H entry|: {plan.lam:.4f} >= {np.abs(h).max():.4f}")
