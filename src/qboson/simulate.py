"""Exact statevector simulation and matrix-exponential propagator oracles.

Amplitudes are dense; gates act through bit-indexed slicing of the state
tensor (no per-gate 2**n matrices). Qubit j addresses the 2**j bit of the
basis index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, trotter_evolution
from .errors import CapExceededError
from .hamiltonian import HamiltonianSpec, kinetic_grid_diagonal, potential_grid_diagonal
from .operators import fourier_kernel_multi
from .sparse import SparseOperator

APPLY_QUBIT_CAP = 20
MATRIX_QUBIT_CAP = 12

_H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _slices(n_qubits: int, assignments: dict[int, int], extra_axes: int) -> tuple:
    """Index tuple fixing qubit -> bit over a (2,)*n (+batch) shaped tensor."""
    idx: list = [slice(None)] * (n_qubits + extra_axes)
    for qubit, bit in assignments.items():
        idx[n_qubits - 1 - qubit] = bit  # axis 0 is the most-significant qubit
    return tuple(idx)


def _apply_gate(tensor: np.ndarray, gate, n: int, extra_axes: int) -> None:
    kind = gate.kind
    if kind == "H":
        q = gate.qubits[0]
        a0 = tensor[_slices(n, {q: 0}, extra_axes)].copy()
        a1 = tensor[_slices(n, {q: 1}, extra_axes)].copy()
        tensor[_slices(n, {q: 0}, extra_axes)] = _H_GATE[0, 0] * a0 + _H_GATE[0, 1] * a1
        tensor[_slices(n, {q: 1}, extra_axes)] = _H_GATE[1, 0] * a0 + _H_GATE[1, 1] * a1
    elif kind == "X":
        q = gate.qubits[0]
        i0, i1 = _slices(n, {q: 0}, extra_axes), _slices(n, {q: 1}, extra_axes)
        a0 = tensor[i0].copy()
        tensor[i0] = tensor[i1]
        tensor[i1] = a0
    elif kind == "RZ":
        q = gate.qubits[0]
        tensor[_slices(n, {q: 0}, extra_axes)] *= np.exp(-0.5j * gate.angle)
        tensor[_slices(n, {q: 1}, extra_axes)] *= np.exp(+0.5j * gate.angle)
    elif kind == "DIAGPHASE":
        q = gate.qubits[0]
        tensor[_slices(n, {q: 1}, extra_axes)] *= np.exp(1j * gate.angle)
    elif kind == "PHASE":
        tensor *= np.exp(1j * gate.angle)
    elif kind == "CNOT":
        ctl, tgt = gate.qubits
        i0 = _slices(n, {ctl: 1, tgt: 0}, extra_axes)
        i1 = _slices(n, {ctl: 1, tgt: 1}, extra_axes)
        a0 = tensor[i0].copy()
        tensor[i0] = tensor[i1]
        tensor[i1] = a0
    elif kind == "CPHASE":
        ctl, tgt = gate.qubits
        tensor[_slices(n, {ctl: 1, tgt: 1}, extra_axes)] *= np.exp(1j * gate.angle)
    elif kind == "SWAP":
        a, b = gate.qubits
        i01 = _slices(n, {a: 0, b: 1}, extra_axes)
        i10 = _slices(n, {a: 1, b: 0}, extra_axes)
        t = tensor[i01].copy()
        tensor[i01] = tensor[i10]
        tensor[i10] = t
    else:  # pragma: no cover - Gate validates kinds on construction
        raise ValueError(f"unknown gate kind {kind!r}")


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply all gates in order; returns a new StateVector."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    if circuit.n_qubits > APPLY_QUBIT_CAP:
        raise CapExceededError(f"apply_circuit capped at {APPLY_QUBIT_CAP} qubits")
    n = circuit.n_qubits
    tensor = state.amplitudes.astype(np.complex128, copy=True).reshape((2,) * n)
    for gate in circuit:
        _apply_gate(tensor, gate, n, extra_axes=0)
    return StateVector(n, tensor.reshape(-1))


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary, built by pushing all basis states through at once."""
    n = circuit.n_qubits
    if n > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"circuit_matrix capped at {MATRIX_QUBIT_CAP} qubits")
    dim = 1 << n
    tensor = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
    for gate in circuit:
        _apply_gate(tensor, gate, n, extra_axes=1)
    return tensor.reshape(dim, dim)


@dataclass
class Propagator:
    """exp(-i H t) from a Hermitian eigendecomposition."""

    time: float
    unitary: np.ndarray


def exact_propagator(hamiltonian, time: float) -> Propagator:
    """Ground-truth propagator; ``hamiltonian`` is a SparseOperator or dense array."""
    if isinstance(hamiltonian, SparseOperator):
        h = hamiltonian.to_dense()
    else:
        h = np.asarray(hamiltonian, dtype=np.complex128)
    if h.shape[0] > 1 << MATRIX_QUBIT_CAP:
        raise CapExceededError("exact_propagator capped at dimension 4096")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if np.abs(h - h.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("exact_propagator requires a Hermitian matrix")
    evals, evecs = np.linalg.eigh(h)
    return Propagator(time, (evecs * np.exp(-1j * evals * time)) @ evecs.conj().T)


def assemble_hamiltonian_matrix(spec: HamiltonianSpec,
                                include_kinetic: bool = True) -> np.ndarray:
    """Dense H: potential diagonal on the coordinate grid plus F^dag K F.

    K is the momentum-grid diagonal of sum_a p_a**2 / 2 and F the centered
    Fourier kernel on all bosons. Serves as the reference for Trotter and
    block-encoding verification.
    """
    h = np.diag(potential_grid_diagonal(spec)).astype(np.complex128)
    if include_kinetic:
        f = fourier_kernel_multi(spec.config)
        h += f.conj().T @ (kinetic_grid_diagonal(spec)[:, None] * f)
    return h


def trotter_error(spec: HamiltonianSpec, total_time: float, steps: int,
                  include_kinetic: bool = True) -> float:
    """max entrywise |U_trotter - U_exact| for the assembled Hamiltonian."""
    if spec.config.total_qubits > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"trotter_error capped at {MATRIX_QUBIT_CAP} qubits")
    circuit, _ = trotter_evolution(spec, total_time, steps, include_kinetic)
    u_trotter = circuit_matrix(circuit)
    u_exact = exact_propagator(
        assemble_hamiltonian_matrix(spec, include_kinetic), total_time).unitary
    return float(np.abs(u_trotter - u_exact).max())
