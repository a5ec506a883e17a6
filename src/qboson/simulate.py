"""Exact statevector simulation and matrix-exponential propagator oracles.

Amplitudes are dense and no per-gate 2**n matrix is formed: each run of
permutation/phase gates is fused into one row gather, and each H is a
butterfly on a reshaped view. Qubit j addresses the 2**j bit of the basis
index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuits import Circuit, trotter_evolution
from .decompose import butterfly_level
from .errors import CapExceededError
from .hamiltonian import HamiltonianSpec, potential_grid_diagonal
# fourier_kernel_multi is no longer called here but stays a module attribute,
# since perfbench/tracing.py wraps it by this name
from .operators import fourier_kernel, fourier_kernel_multi, momentum_values  # noqa: F401
from .sparse import SparseOperator

APPLY_QUBIT_CAP = 20
MATRIX_QUBIT_CAP = 12

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# an unnormalised butterfly grows a norm by sqrt(2): 2**256 at most in between
_MAX_PENDING_H = 512


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


def _fused_run(gates, dim: int) -> tuple[np.ndarray | None, np.ndarray]:
    """One run of non-H gates as ``(src, phase)``: the run maps psi to
    ``phase * psi[src]``; ``src`` is None when the run permutes nothing.

    ``pos[j]`` follows basis state j through the permutations with bit
    arithmetic, and ``angle[j]`` sums the phases it picks up on the way, so a
    gate costs O(dim) and nothing is gathered until the run ends.
    """
    pos = np.arange(dim)
    angle = np.zeros(dim)
    const = 0.0
    for gate in gates:
        kind, qubits = gate.kind, gate.qubits
        if kind == "PHASE":
            const += gate.angle
        elif kind == "RZ":
            angle += gate.angle * ((pos >> qubits[0]) & 1)
            const -= 0.5 * gate.angle
        elif kind == "DIAGPHASE":
            angle += gate.angle * ((pos >> qubits[0]) & 1)
        elif kind == "CPHASE":
            angle += gate.angle * ((pos >> qubits[0]) & (pos >> qubits[1]) & 1)
        elif kind == "X":
            pos ^= 1 << qubits[0]
        elif kind == "CNOT":
            pos ^= ((pos >> qubits[0]) & 1) << qubits[1]
        elif kind == "SWAP":
            a, b = qubits
            flip = ((pos >> a) ^ (pos >> b)) & 1
            pos ^= (flip << a) | (flip << b)
        else:  # pragma: no cover - H ends a run; Gate validates kinds
            raise ValueError(f"unknown gate kind {kind!r}")
    phase = np.exp(1j * (angle + const))
    if np.array_equal(pos, np.arange(dim)):
        return None, phase
    src = np.empty_like(pos)
    src[pos] = np.arange(dim)
    return src, phase[src]


def _run_circuit(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Apply ``circuit`` to the rows of ``amps`` (shape ``(2**n, batch)``).

    Each maximal run of permutation/phase gates is one row gather and one
    in-place row scaling (the gather is skipped when the run permutes
    nothing); each H is an unnormalised butterfly on a reshaped view, and the
    2**(-h/2) of the h butterflies since the last run rides on the next run's
    phase vector (or one scaling at the end). ``amps`` must be C-contiguous
    and may be overwritten.
    """
    dim = amps.shape[0]
    spare = np.empty(amps.size // 2, dtype=amps.dtype)
    pending = 0  # butterflies not yet normalised
    for is_h, gates in groupby(circuit, key=lambda g: g.kind == "H"):
        if not is_h:
            src, phase = _fused_run(gates, dim)
            if pending:
                phase *= _hadamard_norm(pending)
                pending = 0
            if src is not None:
                amps = amps[src]
            amps *= phase[:, None]
            continue
        for gate in gates:
            q = gate.qubits[0]
            butterfly_level(amps.reshape(dim >> (q + 1), 2, -1), spare)  # axis 1: qubit q
            pending += 1
            if pending == _MAX_PENDING_H:  # keep the growth far from overflow
                amps *= _hadamard_norm(pending)
                pending = 0
    if pending:
        amps *= _hadamard_norm(pending)
    return amps


def _hadamard_norm(h: int) -> float:
    """2**(-h/2), exact for even h."""
    return math.ldexp(_SQRT_HALF if h % 2 else 1.0, -(h // 2))


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply all gates in order; returns a new StateVector."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    if circuit.n_qubits > APPLY_QUBIT_CAP:
        raise CapExceededError(f"apply_circuit capped at {APPLY_QUBIT_CAP} qubits")
    amps = state.amplitudes.astype(np.complex128, copy=True).reshape(-1, 1)
    return StateVector(circuit.n_qubits, _run_circuit(circuit, amps).reshape(-1))


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary, built by pushing all basis states through at once."""
    n = circuit.n_qubits
    if n > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"circuit_matrix capped at {MATRIX_QUBIT_CAP} qubits")
    return _run_circuit(circuit, np.eye(1 << n, dtype=np.complex128))


@dataclass
class Propagator:
    """exp(-i H t) from a Hermitian eigendecomposition."""

    time: float
    unitary: np.ndarray


def exact_propagator(hamiltonian, time: float) -> Propagator:
    """Ground-truth propagator; ``hamiltonian`` is a SparseOperator or dense array."""
    sparse = isinstance(hamiltonian, SparseOperator)
    if (hamiltonian.dim if sparse else np.shape(hamiltonian)[0]) > 1 << MATRIX_QUBIT_CAP:
        raise CapExceededError("exact_propagator capped at dimension 4096")
    h = hamiltonian.to_dense() if sparse else np.asarray(hamiltonian)
    # a real symmetric H stays real: eigh then runs several times faster
    h = h.astype(np.float64 if np.isrealobj(h) else np.complex128, copy=False)
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if np.abs(h - h.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("exact_propagator requires a Hermitian matrix")
    evals, evecs = np.linalg.eigh(h)
    # exp(-iEt) = cos(Et) - i sin(Et): for a real H both products stay real,
    # two real matrix products in place of one complex one
    vh, phase = evecs.conj().T, evals * time
    return Propagator(time, (evecs * np.cos(phase)) @ vh - 1j * ((evecs * np.sin(phase)) @ vh))


def assemble_hamiltonian_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense H: potential diagonal on the coordinate grid plus F^dag K F.

    K is the momentum-grid diagonal of sum_a p_a**2 / 2 and F the centered
    Fourier kernel on all bosons. F is a Kronecker product of one kernel f
    per boson and K a sum of one-boson terms, so F^dag K F is the sum over
    bosons of f^dag (p**2/2) f, Kronecker-embedded with identities on the
    other bosons as ``hamiltonian._embed_per_boson`` embeds its sparse
    kernels (a dense kernel is kept dense here: at 12 qubits on one boson
    its coordinate list would take three times the memory). Both grids are
    symmetric about 0 and p**2 is even, so that kernel is real; its
    imaginary part is rounding and is dropped, which lets
    ``exact_propagator`` diagonalize in real arithmetic. Serves as the
    reference for Trotter and block-encoding verification.
    """
    cfg = spec.config
    if cfg.total_qubits > MATRIX_QUBIT_CAP:
        raise CapExceededError(
            f"assemble_hamiltonian_matrix capped at {MATRIX_QUBIT_CAP} qubits")
    h = np.diag(potential_grid_diagonal(spec))
    f = fourier_kernel(cfg.cutoff)
    local = (f.conj().T @ (momentum_values(cfg)[:, None] ** 2 / 2.0 * f)).real
    for a in range(cfg.bosons):
        h += np.kron(np.eye(cfg.cutoff ** (cfg.bosons - 1 - a)),
                     np.kron(local, np.eye(cfg.cutoff ** a)))
    return h


def trotter_error(spec: HamiltonianSpec, total_time: float, steps: int,
                  exact: Propagator | None = None, step: Circuit | None = None) -> float:
    """max entrywise |U_trotter - U_exact| for the assembled Hamiltonian.

    U_trotter is one simulated step circuit (dt = total_time / steps) raised
    to ``steps`` by repeated squaring. ``exact`` is the reference propagator
    exp(-i H total_time); pass it to share one reference between step counts,
    or leave it None to build it here; likewise ``step``, the one-step circuit.
    """
    n = spec.config.total_qubits
    if n > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"trotter_error capped at {MATRIX_QUBIT_CAP} qubits")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if exact is None:
        exact = exact_propagator(assemble_hamiltonian_matrix(spec), total_time)
    elif exact.time != total_time or exact.unitary.shape != (1 << n, 1 << n):
        raise ValueError(f"reference propagator (time {exact.time}, shape "
                         f"{exact.unitary.shape}) does not match time {total_time} "
                         f"on {n} qubits")
    if step is None:
        step, _ = trotter_evolution(spec, total_time / steps, 1)
    u_trotter = np.linalg.matrix_power(circuit_matrix(step), steps)
    return float(np.abs(u_trotter - exact.unitary).max())
