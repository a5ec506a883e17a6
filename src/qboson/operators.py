"""Truncated single-boson operators on qubit registers.

Each boson gets Q qubits, so its local Hilbert space has dimension
Lambda = 2**Q. The coordinate is compactified to a circle of circumference 2R
and sampled on Lambda symmetric grid points; the momentum grid is the Fourier
conjugate with spacing pi/R. Basis index n maps to the register little-endian:
qubit 0 carries the 2**0 bit of n, and boson ``a`` occupies qubits
[a*Q, (a+1)*Q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, single_qubit_words
from .sparse import SparseOperator


@dataclass(frozen=True)
class TruncationConfig:
    """Qubit encoding of a system of bosons.

    ``radius`` may be omitted for workflows that never touch the coordinate or
    momentum grids (e.g. Fock-basis counting); grid accessors then raise.
    """

    bosons: int
    qubits_per_boson: int
    radius: float | None = None

    def __post_init__(self):
        if self.bosons < 1:
            raise ValueError("bosons must be >= 1")
        if self.qubits_per_boson < 1:
            raise ValueError("qubits_per_boson must be >= 1")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def cutoff(self) -> int:
        """Local Hilbert-space dimension Lambda = 2**Q per boson."""
        return 1 << self.qubits_per_boson

    @property
    def total_qubits(self) -> int:
        return self.bosons * self.qubits_per_boson

    @property
    def spacing(self) -> float:
        """Coordinate grid spacing 2R / Lambda."""
        return 2.0 * self._require_radius() / self.cutoff

    @property
    def momentum_spacing(self) -> float:
        """Momentum grid spacing pi / R."""
        return math.pi / self._require_radius()

    def _require_radius(self) -> float:
        if self.radius is None:
            raise ValueError("radius is required for coordinate/momentum grids "
                             "and must be given explicitly")
        return self.radius


@dataclass(frozen=True)
class FockParams:
    """Mass and frequency fixing the harmonic-oscillator basis."""

    mass: float = 1.0
    frequency: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")
        # the scales of fock_x and fock_p, 1/sqrt(2 m omega) and sqrt(m omega / 2)
        m_omega = self.mass * self.frequency
        if not (0 < 2.0 * m_omega < math.inf and 0 < m_omega / 2.0 < math.inf):
            raise ValueError(f"fock: mass {self.mass!r} and frequency {self.frequency!r} make "
                             "1/sqrt(2 m omega) or sqrt(m omega / 2) zero or infinite")


def _centered_values(n_points: int, step: float) -> np.ndarray:
    return (np.arange(n_points) - (n_points - 1) / 2.0) * step


def coordinate_values(config: TruncationConfig) -> np.ndarray:
    """Grid values x_n = (n - (Lambda-1)/2) * dx, ascending in n."""
    return _centered_values(config.cutoff, config.spacing)


def momentum_values(config: TruncationConfig) -> np.ndarray:
    return _centered_values(config.cutoff, config.momentum_spacing)


def _check_boson(config: TruncationConfig, boson: int) -> None:
    if not 0 <= boson < config.bosons:
        raise ValueError(f"boson index {boson} out of range [0, {config.bosons})")


def _diagonal_zsum(config: TruncationConfig, boson: int, step: float) -> PauliSum:
    # step * (n - (Lambda-1)/2) == -step * sum_j 2^j sigma_z(j) / 2
    j = np.arange(config.qubits_per_boson)
    z = single_qubit_words(config.total_qubits)[boson * config.qubits_per_boson + j]
    return PauliSum.from_arrays(config.total_qubits, np.zeros_like(z), z,
                                -step * np.ldexp(1.0, j) / 2.0)


def position_zsum(config: TruncationConfig, boson: int = 0) -> PauliSum:
    """Coordinate operator of one boson as Q single-Z terms (coordinate basis)."""
    _check_boson(config, boson)
    return _diagonal_zsum(config, boson, config.spacing)


def momentum_zsum(config: TruncationConfig, boson: int = 0) -> PauliSum:
    """Momentum operator of one boson as Q single-Z terms (momentum basis)."""
    _check_boson(config, boson)
    return _diagonal_zsum(config, boson, config.momentum_spacing)


def shift_matrix(qubits: int, periodic: bool = False) -> SparseOperator:
    """Nearest-neighbor shift S[i, j] = delta(i, j+1) + delta(i, j-1) on 2**Q points.

    With ``periodic`` the wraparound couplings |Lambda-1><0| + h.c. are added.
    """
    if qubits < 1:
        raise ValueError("qubits must be >= 1")
    dim = 1 << qubits
    idx = np.arange(dim - 1)
    rows = np.concatenate([idx, idx + 1])
    cols = np.concatenate([idx + 1, idx])
    vals = np.ones(rows.size)
    if periodic:
        rows = np.concatenate([rows, [0, dim - 1]])
        cols = np.concatenate([cols, [dim - 1, 0]])
        vals = np.concatenate([vals, [1.0, 1.0]])
    return SparseOperator(dim, rows, cols, vals)


def p2_finite_difference(qubits: int, spacing: float, periodic: bool = False) -> SparseOperator:
    """Finite-difference kinetic kernel (2*I - S) / dx**2 for one boson."""
    dim = 1 << qubits
    return (1.0 / spacing**2) * (2.0 * SparseOperator.identity(dim)
                                 - shift_matrix(qubits, periodic))


def fock_ladder(cutoff: int) -> SparseOperator:
    """Truncated creation operator: sum_j sqrt(j+1) |j+1><j| for j < cutoff-1."""
    return _fock_off_diagonal(cutoff, 1.0, 0.0)


def _fock_off_diagonal(cutoff: int, below: complex, above: complex) -> SparseOperator:
    """below * sqrt(j+1) at (j+1, j) plus above * sqrt(j+1) at (j, j+1), built
    in (row, col) order: (j, j+1) comes just before (j+1, j)."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    j, root = np.arange(cutoff - 1), np.sqrt(np.arange(1.0, cutoff))
    return SparseOperator(cutoff, np.stack([j, j + 1], axis=1).ravel(),
                          np.stack([j + 1, j], axis=1).ravel(),
                          np.stack([above * root, below * root], axis=1).ravel())


def fock_x(cutoff: int, params: FockParams = FockParams()) -> SparseOperator:
    """Truncated coordinate operator (A + A^dagger) / sqrt(2 m omega)."""
    scale = 1.0 / math.sqrt(2.0 * params.mass * params.frequency)
    return _fock_off_diagonal(cutoff, scale, scale)


def fock_p(cutoff: int, params: FockParams = FockParams()) -> SparseOperator:
    """Truncated momentum operator i sqrt(m omega / 2) (A^dagger - A)."""
    scale = 1j * math.sqrt(params.mass * params.frequency / 2.0)
    return _fock_off_diagonal(cutoff, scale, -scale)


def fourier_kernel(n_points: int) -> np.ndarray:
    """Centered Fourier kernel F[k, n] = exp(i p_k x_n) / sqrt(Lambda).

    With the symmetric grids, p_k x_n = (2 pi / Lambda)(k - c)(n - c) for
    c = (Lambda - 1)/2, so the kernel depends only on the point count. The
    matrix is symmetric and unitary.
    """
    c = (n_points - 1) / 2.0
    idx = np.arange(n_points) - c
    return np.exp(1j * (2.0 * np.pi / n_points) * np.outer(idx, idx)) / math.sqrt(n_points)


def fourier_kernel_multi(config: TruncationConfig) -> np.ndarray:
    """Tensor product of per-boson centered kernels over the full register."""
    f1 = fourier_kernel(config.cutoff)
    out = np.array([[1.0 + 0j]])
    for _ in range(config.bosons):
        out = np.kron(out, f1)  # boson 0 stays least significant
    return out
