"""Linear-combination-of-unitaries block encoding of truncated Hamiltonians.

The Hamiltonian arrives as potential strings plus momentum-basis kinetic
strings. A prepare unitary loads the amplitude vector g_i = sqrt(|a_i|/lambda)
on the ancilla register, and the select unitary applies the i-th (signed)
string on the ancilla-|i> branch, conjugating kinetic branches by the centered
Fourier kernel: U = (I x F^dag) U_kin (I x F) U_pot. Then
(<G| x I) U (|G> x I) = H / lambda.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceededError
from .hamiltonian import HamiltonianSpec, expand_potential_zsum, kinetic_zsum
from .operators import fourier_kernel_multi
from .pauli import PauliSum, mask_words, string_entries
from .sparse import SparseOperator

VERIFY_QUBIT_CAP = 14

POTENTIAL = "potential"
KINETIC = "kinetic"


@dataclass(frozen=True)
class LCUPlan:
    """String columns in select's branch order, with prepare amplitudes.

    ``x_words`` and ``z_words`` are the ``(N, W)`` uint64 mask words of the N
    strings (as in ``PauliSum``): the ``n_potential`` potential strings first,
    then the kinetic ones. ``coeffs`` holds their real, nonzero coefficients;
    select folds each sign into its branch, so the amplitudes stay real and
    nonnegative.
    """

    n_system_qubits: int
    x_words: np.ndarray
    z_words: np.ndarray
    coeffs: np.ndarray
    n_potential: int

    def __post_init__(self):
        if not self.coeffs.size:
            raise ValueError("cannot block-encode an empty Hamiltonian")
        shape = (self.coeffs.size, mask_words(self.n_system_qubits))
        if not (self.x_words.shape == self.z_words.shape == shape
                and 0 <= self.n_potential <= self.coeffs.size):
            raise ValueError("mask and coefficient columns must align")

    @property
    def n_terms(self) -> int:
        return int(self.coeffs.size)

    @property
    def n_kinetic(self) -> int:
        return self.n_terms - self.n_potential

    @property
    def lam(self) -> float:
        """lambda = sum of |coefficients| over both subspaces, added in plan order."""
        return float(sum(np.abs(self.coeffs).tolist()))

    @property
    def ancilla_count(self) -> int:
        return max(0, (self.n_terms - 1).bit_length())

    @property
    def amplitudes(self) -> np.ndarray:
        """g_i = sqrt(|a_i| / lambda), one per term (unpadded)."""
        return np.sqrt(np.abs(self.coeffs) / self.lam)

    def padded_amplitudes(self) -> np.ndarray:
        g = np.zeros(1 << self.ancilla_count)
        g[: self.n_terms] = self.amplitudes
        return g


def _real_columns(psum: PauliSum):
    """Mask words and real parts of the strings with a nonzero real coefficient."""
    if psum.max_imag() > 1e-10 * max(psum.max_abs_coeff(), 1.0):
        raise ValueError("block encoding needs real string coefficients (Hermitian H)")
    keep = psum.coeffs.real != 0.0
    return psum.x_words[keep], psum.z_words[keep], psum.coeffs.real[keep]


def build_plan(potential_sum: PauliSum, kinetic_sum: PauliSum | None = None) -> LCUPlan:
    """Potential strings first, kinetic strings second, as one LCU plan."""
    sums = [potential_sum] if kinetic_sum is None else [potential_sum, kinetic_sum]
    if sums[-1].n_qubits != potential_sum.n_qubits:
        raise ValueError("potential and kinetic sums live on different registers")
    parts = [_real_columns(psum) for psum in sums]
    return LCUPlan(potential_sum.n_qubits, *(np.concatenate(col) for col in zip(*parts)),
                   n_potential=parts[0][2].size)


def plan_from_spec(spec: HamiltonianSpec) -> LCUPlan:
    return build_plan(expand_potential_zsum(spec), kinetic_zsum(spec))


def prepare_G(plan: LCUPlan) -> np.ndarray:
    """Unitary on the ancilla register whose first column is the g vector.

    Dense Householder column completion; gate-level synthesis of the prepare
    step is out of scope.
    """
    g = plan.padded_amplitudes()
    if abs(np.linalg.norm(g) - 1.0) > 1e-12:
        raise ValueError("amplitudes are not normalized")
    dim = g.size
    e0 = np.zeros(dim)
    e0[0] = 1.0
    v = g - e0
    nv2 = v @ v
    if nv2 < 1e-30:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / nv2


def build_select(plan: LCUPlan, fourier: np.ndarray | None = None) -> SparseOperator:
    """Block-diagonal select unitary on ancilla (x) system.

    Ancilla branch i applies sign_i * string_i for potential strings,
    F^dag (sign_i * string_i) F for kinetic strings, and the identity on
    unused branches. ``fourier`` is the centered kernel over all bosons; it is
    required when the plan has kinetic branches. The strings' entries come
    from the plan's mask columns in one pass (``string_entries``), so P F is
    a row gather of F. Branches are emitted in ancilla order and each in
    (row, col) order, so the select's entries arrive sorted.
    """
    if fourier is None and plan.n_kinetic:
        raise ValueError("kinetic branches need the Fourier kernel; pass fourier=")
    dim_sys = 1 << plan.n_system_qubits
    rows = np.arange(dim_sys)
    # a select is only built for registers far below 64 qubits: one mask word
    x, z = (w[:, :1].astype(np.int64) for w in (plan.x_words, plan.z_words))
    src, vals = string_entries(x, z, rows, np.sign(plan.coeffs)[:, None])
    offset = np.arange(1 << plan.ancilla_count)[:, None] * dim_sys
    pot = slice(plan.n_potential)
    entries = [(rows + offset[pot], src[pot] + offset[pot], vals[pot])]
    for k in range(plan.n_potential, plan.n_terms):  # one dim_sys**2 block at a time
        block = fourier.conj().T @ (vals[k, :, None] * fourier[src[k]])
        r, c = np.nonzero(block)
        entries.append((r + offset[k], c + offset[k], block[r, c]))
    unused = offset[plan.n_terms:]
    entries.append((rows + unused, rows + unused, np.ones((len(unused), dim_sys))))
    rows, cols, vals = (np.concatenate([e[j].ravel() for e in entries]) for j in range(3))
    return SparseOperator(dim_sys << plan.ancilla_count, rows, cols, vals)


@dataclass
class BlockEncoding:
    """Prepared |G> data plus the select unitary on ancilla (x) system."""

    plan: LCUPlan
    prepare: np.ndarray
    select: SparseOperator

    @property
    def n_system_qubits(self) -> int:
        return self.plan.n_system_qubits

    @property
    def total_qubits(self) -> int:
        return self.plan.ancilla_count + self.n_system_qubits

    @cached_property
    def g_state(self) -> np.ndarray:
        return self.prepare[:, 0]

    def encoded_block(self) -> np.ndarray:
        """(<G| x I) U (|G> x I) as a dense system-size matrix.

        Entry (r, c) of select on ancilla rows a = r // d and columns
        b = c // d adds conj(g_a) g_b U[r, c] at (r % d, c % d). Every stored
        entry is read, so a select that leaks between branches shows here.
        """
        dim_sys = 1 << self.n_system_qubits
        g = self.g_state
        a, r = np.divmod(self.select.rows, dim_sys)
        b, c = np.divmod(self.select.cols, dim_sys)
        out = np.zeros((dim_sys, dim_sys), dtype=np.complex128)
        np.add.at(out, (r, c), np.conj(g[a]) * g[b] * self.select.vals)
        return out


def block_encode(spec: HamiltonianSpec) -> BlockEncoding:
    """Full pipeline: expand the Hamiltonian, plan, prepare, and select."""
    plan = plan_from_spec(spec)
    if plan.ancilla_count + plan.n_system_qubits > VERIFY_QUBIT_CAP:
        raise CapExceededError(
            f"block encoding capped at {VERIFY_QUBIT_CAP} total qubits")
    fourier = fourier_kernel_multi(spec.config)
    return BlockEncoding(plan, prepare_G(plan), build_select(plan, fourier=fourier))


def verify_block_encoding(encoding: BlockEncoding, hamiltonian) -> float:
    """max entrywise |(<G| x I) U (|G> x I) - H / lambda|."""
    h = hamiltonian.to_dense() if isinstance(hamiltonian, SparseOperator) else np.asarray(hamiltonian)
    dim_sys = 1 << encoding.n_system_qubits
    if h.shape != (dim_sys, dim_sys):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match system dim {dim_sys}")
    if encoding.total_qubits > VERIFY_QUBIT_CAP:
        raise CapExceededError(f"verification capped at {VERIFY_QUBIT_CAP} total qubits")
    return float(np.abs(encoding.encoded_block() - h / encoding.plan.lam).max())
