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
from .pauli import PauliSum, PauliTerm
from .sparse import SparseOperator

VERIFY_QUBIT_CAP = 14

POTENTIAL = "potential"
KINETIC = "kinetic"


@dataclass(frozen=True)
class LCUPlan:
    """Flattened, tagged term list with prepare amplitudes.

    Potential terms come first, kinetic terms second. Signs of negative
    coefficients are folded into the select branches so the amplitudes stay
    real and nonnegative.
    """

    n_system_qubits: int
    terms: tuple[tuple[PauliTerm, str], ...]  # (bare-ish term with |coeff|, tag)
    signs: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("cannot block-encode an empty Hamiltonian")
        if len(self.signs) != len(self.terms):
            raise ValueError("signs and terms must align")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def lam(self) -> float:
        """lambda = sum of |coefficients| over both subspaces."""
        return float(sum(abs(t.coefficient) for t, _ in self.terms))

    @property
    def ancilla_count(self) -> int:
        return max(0, (self.n_terms - 1).bit_length())

    @property
    def amplitudes(self) -> np.ndarray:
        """g_i = sqrt(|a_i| / lambda), one per term (unpadded)."""
        lam = self.lam
        return np.sqrt(np.array([abs(t.coefficient) for t, _ in self.terms]) / lam)

    def padded_amplitudes(self) -> np.ndarray:
        g = np.zeros(1 << self.ancilla_count)
        g[: self.n_terms] = self.amplitudes
        return g

    def count_tagged(self, tag: str) -> int:
        return sum(1 for _, t in self.terms if t == tag)


def _flatten(psum: PauliSum, tag: str, out_terms: list, out_signs: list) -> None:
    scale = psum.max_abs_coeff()
    if psum.max_imag() > 1e-10 * max(scale, 1.0):
        raise ValueError("block encoding needs real string coefficients (Hermitian H)")
    for term in psum.terms():
        c = term.coefficient.real
        if c == 0.0:
            continue
        out_terms.append((PauliTerm(term.n_qubits, term.x_mask, term.z_mask, abs(c)), tag))
        out_signs.append(1 if c > 0 else -1)


def build_plan(potential_sum: PauliSum, kinetic_sum: PauliSum | None = None) -> LCUPlan:
    """Flatten potential-first/kinetic-second term lists into an LCU plan."""
    terms: list[tuple[PauliTerm, str]] = []
    signs: list[int] = []
    _flatten(potential_sum, POTENTIAL, terms, signs)
    if kinetic_sum is not None:
        if kinetic_sum.n_qubits != potential_sum.n_qubits:
            raise ValueError("potential and kinetic sums live on different registers")
        _flatten(kinetic_sum, KINETIC, terms, signs)
    return LCUPlan(potential_sum.n_qubits, tuple(terms), tuple(signs))


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

    Ancilla branch i applies sign_i * string_i for potential tags,
    F^dag (sign_i * string_i) F for kinetic tags, and the identity on unused
    branches. ``fourier`` is the centered kernel over all bosons; it is
    required when the plan has kinetic branches.
    """
    if fourier is None and plan.count_tagged(KINETIC):
        raise ValueError("kinetic branches need the Fourier kernel; pass fourier=")
    dim_sys = 1 << plan.n_system_qubits
    rows, cols, vals = [], [], []
    for i in range(1 << plan.ancilla_count):
        if i < plan.n_terms:
            term, tag = plan.terms[i]
            string = term.string_matrix()
            r, c, v = string.rows, string.cols, plan.signs[i] * string.vals
            if tag == KINETIC:  # row r of P holds vals[r] at cols[r], so P F is a row gather
                pf = string.vals[:, None] * fourier[string.cols]
                block = plan.signs[i] * (fourier.conj().T @ pf)
                r, c = np.nonzero(block)
                v = block[r, c]
        else:
            r = c = np.arange(dim_sys)
            v = np.ones(dim_sys)
        rows.append(r + i * dim_sys)
        cols.append(c + i * dim_sys)
        vals.append(v)
    return SparseOperator(dim_sys << plan.ancilla_count, np.concatenate(rows),
                          np.concatenate(cols), np.concatenate(vals))


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
