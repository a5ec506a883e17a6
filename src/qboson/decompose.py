"""Pauli-string decomposition of square matrices by two independent routes.

The string (x, z) is i^|x&z| (-1)^|z&col| at row = col XOR x and zero elsewhere,
so the strings sharing an x are a Walsh–Hadamard transform over col of the XOR
diagonal x. ``decompose_trace``, the oracle capped at small n, forms it as a
sign-matrix product; ``decompose_tensorized`` runs it as a fast butterfly
(Jones, arXiv:2401.16378), and ``reconstruct`` runs the butterfly backwards.
"""
from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .pauli import RELATIVE_PRUNE_TOL, PauliSum
from .sparse import SparseOperator, qubit_count

TRACE_QUBIT_CAP = 8

# complex entries in one batch of transformed diagonals (16 MiB)
BATCH_ENTRIES = 1 << 20

_I_POWERS = np.array([1, 1j, -1, -1j])  # i**k for k mod 4; conjugate gives (-i)**k


def decompose_trace(op: SparseOperator, cap: int = TRACE_QUBIT_CAP,
                    rel_tol: float = RELATIVE_PRUNE_TOL) -> PauliSum:
    """Project onto every Pauli string: coeff(P) = Tr(P^dagger M) / 2**n.

    The sweep iterates the nonzero entries of M only: the string (x, z)
    receives contributions from entries with row = col XOR x. Cost still grows
    like 4**n, hence the hard cap.
    """
    n = qubit_count(op.dim)
    if n > cap:
        raise CapExceededError(f"decompose_trace capped at {cap} qubits, got {n}")
    dim = op.dim
    zs = np.arange(dim)
    coeffs: dict[tuple[int, int], complex] = {}
    xors = op.rows ^ op.cols
    for x in np.unique(xors):
        sel = xors == x
        cols = op.cols[sel]
        vals = op.vals[sel]
        # signs[z, k] = (-1)^popcount(z & col_k); phase = conj(i^{#Y}) per z
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[:, None] & cols[None, :]) & 1)
        sums = signs @ vals
        phases = (-1j) ** (np.bitwise_count(zs & int(x)) % 4)
        cvals = phases * sums / dim
        for z in np.nonzero(np.abs(cvals) > 0)[0]:
            coeffs[(int(x), int(z))] = complex(cvals[z])
    return PauliSum(n, coeffs).prune(rel_tol)


def _transformed_diagonals(dim: int, xs, index, vals):
    """Group entries by x, scatter each group at ``index`` into a length-dim row,
    and yield (x values, rows after the Walsh–Hadamard butterfly) per batch."""
    keys, group = np.unique(xs, return_inverse=True)
    order = np.argsort(group, kind="stable")
    group, index, vals = group[order], index[order], vals[order]
    per = max(1, BATCH_ENTRIES // dim)
    for start in range(0, keys.size, per):
        lo, hi = np.searchsorted(group, [start, start + per])
        work = np.zeros((min(per, keys.size - start), dim), dtype=np.complex128)
        work[group[lo:hi] - start, index[lo:hi]] = vals[lo:hi]
        # most significant bit first; the rounding residues that --tol 0 counts
        # depend on this order (README)
        for bit in reversed(range(dim.bit_length() - 1)):
            pairs = work.reshape(len(work), -1, 2, 1 << bit)
            low, high = pairs[:, :, 0], pairs[:, :, 1]
            low[...], high[...] = low + high, low - high
        yield keys[start:start + per], work


def decompose_tensorized(op: SparseOperator,
                         rel_tol: float = RELATIVE_PRUNE_TOL) -> PauliSum:
    """coeff(x, z) = (-i)^|x&z| / 2**n * sum_col (-1)^|z&col| M[col ^ x, col].

    Prunes as ``PauliSum.prune(rel_tol)``; batches pre-prune against the largest
    magnitude so far, which is never above the final one."""
    n = qubit_count(op.dim)
    found, peak = [], 0.0
    # dim is a power of two, so dividing before the butterfly is exact
    for xs, work in _transformed_diagonals(op.dim, op.rows ^ op.cols, op.cols, op.vals / op.dim):
        mags = np.abs(work)
        peak = max(peak, float(mags.max()))
        g, z = np.nonzero(mags > rel_tol * peak)
        found.append((xs[g], z, work[g, z] * _I_POWERS[np.bitwise_count(xs[g] & z) % 4].conj()))
    if not found:
        return PauliSum(n)
    xs, zs, coeffs = (np.concatenate(parts) for parts in zip(*found))
    keep = np.abs(coeffs) > rel_tol * peak
    return PauliSum(n, dict(zip(zip(xs[keep].tolist(), zs[keep].tolist()), coeffs[keep].tolist())))


def reconstruct(psum: PauliSum) -> SparseOperator:
    """Sum of coefficient * string matrix: the decomposition butterfly backwards."""
    dim = 1 << psum.n_qubits
    if not len(psum):
        return SparseOperator.zeros(dim)
    keys, coeffs = zip(*psum.items())
    xs, zs = np.array(keys, dtype=np.int64).T
    coeffs = np.array(coeffs, dtype=np.complex128) * _I_POWERS[np.bitwise_count(xs & zs) % 4]
    found = []
    for x, work in _transformed_diagonals(dim, xs, zs, coeffs):
        g, c = np.nonzero(work)
        found.append((c ^ x[g], c, work[g, c]))
    return SparseOperator(dim, *(np.concatenate(parts) for parts in zip(*found)))
