"""Pauli-string decomposition of square matrices by two independent routes.

The string (x, z) is i^|x&z| (-1)^|z&col| at row = col XOR x and zero elsewhere,
so the strings sharing an x are a Walsh–Hadamard transform over col of the XOR
diagonal x. ``decompose_trace``, the oracle capped at small n, forms it as a
sign-matrix product; ``decompose_tensorized`` runs it as a fast butterfly
(Jones, arXiv:2401.16378), and ``reconstruct`` runs the butterfly backwards.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import CapExceededError
from .pauli import I_POWERS, RELATIVE_PRUNE_TOL, PauliSum
from .sparse import SparseOperator, qubit_count

TRACE_QUBIT_CAP = 8

# complex entries in one batch of transformed diagonals (16 MiB)
BATCH_ENTRIES = 1 << 20


def decompose_trace(op: SparseOperator, rel_tol: float = RELATIVE_PRUNE_TOL) -> PauliSum:
    """Project onto every Pauli string: coeff(P) = Tr(P^dagger M) / 2**n.

    The sweep iterates the nonzero entries of M only: the string (x, z)
    receives contributions from entries with row = col XOR x. Cost still grows
    like 4**n, hence the hard cap.
    """
    n = qubit_count(op.dim)
    if n > TRACE_QUBIT_CAP:
        raise CapExceededError(f"decompose_trace capped at {TRACE_QUBIT_CAP} qubits, got {n}")
    # divided after the sums, unless a sum overflows: then, as in decompose_tensorized,
    # the entries are divided first
    found, finite = _trace_terms(op, op.vals, op.dim)
    if not finite and np.isfinite(op.vals).all():
        found, _ = _trace_terms(op, op.vals / op.dim, 1)
    if not found:
        return PauliSum(n)
    return PauliSum.from_arrays(n, *(np.concatenate(parts) for parts in zip(*found))).prune(rel_tol)


def _trace_terms(op: SparseOperator, vals: np.ndarray, divisor: int) -> tuple[list, bool]:
    """``(x, z, phase * sum / divisor)`` per x of the trace sweep over the
    entries ``vals`` at op's positions, and whether every sum is finite."""
    dim = op.dim
    zs = np.arange(dim)
    found, finite = [], True
    xors = op.rows ^ op.cols
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is redone
        for x in np.unique(xors):
            sel = xors == x
            # signs[z, k] = (-1)^popcount(z & col_k); phase = conj(i^{#Y}) per z
            signs = 1.0 - 2.0 * (np.bitwise_count(zs[:, None] & op.cols[sel][None, :]) & 1)
            sums = signs @ vals[sel]
            finite = finite and bool(np.isfinite(sums).all())
            phases = (-1j) ** (np.bitwise_count(zs & int(x)) % 4)
            found.append((np.full(dim, x), zs, phases * sums / divisor))
    return found, finite


def _transformed_diagonals(dim: int, xs, index, vals):
    """Group entries by x, scatter each group at ``index`` into a length-dim row,
    and yield (x values, rows after the Walsh–Hadamard butterfly) per batch."""
    order = np.argsort(xs, kind="stable")
    xs, index, vals = xs[order], index[order], vals[order]
    new = np.concatenate((xs[:1] >= 0, xs[1:] != xs[:-1]))  # xs >= 0: the first opens a group
    keys, group = xs[new], np.cumsum(new) - 1
    per = max(1, BATCH_ENTRIES // dim)
    spare = np.empty(min(per, keys.size) * dim // 2, dtype=vals.dtype)
    for start in range(0, keys.size, per):
        lo, hi = np.searchsorted(group, [start, start + per])
        work = np.zeros((min(per, keys.size - start), dim), dtype=vals.dtype)
        work[group[lo:hi] - start, index[lo:hi]] = vals[lo:hi]
        # most significant bit first; the rounding residues that --tol 0 counts
        # depend on this order (README). The low half of the bits pairs near
        # neighbours, which numpy loops over slowly, so they run on the
        # transpose, where they are the high bits.
        rows, n_bits = len(work), dim.bit_length() - 1
        low = n_bits // 2
        for bit in reversed(range(low, n_bits)):
            butterfly_level(work.reshape(-1, 2, 1 << bit), spare)
        work = work.reshape(rows, -1, 1 << low).transpose(0, 2, 1).reshape(rows, dim)
        for bit in reversed(range(n_bits - low, n_bits)):
            butterfly_level(work.reshape(-1, 2, 1 << bit), spare)
        work = work.reshape(rows, 1 << low, -1).transpose(0, 2, 1).reshape(rows, dim)
        yield keys[start:start + per], work


def butterfly_level(pairs, spare) -> None:
    """``pairs[:, 0]`` and ``pairs[:, 1]`` of an ``(m, 2, k)`` view to their sum
    and difference, in place, in three passes through ``spare``."""
    low, high = pairs[:, 0], pairs[:, 1]
    diff = np.subtract(low, high, out=spare[:low.size].reshape(low.shape))
    low += high
    high[...] = diff


def decompose_tensorized(op: SparseOperator,
                         rel_tol: float = RELATIVE_PRUNE_TOL) -> PauliSum:
    """coeff(x, z) = (-i)^|x&z| / 2**n * sum_col (-1)^|z&col| M[col ^ x, col].

    Prunes as ``PauliSum.prune(rel_tol)``; batches pre-prune against the largest
    magnitude so far, which is never above the final one."""
    n = qubit_count(op.dim)
    # the 1 / 2**n rides on the phase of each kept sum, so no entry is rounded
    # before it is summed (a subnormal entry would lose bits or vanish). Where a sum
    # overflows (entries near the float maximum) the entries are divided first, as
    # a sum of quotients cannot overflow. In the normal range both give every
    # coefficient bit for bit, since scaling by a power of two is exact there
    scale = 1.0 / op.dim
    found, peak, finite = _kept_sums(op, op.vals, scale, rel_tol)
    if not finite and np.isfinite(op.vals).all():
        scale = 1.0
        found, peak, _ = _kept_sums(op, op.vals / op.dim, scale, rel_tol)
    if not found:
        return PauliSum(n)
    xs, zs, coeffs = (np.concatenate(parts) for parts in zip(*found))
    keep = np.abs(coeffs) > rel_tol * peak * scale
    return PauliSum.from_arrays(n, xs[keep], zs[keep], coeffs[keep])


def _kept_sums(op: SparseOperator, vals: np.ndarray, scale: float,
               rel_tol: float) -> tuple[list, float, bool]:
    """The butterfly of ``vals`` at the entries of ``op``, pre-pruned per batch
    against the largest magnitude so far: ``(x, z, scale * phase * sum)`` per
    batch, that largest sum, and whether every sum is finite. A real (x, V) or
    imaginary (p) matrix transforms its nonzero part; powers of i multiply
    exactly."""
    found, peak, finite, phases = [], 0.0, True, I_POWERS.conj() * scale
    if not vals.imag.any():
        vals = vals.real
    elif not vals.real.any():
        vals, phases = vals.imag, 1j * phases
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is redone
        for xs, work in _transformed_diagonals(op.dim, op.rows ^ op.cols, op.cols, vals):
            mags = np.abs(work)
            top = float(mags.max())  # NaN where an overflow met another
            finite = finite and math.isfinite(top)
            peak = max(peak, top)
            g, z = np.nonzero(mags > rel_tol * peak)
            found.append((xs[g], z, work[g, z] * phases[np.bitwise_count(xs[g] & z) % 4]))
    return found, peak, finite


def reconstruct(psum: PauliSum) -> SparseOperator:
    """Sum of coefficient * string matrix: the decomposition butterfly backwards."""
    dim = 1 << psum.n_qubits
    if not len(psum):
        return SparseOperator(dim)
    xs, zs = (w[:, 0].astype(np.int64) for w in (psum.x_words, psum.z_words))
    coeffs = psum.coeffs * I_POWERS[np.bitwise_count(xs & zs) % 4]
    found = []
    for x, work in _transformed_diagonals(dim, xs, zs, coeffs):
        g, c = np.nonzero(work)
        found.append((c ^ x[g], c, work[g, c]))
    return SparseOperator(dim, *(np.concatenate(parts) for parts in zip(*found)))
