"""Coordinate-list complex matrices from which the operators are built.

``SparseOperator(dim, rows, cols, vals)`` is the one constructor, and
``SparseOperator(dim)`` the empty operator. Entries are kept canonical: sorted
by (row, col), duplicates summed, and exact zeros dropped. ``merge_rows`` is
the one sort-and-merge kernel and the one zero rule; ``PauliSum`` orders its
strings with it too. The references that check the program (the exact
propagator, the block-encoding check) take dense arrays.
"""
from __future__ import annotations

import numpy as np


class SparseOperator:
    """Square complex matrix stored as canonical (row, col, value) triplets."""

    __slots__ = ("dim", "rows", "cols", "vals")

    def __init__(self, dim: int, rows=None, cols=None, vals=None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        rows = np.asarray([] if rows is None else rows, dtype=np.int64)
        cols = np.asarray([] if cols is None else cols, dtype=np.int64)
        vals = np.asarray([] if vals is None else vals, dtype=np.complex128)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have matching lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= dim
                          or cols.min() < 0 or cols.max() >= dim):
            raise ValueError("entry index out of range")
        take, self.vals = merge_rows([rows * dim + cols], vals)
        self.rows, self.cols = rows[take], cols[take]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, matrix) -> "SparseOperator":
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        r, c = np.nonzero(m)
        return cls(m.shape[0], r, c, m[r, c])

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        idx = np.arange(dim)
        return cls(dim, idx, idx, np.ones(dim))

    # -- views -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[self.rows, self.cols] = self.vals
        return out

    def to_csr(self):
        """The same matrix as a ``scipy.sparse.csr_matrix``; needs scipy installed."""
        from scipy.sparse import csr_matrix
        return csr_matrix((self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_dim(other)
        return SparseOperator(self.dim,
                              np.concatenate([self.rows, other.rows]),
                              np.concatenate([self.cols, other.cols]),
                              np.concatenate([self.vals, other.vals]))

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self.dim, self.rows, self.cols, self.vals * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        """Row join: entry (r, k, a) of self meets every entry of row k of other."""
        self._check_dim(other)
        start = np.searchsorted(other.rows, self.cols, side="left")
        count = np.searchsorted(other.rows, self.cols, side="right") - start
        left = np.repeat(np.arange(self.nnz), count)
        # position within the joined row, shifted to where that row starts in other
        right = np.arange(left.size) - np.repeat(np.cumsum(count) - count - start, count)
        return SparseOperator(self.dim, self.rows[left], other.cols[right],
                              self.vals[left] * other.vals[right])

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self.dim, self.cols, self.rows, np.conj(self.vals))

    def kron(self, other: "SparseOperator") -> "SparseOperator":
        """Kronecker product; ``other`` indexes the less significant block."""
        d = other.dim
        return SparseOperator(self.dim * d,
                              (self.rows[:, None] * d + other.rows).ravel(),
                              (self.cols[:, None] * d + other.cols).ravel(),
                              (self.vals[:, None] * other.vals).ravel())

    def _check_dim(self, other: "SparseOperator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz})"


def merge_rows(keys: list[np.ndarray], vals: np.ndarray):
    """Order rows by ``keys`` (aligned 1-D arrays, most significant first), add
    the values of equal rows and keep each sum that is not 0 (``-0.0`` goes, a
    subnormal stays). Returns ``(take, merged)``: ``take`` indexes each kept
    key's first row in ascending key order, ``merged`` its sum.
    Each sum runs strictly left to right in input order (the sort is
    stable): one vector pass per position after the first, over the runs
    that long, so ``a + b + c`` is ``(a + b) + c`` bit for bit. Rows that
    already ascend strictly skip the sort: ``take`` is ``slice(None)`` if no
    sum is 0. Rows that ascend strictly in ``keys[1:]`` are unique and need one
    stable argsort of ``keys[0]`` (a radix sort for keys of 16 bits or less)."""
    if vals.size < 2:
        return _nonzero(slice(None), vals)
    rest = np.zeros(vals.size - 1, dtype=bool)  # row i + 1 above row i in keys[1:]
    for key in keys[:0:-1]:
        rest = (key[1:] > key[:-1]) | (key[1:] == key[:-1]) & rest
    first = keys[0]
    if ((first[1:] > first[:-1]) | (first[1:] == first[:-1]) & rest).all():
        return _nonzero(slice(None), vals)
    if rest.all():
        order = np.argsort(first, kind="stable")
        return _nonzero(order, vals[order])
    order = np.lexsort(keys[::-1])  # lexsort's primary key is its last
    new = np.zeros(vals.size - 1, dtype=bool)
    for key in keys:
        key = key[order]
        new |= key[1:] != key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], new)))
    vals = vals[order]
    merged = vals[starts]
    more = np.append(~new, False)  # sorted row i + 1 continues row i's run
    longer = np.flatnonzero(more[starts])  # the runs with a second row
    at = starts[longer]
    while longer.size:  # one pass per further position, left to right
        at += 1
        merged[longer] += vals[at]
        keep = more[at]
        longer, at = longer[keep], at[keep]
    return _nonzero(order[starts], merged)


def _nonzero(take, vals):
    """``take`` and ``vals`` without the rows whose value equals 0."""
    keep = vals != 0
    if keep.all():
        return take, vals
    return (np.flatnonzero(keep) if isinstance(take, slice) else take[keep]), vals[keep]


def qubit_count(dim: int) -> int:
    """Number of qubits for a 2**n dimension; raises if dim is not a power of two."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1
