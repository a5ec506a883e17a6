"""SparseOperator products against dense numpy, and numpy as the only run-time import."""
import contextlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import PauliSum, SparseOperator
from qboson.sparse import ZERO_TOL

# unit values make exact cancellations common; the floats cover general complex entries
VALUES = st.one_of(st.sampled_from([1.0, -1.0, 1j, -1j]),
                   st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))


def sparse_operators(dim: int):
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), VALUES)
    return st.lists(entry, max_size=2 * dim).map(
        lambda ent: SparseOperator.from_entries(dim, ent))


def assert_canonical(op: SparseOperator) -> None:
    keys = op.rows * op.dim + op.cols
    assert np.all(np.diff(keys) > 0)
    assert np.all(np.abs(op.vals) > 1e-14)


@given(dim=st.integers(1, 8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_dense(dim, data):
    a, b = data.draw(sparse_operators(dim)), data.draw(sparse_operators(dim))
    product = a @ b
    assert product.dim == dim
    assert_canonical(product)
    assert np.abs(product.to_dense() - a.to_dense() @ b.to_dense()).max() <= 1e-12


@given(d1=st.integers(1, 8), d2=st.integers(1, 8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_kron_matches_dense(d1, d2, data):
    a, c = data.draw(sparse_operators(d1)), data.draw(sparse_operators(d2))
    product = a.kron(c)
    assert product.dim == d1 * d2
    assert_canonical(product)
    assert np.abs(product.to_dense() - np.kron(a.to_dense(), c.to_dense())).max() <= 1e-12


def test_empty_operands():
    a = SparseOperator.from_dense(np.arange(9).reshape(3, 3))
    empty = SparseOperator.zeros(3)
    for product in (a @ empty, empty @ a, empty @ empty, a.kron(SparseOperator.zeros(2)),
                    SparseOperator.zeros(2).kron(a)):
        assert product.nnz == 0
    assert a.kron(SparseOperator.zeros(2)).dim == 6


def test_rows_without_entries_and_cancellation():
    # row 1 of b is empty, so a's column-1 entries pair with nothing
    a = SparseOperator.from_dense([[1, 2, 0], [0, 3, 1], [1, 0, -1]])
    b = SparseOperator.from_dense([[1, 1, 0], [0, 0, 0], [1, 0, 1]])
    assert np.array_equal((a @ b).to_dense(), a.to_dense() @ b.to_dense())
    # rows 0 and 2 of d are equal, so row 0 of c @ d = d[0] - d[2] cancels exactly
    c = SparseOperator.from_dense([[1, 0, -1], [0, 0, 0], [0, 0, 0]])
    d = SparseOperator.from_dense([[2, 1j, 0], [0, 0, 0], [2, 1j, 0]])
    assert (c @ d).nnz == 0


# values at and around the prune threshold, beside VALUES
NEAR_ZERO = st.sampled_from([ZERO_TOL, -ZERO_TOL * 1j, ZERO_TOL / 2, 2 * ZERO_TOL])


@st.composite
def merge_cases(draw):
    """Entries on distinct (row, col) keys, each once or twice, in random order.

    Two is the most any key gets from the package's own products and sums:
    ``@`` of tridiagonal Fock matrices and ``+`` of two canonical operators.
    """
    n = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    keys = draw(st.lists(cells, unique=True, max_size=12))
    values = st.one_of(VALUES, NEAR_ZERO)
    entries = [(r, c, draw(values)) for r, c in keys for _ in range(draw(st.integers(1, 2)))]
    return n, draw(st.permutations(entries))


def no_sort_if(unique: bool):
    """Make ``np.lexsort`` fail while ``unique`` (sorted input must skip the sort)."""
    fail = AssertionError("entries already in order were sorted again")
    return mock.patch.object(np, "lexsort", side_effect=fail) if unique else contextlib.nullcontext()


def as_columns(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.array([e[0] for e in entries], dtype=np.int64),
            np.array([e[1] for e in entries], dtype=np.int64),
            np.array([e[2] for e in entries], dtype=complex))


def column_bytes(*columns) -> list[bytes]:
    return [np.asarray(c).tobytes() for c in columns]


@given(merge_cases())
@settings(max_examples=200, deadline=None)
def test_one_merge_kernel_for_operators_and_pauli_sums(case):
    n, shuffled = case
    sums = {}  # each key's values added in input order
    for r, c, v in shuffled:
        sums[r, c] = sums[r, c] + v if (r, c) in sums else v
    unique = len(sums) == len(shuffled)

    kept = [k for k in sorted(sums) if abs(sums[k]) > ZERO_TOL]
    expected = column_bytes(*as_columns([(r, c, sums[r, c]) for r, c in kept]))
    with no_sort_if(unique):
        in_order = SparseOperator(1 << n, *as_columns(sorted(shuffled, key=lambda e: e[:2])))
    for op in (in_order, SparseOperator(1 << n, *as_columns(shuffled))):
        assert column_bytes(op.rows, op.cols, op.vals) == expected

    # the same entries as strings (x_mask, z_mask) = (row, col); exact zeros stay
    def canonical(e):
        return (e[0] | e[1]).bit_count(), e[0], e[1]
    strings = as_columns([(x, z, sums[x, z]) for x, z in sorted(sums, key=canonical)])
    expected = column_bytes(strings[0].astype(np.uint64)[:, None],
                            strings[1].astype(np.uint64)[:, None], strings[2])
    with no_sort_if(unique):
        in_order = PauliSum.from_arrays(n, *as_columns(sorted(shuffled, key=canonical)))
    for psum in (in_order, PauliSum.from_arrays(n, *as_columns(shuffled))):
        assert column_bytes(psum.x_words, psum.z_words, psum.coeffs) == expected


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        SparseOperator.identity(2) @ SparseOperator.identity(3)


def test_to_csr_equals_dense():
    op = SparseOperator.from_dense([[0, 1j, 0], [2, 0, 0], [0, -1, 3]])
    assert np.array_equal(op.to_csr().toarray(), op.to_dense())


def test_cli_import_loads_no_scipy():
    # numpy is the package's only run-time dependency; scipy serves tests and to_csr
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qboson.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
