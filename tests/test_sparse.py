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
from qboson.sparse import merge_rows

# unit values make exact cancellations common; the floats cover general complex entries
VALUES = st.one_of(st.sampled_from([1.0, -1.0, 1j, -1j]),
                   st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))


def as_columns(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.array([e[0] for e in entries], dtype=np.int64),
            np.array([e[1] for e in entries], dtype=np.int64),
            np.array([e[2] for e in entries], dtype=complex))


def sparse_operators(dim: int):
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), VALUES)
    return st.lists(entry, max_size=2 * dim).map(
        lambda ent: SparseOperator(dim, *as_columns(ent)))


def assert_canonical(op: SparseOperator) -> None:
    keys = op.rows * op.dim + op.cols
    assert np.all(np.diff(keys) > 0)
    assert np.all(op.vals != 0)


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
    empty = SparseOperator(3)
    for product in (a @ empty, empty @ a, empty @ empty, a.kron(SparseOperator(2)),
                    SparseOperator(2).kron(a)):
        assert product.nnz == 0
    assert a.kron(SparseOperator(2)).dim == 6


def test_rows_without_entries_and_cancellation():
    # row 1 of b is empty, so a's column-1 entries pair with nothing
    a = SparseOperator.from_dense([[1, 2, 0], [0, 3, 1], [1, 0, -1]])
    b = SparseOperator.from_dense([[1, 1, 0], [0, 0, 0], [1, 0, 1]])
    assert np.array_equal((a @ b).to_dense(), a.to_dense() @ b.to_dense())
    # rows 0 and 2 of d are equal, so row 0 of c @ d = d[0] - d[2] cancels exactly
    c = SparseOperator.from_dense([[1, 0, -1], [0, 0, 0], [0, 0, 0]])
    d = SparseOperator.from_dense([[2, 1j, 0], [0, 0, 0], [2, 1j, 0]])
    assert (c @ d).nnz == 0


# signed zeros, a subnormal and values around 1e-14, beside VALUES: of these
# only the zeros drop
NEAR_ZERO = st.sampled_from([0.0, -0.0, -0.0j, 5e-324, 1e-14, -1e-14j, 5e-15, 2e-14])


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


def column_bytes(*columns) -> list[bytes]:
    return [np.asarray(c).tobytes() for c in columns]


@st.composite
def long_run_cases(draw):
    """Entries on distinct keys, each 3 to 6 times, in random order, with
    magnitudes far apart, so that any regrouping of a sum changes its bits."""
    n = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    keys = draw(st.lists(cells, unique=True, min_size=1, max_size=8))
    values = st.one_of(VALUES, NEAR_ZERO, st.floats(-1e3, 1e3), st.sampled_from([1e-13, 2.5]))
    entries = [(r, c, draw(values)) for r, c in keys for _ in range(draw(st.integers(3, 6)))]
    return n, draw(st.permutations(entries))


@given(merge_cases())
@settings(max_examples=200, deadline=None)
def test_one_merge_kernel_for_operators_and_pauli_sums(case):
    check_merge(*case)


@given(long_run_cases())
@settings(max_examples=200, deadline=None)
def test_long_runs_add_left_to_right(case):
    check_merge(*case)


def check_merge(n, shuffled):
    """Both constructors give each key's input-order sum bit for bit, and
    skip the sort when the keys arrive unique and in order."""
    sums = {}  # each key's values added in input order
    for r, c, v in shuffled:
        sums[r, c] = sums[r, c] + v if (r, c) in sums else v
    unique = len(sums) == len(shuffled)

    kept = [k for k in sorted(sums) if sums[k] != 0]
    expected = column_bytes(*as_columns([(r, c, sums[r, c]) for r, c in kept]))
    with no_sort_if(unique):
        in_order = SparseOperator(1 << n, *as_columns(sorted(shuffled, key=lambda e: e[:2])))
    for op in (in_order, SparseOperator(1 << n, *as_columns(shuffled))):
        assert column_bytes(op.rows, op.cols, op.vals) == expected

    # the same entries as strings (x_mask, z_mask) = (row, col); exact zeros drop
    def canonical(e):
        return (e[0] | e[1]).bit_count(), e[0], e[1]
    strings = as_columns([(x, z, sums[x, z]) for x, z in sorted(kept, key=canonical)])
    expected = column_bytes(strings[0].astype(np.uint64)[:, None],
                            strings[1].astype(np.uint64)[:, None], strings[2])
    with no_sort_if(unique):
        in_order = PauliSum.from_arrays(n, *as_columns(sorted(shuffled, key=canonical)))
    for psum in (in_order, PauliSum.from_arrays(n, *as_columns(shuffled))):
        assert column_bytes(psum.x_words, psum.z_words, psum.coeffs) == expected


def test_only_exact_zeros_drop():
    # no magnitude is too small to keep: 1e-300 and the smallest subnormal stay
    values = [1e-300, 5e-324, 0.0, -0.0, -5e-324j, complex(-0.0, -0.0)]
    op = SparseOperator(4, [0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 3, 2], values)
    assert op.rows.tolist() == [0, 0, 1] and op.cols.tolist() == [0, 3, 1]
    assert op.vals.tolist() == [1e-300, -5e-324j, 5e-324]
    dense = np.diag([1e-300, 5e-324, 0.0, -0.0])
    assert SparseOperator.from_dense(dense).vals.tolist() == [1e-300, 5e-324]
    # a sum that cancels exactly leaves no entry; one that leaves a subnormal keeps it
    tiny = np.ldexp(1.0, -1074)
    assert (op + (-1.0) * op).nnz == 0
    assert (SparseOperator(2, [0], [0], [1e-308 + tiny]) - SparseOperator(2, [0], [0], [1e-308])).nnz == 1


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


@given(words=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), size=st.integers(0, 80))
@settings(max_examples=100, deadline=None)
def test_first_key_sort_matches_lexsort(words, seed, size):
    """Rows unique and ascending in every key but the first (decompose's (x, z)
    order) take one stable argsort of the weight: the same rows, in the same
    order, as ``np.lexsort`` on all keys."""
    rng = np.random.default_rng(seed)
    # few bits per word, so that weights tie often
    x, z = (rng.integers(0, 8, size=(size, words), dtype=np.uint64) for _ in range(2))
    rest = [*x.T[::-1], *z.T[::-1]]
    order = np.lexsort(rest[::-1])
    rest = [k[order] for k in rest]
    distinct = np.concatenate(([True], np.any([k[1:] != k[:-1] for k in rest], axis=0)))[:size]
    rest = [k[distinct] for k in rest]
    weight = sum(np.bitwise_count(k) for k in rest).astype(np.uint8)
    keys = [weight, *rest]
    vals = rng.standard_normal(weight.size) + 1j * rng.standard_normal(weight.size)

    want = np.lexsort(keys[::-1])
    with mock.patch.object(np, "lexsort", side_effect=AssertionError("lexsort used")):
        take, merged = merge_rows(keys, vals)
    assert np.array_equal(np.arange(weight.size)[take], want)
    assert merged.tobytes() == vals[want].tobytes()
    # the same rows shuffled take the lexsort path, and agree
    shuffle = rng.permutation(weight.size)
    take, merged = merge_rows([k[shuffle] for k in keys], vals[shuffle])
    assert np.array_equal(shuffle[take], want) and merged.tobytes() == vals[want].tobytes()
