"""Trace-oracle vs tensorized decomposition, round trips, and shift-matrix content."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import decompose
from qboson import (CapExceededError, SparseOperator, count_strings,
                    decompose_tensorized, decompose_trace, fock_ladder, fock_x,
                    reconstruct, shift_matrix, string_census)


def random_hermitian(n_qubits: int, rng) -> SparseOperator:
    dim = 1 << n_qubits
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return SparseOperator.from_dense((m + m.conj().T) / 2.0)


def coeff_table(psum) -> dict:
    return {(t.x_mask, t.z_mask): t.coefficient for t in psum.terms()}


class TestTraceOracle:
    def test_basis_element(self):
        psum = decompose_trace(SparseOperator.from_dense([[0, 1], [1, 0]]))
        assert coeff_table(psum) == {(1, 0): pytest.approx(1.0)}

    def test_shift_q2(self):
        psum = decompose_trace(shift_matrix(2))
        table = coeff_table(psum)
        # X on qubit 0; XX; YY (qubit 0 = least-significant index bit)
        assert table[(0b01, 0b00)] == pytest.approx(1.0)
        assert table[(0b11, 0b00)] == pytest.approx(0.5)
        assert table[(0b11, 0b11)] == pytest.approx(0.5)
        assert len(table) == 3

    def test_identity(self):
        psum = decompose_trace(SparseOperator.identity(8))
        assert coeff_table(psum) == {(0, 0): pytest.approx(1.0)}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            decompose_trace(SparseOperator.identity(2 ** 9))

    def test_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            decompose_trace(SparseOperator.identity(3))


class TestTensorized:
    def test_fock_x_counts(self):
        assert len(decompose_tensorized(fock_x(4))) == 4
        assert len(decompose_tensorized(fock_x(8))) == 12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_trace_oracle(self, n):
        rng = np.random.default_rng(7 * n)
        for _ in range(10):
            op = random_hermitian(n, rng)
            t1 = coeff_table(decompose_trace(op))
            t2 = coeff_table(decompose_tensorized(op))
            assert set(t1) == set(t2)
            for key in t1:
                assert abs(t1[key] - t2[key]) < 1e-10

    @given(n=st.integers(1, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_sparse_matches_oracle(self, n, data):
        # arbitrary sparse complex matrices: non-Hermitian, and empty when no entries are drawn
        dim = 1 << n
        value = st.floats(-1.0, 1.0, allow_nan=False)
        entries = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                               value, value), max_size=3 * dim))
        op = SparseOperator.from_entries(dim, [(r, c, complex(re, im))
                                               for r, c, re, im in entries])
        fast, oracle = coeff_table(decompose_tensorized(op)), coeff_table(decompose_trace(op))
        assert set(fast) == set(oracle)
        scale = max(map(abs, oracle.values()), default=0.0)
        for key, coeff in oracle.items():
            assert abs(fast[key] - coeff) <= 1e-12 * scale
        # unpruned, so the round trip carries only rounding error
        back = reconstruct(decompose_tensorized(op, rel_tol=0.0))
        assert back.dim == dim and back.max_abs_diff(op) <= 1e-12

    @pytest.mark.parametrize("batch_entries", [1, 64, 100])
    def test_batches_match_single_pass(self, batch_entries, monkeypatch):
        # entries shrink away from the XOR diagonal x = dim/2, so the batches before
        # it pre-prune against a running peak below the final one
        rng = np.random.default_rng(11)
        dim = 32
        rows, cols = np.indices((dim, dim))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = SparseOperator.from_dense(m * np.exp(-((rows ^ cols) - dim / 2) ** 2 / dim))
        whole = decompose_tensorized(op, rel_tol=0.05)
        rebuilt = reconstruct(whole).to_dense()
        monkeypatch.setattr(decompose, "BATCH_ENTRIES", batch_entries)
        batched = decompose_tensorized(op, rel_tol=0.05)
        assert 0 < len(batched) < dim * dim
        assert coeff_table(batched) == coeff_table(whole)
        assert set(coeff_table(batched)) == set(coeff_table(decompose_trace(op, rel_tol=0.05)))
        assert np.array_equal(reconstruct(batched).to_dense(), rebuilt)

    def test_hermitian_coefficients_real(self):
        rng = np.random.default_rng(42)
        psum = decompose_tensorized(random_hermitian(4, rng))
        assert psum.max_imag() < 1e-12


class TestReconstruct:
    def test_single_x(self):
        psum = decompose_trace(SparseOperator.from_dense([[0, 1], [1, 0]]))
        assert np.array_equal(reconstruct(psum).to_dense().real, [[0, 1], [1, 0]])

    def test_shift_q3_exact(self):
        s3 = shift_matrix(3)
        assert reconstruct(decompose_tensorized(s3)).max_abs_diff(s3) == 0.0

    def test_empty_sum_is_zero_matrix(self):
        from qboson import PauliSum
        zero = reconstruct(PauliSum(2))
        assert zero.nnz == 0 and zero.dim == 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_random(self, n):
        rng = np.random.default_rng(100 + n)
        op = random_hermitian(n, rng)
        back = reconstruct(decompose_tensorized(op))
        assert back.max_abs_diff(op) < 1e-10


from refdata import SHIFT_SECTORS  # noqa: E402


class TestShiftDecomposition:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_total_count(self, q):
        assert count_strings(decompose_tensorized(shift_matrix(q))) == 2 ** q - 1

    @pytest.mark.parametrize("q", range(1, 7))
    def test_length_histogram_and_letters(self, q):
        census = string_census(decompose_tensorized(shift_matrix(q)))
        assert census.by_length == {l: 2 ** (l - 1) for l in range(1, q + 1)}
        for l, y_hist in census.y_counts.items():
            assert all(n_y % 2 == 0 for n_y in y_hist)  # even number of Y letters
        for l, letters in census.letters.items():
            assert set(letters) <= {"X", "Y"}  # no Z, no identity-only strings

    @pytest.mark.parametrize("q", range(1, 7))
    def test_dyadic_coefficients(self, q):
        for term in decompose_tensorized(shift_matrix(q)):
            assert abs(term.coefficient) == pytest.approx(0.5 ** (term.weight - 1))

    @pytest.mark.parametrize("q", sorted(SHIFT_SECTORS))
    def test_corner_sector_term_by_term(self, q):
        msb_first, expected = SHIFT_SECTORS[q]
        got = {t.label(msb_first=msb_first): t.coefficient.real
               for t in decompose_tensorized(shift_matrix(q)) if t.weight == q}
        assert set(got) == set(expected)
        scale = 0.5 ** (q - 1)
        for label, sign in expected.items():
            assert got[label] == pytest.approx(sign * scale)

    @pytest.mark.parametrize("q", range(1, 6))
    def test_embedded_lower_shift(self, q):
        # the length<=q sector of S_{q+1} is exactly the S_q expansion on the low qubits
        big = coeff_table(decompose_tensorized(shift_matrix(q + 1)))
        small = coeff_table(decompose_tensorized(shift_matrix(q)))
        for (x, z), coeff in small.items():
            assert big[(x, z)] == pytest.approx(coeff)


class TestLadderDecomposition:
    @pytest.mark.parametrize("q,expected", [(1, 1), (2, 4), (3, 12), (4, 32), (5, 80)])
    def test_position_counts_small(self, q, expected):
        assert count_strings(decompose_tensorized(fock_x(1 << q))) == expected

    def test_creation_operator_roundtrip(self):
        a_dag = fock_ladder(8)
        assert reconstruct(decompose_tensorized(a_dag)).max_abs_diff(a_dag) < 1e-12
