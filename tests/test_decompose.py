"""Trace-oracle vs tensorized decomposition, round trips, and shift-matrix content."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import decompose
from qboson import (CapExceededError, FockParams, SparseOperator, count_strings,
                    decompose_tensorized, decompose_trace, fock_ladder, fock_p, fock_x,
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

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_maximum_do_not_overflow(self):
        # 1.7e308 + 1.7e308 overflows: the sums are redone on the entries divided
        # first, as in decompose_tensorized
        op = SparseOperator(4, [0, 1], [1, 0], [1.7e308] * 2)
        oracle = coeff_table(decompose_trace(op))
        assert oracle == coeff_table(decompose_tensorized(op))
        assert oracle == {(1, 0): 0.85e308, (1, 2): 0.85e308}


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
        # arbitrary sparse complex matrices: non-Hermitian, and empty when no entries are
        # drawn; real and imaginary ones take the butterfly in real arithmetic
        dim = 1 << n
        value = st.floats(-1.0, 1.0, allow_nan=False)
        entries = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                               value, value), max_size=3 * dim))
        part = data.draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]))
        op = SparseOperator(dim, [e[0] for e in entries], [e[1] for e in entries],
                            [complex(re * part[0], im * part[1]) for _, _, re, im in entries])
        fast, oracle = coeff_table(decompose_tensorized(op)), coeff_table(decompose_trace(op))
        assert set(fast) == set(oracle)
        scale = max(map(abs, oracle.values()), default=0.0)
        for key, coeff in oracle.items():
            assert abs(fast[key] - coeff) <= 1e-12 * scale
        # unpruned, so the round trip carries only rounding error
        back = reconstruct(decompose_tensorized(op, rel_tol=0.0))
        assert back.dim == dim
        assert np.abs(back.to_dense() - op.to_dense()).max() <= 1e-12

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

    @pytest.mark.parametrize("n", range(1, 5))
    def test_empty_operator(self, n):
        # only exact zeros make an operator empty: 0.0 and -0.0 are not stored
        for op in (SparseOperator(1 << n), SparseOperator(1 << n, [0, 1], [1, 0], [0.0, -0.0])):
            psum = decompose_tensorized(op)
            assert psum.n_qubits == n and len(psum) == 0
            assert reconstruct(psum).nnz == 0
        # a lone 1e-15 is an operator like any other: the 2**n strings of x = 1
        tiny = SparseOperator(1 << n, [0], [1], [1e-15])
        psum = decompose_tensorized(tiny)
        assert len(psum) == 1 << n and np.all(psum.x_words == 1)
        assert np.abs(reconstruct(psum).to_dense() - tiny.to_dense()).max() <= 1e-30

    def test_subnormal_entries_summed_before_scaling(self):
        # 5e-324 * I has the one coefficient 5e-324; divided by 2**n first, every
        # entry rounded to 0.0 and no string was left
        for n in (1, 4):
            dim = 1 << n
            psum = decompose_tensorized(SparseOperator(dim, range(dim), range(dim), [5e-324] * dim))
            assert len(psum) == 1 and psum.coeffs[0] == 5e-324
            assert psum.x_words[0, 0] == psum.z_words[0, 0] == 0
        # X / 2 + Y * i / 2 is exactly +-2.5e-324, which rounds to 0.0 (ties to even),
        # as the oracle rounds it
        for value in (5e-324, 1.5e-323, 1e-300):
            op = SparseOperator(2, [0], [1], [value])
            assert coeff_table(decompose_tensorized(op)) == coeff_table(decompose_trace(op))
        assert len(decompose_tensorized(SparseOperator(2, [0], [1], [5e-324]))) == 0

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_maximum_do_not_overflow(self):
        # the butterfly doubles magnitudes at each level: its sums overflow, so the
        # transform is redone on the entries divided first
        op = SparseOperator(4, [0, 1, 2], [1, 0, 2], [1.7e308, 1.7e308, -1.7e308])
        psum = decompose_tensorized(op)
        assert np.isfinite(psum.coeffs).all()
        assert np.array_equal(reconstruct(psum).to_dense(), op.to_dense())
        # a dense sign pattern: sums that overflow meet, and inf - inf is NaN
        signs = np.random.default_rng(4).choice([1.7e308, -1.7e308], size=(16, 16))
        op = SparseOperator.from_dense(signs)
        psum = decompose_tensorized(op, rel_tol=0.0)
        assert np.isfinite(psum.coeffs).all()
        assert np.abs(reconstruct(psum).to_dense() - signs).max() <= 1e-15 * 1.7e308

    @pytest.mark.parametrize("n", range(1, 7))
    def test_imaginary_is_i_times_real(self, n):
        # both run the butterfly on the same real numbers; powers of i multiply exactly
        op = SparseOperator.from_dense(np.random.default_rng(n).standard_normal((1 << n, 1 << n)))
        real, imaginary = decompose_tensorized(op), decompose_tensorized(1j * op)
        assert np.array_equal(imaginary.x_words, real.x_words)
        assert np.array_equal(imaginary.z_words, real.z_words)
        assert np.array_equal(imaginary.coeffs, 1j * real.coeffs)

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
        assert np.array_equal(reconstruct(decompose_tensorized(s3)).to_dense(), s3.to_dense())

    def test_empty_sum_is_zero_matrix(self):
        from qboson import PauliSum
        zero = reconstruct(PauliSum(2))
        assert zero.nnz == 0 and zero.dim == 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_random(self, n):
        rng = np.random.default_rng(100 + n)
        op = random_hermitian(n, rng)
        back = reconstruct(decompose_tensorized(op))
        assert np.abs(back.to_dense() - op.to_dense()).max() < 1e-10


from refdata import SHIFT_SECTORS  # noqa: E402


class TestShiftDecomposition:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_total_count(self, q):
        assert count_strings(decompose_tensorized(shift_matrix(q))) == 2 ** q - 1

    @pytest.mark.parametrize("q", range(1, 7))
    def test_length_histogram_and_letters(self, q):
        psum = decompose_tensorized(shift_matrix(q))
        census = string_census(psum)
        assert census.by_length == {l: 2 ** (l - 1) for l in range(1, q + 1)}  # no identity
        x, z = psum.x_words, psum.z_words
        assert not (z & ~x).any()  # no Z letter
        assert (np.bitwise_count(x & z).sum(axis=1) % 2 == 0).all()  # even number of Y letters

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

    @pytest.mark.parametrize("mass", [1e-30, 1.0, 1e20, 1e28, 1e30])
    def test_fock_counts_do_not_depend_on_mass(self, mass):
        # Q 2**(Q-1) strings for x and for p at any mass: no entry is too small to count
        params = FockParams(mass)
        for q in range(1, 11):
            assert len(decompose_tensorized(fock_x(1 << q, params))) == q << (q - 1)
            assert len(decompose_tensorized(fock_p(1 << q, params))) == q << (q - 1)

    def test_creation_operator_roundtrip(self):
        a_dag = fock_ladder(8)
        back = reconstruct(decompose_tensorized(a_dag))
        assert np.abs(back.to_dense() - a_dag.to_dense()).max() < 1e-12
