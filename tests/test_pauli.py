"""Bit-packed Pauli terms, sums, census, and text serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import (BasisChoice, HamiltonianSpec, PauliSum, PauliTerm, PolynomialPotential,
                    TruncationConfig, count_strings, decompose_tensorized, fock_p,
                    fock_potential, pauli_sum_from_text, pauli_sum_to_text, string_census)
from refdata import sum_from_masks

_SINGLE = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(label_msb_first: str) -> np.ndarray:
    """Independent dense construction: explicit Kronecker chain."""
    out = np.array([[1.0 + 0j]])
    for ch in label_msb_first:
        out = np.kron(out, _SINGLE[ch])
    return out


def term_from_label(label: str) -> PauliTerm:
    """The one term of a one-line Pauli text, unit coefficient."""
    (term,) = pauli_sum_from_text(f"# pauli-sum n_qubits={len(label)}\n{label} 1 0\n").terms()
    return term


class TestPauliTerm:
    @pytest.mark.parametrize("x,z,letter", [(0, 0, "I"), (1, 0, "X"), (0, 1, "Z"), (1, 1, "Y")])
    def test_letter_encoding(self, x, z, letter):
        assert PauliTerm(1, x, z).label() == letter

    def test_label_ordering(self):
        term = PauliTerm(3, 0b001, 0b100)  # X on qubit 0, Z on qubit 2
        assert term.label(msb_first=True) == "ZIX"
        assert term.label(msb_first=False) == "XIZ"

    @pytest.mark.parametrize("label", ["X", "Y", "Z", "XZ", "YY", "IZXY"])
    def test_from_label_roundtrip(self, label):
        assert term_from_label(label).label() == label

    @pytest.mark.parametrize("label", ["Y", "XY", "ZYX", "IYZI"])
    def test_matrix_against_kron_oracle(self, label):
        term = term_from_label(label)
        assert np.abs(term.string_matrix().to_dense() - kron_oracle(label)).max() < 1e-15

    def test_weight_and_y_count(self):
        term = term_from_label("XYIZY")
        assert term.weight == 4
        assert term.n_y == 2
        assert not term.is_diagonal
        assert term_from_label("IZZI").is_diagonal

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            PauliTerm(2, 0b100, 0)

    @given(n=st.integers(1, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_trace_orthonormality(self, n, data):
        # Tr(P^dag P') = 2^n delta_{PP'} makes decomposition coefficients unique
        dim_mask = (1 << n) - 1
        masks = st.tuples(st.integers(0, dim_mask), st.integers(0, dim_mask))
        p1 = data.draw(masks)
        p2 = data.draw(masks)
        m1 = PauliTerm(n, *p1).string_matrix().to_dense()
        m2 = PauliTerm(n, *p2).string_matrix().to_dense()
        tr = np.trace(m1.conj().T @ m2)
        expected = (1 << n) if p1 == p2 else 0.0
        assert abs(tr - expected) < 1e-10


class TestPauliSum:
    def test_duplicate_merge(self):
        psum = PauliSum.from_arrays(2, [1, 1, 0], [0, 0, 3], [0.5, 0.25, 1.0])
        assert len(psum) == 2
        assert psum.coefficient(1, 0) == pytest.approx(0.75)

    def test_addition_and_scaling(self):
        a = PauliSum.from_arrays(1, [1], [0], [1.0])
        b = PauliSum.from_arrays(1, [1, 0], [0, 1], [-1.0, 2.0])
        total = a + b
        assert total.coefficient(1, 0) == 0.0
        assert (2.0 * total).coefficient(0, 1) == pytest.approx(4.0)

    def test_prune_relative(self):
        psum = PauliSum.from_arrays(2, [0, 0, 3], [1, 2, 3], [1.0, 1e-14, 1e-8])
        kept = psum.prune(1e-12)
        assert {(t.x_mask, t.z_mask) for t in kept} == {(0, 1), (3, 3)}

    def test_count_strings(self):
        # a sum stores no zero, so the count is its length; 1e-300 is a coefficient
        psum = PauliSum.from_arrays(2, [0, 0, 3], [1, 2, 3], [1.0, 1e-300, 0.0])
        assert len(psum) == 2 and count_strings(psum) == 2
        assert psum.coefficient(0, 2) == 1e-300 and psum.coefficient(3, 3) == 0.0
        assert count_strings(PauliSum(3)) == 0

    def test_no_zero_coefficient_stored(self):
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        built = PauliSum.from_arrays(2, [0, 1, 2, 3, 1], [1, 1, 2, 0, 2], [*zeros, 5e-324])
        a = PauliSum.from_arrays(2, [1, 2, 3], [0, 0, 0], [1.0, -2.5, 1j])
        cancelled = a + (-1.0) * a
        halves = a + PauliSum.from_arrays(2, [1, 2], [0, 0], [-1.0, 2.0])
        scaled = (0 * a, a * 0.0, 1e-300 * PauliSum.from_arrays(2, [1, 2], [0, 0], [1e-300, 1.0]))
        text = pauli_sum_from_text("# pauli-sum n_qubits=2\nXX 0.0 0.0\nIZ -0.0 0.0\n"
                                   "ZZ 1.0 0.0\nZI 1.0 0.0\nZI -1.0 0.0\n")
        for psum, n in [(built, 1), (cancelled, 0), (halves, 2), (scaled[0], 0), (scaled[1], 0),
                        (scaled[2], 1), (text, 1)]:
            assert len(psum) == n and count_strings(psum) == n
            assert np.all(psum.coeffs != 0)
            assert psum.x_words.shape == psum.z_words.shape == (n, 1)
        assert [(t.x_mask, t.z_mask, t.coefficient) for t in built] == [(1, 2, 5e-324)]
        assert [(t.x_mask, t.z_mask) for t in halves] == [(2, 0), (3, 0)]
        assert [(t.label(), t.coefficient) for t in text] == [("ZZ", 1.0)]

    def test_terms_canonical_order(self):
        psum = PauliSum.from_arrays(2, [3, 0, 1], [3, 0, 0], [1.0, 1.0, 1.0])
        weights = [t.weight for t in psum.terms()]
        assert weights == sorted(weights)


@st.composite
def coefficient_maps(draw, max_qubits=70):
    n = draw(st.integers(1, max_qubits))
    masks = st.integers(0, (1 << n) - 1)
    keys = draw(st.lists(st.tuples(masks, masks), max_size=20))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 1j, 1e-13]), min_size=len(keys),
                           max_size=len(keys)))
    return n, list(zip(keys, values))


class TestColumns:
    @given(data=coefficient_maps())
    @settings(max_examples=100, deadline=None)
    def test_canonical_merge_and_lookup(self, data):
        n, entries = data
        merged: dict = {}
        for key, v in entries:
            merged[key] = merged.get(key, 0.0) + v
        psum = sum_from_masks(n, entries)
        kept = [k for k, v in merged.items() if v != 0]  # a sum stores no zero
        keys = [(t.x_mask, t.z_mask) for t in psum.terms()]
        assert keys == sorted(kept, key=lambda k: ((k[0] | k[1]).bit_count(), *k))
        assert psum.x_words.shape == psum.z_words.shape == (len(kept), (n + 63) // 64)
        for (x, z), v in merged.items():  # duplicates may be added in another order
            assert psum.coefficient(x, z) == pytest.approx(v, rel=1e-14, abs=1e-14)
        assert psum.coefficient((1 << n) - 1, 0) == merged.get(((1 << n) - 1, 0), 0.0)

    @given(a=coefficient_maps(8), b=coefficient_maps(8))
    @settings(max_examples=60, deadline=None)
    def test_add_matches_dict_merge(self, a, b):
        n = max(a[0], b[0])
        sums = [sum_from_masks(n, list(dict(entries).items())) for _, entries in (a, b)]
        expected = dict(a[1])
        for key, v in dict(b[1]).items():
            expected[key] = expected.get(key, 0.0) + v
        total = sums[0] + sums[1]
        expected = {key: v for key, v in expected.items() if v != 0}  # cancellations drop
        assert {(t.x_mask, t.z_mask): t.coefficient for t in total} == expected

    def test_from_arrays_multiword(self):
        # 66 qubits: masks straddle the word boundary; rows arrive out of order
        words = np.array([[0, 3], [1 << 63, 0], [0, 3], [5, 0]], dtype=np.uint64)
        psum = PauliSum.from_arrays(66, np.zeros_like(words), words, [1.0, 2.0, 0.5, 4.0])
        assert [t.z_mask for t in psum] == [1 << 63, 5, 3 << 64]
        assert psum.coefficient(0, 3 << 64) == 1.5
        with pytest.raises(ValueError, match="fit"):
            PauliSum.from_arrays(66, np.zeros_like(words), words << np.uint64(1), np.ones(4))
        with pytest.raises(ValueError, match="align"):
            PauliSum.from_arrays(66, words, words, np.ones(3))
        with pytest.raises(ValueError, match="fit"):
            PauliSum.from_arrays(3, [0], [8], [1.0])

    def test_prune_and_dropped_l1(self):
        psum = PauliSum.from_arrays(2, [0, 0, 3, 1], [1, 2, 3, 0], [-2.0, 1e-13, -1e-12, 0.0])
        kept = psum.prune(1e-12)
        assert [(t.x_mask, t.z_mask) for t in kept] == [(0, 1)]
        assert psum.dropped_l1(1e-12) == pytest.approx(1.1e-12)
        assert psum.prune(0.0).dropped_l1(0.0) == 0.0 and len(psum.prune(0.0)) == 3
        assert PauliSum(2).dropped_l1() == 0.0 and len(PauliSum(2).prune()) == 0


class TestCensus:
    def test_single_z_histogram(self):
        q = 5
        psum = PauliSum.from_arrays(q, np.zeros(q, dtype=int), 1 << np.arange(q), np.ones(q))
        census = string_census(psum)
        assert census.by_length == {1: q}
        assert census.total == q

    def test_identity_counts_length_zero(self):
        census = string_census(PauliSum.from_arrays(2, [0], [0], [2.0]))
        assert census.by_length == {0: 1}

    @pytest.mark.parametrize("n", [1, 3, 8, 63, 64, 70])
    def test_matches_per_letter_tally(self, n):
        rng = np.random.default_rng(n)
        full = (1 << n) - 1
        coeffs = {}
        for _ in range(200):
            x, z = (int.from_bytes(rng.bytes(9), "little") & full for _ in range(2))
            coeffs[(x, z)] = complex(rng.choice([0.0, 1e-9, 1.0]))
        assert_census_matches_terms(sum_from_masks(n, list(coeffs.items())))

    @pytest.mark.parametrize("q", [3, 6, 8])
    def test_many_keys_x_y_rich(self, q):
        # Fock decompositions: X/Y-rich strings of every length up to Q
        spec = HamiltonianSpec(TruncationConfig(1, q), PolynomialPotential.one_boson(
            {1: 0.3, 2: 1.0, 3: -0.7, 4: 1.0}), basis=BasisChoice.FOCK)
        psum = decompose_tensorized(fock_potential(spec)) + decompose_tensorized(fock_p(1 << q))
        assert_census_matches_terms(psum)


def assert_census_matches_terms(psum):
    """string_census against a per-term count of the weights of the terms, none zero."""
    by_length = {}
    for t in psum.terms():
        assert t.coefficient != 0
        by_length[t.weight] = by_length.get(t.weight, 0) + 1
    census = string_census(psum)
    assert census.total == sum(by_length.values())
    assert census.by_length == by_length


class TestSerialization:
    def test_text_roundtrip(self):
        psum = PauliSum.from_arrays(3, [0b010, 0b110], [0b001, 0b110], [0.25, complex(-1.5, 2.0)])
        text = pauli_sum_to_text(psum)
        assert text.splitlines()[0] == "# pauli-sum n_qubits=3 ordering=msb-left"
        back = pauli_sum_from_text(text)
        for t in psum.terms():
            assert back.coefficient(t.x_mask, t.z_mask) == pytest.approx(t.coefficient)

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_text_matches_term_labels(self, n):
        # written from the mask columns, line for line what each term's label gives
        rng = np.random.default_rng(n)
        full = (1 << n) - 1
        psum = sum_from_masks(n, [((int.from_bytes(rng.bytes(17), "little") & full,
                                    int.from_bytes(rng.bytes(17), "little") & full),
                                   complex(*rng.standard_normal(2))) for _ in range(50)])
        lines = [f"{t.label()} {t.coefficient.real:.16e} {t.coefficient.imag:.16e}"
                 for t in psum.terms()]
        assert pauli_sum_to_text(psum) == "\n".join(
            [f"# pauli-sum n_qubits={n} ordering=msb-left", *lines]) + "\n"

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            pauli_sum_from_text("XX 1.0 0.0\n")

    @pytest.mark.parametrize("coeff", ["nan 0.0", "1.0 inf", "-inf 0.0"])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match=f"line 'XZ {coeff}'"):
            pauli_sum_from_text(f"# pauli-sum n_qubits=2\nXZ {coeff}\n")

    @pytest.mark.parametrize("header", ["# pauli-sum n_qubits", "# pauli-sum n_qubits=two",
                                        "# pauli-sum n_qubits=0",
                                        "# pauli-sum n_qubits=2 ordering=lsb-right",
                                        "# pauli-sum n_qubits=2 oredring=lsb-left"])
    def test_bad_header_named(self, header):
        with pytest.raises(ValueError, match=f"header '{header}'"):
            pauli_sum_from_text(header + "\nXZ 1.0 0.0\n")

    def test_lsb_left_ordering(self):
        psum = pauli_sum_from_text("# pauli-sum n_qubits=2 ordering=lsb-left\nXZ 1.0 0.0\n")
        assert psum.coefficient(0b01, 0b10) == 1.0

    @pytest.mark.parametrize("label", ["X", "XZY"])
    def test_label_length_mismatch(self, label):
        with pytest.raises(ValueError, match=f"line '{label} 1.0 0.0' for n_qubits=2"):
            pauli_sum_from_text(f"# pauli-sum n_qubits=2\n{label} 1.0 0.0\n")
