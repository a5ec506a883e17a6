"""Bit-packed Pauli terms, sums, census, and text serialization."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import (PauliSum, PauliTerm, count_strings, pauli_sum_from_text,
                    pauli_sum_to_text, string_census)

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
        assert PauliTerm.from_label(label).label() == label

    @pytest.mark.parametrize("label", ["Y", "XY", "ZYX", "IYZI"])
    def test_matrix_against_kron_oracle(self, label):
        term = PauliTerm.from_label(label, coefficient=1.0)
        assert np.abs(term.string_matrix().to_dense() - kron_oracle(label)).max() < 1e-15

    def test_weight_and_y_count(self):
        term = PauliTerm.from_label("XYIZY")
        assert term.weight == 4
        assert term.n_y == 2
        assert not term.is_diagonal
        assert PauliTerm.from_label("IZZI").is_diagonal

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
        terms = [PauliTerm(2, 1, 0, 0.5), PauliTerm(2, 1, 0, 0.25), PauliTerm(2, 0, 3, 1.0)]
        psum = PauliSum.from_terms(2, terms)
        assert len(psum) == 2
        assert psum.coefficient(1, 0) == pytest.approx(0.75)

    def test_addition_and_scaling(self):
        a = PauliSum(1, {(1, 0): 1.0})
        b = PauliSum(1, {(1, 0): -1.0, (0, 1): 2.0})
        total = a + b
        assert total.coefficient(1, 0) == 0.0
        assert (2.0 * total).coefficient(0, 1) == pytest.approx(4.0)

    def test_prune_relative(self):
        psum = PauliSum(2, {(0, 1): 1.0, (0, 2): 1e-14, (3, 3): 1e-8})
        kept = psum.prune(1e-12)
        assert {(t.x_mask, t.z_mask) for t in kept} == {(0, 1), (3, 3)}

    def test_count_strings(self):
        psum = PauliSum(2, {(0, 1): 1.0, (0, 2): 1e-6})
        assert count_strings(psum) == 2
        assert count_strings(psum, tol=1e-3) == 1
        assert count_strings(PauliSum(3)) == 0
        with pytest.raises(ValueError):
            count_strings(psum, tol=-1.0)

    def test_terms_canonical_order(self):
        psum = PauliSum(2, {(3, 3): 1.0, (0, 0): 1.0, (1, 0): 1.0})
        weights = [t.weight for t in psum.terms()]
        assert weights == sorted(weights)


class TestCensus:
    def test_single_z_histogram(self):
        q = 5
        psum = PauliSum(q, {(0, 1 << j): 1.0 for j in range(q)})
        census = string_census(psum)
        assert census.by_length == {1: q}
        assert census.total == q

    def test_letter_statistics(self):
        psum = PauliSum.from_terms(2, [PauliTerm.from_label("XY"), PauliTerm.from_label("YY")])
        census = string_census(psum)
        assert census.by_length == {2: 2}
        assert census.letters[2]["Y"] == 3
        assert census.y_counts[2] == {1: 1, 2: 1}

    def test_identity_counts_length_zero(self):
        census = string_census(PauliSum(2, {(0, 0): 2.0}))
        assert census.by_length == {0: 1}

    @pytest.mark.parametrize("n", [1, 3, 8, 63, 64, 70])
    def test_matches_per_letter_tally(self, n):
        rng = np.random.default_rng(n)
        full = (1 << n) - 1
        coeffs = {}
        for _ in range(200):
            x, z = (int.from_bytes(rng.bytes(9), "little") & full for _ in range(2))
            coeffs[(x, z)] = complex(rng.choice([0.0, 1e-9, 1.0]))
        psum = PauliSum(n, coeffs)
        for tol in (0.0, 1e-6):
            by_length, y_counts, letters = {}, {}, {}
            for t in psum.terms():
                if abs(t.coefficient) <= tol:
                    continue
                by_length[t.weight] = by_length.get(t.weight, 0) + 1
                y_counts.setdefault(t.weight, Counter())[t.label().count("Y")] += 1
                tally = letters.setdefault(t.weight, Counter())
                tally.update(ch for ch in t.label() if ch != "I")
            census = string_census(psum, tol)
            assert census.total == sum(by_length.values())
            assert census.by_length == by_length
            assert census.y_counts == y_counts
            assert census.letters == letters


class TestSerialization:
    def test_text_roundtrip(self):
        psum = PauliSum.from_terms(3, [
            PauliTerm.from_label("IXZ", 0.25),
            PauliTerm.from_label("YYI", complex(-1.5, 2.0)),
        ])
        text = pauli_sum_to_text(psum)
        assert text.splitlines()[0] == "# pauli-sum n_qubits=3 ordering=msb-left"
        back = pauli_sum_from_text(text)
        for t in psum.terms():
            assert back.coefficient(t.x_mask, t.z_mask) == pytest.approx(t.coefficient)

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
