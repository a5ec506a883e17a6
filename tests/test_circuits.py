"""QFT circuits, Z-string rotations, Trotter assembly, and gate counting."""
import math

import numpy as np
import pytest
import scipy.linalg

from qboson import (CapExceededError, Circuit, Gate, HamiltonianSpec, KineticScheme,
                    Monomial, PauliSum, PauliTerm, PolynomialPotential, TruncationConfig,
                    circuit_from_text, circuit_matrix, circuit_to_text,
                    fourier_kernel, potential_grid_diagonal, qft_circuit,
                    trotter_evolution, trotter_step, zstring_rotation)
from qboson.circuits import _rotation_layer
from refdata import sum_from_masks


class TestGateAndCircuit:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("CNOT", (2, 2))
        with pytest.raises(ValueError):
            Gate("RZ", (0,))  # angle required
        with pytest.raises(ValueError):
            Gate("H", (0,), angle=1.0)
        with pytest.raises(ValueError):
            Gate("BOGUS", (0,))

    def test_register_bounds(self):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            circ.append(Gate("H", (2,)))
        with pytest.raises(ValueError):
            circ.append(Gate("H", (-1,)))

    def test_concatenation(self):
        a = Circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
        b = Circuit(2, [Gate("RZ", (1,), 0.3)])
        joined = a + b
        assert joined.n_qubits == 2
        assert joined.gates == a.gates + b.gates
        assert len(a) == 2 and len(b) == 1  # operands untouched
        joined.append(Gate("X", (1,)))
        assert len(a) == 2
        with pytest.raises(ValueError, match="register size mismatch"):
            a + Circuit(3)

    def test_counts(self):
        circ = Circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("H", (1,))])
        assert circ.counts() == {"H": 2, "CNOT": 1}

    def test_inverse_is_matrix_inverse(self):
        circ = Circuit(2, [Gate("H", (0,)), Gate("CPHASE", (0, 1), 0.7),
                           Gate("RZ", (1,), -0.3), Gate("SWAP", (0, 1))])
        u = circuit_matrix(circ)
        u_inv = circuit_matrix(circ.inverse())
        assert np.abs(u @ u_inv - np.eye(4)).max() < 1e-12

    def test_embedded(self):
        sub = Circuit(1, [Gate("X", (0,))])
        big = sub.embedded(3, offset=2)
        assert big.gates[0].qubits == (2,)
        with pytest.raises(ValueError):
            sub.embedded(3, offset=3)

    def test_serialization_roundtrip(self):
        circ = Circuit(3, [Gate("H", (0,)), Gate("CPHASE", (0, 2), math.pi / 4),
                           Gate("PHASE", (), 0.125), Gate("SWAP", (0, 2))])
        back = circuit_from_text(circuit_to_text(circ))
        assert np.abs(circuit_matrix(back) - circuit_matrix(circ)).max() < 1e-15

    @pytest.mark.parametrize("text,names", [
        ("# circuit n_qubits=2\nRZ 0\n", "line 'RZ 0'"),
        ("# circuit n_qubits=2\nH 0 1\n", "line 'H 0 1'"),
        ("# circuit n_qubits\nH 0\n", "header '# circuit n_qubits'"),
        ("# circuit n_qubits=2\nRZ 0 nan\n", "line 'RZ 0 nan'"),
        ("# circuit n_qubits=2\nCPHASE 0 1 -inf\n", "line 'CPHASE 0 1 -inf'"),
    ], ids=["missing-angle", "trailing-token", "header-without-equals", "nan-angle",
            "infinite-angle"])
    def test_malformed_text_names_input(self, text, names):
        with pytest.raises(ValueError, match=f"malformed circuit {names}"):
            circuit_from_text(text)


class TestQFT:
    def test_single_qubit_is_hadamard(self):
        # a Hadamard between two phase layers: exp(+-i pi/4) / sqrt(2) on the
        # grid points +-1/2, in closed form
        circ = qft_circuit(1)
        assert [g.kind for g in circ] == ["DIAGPHASE", "H", "DIAGPHASE", "PHASE"]
        expected = np.exp(0.25j * np.pi) * np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2)
        assert np.abs(circuit_matrix(circ) - expected).max() < 1e-15

    def test_gate_count_structure(self):
        # Q H, Q(Q-1)/2 CPHASE, Q//2 SWAP, 2Q DIAGPHASE and one global PHASE
        counts = qft_circuit(3).counts()
        assert counts == {"H": 3, "CPHASE": 3, "SWAP": 1, "DIAGPHASE": 6, "PHASE": 1}
        counts5 = qft_circuit(5).counts()
        assert counts5 == {"H": 5, "CPHASE": 10, "SWAP": 2, "DIAGPHASE": 10, "PHASE": 1}

    @pytest.mark.parametrize("q", range(1, 6))
    def test_centered_matches_kernel(self, q):
        # oracle: build exp(i p x)/sqrt(Lambda) from the grids directly
        u = circuit_matrix(qft_circuit(q))
        assert np.abs(u - fourier_kernel(1 << q)).max() < 1e-10

    @pytest.mark.parametrize("q", range(1, 6))
    def test_inverse_identity(self, q):
        circ = qft_circuit(q)
        u = circuit_matrix(circ + circ.inverse())
        assert np.abs(u - np.eye(1 << q)).max() < 1e-10

    @pytest.mark.parametrize("q", [3, 4])
    def test_unitarity(self, q):
        u = circuit_matrix(qft_circuit(q))
        assert np.abs(u @ u.conj().T - np.eye(1 << q)).max() < 1e-9


class TestZStringRotation:
    def test_single_z(self):
        circ = zstring_rotation(PauliTerm(1, 0, 1), 0.5)
        assert [g.kind for g in circ] == ["RZ"]
        assert circ.gates[0].angle == pytest.approx(1.0)

    def test_zz_ladder(self):
        circ = zstring_rotation(PauliTerm(2, 0, 0b11), 0.5)
        assert [g.kind for g in circ] == ["CNOT", "RZ", "CNOT"]

    def test_ladder_length(self):
        circ = zstring_rotation(PauliTerm(5, 0, 0b11011), 0.1)
        assert circ.counts() == {"CNOT": 6, "RZ": 1}  # 2(l-1) + 1 for l = 4

    def test_identity_becomes_global_phase(self):
        u = circuit_matrix(zstring_rotation(PauliTerm(2, 0, 0), 0.3))
        assert np.abs(u - np.exp(-0.3j) * np.eye(4)).max() < 1e-15

    @pytest.mark.parametrize("z_mask", [0b001, 0b110, 0b101, 0b111])
    def test_matches_matrix_exponential(self, z_mask):
        # oracle: scipy expm of the exact diagonal string matrix
        rng = np.random.default_rng(z_mask)
        theta = rng.uniform(-2, 2)
        term = PauliTerm(3, 0, z_mask)
        u = circuit_matrix(zstring_rotation(term, theta))
        expected = scipy.linalg.expm(-1j * theta * term.string_matrix().to_dense())
        assert np.abs(u - expected).max() < 1e-10

    def test_rejects_non_z(self):
        with pytest.raises(ValueError):
            zstring_rotation(PauliTerm(2, 0b01, 0), 0.1)
        with pytest.raises(ValueError):
            zstring_rotation(PauliTerm(1, 0, 1), float("nan"))


class TestRotationLayer:
    """The layer read from mask columns against one zstring_rotation per term."""

    @pytest.mark.parametrize("n,seed", [(1, 0), (3, 1), (6, 2), (70, 3)])
    def test_same_gates_as_per_term_rotations(self, n, seed):
        rng = np.random.default_rng(seed)
        masks = {0} | {int(m) for m in rng.integers(0, 1 << min(n, 62), 12)}
        if n > 64:
            masks |= {1 << 69, (1 << 69) | (1 << 63) | 5}  # straddle the word boundary
        psum = sum_from_masks(n, [((0, m), complex(rng.uniform(-2, 2), 0.1)) for m in masks])
        expected = [g for t in psum.terms() for g in
                    zstring_rotation(PauliTerm(n, 0, t.z_mask), t.coefficient.real * 0.3)]
        assert _rotation_layer(psum, 0.3).gates == expected

    @pytest.mark.parametrize("coeff", [math.inf, math.nan])
    def test_rejects_non_finite_angle(self, coeff):
        psum = PauliSum.from_arrays(2, [0, 0], [0b01, 0b11], [1.0, coeff])
        with pytest.raises(ValueError, match="finite"):
            _rotation_layer(psum, 0.1)


def anharmonic_spec(qubits=3, radius=2.0):
    return HamiltonianSpec(TruncationConfig(1, qubits, radius),
                           PolynomialPotential.one_boson({2: 1.0, 4: 1.0}))


class TestTrotterStep:
    def test_layer_structure(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 2.0),
                               PolynomialPotential.one_boson({2: 1.0}))
        _, report = trotter_step(spec, 0.1)
        assert list(report.layers) == ["potential", "qft", "kinetic", "inverse_qft"]
        assert report.layer_total("qft") == report.layer_total("inverse_qft")

    def test_potential_rotation_count_equals_merged_strings(self):
        spec = anharmonic_spec()
        _, report = trotter_step(spec, 0.05)
        pot = report.layers["potential"]
        non_identity = report.potential_strings_merged - 1  # one identity term
        assert pot["RZ"] == non_identity
        assert pot["PHASE"] == 1
        assert report.potential_strings_raw == 3 ** 2 + 3 ** 4

    def test_kinetic_layer_counts_q4(self):
        spec = HamiltonianSpec(TruncationConfig(1, 4, 2.0),
                               PolynomialPotential.one_boson({2: 1.0}))
        _, report = trotter_step(spec, 0.1)
        kin = report.layers["kinetic"]
        assert kin["RZ"] == 6  # Q(Q-1)/2 ZZ rotations; single-Z terms cancel
        assert kin["PHASE"] == 1
        assert kin["CNOT"] == 12

    def test_qft_layer_entangling_count(self):
        spec = HamiltonianSpec(TruncationConfig(2, 3, 2.0), PolynomialPotential(2, ()))
        _, report = trotter_step(spec, 0.1)
        assert report.layers["qft"]["CPHASE"] == 2 * 3  # B * Q(Q-1)/2
        assert report.layers["qft"]["H"] == 6

    def test_potential_layer_is_diagonal(self):
        # the potential layer, the first gates of a step, must commute with
        # computational measurement: it is exp(-i dt V) on the grid
        spec = anharmonic_spec()
        step, report = trotter_step(spec, 0.2)
        potential = Circuit(step.n_qubits)
        potential.gates = step.gates[:report.layer_total("potential")]
        u = circuit_matrix(potential)
        assert np.abs(u - np.diag(np.exp(-0.2j * potential_grid_diagonal(spec)))).max() < 1e-10

    def test_report_totals_consistent(self):
        _, report = trotter_step(anharmonic_spec(), 0.1)
        assert report.total == sum(report.layer_total(n) for n in report.layers)
        assert report.total == (report.rotations + report.entangling + report.hadamards)

    def test_wrong_scheme(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 1.0),
                               PolynomialPotential.one_boson({2: 1.0}),
                               kinetic_scheme=KineticScheme.FINITE_DIFFERENCE_OPEN)
        with pytest.raises(ValueError):
            trotter_step(spec, 0.1)


class TestTrotterEvolution:
    def test_single_step_reduces(self):
        spec = anharmonic_spec(qubits=2)
        c1, r1 = trotter_step(spec, 0.5)
        cn, rn = trotter_evolution(spec, 0.5, 1)
        assert np.abs(circuit_matrix(c1) - circuit_matrix(cn)).max() < 1e-15
        assert rn.total == r1.total

    def test_gate_count_linear_in_steps(self):
        spec = anharmonic_spec(qubits=2)
        _, r1 = trotter_evolution(spec, 1.0, 1)
        cn, rn = trotter_evolution(spec, 1.0, 8)
        assert rn.total == 8 * r1.total
        assert len(cn) == rn.total

    def test_repeats_the_step(self):
        spec = anharmonic_spec(qubits=2)
        step, _ = trotter_step(spec, 1.0 / 3)
        cn, _ = trotter_evolution(spec, 1.0, 3)
        assert cn.n_qubits == step.n_qubits
        assert cn.gates == step.gates * 3

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            trotter_evolution(anharmonic_spec(), 1.0, 0)

    def test_gate_list_capped_before_it_is_formed(self, monkeypatch):
        # the cap is lowered to four steps of this spec's gates
        from qboson import circuits
        spec = anharmonic_spec(qubits=2)
        gates = len(trotter_step(spec, 1.0)[0])
        monkeypatch.setattr(circuits, "EXPANSION_STRING_CAP", 4 * gates)
        assert len(trotter_evolution(spec, 1.0, 4)[0]) == 4 * gates
        with pytest.raises(CapExceededError, match=f"^5 Trotter steps of {gates} gates each"):
            trotter_evolution(spec, 1.0, 5)

    @pytest.mark.parametrize("n_qubits", [6, 8, 10])
    def test_unitarity_at_size(self, n_qubits):
        spec = HamiltonianSpec(TruncationConfig(2, n_qubits // 2, 2.0),
                               PolynomialPotential(2, (Monomial(0.3, {0: 2, 1: 2}),)))
        circ, _ = trotter_step(spec, 0.3)
        u = circuit_matrix(circ)
        assert np.abs(u @ u.conj().T - np.eye(1 << n_qubits)).max() < 1e-9


class TestGateCountScaling:
    def test_quartic_dominates(self):
        # fixed V = x^4: fit total entangling+rotation count to c1 Q^4 + c2 Q^2
        totals, qs = [], range(2, 7)
        pot_shares = []
        for q in qs:
            spec = HamiltonianSpec(TruncationConfig(1, q, 2.0),
                                   PolynomialPotential.one_boson({4: 1.0}))
            _, report = trotter_step(spec, 0.1)
            totals.append(report.total)
            pot_shares.append(report.layer_total("potential") / report.total)
        design = np.column_stack([np.array(qs, float) ** 4, np.array(qs, float) ** 2])
        coef, *_ = np.linalg.lstsq(design, np.array(totals, float), rcond=None)
        assert coef[0] > 0
        predicted = design @ coef
        assert np.abs(predicted - totals).max() / max(totals) < 0.2
        assert pot_shares == sorted(pot_shares)  # potential share grows with Q
