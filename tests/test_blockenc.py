"""LCU plans, prepare/select construction, and block-encoding verification."""
import functools

import numpy as np
import pytest
import scipy.linalg

from qboson import (HamiltonianSpec, Monomial, PauliSum, PauliTerm, PolynomialPotential,
                    TruncationConfig, assemble_hamiltonian_matrix, block_encode,
                    build_plan, build_select, plan_from_spec, prepare_G,
                    verify_block_encoding)
from qboson.blockenc import BlockEncoding
from qboson.operators import fourier_kernel_multi
from qboson.sparse import SparseOperator


def sum_from_labels(n, entries):
    return PauliSum.from_terms(n, [PauliTerm.from_label(l, c) for l, c in entries])


PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def label_matrix(label):
    """Dense string by Kronecker products, most significant qubit leftmost."""
    return functools.reduce(np.kron, [PAULI[ch] for ch in label], np.eye(1)).astype(complex)


def random_labels(rng, n, letters, count):
    return ["".join(rng.choice(list(letters), n)) for _ in range(count)]


class TestBuildPlan:
    def test_single_term(self):
        plan = build_plan(sum_from_labels(1, [("Z", 2.0)]))
        assert plan.lam == pytest.approx(2.0)
        assert plan.ancilla_count == 0
        assert np.allclose(plan.amplitudes, [1.0])

    def test_two_terms(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0), ("Z", 1.0)]))
        assert plan.lam == pytest.approx(2.0)
        assert plan.ancilla_count == 1
        assert np.allclose(plan.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_amplitudes_normalized(self):
        plan = build_plan(sum_from_labels(2, [("XI", 0.3), ("ZZ", -1.2), ("YY", 0.5)]))
        assert np.sum(plan.padded_amplitudes() ** 2) == pytest.approx(1.0)
        assert plan.lam >= max(0.3, 1.2, 0.5)

    def test_signs_folded(self):
        plan = build_plan(sum_from_labels(1, [("X", -1.0), ("Z", 3.0)]))
        # canonical term order puts Z (x_mask 0) before X (x_mask 1)
        assert plan.coeffs.dtype == np.float64
        assert np.sign(plan.coeffs).tolist() == [1, -1]
        assert np.all(plan.amplitudes > 0)

    def test_potential_before_kinetic(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0)]),
                          sum_from_labels(1, [("Z", 1.0)]))
        assert (plan.n_potential, plan.n_kinetic) == (1, 1)
        assert plan.x_words[:, 0].tolist() == [1, 0]  # X, the potential string, first
        assert plan.z_words[:, 0].tolist() == [0, 1]

    def test_harmonic_lambda_matches_sums(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 2.0),
                               PolynomialPotential.one_boson({2: 0.5}))
        from qboson import expand_potential_zsum, kinetic_zsum
        pot, kin = expand_potential_zsum(spec), kinetic_zsum(spec)
        plan = plan_from_spec(spec)
        expected = sum(abs(t.coefficient) for t in pot) + sum(abs(t.coefficient) for t in kin)
        assert plan.lam == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_plan(PauliSum(1))


class TestPrepare:
    def test_trivial(self):
        plan = build_plan(sum_from_labels(1, [("Z", 2.0)]))
        assert np.array_equal(prepare_G(plan), np.eye(1))

    def test_two_term_column(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0), ("Z", 1.0)]))
        u = prepare_G(plan)
        assert np.allclose(u[:, 0], [1 / np.sqrt(2)] * 2)

    def test_five_terms_orthonormal(self):
        plan = build_plan(sum_from_labels(2, [("XI", 1.0), ("IZ", 0.5), ("ZZ", 0.25),
                                              ("YY", 2.0), ("XX", 0.125)]))
        u = prepare_G(plan)
        assert u.shape == (8, 8)
        assert np.allclose(u[:, 0], plan.padded_amplitudes())
        assert np.abs(u @ u.T - np.eye(8)).max() < 1e-12


class TestSelect:
    def test_single_potential_term_is_the_string(self):
        plan = build_plan(sum_from_labels(1, [("Z", 1.5)]))
        u = build_select(plan).to_dense()
        assert np.allclose(u, np.diag([1.0, -1.0]))

    def test_negative_sign_folded(self):
        plan = build_plan(sum_from_labels(1, [("Z", -1.5)]))
        u = build_select(plan).to_dense()
        assert np.allclose(u, np.diag([-1.0, 1.0]))

    def test_two_branch_structure(self):
        from qboson import fourier_kernel
        plan = build_plan(sum_from_labels(1, [("X", 1.0)]),
                          sum_from_labels(1, [("Z", 1.0)]))
        f = fourier_kernel(2)
        u = build_select(plan, fourier=f).to_dense()
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(u[:2, :2], x)
        assert np.allclose(u[2:, 2:], f.conj().T @ z @ f)
        assert np.abs(u[:2, 2:]).max() == 0.0

    def test_select_preserves_ancilla_branch(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 2.0),
                               PolynomialPotential.one_boson({2: 0.5}))
        enc = block_encode(spec)
        dim_sys = 1 << enc.n_system_qubits
        u = enc.select.to_dense()
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(dim_sys) + 1j * rng.standard_normal(dim_sys)
        psi /= np.linalg.norm(psi)
        for branch in range(1 << enc.plan.ancilla_count):
            vec = np.zeros(u.shape[0], dtype=complex)
            vec[branch * dim_sys:(branch + 1) * dim_sys] = psi
            out = u @ vec
            outside = np.delete(out.reshape(-1, dim_sys), branch, axis=0)
            assert np.abs(outside).max() < 1e-12  # |i>|psi> -> |i> (O_i |psi>)

    def test_unused_branches_identity(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0), ("Y", 1.0), ("Z", 1.0)]))
        u = build_select(plan).to_dense()  # 3 terms, 4 branches
        assert np.allclose(u[6:, 6:], np.eye(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_block_diag_of_branches(self, seed):
        from qboson import fourier_kernel
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        n_pot, n_kin = int(rng.integers(1, 6)), int(rng.integers(0, 4))
        pot = dict(zip(random_labels(rng, n, "IXYZ", n_pot), rng.uniform(-2, 2, n_pot)))
        kin = dict(zip(random_labels(rng, n, "IXYZ", n_kin), rng.uniform(-2, 2, n_kin)))
        plan = build_plan(sum_from_labels(n, pot.items()),
                          sum_from_labels(n, kin.items()) if kin else None)
        f = fourier_kernel(1 << n)
        blocks = []
        columns = (plan.x_words[:, 0].tolist(), plan.z_words[:, 0].tolist(), plan.coeffs.tolist())
        for i, (x, z, c) in enumerate(zip(*columns)):
            p = np.sign(c) * label_matrix(PauliTerm(n, x, z).label())
            blocks.append(f.conj().T @ p @ f if i >= plan.n_potential else p)
        blocks += [np.eye(1 << n)] * ((1 << plan.ancilla_count) - plan.n_terms)
        u = build_select(plan, fourier=f).to_dense()
        assert np.abs(u - scipy.linalg.block_diag(*blocks)).max() <= 1e-12

    @pytest.mark.parametrize("bosons,qubits,monomials", [
        (1, 4, [(1.0, {0: 4})]),
        (1, 5, [(0.5, {0: 2}), (-0.1, {0: 4})]),  # negative coefficients fold into branches
        (2, 2, [(0.5, {0: 2}), (0.5, {1: 2}), (0.25, {0: 2, 1: 2})]),
    ])
    def test_entries_arrive_sorted(self, bosons, qubits, monomials, monkeypatch):
        # branches in ancilla order, each in (row, col) order: the constructor never sorts
        potential = PolynomialPotential(bosons, [Monomial(c, e) for c, e in monomials])
        spec = HamiltonianSpec(TruncationConfig(bosons, qubits, 2.0), potential)
        plan = plan_from_spec(spec)
        assert plan.n_terms < 1 << plan.ancilla_count  # unused branches come last
        fourier = fourier_kernel_multi(spec.config)
        monkeypatch.setattr(np, "lexsort", lambda *a, **k: pytest.fail("select entries sorted"))
        u = build_select(plan, fourier=fourier)
        assert u.dim == (1 << plan.ancilla_count) << plan.n_system_qubits

    def test_potential_branches_in_one_pass(self, monkeypatch):
        # no SparseOperator per potential branch: the select is the only one
        built = []
        init = SparseOperator.__init__
        monkeypatch.setattr(SparseOperator, "__init__",
                            lambda op, *a, **k: (built.append(a[0]), init(op, *a, **k))[1])
        rng = np.random.default_rng(3)
        labels = random_labels(rng, 3, "IXYZ", 7)
        plan = build_plan(sum_from_labels(3, zip(labels, rng.uniform(-2, 2, 7))))
        u = build_select(plan)
        assert built == [u.dim]

    def test_kinetic_needs_kernel(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0)]),
                          sum_from_labels(1, [("Z", 1.0)]))
        with pytest.raises(ValueError, match="[Ff]ourier"):
            build_select(plan)


class TestVerify:
    def toy_encoding(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0), ("Z", 1.0)]))
        return BlockEncoding(plan, prepare_G(plan), build_select(plan))

    def test_single_z_exact(self):
        plan = build_plan(sum_from_labels(1, [("Z", 1.0)]))
        enc = BlockEncoding(plan, prepare_G(plan), build_select(plan))
        assert verify_block_encoding(enc, np.diag([1.0, -1.0])) == 0.0

    def test_x_plus_z(self):
        enc = self.toy_encoding()
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert verify_block_encoding(enc, h) < 1e-12
        assert enc.plan.lam == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_encoded_block_reads_every_entry(self, seed):
        # a select that is not block-diagonal: off-diagonal ancilla blocks must count
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        labels = random_labels(rng, n, "IXYZ", 5)
        plan = build_plan(sum_from_labels(n, zip(labels, rng.uniform(0.1, 2, 5))))
        dim = (1 << plan.ancilla_count) << n
        u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u[rng.random((dim, dim)) < 0.5] = 0.0
        enc = BlockEncoding(plan, prepare_G(plan), SparseOperator.from_dense(u))
        g, eye = enc.g_state, np.eye(1 << n)
        expected = np.kron(g.conj()[None, :], eye) @ u @ np.kron(g[:, None], eye)
        assert np.abs(enc.encoded_block() - expected).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            verify_block_encoding(self.toy_encoding(), np.eye(4))

    @pytest.mark.parametrize("qubits,coeffs", [
        (2, {2: 0.5}),          # harmonic oscillator
        (3, {2: 1.0, 4: 1.0}),  # anharmonic oscillator
    ])
    def test_full_pipeline(self, qubits, coeffs):
        spec = HamiltonianSpec(TruncationConfig(1, qubits, 2.0),
                               PolynomialPotential.one_boson(coeffs))
        enc = block_encode(spec)
        h = assemble_hamiltonian_matrix(spec)
        assert verify_block_encoding(enc, h) < 1e-10
        u = enc.select.to_dense()
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-9
        assert enc.plan.lam >= np.abs(h).max() - 1e-9
