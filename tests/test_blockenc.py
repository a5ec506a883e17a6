"""LCU plans, prepare/select construction, and block-encoding verification."""
import functools

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qboson.blockenc
from qboson import (HamiltonianSpec, Monomial, PauliSum, PauliTerm, PolynomialPotential,
                    TruncationConfig, assemble_hamiltonian_matrix, block_encode,
                    build_plan, build_select, fourier_kernel, load_hamiltonian_spec,
                    plan_from_spec, prepare_G, verify_block_encoding)
from qboson.blockenc import BlockEncoding
from qboson.cli import main
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
        return BlockEncoding(plan, prepare_G(plan))

    def test_single_z_exact(self):
        plan = build_plan(sum_from_labels(1, [("Z", 1.0)]))
        enc = BlockEncoding(plan, prepare_G(plan))
        assert verify_block_encoding(enc, np.diag([1.0, -1.0])) == 0.0
        assert np.array_equal(enc.encoded_block(), np.diag([1.0, -1.0]))

    def test_x_plus_z(self):
        enc = self.toy_encoding()
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert verify_block_encoding(enc, h) < 1e-12
        assert np.abs(enc.encoded_block() - h / enc.plan.lam).max() < 1e-12
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
        enc = BlockEncoding(plan, prepare_G(plan))
        enc.select = SparseOperator.from_dense(u)  # stands in for the built select
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
        assert np.abs(enc.encoded_block() - h / enc.plan.lam).max() < 1e-10
        u = enc.select.to_dense()
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-9
        assert enc.plan.lam >= np.abs(h).max() - 1e-9


@st.composite
def lcu_cases(draw):
    """A register size and signed potential and kinetic strings on it."""
    n = draw(st.integers(1, 3))
    labels = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.builds(lambda m, neg: -m if neg else m, st.floats(0.05, 4.0), st.booleans())
    potential = draw(st.dictionaries(labels, coeffs, min_size=1, max_size=6))
    kinetic = draw(st.dictionaries(labels, coeffs, max_size=5))
    return n, potential, kinetic


COUPLED_QUARTIC = [(0.5, {0: 2}), (0.5, {1: 2}), (0.25, {0: 4}), (0.25, {1: 4}),
                   (0.5, {0: 2, 1: 2})]
LCU_SPECS = ([(1, q, [(1.0, {0: 4})]) for q in range(2, 7)]
             + [(1, q, [(1.0, {0: 2}), (2.0, {0: 4}), (1.0, {0: 6})]) for q in range(2, 7)]
             + [(2, q, COUPLED_QUARTIC) for q in (2, 3)])


class TestBranchBlock:
    """verify_block_encoding reads the block off the plan's branches; the
    select operator and its encoded_block() are the oracle."""

    @given(lcu_cases())
    @settings(max_examples=80, deadline=None)
    def test_equals_select_block(self, case):
        n, potential, kinetic = case
        plan = build_plan(sum_from_labels(n, potential.items()),
                          sum_from_labels(n, kinetic.items()) if kinetic else None)
        enc = BlockEncoding(plan, prepare_G(plan), fourier_kernel(1 << n))
        block = enc.branch_block()
        assert np.abs(block - enc.encoded_block()).max() <= 1e-12
        g, eye = enc.g_state, np.eye(1 << n)
        u = enc.select.to_dense()
        expected = np.kron(g.conj()[None, :], eye) @ u @ np.kron(g[:, None], eye)
        assert np.abs(block - expected).max() <= 1e-12

    def test_reads_the_prepared_column(self):
        # the weights come from prepare, not from the plan: a wrong column shows
        plan = build_plan(sum_from_labels(1, [("X", 1.0), ("Z", 1.0)]))
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert verify_block_encoding(BlockEncoding(plan, np.eye(2)), h) == pytest.approx(0.5)

    def test_kinetic_needs_kernel(self):
        plan = build_plan(sum_from_labels(1, [("X", 1.0)]), sum_from_labels(1, [("Z", 1.0)]))
        with pytest.raises(ValueError, match="[Ff]ourier"):
            verify_block_encoding(BlockEncoding(plan, prepare_G(plan)), np.eye(2))

    @pytest.mark.parametrize("bosons,qubits,monomials", LCU_SPECS)
    def test_cli_verify_builds_no_select(self, bosons, qubits, monomials, tmp_path,
                                         monkeypatch, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "bosons": bosons, "qubits_per_boson": qubits, "radius": 2.0,
            "potential": [{"coeff": c, "exponents": [e.get(a, 0) for a in range(bosons)]}
                          for c, e in monomials]}))
        spec = load_hamiltonian_spec(str(path))
        enc = block_encode(spec)
        assert enc.select is enc.select  # built once, on first access
        ref = build_select(enc.plan, fourier_kernel_multi(spec.config))
        for got, want in zip((enc.select.rows, enc.select.cols, enc.select.vals),
                             (ref.rows, ref.cols, ref.vals)):
            assert np.array_equal(got, want)
        oracle = np.abs(enc.encoded_block() - assemble_hamiltonian_matrix(spec)
                        / enc.plan.lam).max()

        def no_select(*args, **kwargs):
            raise AssertionError("blockenc --verify built the select operator")

        monkeypatch.setattr(qboson.blockenc, "build_select", no_select)
        assert main(["blockenc", str(path), "--verify", "--format", "json"]) == 0
        err = json.loads(capsys.readouterr().out)["verify_error"]
        assert err <= 1e-10
        assert abs(err - oracle) <= 1e-15

    def test_cap_before_any_allocation(self, tmp_path, monkeypatch, capsys):
        # B=2 Q=7: 14 system qubits, past the 12-qubit cap on the system register
        def spec(q):
            path = tmp_path / f"spec{q}.json"
            path.write_text(json.dumps({
                "bosons": 2, "qubits_per_boson": q, "radius": 2.0,
                "potential": [{"coeff": c, "exponents": e} for c, e in
                              ((1.0, [2, 0]), (1.0, [0, 2]), (0.5, [2, 2]), (1.0, [4, 0]))]}))
            return str(path)

        # B=2 Q=5: 10 system qubits and 8 ancillas, each register within the cap
        assert main(["blockenc", spec(5), "--verify", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verify_error"] <= 1e-10

        def allocated(*args, **kwargs):
            raise AssertionError("allocated past the cap")

        for name in ("prepare_G", "build_select", "fourier_kernel_multi"):
            monkeypatch.setattr(qboson.blockenc, name, allocated)
        monkeypatch.setattr(BlockEncoding, "branch_block", allocated)
        assert main(["blockenc", spec(7), "--verify"]) == 3
        assert "capped at 12 system qubits, got 14" in capsys.readouterr().err

    def test_ancilla_cap_before_any_allocation(self, tmp_path, monkeypatch, capsys):
        # B=2 Q=6: 12 system qubits, but 64 x 64 potential strings need 13 ancillas
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "bosons": 2, "qubits_per_boson": 6, "radius": 2.0,
            "potential": [{"coeff": 1.0, "exponents": e}
                          for e in ([6, 6], [5, 6], [6, 5], [5, 5])]}))

        def allocated(*args, **kwargs):
            raise AssertionError("allocated past the cap")

        for name in ("prepare_G", "fourier_kernel_multi"):
            monkeypatch.setattr(qboson.blockenc, name, allocated)
        assert main(["blockenc", str(path), "--verify"]) == 3
        assert "capped at 12 ancilla qubits, got 13" in capsys.readouterr().err
