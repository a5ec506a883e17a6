"""Potential expansion, kinetic terms, Fock-basis construction, and spec files."""
import json

import numpy as np
import pytest

from qboson import (BasisChoice, CapExceededError, HamiltonianSpec, KineticScheme,
                    Monomial, PolynomialPotential, SpecFileError, TruncationConfig,
                    anharmonic_potential, count_strings, decompose_tensorized,
                    double_well_potential, expand_potential_zsum, fock_hamiltonian,
                    fock_potential, fock_x, kinetic_finite_difference,
                    kinetic_grid_diagonal, kinetic_zsum, load_hamiltonian_spec,
                    potential_grid_diagonal, raw_string_count, reconstruct,
                    shift_matrix)


def coord_spec(bosons, qubits, radius, coeffs_by_power=None, potential=None):
    pot = potential
    if pot is None:
        pot = PolynomialPotential.one_boson(coeffs_by_power or {})
        if bosons > 1:
            pot = PolynomialPotential(bosons, pot.terms)
    return HamiltonianSpec(TruncationConfig(bosons, qubits, radius), pot)


class TestMonomials:
    def test_degree(self):
        assert Monomial(2.0, {0: 2, 1: 1}).degree == 3
        assert Monomial(1.0, {}).degree == 0

    def test_zero_powers_dropped(self):
        assert Monomial(1.0, {0: 0, 1: 2}).exponents == {1: 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(1.0, {0: -1})
        with pytest.raises(ValueError):
            Monomial(float("inf"), {0: 1})
        with pytest.raises(ValueError):
            PolynomialPotential(1, (Monomial(1.0, {1: 2}),))

    def test_double_well_expansion(self):
        # (x + x^2 + 1)^2 = x^4 + 2x^3 + 3x^2 + 2x + 1
        pot = double_well_potential(1.0, 1.0, 1.0)
        coeffs = {tuple(sorted(t.exponents.items())): t.coefficient for t in pot.terms}
        assert coeffs == {(): 1.0, ((0, 1),): 2.0, ((0, 2),): 3.0,
                          ((0, 3),): 2.0, ((0, 4),): 1.0}

    def test_anharmonic_expansion(self):
        # (x + x^3)^2 = x^2 + 2x^4 + x^6
        pot = anharmonic_potential()
        coeffs = {t.degree: t.coefficient for t in pot.terms}
        assert coeffs == {2: 1.0, 4: 2.0, 6: 1.0}


class TestPotentialExpansion:
    def test_x_squared_q2_symbolic(self):
        # (-dx (Z0/2 + Z1))^2 with dx = 1 gives (5/4) I + Z0 Z1
        spec = coord_spec(1, 2, 2.0, {2: 1.0})
        table = {(t.x_mask, t.z_mask): t.coefficient.real for t in expand_potential_zsum(spec)}
        assert table == {(0, 0): pytest.approx(1.25), (0, 3): pytest.approx(1.0)}

    def test_raw_counts(self):
        assert raw_string_count(PolynomialPotential.one_boson({4: 1.0}), 3) == 81
        assert raw_string_count(PolynomialPotential.one_boson({2: 1.0}), 2) == 4
        two = PolynomialPotential(2, (Monomial(1.0, {0: 1, 1: 1}),))
        assert raw_string_count(two, 2) == 4
        assert raw_string_count(PolynomialPotential.one_boson({0: 5.0}), 7) == 1

    def test_merged_not_larger_than_raw(self):
        spec = coord_spec(1, 3, 4.0, {4: 1.0})
        merged = len(expand_potential_zsum(spec))
        assert merged <= raw_string_count(spec.potential, 3)

    def test_cross_term_structure(self):
        pot = PolynomialPotential(2, (Monomial(1.0, {0: 1, 1: 1}),))
        spec = HamiltonianSpec(TruncationConfig(2, 2, 2.0), pot)
        terms = expand_potential_zsum(spec).terms()
        assert len(terms) == 4
        for t in terms:
            assert t.weight == 2
            low = t.z_mask & 0b0011
            high = t.z_mask & 0b1100
            assert low.bit_count() == 1 and high.bit_count() == 1

    @pytest.mark.parametrize("bosons,qubits,coeffs", [
        (1, 2, {2: 1.0}),
        (1, 3, {1: 0.5, 2: -1.0, 4: 2.0}),
        (2, 2, None),
        (2, 5, None),  # full register of 10 qubits
        (1, 5, {3: 1.0, 6: 0.25}),
    ])
    def test_reconstruction_matches_grid_oracle(self, bosons, qubits, coeffs):
        # brute force: evaluate V on every grid combination, compare diagonals
        if coeffs is None:
            potential = PolynomialPotential(
                2, (Monomial(1.0, {0: 1, 1: 1}), Monomial(0.5, {0: 2})))
            spec = HamiltonianSpec(TruncationConfig(bosons, qubits, 1.5), potential)
        else:
            spec = coord_spec(bosons, qubits, 1.5, coeffs)
        mat = reconstruct(expand_potential_zsum(spec)).to_dense()
        assert np.abs(mat - np.diag(potential_grid_diagonal(spec))).max() < 1e-10
        assert np.abs(mat - np.diag(np.diag(mat))).max() == 0.0  # diagonal operator

    def test_constant_only_warns(self):
        spec = coord_spec(1, 2, 1.0, {0: 3.0})
        with pytest.warns(UserWarning, match="constant"):
            psum = expand_potential_zsum(spec)
        assert psum.coefficient(0, 0) == pytest.approx(3.0)

    def test_empty_potential_allowed(self):
        spec = coord_spec(1, 2, 1.0, {})
        assert len(expand_potential_zsum(spec)) == 0

    @pytest.mark.parametrize("radius", [None, 2.0])
    def test_fock_basis_refused(self, radius):
        spec = HamiltonianSpec(TruncationConfig(1, 3, radius),
                               PolynomialPotential.one_boson({2: 1.0}), basis=BasisChoice.FOCK)
        with pytest.raises(ValueError, match="basis 'fock' with kinetic scheme "
                                             "'momentum-basis-diagonal'"):
            expand_potential_zsum(spec)


class TestKineticZsum:
    @pytest.mark.parametrize("qubits,zz_terms", [(2, 1), (3, 3), (4, 6), (8, 28)])
    def test_zz_count_per_boson(self, qubits, zz_terms):
        spec = coord_spec(1, qubits, 2.0, {2: 1.0})
        two_qubit = [t for t in kinetic_zsum(spec) if t.weight == 2]
        assert len(two_qubit) == zz_terms == qubits * (qubits - 1) // 2
        singles = [t for t in kinetic_zsum(spec) if t.weight == 1]
        assert singles == []  # single-Z terms cancel in the square

    def test_additive_across_bosons(self):
        spec = coord_spec(3, 3, 2.0, {2: 1.0})
        two_qubit = [t for t in kinetic_zsum(spec) if t.weight == 2]
        assert len(two_qubit) == 9

    def test_reconstructs_momentum_grid(self):
        spec = coord_spec(2, 2, 1.7, {2: 1.0})
        mat = reconstruct(kinetic_zsum(spec)).to_dense()
        assert np.abs(mat - np.diag(kinetic_grid_diagonal(spec))).max() < 1e-10

    def test_fock_spec_with_radius_rejected(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 1.0),
                               PolynomialPotential.one_boson({2: 1.0}), basis=BasisChoice.FOCK)
        with pytest.raises(ValueError, match="not basis 'fock' with kinetic scheme "
                                             "'momentum-basis-diagonal'"):
            kinetic_zsum(spec)

    def test_wrong_scheme_rejected(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 1.0),
                               PolynomialPotential.one_boson({2: 1.0}),
                               kinetic_scheme=KineticScheme.FINITE_DIFFERENCE_OPEN)
        with pytest.raises(ValueError, match="'finite-difference-open'"):
            kinetic_zsum(spec)


class TestFiniteDifference:
    def test_q1_form(self):
        spec = HamiltonianSpec(TruncationConfig(1, 1, 1.0),
                               PolynomialPotential.one_boson({}),
                               kinetic_scheme=KineticScheme.FINITE_DIFFERENCE_OPEN)
        dx = spec.config.spacing
        expected = (2 * np.eye(2) - np.array([[0, 1], [1, 0]])) / dx**2
        assert np.allclose(kinetic_finite_difference(spec).to_dense(), expected)

    def test_periodic_corners(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 2.0),
                               PolynomialPotential.one_boson({}),
                               kinetic_scheme=KineticScheme.FINITE_DIFFERENCE_PERIODIC)
        mat = kinetic_finite_difference(spec).to_dense()
        assert mat[0, 3] != 0 and mat[3, 0] != 0

    @pytest.mark.parametrize("basis,scheme", [(BasisChoice.COORDINATE_QFT,
                                               KineticScheme.MOMENTUM_DIAGONAL),
                                              (BasisChoice.FOCK,
                                               KineticScheme.FINITE_DIFFERENCE_OPEN)])
    def test_off_route_rejected(self, basis, scheme):
        spec = HamiltonianSpec(TruncationConfig(1, 2, 1.0), PolynomialPotential.one_boson({}),
                               kinetic_scheme=scheme, basis=basis)
        with pytest.raises(ValueError, match=f"only, not basis '{basis.value}' with kinetic "
                                             f"scheme '{scheme.value}'"):
            kinetic_finite_difference(spec)

    def test_two_boson_embedding(self):
        spec = HamiltonianSpec(TruncationConfig(2, 1, 1.0),
                               PolynomialPotential(2, ()),
                               kinetic_scheme=KineticScheme.FINITE_DIFFERENCE_OPEN)
        local = (2 * np.eye(2) - shift_matrix(1).to_dense()) / spec.config.spacing**2
        expected = np.kron(np.eye(2), local) + np.kron(local, np.eye(2))
        assert np.allclose(kinetic_finite_difference(spec).to_dense(), expected)


class TestFockHamiltonian:
    def fock_spec(self, qubits, potential):
        return HamiltonianSpec(TruncationConfig(1, qubits), potential,
                               basis=BasisChoice.FOCK)

    def test_x_squared_two_level_is_identity(self):
        spec = self.fock_spec(1, PolynomialPotential.one_boson({2: 1.0}))
        mat = fock_potential(spec).to_dense()
        x2 = fock_x(2).to_dense() @ fock_x(2).to_dense()
        assert np.allclose(mat, x2)
        assert np.allclose(mat, 0.5 * np.eye(2))

    def test_double_well_hermitian(self):
        spec = self.fock_spec(3, double_well_potential())
        op = fock_potential(spec)
        assert op.dim == 8
        m = op.to_dense()
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert count_strings(decompose_tensorized(op)) > 0

    def test_anharmonic_squared_potential(self):
        spec = self.fock_spec(2, PolynomialPotential.one_boson(
            {2: 1.0, 4: 2.0, 6: 1.0}))  # (x + x^3)^2
        op = fock_potential(spec)
        assert op.dim == 4
        m = op.to_dense()
        assert np.abs(m - m.conj().T).max() <= 1e-12

    def test_truncate_before_multiply(self):
        # truncated x^2 differs from the square of the wider x truncated after
        spec = self.fock_spec(2, PolynomialPotential.one_boson({2: 1.0}))
        mat = fock_potential(spec).to_dense()
        wide = fock_x(8).to_dense()
        truncated_after = (wide @ wide)[:4, :4]
        assert np.abs(mat - truncated_after).max() > 0.1

    def test_kinetic_term_added(self):
        spec = self.fock_spec(2, PolynomialPotential.one_boson({2: 0.5}))
        h = fock_hamiltonian(spec).to_dense()
        # harmonic oscillator at m = w = 1: H = p^2/2 + x^2/2 has exact
        # spectrum j + 1/2 away from the truncation boundary
        evals = np.linalg.eigvalsh(h)
        assert evals[0] == pytest.approx(0.5)

    def test_cap(self):
        spec = self.fock_spec(15, PolynomialPotential.one_boson({2: 1.0}))
        with pytest.raises(CapExceededError):
            fock_potential(spec)


class TestSpecValidation:
    def test_coordinate_needs_radius(self):
        with pytest.raises(ValueError, match="radius"):
            HamiltonianSpec(TruncationConfig(1, 2),
                            PolynomialPotential.one_boson({2: 1.0}))

    def test_fock_without_radius_ok(self):
        spec = HamiltonianSpec(TruncationConfig(1, 2),
                               PolynomialPotential.one_boson({2: 1.0}),
                               basis=BasisChoice.FOCK)
        assert spec.fock_params.mass == 1.0

    def test_boson_count_mismatch(self):
        with pytest.raises(ValueError, match="boson"):
            HamiltonianSpec(TruncationConfig(2, 2, 1.0),
                            PolynomialPotential.one_boson({2: 1.0}))


class TestSpecFiles:
    def write(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_full_document(self, tmp_path):
        doc = {"bosons": 1, "qubits_per_boson": 3, "radius": 2.0,
               "basis": "coordinate-qft", "kinetic_scheme": "momentum-basis-diagonal",
               "fock": {"mass": 1.0, "frequency": 2.0},
               "potential": [{"coeff": 1.0, "exponents": [2]},
                             {"coeff": 1.0, "exponents": [4]}]}
        spec = load_hamiltonian_spec(self.write(tmp_path, doc))
        assert spec.config.cutoff == 8
        assert spec.potential.n_terms == 2
        assert spec.fock_params.frequency == 2.0

    def test_defaults(self, tmp_path):
        doc = {"bosons": 1, "qubits_per_boson": 2, "radius": 1.0,
               "potential": [{"coeff": 0.5, "exponents": [2]}]}
        spec = load_hamiltonian_spec(self.write(tmp_path, doc))
        assert spec.basis is BasisChoice.COORDINATE_QFT
        assert spec.kinetic_scheme is KineticScheme.MOMENTUM_DIAGONAL

    def test_fock_spec_without_radius(self, tmp_path):
        doc = {"bosons": 1, "qubits_per_boson": 4, "basis": "fock",
               "potential": [{"coeff": 1.0, "exponents": [4]}]}
        spec = load_hamiltonian_spec(self.write(tmp_path, doc))
        assert spec.config.radius is None

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bosons": 1,\n  "qubits_per_boson": }')
        with pytest.raises(SpecFileError, match="line 2"):
            load_hamiltonian_spec(path)

    def test_wrong_exponent_count(self, tmp_path):
        doc = {"bosons": 2, "qubits_per_boson": 2, "radius": 1.0,
               "potential": [{"coeff": 1.0, "exponents": [2]}]}
        with pytest.raises(SpecFileError, match="exponents"):
            load_hamiltonian_spec(self.write(tmp_path, doc))

    def test_missing_field(self, tmp_path):
        with pytest.raises(SpecFileError):
            load_hamiltonian_spec(self.write(tmp_path, {"bosons": 1}))

    BASE = {"bosons": 1, "qubits_per_boson": 3, "radius": 2.0,
            "potential": [{"coeff": 1.0, "exponents": [2]}]}

    @pytest.mark.parametrize("change,message", [
        ({"potentail": [{"coeff": 1.0, "exponents": [2]}]}, "spec: unknown key 'potentail'"),
        ({"potential": [{"coeff": 1.0, "exponents": [2], "coef": 2.0}]},
         "potential term 0: unknown key 'coef'"),
        ({"fock": {"mass": 1.0, "freq": 2.0}}, "fock: unknown key 'freq'"),
        ({"potential": [{"coeff": 1.0, "exponents": [2.5]}]},
         "potential term 0: exponent 0 must be a JSON integer, got 2.5"),
        ({"qubits_per_boson": "3"}, "qubits_per_boson must be a JSON integer, got '3'"),
        ({"qubits_per_boson": True}, "qubits_per_boson must be a JSON integer, got True"),
        ({"bosons": 1.7}, "bosons must be a JSON integer, got 1.7"),
        ({"potential": [{"coeff": "1.0", "exponents": [2]}]},
         "potential term 0: coeff must be a finite JSON number, got '1.0'"),
    ], ids=["top-level-key", "term-key", "fock-key", "float-exponent", "string-integer",
            "bool-integer", "float-bosons", "string-coeff"])
    def test_strict_schema(self, tmp_path, change, message):
        with pytest.raises(SpecFileError) as exc:
            load_hamiltonian_spec(self.write(tmp_path, {**self.BASE, **change}))
        assert message in str(exc.value)

    def test_integer_reals_accepted(self, tmp_path):
        doc = {**self.BASE, "radius": 2, "potential": [{"coeff": 1, "exponents": [2]}]}
        spec = load_hamiltonian_spec(self.write(tmp_path, doc))
        assert spec.config.radius == 2.0 and spec.potential.terms[0].coefficient == 1.0
