"""Statevector engine, circuit matrices, exact propagators, and Trotter error."""
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qboson import (CapExceededError, Circuit, Gate, HamiltonianSpec, Monomial,
                    PolynomialPotential, StateVector, TruncationConfig, apply_circuit,
                    assemble_hamiltonian_matrix, circuit_matrix, exact_propagator,
                    expand_potential_zsum, fourier_kernel, fourier_kernel_multi, kinetic_zsum,
                    potential_grid_diagonal, qft_circuit, reconstruct, trotter_error,
                    trotter_evolution, trotter_step)
from qboson.circuits import LAYER_NAMES, GateCountReport
from qboson.operators import momentum_values
from qboson.simulate import WINDOW_QUBIT_CAP, _apply, _compile, layered_step


def anharmonic_spec(qubits=3, radius=2.0, coeffs=None):
    return HamiltonianSpec(TruncationConfig(1, qubits, radius),
                           PolynomialPotential.one_boson(coeffs or {2: 1.0, 4: 1.0}))


# -- dense oracle: every gate as a sum of Kronecker products of 2x2 factors ---------

_I2 = np.eye(2)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y2 = np.array([[0.0, -1j], [1j, 0.0]])
_Z2 = np.diag([1.0, -1.0])
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def _embed(n, factors):
    """kron over qubits n-1 .. 0 (qubit j is the 2**j bit) of factors.get(j, I)."""
    out = np.eye(1)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, factors.get(q, _I2))
    return out


def _gate_matrix(gate, n):
    kind, qs, phi = gate.kind, gate.qubits, gate.angle
    if kind == "H":
        return _embed(n, {qs[0]: np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)})
    if kind == "X":
        return _embed(n, {qs[0]: _X2})
    if kind == "RZ":
        return _embed(n, {qs[0]: np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])})
    if kind == "DIAGPHASE":
        return _embed(n, {qs[0]: np.diag([1.0, np.exp(1j * phi)])})
    if kind == "PHASE":
        return np.exp(1j * phi) * np.eye(1 << n)
    c, t = qs
    if kind == "CNOT":
        return _embed(n, {c: _P0}) + _embed(n, {c: _P1, t: _X2})
    if kind == "CPHASE":
        return np.eye(1 << n) + (np.exp(1j * phi) - 1) * _embed(n, {c: _P1, t: _P1})
    assert kind == "SWAP"
    return sum(_embed(n, {c: p, t: p}) for p in (_I2, _X2, _Y2, _Z2)) / 2


def _oracle_unitary(circuit):
    u = np.eye(1 << circuit.n_qubits, dtype=np.complex128)
    for gate in circuit:
        u = _gate_matrix(gate, circuit.n_qubits) @ u
    return u


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 6))
    kinds = ["X", "RZ", "DIAGPHASE", "PHASE"] + (["CNOT", "CPHASE", "SWAP"] if n > 1 else [])
    if draw(st.booleans()):  # half the circuits are H-free: one fused run, no butterfly
        kinds.append("H")
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        arity = {"PHASE": 0, "CNOT": 2, "CPHASE": 2, "SWAP": 2}.get(kind, 1)
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        angle = draw(angles) if kind in ("RZ", "DIAGPHASE", "PHASE", "CPHASE") else None
        gates.append(Gate(kind, qubits, angle))
    return Circuit(n, gates)


class TestFusedKernel:
    @given(circ=random_circuits())
    @settings(max_examples=200, deadline=None)
    def test_circuit_matrix_matches_kron_product(self, circ):
        assert np.abs(circuit_matrix(circ) - _oracle_unitary(circ)).max() < 1e-12

    @given(circ=random_circuits(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_apply_circuit_matches_kron_product(self, circ, seed):
        rng = np.random.default_rng(seed)
        dim = 1 << circ.n_qubits
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out = apply_circuit(circ, StateVector(circ.n_qubits, amps)).amplitudes
        assert np.abs(out - _oracle_unitary(circ) @ amps).max() < 1e-12

    @pytest.mark.parametrize("count", [1, 2, 511, 512, 513, 2501])
    def test_long_hadamard_runs_stay_normalised(self, count):
        # butterflies are normalised in batches: 2501 unscaled ones would overflow
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        u = circuit_matrix(Circuit(1, [Gate("H", (0,))] * count))
        assert np.abs(u - np.linalg.matrix_power(h, count)).max() < 1e-12

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_hadamard_is_exact_sum_and_difference(self, q):
        # one H is the decomposition butterfly's sum and difference, scaled by
        # 1/sqrt(2) once, with no other rounding: equal bit for bit
        rng = np.random.default_rng(q)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = apply_circuit(Circuit(4, [Gate("H", (q,))]), StateVector(4, amps)).amplitudes
        pairs = amps.reshape(-1, 2, 1 << q)
        expected = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]], axis=1)
        assert np.array_equal(out, expected.reshape(-1) * (1.0 / math.sqrt(2.0)))

    def test_oracle_conventions(self):
        # the oracle itself against hand-written 2-qubit matrices (qubit 0 = bit 1)
        cnot01 = np.eye(4)[[0, 3, 2, 1]]  # control 0 set: |1> <-> |3>
        assert np.array_equal(_gate_matrix(Gate("CNOT", (0, 1)), 2), cnot01)
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(_gate_matrix(Gate("SWAP", (0, 1)), 2).real, swap)
        assert np.allclose(_gate_matrix(Gate("CPHASE", (1, 0), 0.5), 2),
                           np.diag([1, 1, 1, np.exp(0.5j)]))


class TestApplyCircuit:
    def test_hadamard_on_zero(self):
        state = apply_circuit(Circuit(1, [Gate("H", (0,))]), StateVector.basis_state(1))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_empty_circuit_identity(self):
        sv = StateVector.basis_state(3, index=5)
        out = apply_circuit(Circuit(3), sv)
        assert np.array_equal(out.amplitudes, sv.amplitudes)

    def test_qft_column_matches_kernel(self):
        q = 2
        out = apply_circuit(qft_circuit(q), StateVector.basis_state(q, 0))
        assert np.abs(out.amplitudes - fourier_kernel(4)[:, 0]).max() < 1e-12

    def test_cnot_little_endian(self):
        # control qubit 0 set -> index 1; CNOT flips qubit 1 -> index 3
        sv = StateVector.basis_state(2, index=1)
        out = apply_circuit(Circuit(2, [Gate("CNOT", (0, 1))]), sv)
        assert out.amplitudes[3] == 1.0

    def test_norm_preserved_random_circuit(self):
        rng = np.random.default_rng(3)
        n = 4
        circ = Circuit(n)
        for _ in range(60):
            kind = rng.choice(["H", "X", "RZ", "CNOT", "CPHASE", "SWAP", "DIAGPHASE"])
            qubits = tuple(rng.choice(n, size=2, replace=False))
            if kind in ("H", "X"):
                circ.append(Gate(kind, qubits[:1]))
            elif kind in ("RZ", "DIAGPHASE"):
                circ.append(Gate(kind, qubits[:1], rng.uniform(-3, 3)))
            elif kind == "CPHASE":
                circ.append(Gate(kind, qubits, rng.uniform(-3, 3)))
            else:
                circ.append(Gate(kind, qubits))
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        out = apply_circuit(circ, StateVector(n, amps))
        assert abs(out.norm - 1.0) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(Circuit(2), StateVector.basis_state(3))


class TestCircuitMatrix:
    def test_single_x(self):
        assert np.array_equal(circuit_matrix(Circuit(1, [Gate("X", (0,))])).real,
                              [[0, 1], [1, 0]])

    def test_rz_diagonal_convention(self):
        # RZ(phi) = diag(e^{-i phi/2}, e^{+i phi/2})
        phi = 0.77
        u = circuit_matrix(Circuit(1, [Gate("RZ", (0,), phi)]))
        assert np.allclose(u, np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]))

    def test_matches_column_by_column_application(self):
        circ = qft_circuit(3)
        u = circuit_matrix(circ)
        for k in [0, 3, 7]:
            col = apply_circuit(circ, StateVector.basis_state(3, k)).amplitudes
            assert np.abs(u[:, k] - col).max() < 1e-13

    def test_cap(self):
        with pytest.raises(CapExceededError):
            circuit_matrix(Circuit(13))


class TestExactPropagator:
    def test_zero_hamiltonian(self):
        prop = exact_propagator(np.zeros((4, 4)), 2.0)
        assert np.array_equal(prop.unitary, np.eye(4))

    def test_pauli_z(self):
        prop = exact_propagator(np.diag([1.0, -1.0]), math.pi / 2)
        assert np.allclose(prop.unitary, np.diag([np.exp(-1j * math.pi / 2),
                                                  np.exp(1j * math.pi / 2)]))

    def test_unitary_on_anharmonic(self):
        h = assemble_hamiltonian_matrix(anharmonic_spec())
        u = exact_propagator(h, 1.3).unitary
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12

    def test_agrees_with_expm(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (m + m.conj().T) / 2
        u = exact_propagator(h, 0.37).unitary
        assert np.abs(u - scipy.linalg.expm(-1j * h * 0.37)).max() < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            exact_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("unit", [1.0, 1j])
    @pytest.mark.parametrize("dim", [3, 600])  # 600: H^dagger read in tiles, the last ragged
    def test_hermitian_tolerance_is_relative_to_the_largest_entry(self, dim, unit):
        # |H - H^dagger| may reach 1e-12 max(1, max |H|) = 2e-12 here, and no more
        h = np.diag(np.linspace(2.0, -1.0, dim)).astype(type(unit))
        h[0, -1] = 1.5e-12 * unit
        assert np.isfinite(exact_propagator(h, 1.0).unitary).all()
        h[0, -1] = 2.5e-12 * unit
        with pytest.raises(ValueError, match="Hermitian"):
            exact_propagator(h, 1.0)
        h[0, -1], h[-1, 0] = unit, np.conj(unit)
        assert np.isfinite(exact_propagator(h, 1.0).unitary).all()

    def test_cap_before_dense(self):
        # an 8192 x 8192 view of one zero allocates nothing; a copy of it would be
        # 512 MiB, so the cap must read the shape before anything is copied
        with pytest.raises(CapExceededError):
            exact_propagator(np.broadcast_to(0.0, (1 << 13, 1 << 13)), 1.0)

    def test_real_and_complex_input_agree(self):
        h = assemble_hamiltonian_matrix(anharmonic_spec())
        assert h.dtype == np.float64
        u_real = exact_propagator(h, 0.7).unitary
        u_complex = exact_propagator(h.astype(np.complex128), 0.7).unitary
        assert np.abs(u_real - u_complex).max() < 1e-13


def polynomial_spec(bosons, qubits, terms):
    """A coordinate-qft spec of ``(coeff, {boson: power})`` terms at radius 2."""
    return HamiltonianSpec(TruncationConfig(bosons, qubits, 2.0), PolynomialPotential(
        bosons, tuple(Monomial(c, powers) for c, powers in terms)))


def flip_invariant(h, ks):
    """``h`` averaged over the flips of its low k index bits, k in ``ks``:
    exactly invariant under each, since float addition commutes."""
    index = np.arange(len(h))
    for k in ks:
        flip = index ^ ((1 << k) - 1)
        h = (h + h[np.ix_(flip, flip)]) / 2
    return h


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shapes of the arrays np.linalg.eigh receives."""
    shapes, original = [], np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


class TestReflectionSectors:
    """exact_propagator diagonalizes one exact reflection sector of H at a time."""

    @pytest.mark.parametrize("spec, blocks", [
        # even in each boson: x_0 -> -x_0 and x_1 -> -x_1 each commute with H
        (polynomial_spec(2, 3, [(0.5, {0: 2}), (0.5, {1: 2}), (0.25, {0: 4}),
                                (0.25, {1: 4}), (0.5, {0: 2, 1: 2})]), (4, 16, 16)),
        # even only overall: x_0 x_1 keeps the joint reflection alone
        (polynomial_spec(2, 3, [(1.0, {0: 2}), (1.0, {1: 2}), (0.5, {0: 1, 1: 1})]),
         (2, 32, 32)),
        # x**3 breaks the only reflection of one boson
        (polynomial_spec(1, 4, [(1.0, {0: 3}), (1.0, {0: 4})]), (1, 16, 16)),
    ], ids=["even-in-each-boson", "even-overall", "odd"])
    def test_blocks_and_expm(self, spec, blocks, eigh_shapes):
        h = assemble_hamiltonian_matrix(spec)
        u = exact_propagator(h, 0.6).unitary
        assert eigh_shapes == [blocks]
        assert np.abs(u - scipy.linalg.expm(-0.6j * h)).max() < 1e-12

    def test_one_block_is_the_whole_matrix_arithmetic(self):
        h = assemble_hamiltonian_matrix(polynomial_spec(1, 4, [(1.0, {0: 3}), (1.0, {0: 4})]))
        evals, evecs = np.linalg.eigh(h)
        vh, phase = evecs.conj().T, evals * 0.6
        whole = (evecs * np.cos(phase)) @ vh - 1j * ((evecs * np.sin(phase)) @ vh)
        assert np.array_equal(exact_propagator(h, 0.6).unitary, whole)

    def test_complex_centrosymmetric(self, eigh_shapes):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = flip_invariant((m + m.conj().T) / 2, [4])
        assert np.iscomplexobj(h) and np.array_equal(h, h[::-1, ::-1])
        u = exact_propagator(h, 0.45).unitary
        assert eigh_shapes == [(2, 8, 8)]
        assert np.abs(u - scipy.linalg.expm(-0.45j * h)).max() < 1e-12

    def test_symmetry_broken_by_one_ulp_does_not_split(self, eigh_shapes):
        h = assemble_hamiltonian_matrix(
            polynomial_spec(2, 2, [(1.0, {0: 2}), (1.0, {1: 2}), (1.0, {0: 4})]))
        exact_propagator(h, 0.3)
        assert eigh_shapes == [(4, 4, 4)]
        # off rows 0 and 15, where each flip's partner entry is left as it was
        h[5, 9] = h[9, 5] = np.nextafter(h[5, 9], np.inf)  # still Hermitian
        assert h[5, 9] != 0
        u = exact_propagator(h, 0.3).unitary
        assert eigh_shapes[1:] == [(1, 16, 16)]
        assert np.abs(u - scipy.linalg.expm(-0.3j * h)).max() < 1e-12

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 5), data=st.data())
    def test_invariant_under_random_prefix_flips(self, n, data, eigh_shapes):
        ks = data.draw(st.sets(st.integers(1, n)), label="ks")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        is_complex = data.draw(st.booleans(), label="complex")
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((1 << n, 1 << n))
        if is_complex:
            m = m + 1j * rng.standard_normal(m.shape)
        h = flip_invariant((m + m.conj().T) / 2, sorted(ks))
        u = exact_propagator(h, 0.8).unitary
        count, dim, _ = eigh_shapes[-1]  # the fixture's list spans every example
        assert count >= 1 << len(ks) and count * dim == 1 << n
        assert np.abs(u - scipy.linalg.expm(-0.8j * h)).max() < 1e-12


class TestHamiltonianAssembly:
    def test_cross_module_consistency(self):
        # grid-diagonal assembly == Pauli-sum reconstruction route
        spec = anharmonic_spec()
        f = fourier_kernel_multi(spec.config)
        v = reconstruct(expand_potential_zsum(spec)).to_dense()
        k = reconstruct(kinetic_zsum(spec)).to_dense()
        h_sums = v + f.conj().T @ k @ f
        assert np.abs(h_sums - assemble_hamiltonian_matrix(spec)).max() < 1e-10

    def test_hermitian(self):
        h = assemble_hamiltonian_matrix(anharmonic_spec(qubits=4))
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_kinetic_part_is_real(self):
        # the imaginary part that assembly drops is rounding only
        spec = anharmonic_spec(qubits=4)
        f = fourier_kernel_multi(spec.config)
        k = reconstruct(kinetic_zsum(spec)).to_dense()
        fkf = f.conj().T @ k @ f
        assert np.abs(fkf.imag).max() < 1e-12
        h = assemble_hamiltonian_matrix(spec) - np.diag(potential_grid_diagonal(spec))
        assert np.abs(h - fkf.real).max() < 1e-10

    def test_cap(self):
        spec = HamiltonianSpec(TruncationConfig(1, 13, 2.0),
                               PolynomialPotential.one_boson({2: 1.0}))
        with pytest.raises(CapExceededError):
            assemble_hamiltonian_matrix(spec)

    @pytest.mark.parametrize("bosons,qubits", [(b, q) for b in (1, 2) for q in range(1, 6)])
    def test_per_boson_kinetic_matches_dense_product(self, bosons, qubits):
        # the earlier assembly: one dense product F^dag (K F) over the register
        from qboson import kinetic_grid_diagonal
        potential = PolynomialPotential(bosons, (Monomial(1.0, {0: 2}),
                                                 Monomial(-0.5, {bosons - 1: 4})))
        spec = HamiltonianSpec(TruncationConfig(bosons, qubits, 1.3), potential)
        f = fourier_kernel_multi(spec.config)
        dense = (f.conj().T @ (kinetic_grid_diagonal(spec)[:, None] * f)).real
        h = assemble_hamiltonian_matrix(spec)
        assert h.dtype == np.float64
        kinetic = h - np.diag(potential_grid_diagonal(spec))
        assert np.abs(kinetic - dense).max() <= 1e-12 * np.abs(dense).max()


class TestTrotterError:
    def test_kinetic_only_exact(self):
        spec = HamiltonianSpec(TruncationConfig(1, 3, 2.0), PolynomialPotential(1, ()))
        for steps in (1, 3):
            assert trotter_error(spec, 1.0, steps) < 1e-10

    def test_potential_only_exact(self):
        # the potential layer, the first gates of a step, is exp(-i V) on the grid
        spec = anharmonic_spec()
        step, report = trotter_step(spec, 1.0)
        potential = Circuit(step.n_qubits)
        potential.gates = step.gates[:report.layer_total("potential")]
        exact = np.diag(np.exp(-1j * potential_grid_diagonal(spec)))
        assert np.abs(circuit_matrix(potential) - exact).max() < 1e-10

    def test_first_order_halving(self):
        spec = anharmonic_spec()
        errs = {n: trotter_error(spec, 1.0, n) for n in (8, 16, 32, 64)}
        for n in (8, 16, 32):
            assert 0.4 <= errs[2 * n] / errs[n] <= 0.6

    def test_monotone_decrease(self):
        spec = anharmonic_spec()
        errs = [trotter_error(spec, 1.0, n) for n in (4, 8, 16, 32, 64)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_cap(self):
        spec = HamiltonianSpec(TruncationConfig(1, 13, 2.0),
                               PolynomialPotential.one_boson({2: 1.0}))
        with pytest.raises(CapExceededError):
            trotter_error(spec, 1.0, 1)

    def test_two_boson_consistency(self):
        pot = PolynomialPotential(2, (
            Monomial(0.5, {0: 2}),
            Monomial(0.5, {1: 2}),
            Monomial(0.25, {0: 1, 1: 1})))
        spec = HamiltonianSpec(TruncationConfig(2, 2, 2.0), pot)
        circ, _ = trotter_evolution(spec, 0.5, 16)
        u = circuit_matrix(circ)
        u_exact = exact_propagator(assemble_hamiltonian_matrix(spec), 0.5).unitary
        assert np.abs(u - u_exact).max() < 0.05
        assert trotter_error(spec, 0.5, 32) < trotter_error(spec, 0.5, 16)


def two_boson_spec():
    return HamiltonianSpec(TruncationConfig(2, 2, 2.0), PolynomialPotential(2, (
        Monomial(1.0, {0: 2}), Monomial(1.0, {1: 2}),
        Monomial(0.5, {0: 2, 1: 2}), Monomial(1.0, {0: 4}))))


class TestStepPowerAndSharedReference:
    @pytest.mark.parametrize("spec", [anharmonic_spec(), two_boson_spec()],
                             ids=["one-boson", "two-boson"])
    @pytest.mark.parametrize("steps", [1, 2, 3, 8])
    def test_equals_full_circuit(self, spec, steps):
        # oracle: the whole N-step circuit simulated gate by gate, no matrix power
        circ, _ = trotter_evolution(spec, 0.7, steps)
        u_exact = exact_propagator(assemble_hamiltonian_matrix(spec), 0.7).unitary
        expected = np.abs(circuit_matrix(circ) - u_exact).max()
        assert abs(trotter_error(spec, 0.7, steps) - expected) <= 1e-12 * expected

    def test_shared_reference_gives_same_errors(self):
        spec = two_boson_spec()
        exact = exact_propagator(assemble_hamiltonian_matrix(spec), 0.5)
        for steps in (2, 4):
            assert trotter_error(spec, 0.5, steps, exact=exact) == trotter_error(spec, 0.5, steps)

    def test_reference_must_match(self):
        spec = anharmonic_spec()
        h = assemble_hamiltonian_matrix(spec)
        with pytest.raises(ValueError, match="does not match"):
            trotter_error(spec, 0.5, 2, exact=exact_propagator(h, 0.25))
        with pytest.raises(ValueError, match="does not match"):
            trotter_error(spec, 0.5, 2, exact=exact_propagator(h[:4, :4], 0.5))

    def test_steps_validation(self):
        with pytest.raises(ValueError, match="steps"):
            trotter_error(anharmonic_spec(), 0.5, 0)


def coupled_spec(bosons, qubits):
    """x_0**2 + x_last**4 / 2 + 0.3 x_0 x_last: one boson, or two coupled ones."""
    last = bosons - 1
    return HamiltonianSpec(TruncationConfig(bosons, qubits, 2.0), PolynomialPotential(bosons, (
        Monomial(1.0, {0: 2}), Monomial(0.5, {last: 4}),
        Monomial(0.3, {0: 1, last: 1} if last else {0: 2}))))


def first_columns(layered, circuit, count=48):
    """The layered step and the gate-by-gate kernel of circuit_matrix on the
    first ``count`` basis states (all of them on small registers)."""
    probes = np.eye(1 << circuit.n_qubits, dtype=np.complex128)[:, :count].copy()
    spare = np.empty_like(probes)
    expected = _apply(_compile(circuit, circuit.n_qubits), probes.copy(), spare)
    return _apply(layered.ops, probes, spare), expected


def op_kinds(layered):
    return [op[0] for op in layered.ops]


class TestLayeredStep:
    @pytest.mark.parametrize("bosons,qubits", [(1, q) for q in range(2, 9)]
                             + [(2, q) for q in range(2, 7)])
    def test_matches_gate_by_gate(self, bosons, qubits):
        # Q <= WINDOW_QUBIT_CAP runs each boson's QFT as one window; past it,
        # the QFT gates run on the full register
        step, report = trotter_step(coupled_spec(bosons, qubits), 0.1)
        layered = layered_step(step, report, qubits)
        windowed = qubits <= WINDOW_QUBIT_CAP
        kinds = op_kinds(layered)
        if windowed:  # one window per boson in each QFT layer
            assert kinds == (["angles"] + ["window"] * bosons) * 2
        else:
            assert kinds.count("angles") == 2 and "window" not in kinds and "h" in kinds
        if step.n_qubits <= 8:
            assert np.abs(layered.power(1) - circuit_matrix(step)).max() <= 1e-12
        got, expected = first_columns(layered, step)
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("bosons,qubits", [(1, 3), (1, 7), (2, 4)])
    def test_doubled_angles_are_the_step_at_twice_dt(self, bosons, qubits):
        spec = coupled_spec(bosons, qubits)
        step, report = trotter_step(spec, 0.0625)
        twice, _ = trotter_step(spec, 0.125)
        sizes = [report.layer_total(name) for name in LAYER_NAMES]
        diagonal = np.repeat([True, False, True, False], sizes)
        doubled = [Gate(g.kind, g.qubits, 2.0 * g.angle) if diag and g.angle is not None else g
                   for g, diag in zip(step.gates, diagonal)]
        assert [(g.kind, g.qubits, g.angle) for g in doubled] == [
            (g.kind, g.qubits, g.angle) for g in twice.gates]
        # so the doubled phases are the phases of the step at 2 dt, bit for bit
        ours = layered_step(step, report, qubits).doubled()
        theirs = layered_step(twice, report, qubits)
        # and the QFT ops, which do not depend on dt, are the same
        assert op_kinds(ours) == op_kinds(theirs)
        for mine, other in zip(ours.ops, theirs.ops):
            assert all(np.array_equal(a, b) for a, b in zip(mine[1:], other[1:]))

    def test_gate_across_bosons_runs_on_the_full_register(self):
        # a SWAP between the two bosons' registers inside the QFT layer and
        # its inverse: no per-boson window holds it
        step, report = trotter_step(coupled_spec(2, 3), 0.1)
        cut = np.cumsum([report.layer_total(name) for name in LAYER_NAMES])
        swap = Gate("SWAP", (2, 3))
        gates = (step.gates[:cut[1]] + [swap] + step.gates[cut[1]:cut[2]] + [swap]
                 + step.gates[cut[2]:])
        crossed = Circuit(step.n_qubits, gates)
        counts = dict(report.layers)
        counts["qft"] = counts["qft"] + Counter(SWAP=1)
        counts["inverse_qft"] = counts["inverse_qft"] + Counter(SWAP=1)
        layered = layered_step(crossed, GateCountReport(counts), 3)
        kinds = op_kinds(layered)
        assert kinds.count("angles") == 2 and "window" not in kinds and "h" in kinds
        assert np.abs(layered.power(1) - circuit_matrix(crossed)).max() <= 1e-12

    def test_equal_windows_built_once(self, monkeypatch):
        # both bosons run the same QFT gates: one unitary per QFT layer, shared
        from qboson import simulate
        step, report = trotter_step(coupled_spec(2, 4), 0.1)
        built, original = [], simulate.circuit_matrix
        monkeypatch.setattr(simulate, "circuit_matrix", lambda c: built.append(c) or original(c))
        windows = [op[2] for op in layered_step(step, report, 4).ops if op[0] == "window"]
        assert len(built) == 2 and len(windows) == 4
        # the layer's phase rides on a copy for the first boson; the shared one is unchanged
        for (first, second), circuit in zip([windows[:2], windows[2:]], built):
            assert not np.shares_memory(first, second)
            assert np.array_equal(second, original(circuit))

    def test_diagonal_layer_that_permutes_refused(self):
        step, report = trotter_step(coupled_spec(1, 3), 0.1)
        counts = dict(report.layers)
        counts["potential"] = counts["potential"] + Counter(X=1)
        permuting = Circuit(step.n_qubits, [Gate("X", (0,))] + step.gates)
        with pytest.raises(ValueError, match="the potential layer permutes basis states"):
            layered_step(permuting, GateCountReport(counts), 3)

    def test_step_on_another_register_refused(self):
        spec = coupled_spec(2, 2)
        step, report = trotter_step(coupled_spec(1, 3), 0.25)
        with pytest.raises(ValueError, match="step on 3 qubits does not match 4 qubits"):
            trotter_error(spec, 0.5, 2, step=layered_step(step, report, 3))

    @pytest.mark.parametrize("steps,squared", [(1, False), (2, False), (5, False), (40, True)])
    def test_power_on_both_sides_of_the_cost_rule(self, steps, squared, monkeypatch):
        # few steps apply the layers each time, many square one application
        step, report = trotter_step(coupled_spec(2, 4), 0.05)
        expected = np.linalg.matrix_power(circuit_matrix(step), steps)
        calls = []
        original = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda *a: calls.append(a) or original(*a))
        got = layered_step(step, report, 4).power(steps)
        assert bool(calls) == squared
        assert np.abs(got - expected).max() <= 1e-12

    def test_cap(self):
        step, report = trotter_step(coupled_spec(1, 13), 0.1)
        with pytest.raises(CapExceededError, match="capped at 12 qubits"):
            layered_step(step, report, 13)


class TestAssembleWithoutKron:
    @pytest.mark.parametrize("bosons,qubits", [(1, 1), (1, 5), (2, 1), (2, 3), (3, 2), (4, 1)])
    def test_equals_kron_form(self, bosons, qubits):
        # oracle: each boson's kinetic block as two Kronecker products with identities
        spec = coupled_spec(bosons, qubits)
        cfg = spec.config
        f = fourier_kernel(cfg.cutoff)
        local = (f.conj().T @ (momentum_values(cfg)[:, None] ** 2 / 2.0 * f)).real
        oracle = np.diag(potential_grid_diagonal(spec))
        for a in range(bosons):
            oracle += np.kron(np.eye(cfg.cutoff ** (bosons - 1 - a)),
                              np.kron(local, np.eye(cfg.cutoff ** a)))
        assert np.array_equal(assemble_hamiltonian_matrix(spec), oracle)
