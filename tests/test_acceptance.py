"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""
import functools
import math
import time

import numpy as np

from qboson import (BasisChoice, Circuit, FockParams, HamiltonianSpec, PolynomialPotential,
                    ScalingSeries, SparseOperator, TruncationConfig, block_encode,
                    assemble_hamiltonian_matrix, circuit_matrix, count_strings,
                    decompose_tensorized, decompose_trace, double_well_potential,
                    fit_scaling, fock_p, fock_potential, fock_x, fourier_kernel,
                    kinetic_zsum, potential_grid_diagonal, qft_circuit, reconstruct, shift_matrix,
                    string_census, trotter_error, trotter_step,
                    verify_block_encoding)
from refdata import FOCK_XP_COUNTS, SHIFT_SECTORS

# frozen instance for the Trotter and block-encoding criteria
ANHARMONIC_RADIUS = 2.0


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
        return wrapper
    return deco


def coord_spec(qubits, coeffs, radius=ANHARMONIC_RADIUS):
    return HamiltonianSpec(TruncationConfig(1, qubits, radius),
                           PolynomialPotential.one_boson(coeffs))


@criterion("table-1 reproduction: x/p Fock counts = Q*2^(Q-1), Q = 1..14")
def test_table1_reproduction():
    start = time.monotonic()
    for q, expected in zip(range(1, 15), FOCK_XP_COUNTS):
        cutoff = 1 << q
        assert expected == q * 2 ** (q - 1)
        nx = count_strings(decompose_tensorized(fock_x(cutoff)))
        np_count = count_strings(decompose_tensorized(fock_p(cutoff)))
        assert nx == expected, f"x count mismatch at Q={q}: {nx} != {expected}"
        assert np_count == expected, f"p count mismatch at Q={q}"
    assert time.monotonic() - start < 600.0  # well under the 10-minute budget


@criterion("shift-matrix decomposition: explicit sectors Q<=5, count 2^Q-1 for Q<=8")
def test_shift_decomposition():
    for q in range(1, 9):
        psum = decompose_tensorized(shift_matrix(q))
        assert count_strings(psum) == 2 ** q - 1
        census = string_census(psum)
        assert census.by_length == {l: 2 ** (l - 1) for l in range(1, q + 1)}
        for letters in census.letters.values():
            assert set(letters) <= {"X", "Y"}
        for y_hist in census.y_counts.values():
            assert all(n_y % 2 == 0 for n_y in y_hist)
    for q, (msb_first, expected) in SHIFT_SECTORS.items():
        psum = decompose_tensorized(shift_matrix(q))
        got = {t.label(msb_first=msb_first): t.coefficient.real
               for t in psum if t.weight == q}
        scale = 0.5 ** (q - 1)
        assert set(got) == set(expected), f"sector strings differ at Q={q}"
        for label, sign in expected.items():
            assert abs(got[label] - sign * scale) < 1e-14, f"{label} at Q={q}"
        # every term dyadic: |coeff| = 1/2^(l-1)
        for t in psum:
            assert abs(abs(t.coefficient) - 0.5 ** (t.weight - 1)) < 1e-14
        assert reconstruct(psum).max_abs_diff(shift_matrix(q)) < 1e-12


@criterion("kinetic expansion: Q(Q-1)/2 ZZ strings per boson, Q = 2..8")
def test_kinetic_string_count():
    for q in range(2, 9):
        spec = coord_spec(q, {2: 1.0})
        terms = list(kinetic_zsum(spec))
        zz = [t for t in terms if t.weight == 2]
        assert len(zz) == q * (q - 1) // 2
        assert all(t.is_diagonal for t in terms)
        assert not any(t.weight == 1 for t in terms)
    # additivity across bosons
    spec3 = HamiltonianSpec(TruncationConfig(3, 4, 2.0), PolynomialPotential(3, ()))
    zz3 = [t for t in kinetic_zsum(spec3) if t.weight == 2]
    assert len(zz3) == 3 * 6


@criterion("centered QFT: circuit = kernel to 1e-10 (Q<=5) and F F^-1 = I to 1e-10")
def test_centered_qft():
    for q in range(1, 6):
        circ = qft_circuit(q)
        u = circuit_matrix(circ)
        kernel = fourier_kernel(1 << q)
        assert np.abs(u - kernel).max() <= 1e-10, f"kernel mismatch at Q={q}"
        roundtrip = circuit_matrix(circ + circ.inverse())
        assert np.abs(roundtrip - np.eye(1 << q)).max() <= 1e-10


@criterion("Trotter: first-order halving on the anharmonic oscillator; exact limits")
def test_trotter_order():
    spec = coord_spec(3, {2: 1.0, 4: 1.0})  # B=1, Q=3, V = x^2 + x^4
    errors = {n: trotter_error(spec, 1.0, n) for n in (8, 16, 32, 64)}
    for n, err in errors.items():
        assert math.isfinite(err), f"non-finite error at n={n}"
    for n in (8, 16, 32):
        ratio = errors[2 * n] / errors[n]
        assert 0.4 <= ratio <= 0.6, f"halving ratio {ratio:.3f} at n={n}"
    free = HamiltonianSpec(TruncationConfig(1, 3, ANHARMONIC_RADIUS),
                           PolynomialPotential(1, ()))
    assert trotter_error(free, 1.0, 1) <= 1e-10        # V = 0: exact
    # no kinetic: the potential layer of a step is exp(-i V) on the grid, exactly
    step, report = trotter_step(spec, 1.0)
    potential = Circuit(step.n_qubits)
    potential.gates = step.gates[:report.layer_total("potential")]
    exact = np.diag(np.exp(-1j * potential_grid_diagonal(spec)))
    assert np.abs(circuit_matrix(potential) - exact).max() <= 1e-10


@criterion("block encoding: (<G|(x)I) U (|G>(x)I) = H/lambda to 1e-10; U unitary to 1e-9")
def test_block_encoding_identity():
    from qboson.blockenc import BlockEncoding, build_plan, build_select, prepare_G
    from qboson import pauli_sum_from_text

    # toy X + Z
    toy_sum = pauli_sum_from_text("# pauli-sum n_qubits=1\nX 1 0\nZ 1 0\n")
    plan = build_plan(toy_sum)
    toy = BlockEncoding(plan, prepare_G(plan))
    assert np.array_equal(toy.select.to_dense(), build_select(plan).to_dense())
    h_toy = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.abs(toy.encoded_block() - h_toy / plan.lam).max() <= 1e-10
    assert verify_block_encoding(toy, h_toy) <= 1e-10  # from the branches

    for qubits, coeffs in ((2, {2: 0.5}), (3, {2: 1.0, 4: 1.0})):
        spec = coord_spec(qubits, coeffs)
        enc = block_encode(spec)
        h = assemble_hamiltonian_matrix(spec)
        err = np.abs(enc.encoded_block() - h / enc.plan.lam).max()
        assert err <= 1e-10, f"encoding error {err:.2e} at Q={qubits}"
        err = verify_block_encoding(enc, h)
        assert err <= 1e-10, f"branch-sum error {err:.2e} at Q={qubits}"
        u = enc.select.to_dense()
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= 1e-9


@criterion("oracle equivalence: trace vs tensorized on 50 random Hermitian per n<=6")
def test_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for n in range(1, 7):
        dim = 1 << n
        for _ in range(50):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            op = SparseOperator.from_dense((m + m.conj().T) / 2)
            t1 = {(t.x_mask, t.z_mask): t.coefficient for t in decompose_trace(op)}
            t2 = {(t.x_mask, t.z_mask): t.coefficient for t in decompose_tensorized(op)}
            assert set(t1) == set(t2)
            assert all(abs(t1[k] - t2[k]) <= 1e-10 for k in t1)
            assert reconstruct(decompose_tensorized(op)).max_abs_diff(op) <= 1e-10


@criterion("scaling fit: a -> ln 2 on the exact series; a > 0.3 on the double well")
def test_scaling_fit():
    qs = tuple(range(6, 15))
    exact = ScalingSeries(qs, tuple(q * 2 ** (q - 1) for q in qs))
    fit = fit_scaling(exact)
    assert abs(fit.a - math.log(2)) / math.log(2) < 0.05

    counts = []
    for q in range(2, 11):
        spec = HamiltonianSpec(TruncationConfig(1, q), double_well_potential(),
                               basis=BasisChoice.FOCK,
                               fock_params=FockParams())
        counts.append(count_strings(decompose_tensorized(fock_potential(spec))))
    assert counts == sorted(counts) and len(set(counts)) == len(counts)
    dw_fit = fit_scaling(ScalingSeries(tuple(range(2, 11)), tuple(counts)))
    assert dw_fit.a > 0.3, f"double-well fitted a = {dw_fit.a:.3f}"


@criterion("gate-count scaling: potential-dominated c1*Q^4 + c2*Q^2 over Q = 2..6")
def test_gate_count_scaling():
    totals, shares = [], []
    qs = range(2, 7)
    for q in qs:
        spec = coord_spec(q, {4: 1.0})
        _, report = trotter_step(spec, 0.1)
        totals.append(report.total)
        shares.append(report.layer_total("potential") / report.total)
    design = np.column_stack([np.array(qs, float) ** 4, np.array(qs, float) ** 2])
    c1, c2 = np.linalg.solve(design.T @ design, design.T @ np.array(totals, float))
    assert c1 > 0
    assert shares == sorted(shares)  # potential-layer share increases with Q
    assert shares[-1] > 0.5          # and dominates
