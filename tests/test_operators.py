"""Grids, Z-sum operators, shift matrices, and Fock-basis ladder operators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import (FockParams, TruncationConfig, coordinate_values,
                    fock_ladder, fock_p, fock_x, fourier_kernel,
                    momentum_values, momentum_zsum,
                    p2_finite_difference, position_zsum, reconstruct,
                    shift_matrix)


class TestTruncationConfig:
    def test_derived_quantities(self):
        cfg = TruncationConfig(2, 3, radius=4.0)
        assert cfg.cutoff == 8
        assert cfg.total_qubits == 6
        assert cfg.spacing == pytest.approx(1.0)
        assert cfg.momentum_spacing == pytest.approx(math.pi / 4.0)

    @given(q=st.integers(1, 12), r=st.floats(1e-6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_grid_consistency_invariant(self, q, r):
        cfg = TruncationConfig(1, q, radius=r)
        assert cfg.spacing * cfg.momentum_spacing * cfg.cutoff == pytest.approx(
            2.0 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("bosons,qubits,radius", [
        (0, 3, 1.0), (1, 0, 1.0), (1, 3, 0.0), (1, 3, -2.0),
    ])
    def test_validation(self, bosons, qubits, radius):
        with pytest.raises(ValueError):
            TruncationConfig(bosons, qubits, radius)

    def test_radius_required_for_grids(self):
        cfg = TruncationConfig(1, 3)
        with pytest.raises(ValueError, match="radius"):
            _ = cfg.spacing


class TestGrids:
    def test_q1_points(self):
        grid = coordinate_values(TruncationConfig(1, 1, radius=1.0))
        assert grid.tolist() == [-0.5, 0.5]

    def test_q2_points(self):
        grid = coordinate_values(TruncationConfig(1, 2, radius=2.0))
        assert grid.tolist() == [-1.5, -0.5, 0.5, 1.5]

    def test_q3_symmetric_half_integers(self):
        vals = coordinate_values(TruncationConfig(1, 3, radius=4.0))
        assert sorted(abs(v) for v in vals) == sorted([0.5] * 2 + [1.5] * 2 + [2.5] * 2 + [3.5] * 2)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_reflection_symmetry(self, q):
        vals = coordinate_values(TruncationConfig(1, q, radius=3.0))
        assert np.allclose(vals, -vals[::-1])
        assert min(abs(vals)) == pytest.approx((vals[1] - vals[0]) / 2)

    def test_momentum_grid_uses_dp(self):
        cfg = TruncationConfig(1, 2, radius=math.pi)  # dp = 1
        assert momentum_values(cfg).tolist() == [-1.5, -0.5, 0.5, 1.5]


class TestPositionZsum:
    def test_single_qubit(self):
        cfg = TruncationConfig(1, 1, radius=1.0)  # dx = 1
        terms = position_zsum(cfg).terms()
        assert len(terms) == 1
        assert terms[0].label() == "Z"
        assert terms[0].coefficient == pytest.approx(-0.5)
        diag = np.diag(reconstruct(position_zsum(cfg)).to_dense()).real
        assert np.allclose(diag, [-0.5, 0.5])

    def test_q2_matches_bitwise_eigenvalues(self):
        # independent oracle: eigenvalue on |n> is sum_j w_j (1 - 2 b_j(n))
        cfg = TruncationConfig(1, 2, radius=2.0)  # dx = 1
        weights = {t.z_mask: t.coefficient.real for t in position_zsum(cfg)}
        expected = []
        for n in range(4):
            expected.append(sum(w * (1 - 2 * ((n >> mask.bit_length() - 1) & 1))
                                for mask, w in weights.items()))
        mat = reconstruct(position_zsum(cfg)).to_dense()
        assert np.allclose(np.diag(mat).real, expected)
        assert np.allclose(np.diag(mat).real, [-1.5, -0.5, 0.5, 1.5])

    def test_q3_weights(self):
        cfg = TruncationConfig(1, 3, radius=4.0)  # dx = 1
        coeffs = sorted(t.coefficient.real for t in position_zsum(cfg))
        assert coeffs == pytest.approx([-2.0, -1.0, -0.5])

    @pytest.mark.parametrize("q", range(1, 7))
    def test_matrix_equals_grid_diagonal(self, q):
        cfg = TruncationConfig(1, q, radius=2.5)
        mat = reconstruct(position_zsum(cfg)).to_dense()
        assert np.abs(mat - np.diag(coordinate_values(cfg))).max() < 1e-12

    def test_multi_boson_offsets(self):
        cfg = TruncationConfig(3, 2, radius=2.0)
        for boson in range(3):
            for t in position_zsum(cfg, boson):
                qubit = t.z_mask.bit_length() - 1
                assert boson * 2 <= qubit < (boson + 1) * 2

    def test_boson_out_of_range(self):
        cfg = TruncationConfig(2, 2, radius=1.0)
        with pytest.raises(ValueError, match="out of range"):
            position_zsum(cfg, 2)


class TestMomentumZsum:
    def test_single_qubit(self):
        cfg = TruncationConfig(1, 1, radius=1.0)  # dp = pi
        terms = momentum_zsum(cfg).terms()
        assert terms[0].coefficient == pytest.approx(-math.pi / 2)

    def test_q2_diagonal(self):
        cfg = TruncationConfig(1, 2, radius=math.pi)  # dp = 1
        diag = np.diag(reconstruct(momentum_zsum(cfg)).to_dense()).real
        assert np.allclose(diag, [-1.5, -0.5, 0.5, 1.5])


class TestShiftMatrix:
    def test_q1_is_sigma_x(self):
        assert np.array_equal(shift_matrix(1).to_dense().real, [[0, 1], [1, 0]])

    def test_q2_open(self):
        expected = np.diag([1, 1, 1], 1) + np.diag([1, 1, 1], -1)
        assert np.array_equal(shift_matrix(2).to_dense().real, expected)

    def test_q2_periodic_corners(self):
        mat = shift_matrix(2, periodic=True).to_dense().real
        assert mat[0, 3] == 1 and mat[3, 0] == 1
        assert np.array_equal(np.argwhere(mat), np.argwhere(mat.T))

    @pytest.mark.parametrize("q", range(1, 6))
    def test_block_recursion(self, q):
        # S_{Q+1} = [[S_Q, corner], [corner^T, S_Q]] with single-entry corners
        big = shift_matrix(q + 1).to_dense()
        small = shift_matrix(q).to_dense()
        h = 1 << q
        assert np.array_equal(big[:h, :h], small)
        assert np.array_equal(big[h:, h:], small)
        corner = big[:h, h:]
        assert corner[h - 1, 0] == 1 and np.count_nonzero(corner) == 1

    def test_p2_wrapper(self):
        dx = 0.5
        mat = p2_finite_difference(2, dx).to_dense()
        expected = (2 * np.eye(4) - shift_matrix(2).to_dense()) / dx**2
        assert np.allclose(mat, expected)


class TestFockOperators:
    def test_ladder_two_level(self):
        assert np.array_equal(fock_ladder(2).to_dense().real, [[0, 0], [1, 0]])

    def test_ladder_coefficients(self):
        mat = fock_ladder(4).to_dense()
        assert np.allclose(np.diag(mat, -1), [np.sqrt(1), np.sqrt(2), np.sqrt(3)])

    def test_ladder_algebra_below_cutoff(self):
        a_dag = fock_ladder(8)
        prod = (a_dag.dagger() @ a_dag).to_dense()  # A A^dag in operator order
        for j in range(7):
            assert prod[j, j] == pytest.approx(j + 1)

    def test_displayed_tridiagonal_magnitudes(self):
        # A + A^dag carries sqrt(1..Lambda-1); fock_x scales by 1/sqrt(2 m w)
        a_dag = fock_ladder(4)
        x_mat = (a_dag + a_dag.dagger()).to_dense()
        assert np.allclose(np.diag(x_mat, 1), [np.sqrt(1), np.sqrt(2), np.sqrt(3)])
        scaled = fock_x(4).to_dense()
        assert np.allclose(scaled, x_mat / np.sqrt(2.0))

    def test_two_level_reduction(self):
        # x reduces to sigma_x and p to sigma_y, up to the convention constants
        x2 = fock_x(2, FockParams(1.0, 0.5)).to_dense()  # 2 m w = 1
        p2 = fock_p(2, FockParams(1.0, 0.5)).to_dense()  # sqrt(m w / 2) = 1/2
        assert np.allclose(x2, [[0, 1], [1, 0]])
        assert np.allclose(p2, 0.5 * np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("cutoff", [2, 4, 8, 16])
    def test_hermiticity_exact(self, cutoff):
        for op in (fock_x(cutoff), fock_p(cutoff)):
            m = op.to_dense()
            assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize("cutoff", [4, 8, 16])
    def test_canonical_commutator_below_cutoff(self, cutoff):
        x_mat = fock_x(cutoff).to_dense()
        p_mat = fock_p(cutoff).to_dense()
        comm = x_mat @ p_mat - p_mat @ x_mat
        keep = cutoff - 2  # states up to cutoff-3 inclusive
        assert np.abs(comm[:keep, :keep] - 1j * np.eye(keep)).max() < 1e-12

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            fock_ladder(1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FockParams(mass=-1.0)
        with pytest.raises(ValueError):
            FockParams(frequency=0.0)

    @pytest.mark.parametrize("mass,frequency", [(1e-320, 1e-10), (1e300, 1e300),
                                                (5e-324, 1.0), (1.7e308, 1.5)])
    def test_scales_zero_or_infinite_refused(self, mass, frequency):
        # 1/sqrt(2 m omega) or sqrt(m omega / 2) would be 0, infinite or a division by 0
        with pytest.raises(ValueError, match="fock: mass .* and frequency"):
            FockParams(mass, frequency)


class TestFourierKernel:
    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_unitary_and_symmetric(self, n):
        f = fourier_kernel(n)
        assert np.abs(f @ f.conj().T - np.eye(n)).max() < 1e-12
        assert np.abs(f - f.T).max() == 0.0
