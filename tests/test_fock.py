"""Fock-basis operators built in one pass and by banded powers, against the
product chain they replace: ladder -> dagger -> add -> scale for x and p, and
``@``/``kron``/``+`` for polynomials in x and for p**2. The chain is kept here
as the oracle, and every entry must agree bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import (BasisChoice, FockParams, HamiltonianSpec, Monomial, PolynomialPotential,
                    SparseOperator, TruncationConfig, fock_hamiltonian, fock_ladder, fock_p,
                    fock_potential, fock_x)
from qboson.hamiltonian import _band_operator, _banded_powers, _embed_per_boson


def chain_ladder(cutoff):
    j = np.arange(cutoff - 1)
    return SparseOperator(cutoff, j + 1, j, np.sqrt(j + 1.0))


def chain_x(cutoff, params):
    a_dag = chain_ladder(cutoff)
    return 1.0 / math.sqrt(2.0 * params.mass * params.frequency) * (a_dag + a_dag.dagger())


def chain_p(cutoff, params):
    a_dag = chain_ladder(cutoff)
    return 1j * math.sqrt(params.mass * params.frequency / 2.0) * (a_dag - a_dag.dagger())


def chain_powers(op, degree):
    powers = [SparseOperator.identity(op.dim)]
    for _ in range(degree):
        powers.append(powers[-1] @ op)
    return powers


def chain_potential(spec):
    cfg = spec.config
    powers = chain_powers(chain_x(cfg.cutoff, spec.fock_params), spec.potential.degree)
    total = SparseOperator.zeros(cfg.cutoff ** cfg.bosons)
    for mono in spec.potential.terms:
        op = SparseOperator.from_entries(1, [(0, 0, mono.coefficient)])
        for a in range(cfg.bosons - 1, -1, -1):
            op = op.kron(powers[mono.exponents.get(a, 0)])
        total = total + op
    return total


def assert_same_entries(got, want):
    assert got.dim == want.dim
    assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.vals, want.vals)


# a mass of 1e9 shrinks x to ~2e-5 sqrt(j), so entries of x**3 and x**4 fall
# below ZERO_TOL part way through the products (some of them, at 1e6 and 1e7)
FOCK_PARAMS = st.builds(FockParams, st.one_of(st.sampled_from([1e6, 1e7, 1e9]),
                                              st.floats(0.05, 20.0)),
                        st.floats(0.05, 20.0))
# constants, odd powers, a coefficient below ZERO_TOL and exact cancellations
COEFFS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1.0, -1.0, 0.0, 3e-15]))


@st.composite
def fock_specs(draw):
    bosons = draw(st.integers(1, 3))
    qubits = draw(st.integers(1, (6, 3, 2)[bosons - 1]))
    terms = draw(st.lists(st.tuples(COEFFS, st.lists(st.integers(0, 8 // bosons),
                                                     min_size=bosons, max_size=bosons)),
                          max_size=5))
    potential = PolynomialPotential(bosons, tuple(
        Monomial(c, dict(enumerate(e))) for c, e in terms))
    return HamiltonianSpec(TruncationConfig(bosons, qubits), potential,
                           basis=BasisChoice.FOCK, fock_params=draw(FOCK_PARAMS))


class TestOnePass:
    @given(q=st.integers(1, 6), params=FOCK_PARAMS)
    @settings(max_examples=40, deadline=None)
    def test_x_p_ladder_match_chain(self, q, params):
        cutoff = 1 << q
        assert_same_entries(fock_x(cutoff, params), chain_x(cutoff, params))
        assert_same_entries(fock_p(cutoff, params), chain_p(cutoff, params))
        assert_same_entries(fock_ladder(cutoff), chain_ladder(cutoff))


class TestBandedPowers:
    @given(cutoff=st.integers(2, 64), degree=st.integers(0, 8), params=FOCK_PARAMS)
    @settings(max_examples=60, deadline=None)
    def test_powers_of_x_match_chain(self, cutoff, degree, params):
        bands = _banded_powers(fock_x(cutoff, params), degree)
        for band, want in zip(bands, chain_powers(chain_x(cutoff, params), degree)):
            assert_same_entries(_band_operator(band), want)

    @given(cutoff=st.integers(2, 64), degree=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_powers_of_signed_off_diagonals_match_chain(self, cutoff, degree, seed):
        # signs and magnitudes 1e-9 .. 1e3 make near-cancellations, so entries
        # dropped mid-product change what later products add
        rng = np.random.default_rng(seed)
        j = np.arange(cutoff - 1)
        vals = rng.choice([-1.0, 1.0], 2 * j.size) * 10.0 ** rng.uniform(-9, 3, 2 * j.size)
        op = SparseOperator(cutoff, np.concatenate([j, j + 1]), np.concatenate([j + 1, j]), vals)
        for band, want in zip(_banded_powers(op, degree), chain_powers(op, degree)):
            assert_same_entries(_band_operator(band), want)

    @given(cutoff=st.integers(2, 64), params=FOCK_PARAMS)
    @settings(max_examples=40, deadline=None)
    def test_p_squared_matches_chain(self, cutoff, params):
        p1 = chain_p(cutoff, params)
        p2 = _band_operator(-_banded_powers(-1j * fock_p(cutoff, params), 2)[2])
        assert_same_entries(p2, p1 @ p1)

    @given(spec=fock_specs())
    @settings(max_examples=80, deadline=None)
    def test_potential_and_hamiltonian_match_chain(self, spec):
        want = chain_potential(spec)
        assert_same_entries(fock_potential(spec), want)
        p1 = chain_p(spec.config.cutoff, spec.fock_params)
        assert_same_entries(fock_hamiltonian(spec),
                            want + 0.5 * _embed_per_boson(spec.config, p1 @ p1))

    def test_heavy_mass_drops_small_entries(self):
        # x**4 at m = 1e9: the chain drops entries mid-product, and so must the bands
        def spec(mass):
            return HamiltonianSpec(TruncationConfig(1, 8), PolynomialPotential.one_boson({4: 1.0}),
                                   basis=BasisChoice.FOCK, fock_params=FockParams(mass))
        got = fock_potential(spec(1e9))
        assert_same_entries(got, chain_potential(spec(1e9)))
        assert 0 < got.nnz < fock_potential(spec(1.0)).nnz

    @pytest.mark.parametrize("q", [3, 6])
    @pytest.mark.parametrize("coeffs", [
        # a coefficient at or below ZERO_TOL is dropped before it scales x**2
        (3e-15, 1.0),
        # 2e-14 x**2 is dropped where it is at or below ZERO_TOL before it meets x**2
        (1.0, 2e-14),
        # the residue of x**2 - (1 - 2**-50) x**2 is dropped before 0.1 x**2 joins it
        (1.0, -(1.0 - 2.0 ** -50), 0.1)])
    def test_small_terms_dropped_as_the_chain_drops_them(self, q, coeffs):
        terms = tuple(Monomial(c, {0: 2}) for c in coeffs)
        spec = HamiltonianSpec(TruncationConfig(1, q), PolynomialPotential(1, terms),
                               basis=BasisChoice.FOCK, fock_params=FockParams(4.0))
        assert_same_entries(fock_potential(spec), chain_potential(spec))
