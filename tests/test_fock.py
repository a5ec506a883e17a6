"""Fock-basis operators built in one pass and by banded powers, against the
product chain they replace: ladder -> dagger -> add -> scale for x and p, and
``@``/``kron``/``+`` for polynomials in x and for p**2. The chain is kept here
as the oracle, and every entry must agree bit for bit, or the build must refuse
where the chain forms a product that underflows."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import (BasisChoice, CapExceededError, FockParams, HamiltonianSpec, Monomial, PolynomialPotential,
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
    degree = max((max(m.exponents.values(), default=0) for m in spec.potential.terms), default=0)
    powers = chain_powers(chain_x(cfg.cutoff, spec.fock_params), degree)
    total = SparseOperator(cfg.cutoff ** cfg.bosons)
    for mono in spec.potential.terms:
        op = SparseOperator(1, [0], [0], [mono.coefficient])
        for a in range(cfg.bosons - 1, -1, -1):
            op = op.kron(powers[mono.exponents.get(a, 0)])
        total = total + op
    return total


def chain_underflows(spec) -> bool:
    """Whether the chain forms a float product that underflows (IEEE 754:
    tiny and inexact)."""
    try:
        with np.errstate(under="raise", over="ignore", invalid="ignore"):
            chain_potential(spec)
    except FloatingPointError:
        return True
    return False


def assert_same_entries(got, want):
    assert got.dim == want.dim
    assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.vals, want.vals)


# a mass of 1e9 shrinks x to ~2e-5 sqrt(j), so entries of x**3 and x**4 fall
# far below 1e-14 (some of them, at 1e6 and 1e7): small, not zero, so kept
FOCK_PARAMS = st.builds(FockParams, st.one_of(st.sampled_from([1e6, 1e7, 1e9]),
                                              st.floats(0.05, 20.0)),
                        st.floats(0.05, 20.0))
# constants, odd powers, a coefficient below 1e-14 and exact cancellations; the
# floats include tiny ones, whose products underflow and are refused
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
        if chain_underflows(spec):
            with pytest.raises(ValueError, match="potential term .* underflows"):
                fock_potential(spec)
            return
        want = chain_potential(spec)
        assert_same_entries(fock_potential(spec), want)
        p1 = chain_p(spec.config.cutoff, spec.fock_params)
        assert_same_entries(fock_hamiltonian(spec),
                            want + 0.5 * _embed_per_boson(spec.config, p1 @ p1))

    def test_kron_entries_capped_before_the_products(self, monkeypatch):
        # x0**2 x1**2 + x1 at cutoff 4: 8 * 8 + 4 * 6 = 88 entries, a third of the cap
        from qboson import hamiltonian
        spec = HamiltonianSpec(TruncationConfig(2, 2), PolynomialPotential(2, (
            Monomial(1.0, {0: 2, 1: 2}), Monomial(1.0, {1: 1}))), basis=BasisChoice.FOCK)
        monkeypatch.setattr(hamiltonian, "FOCK_BAND_ENTRY_CAP", 3 * 88)
        assert_same_entries(fock_potential(spec), chain_potential(spec))
        monkeypatch.setattr(hamiltonian, "FOCK_BAND_ENTRY_CAP", 3 * 88 - 1)
        monkeypatch.setattr(SparseOperator, "kron",
                            lambda *a: pytest.fail("a product formed before the cap"))
        with pytest.raises(CapExceededError, match="2 bosons, to degree 2 at qubits_per_boson "
                                                   "2, form 88 entries, more than 87"):
            fock_potential(spec)

    def test_heavy_mass_keeps_every_entry(self):
        # x**4 at m = 1e9: entries far below 1e-14 are entries like any other, in
        # the chain and in the bands, so the support is the one at m = 1
        def spec(mass):
            return HamiltonianSpec(TruncationConfig(1, 8), PolynomialPotential.one_boson({4: 1.0}),
                                   basis=BasisChoice.FOCK, fock_params=FockParams(mass))
        got = fock_potential(spec(1e9))
        assert_same_entries(got, chain_potential(spec(1e9)))
        assert np.abs(got.vals).min() < 1e-14
        unit = fock_potential(spec(1.0))
        assert np.array_equal(got.rows, unit.rows) and np.array_equal(got.cols, unit.cols)

    @pytest.mark.parametrize("q", [3, 6])
    @pytest.mark.parametrize("coeffs", [
        # a coefficient below 1e-14 scales x**2 like any other
        (3e-15, 1.0),
        # x**2 - x**2 cancels exactly and leaves nothing; 2e-14 x**2 then stands alone
        (1.0, -1.0, 2e-14),
        # the residue of x**2 - (1 - 2**-50) x**2 stays, and 0.1 x**2 joins it
        (1.0, -(1.0 - 2.0 ** -50), 0.1)])
    def test_small_terms_dropped_as_the_chain_drops_them(self, q, coeffs):
        # only exact zeros drop, in the bands as in the chain: every one of these
        # sums keeps the whole support of x**2
        terms = tuple(Monomial(c, {0: 2}) for c in coeffs)
        spec = HamiltonianSpec(TruncationConfig(1, q), PolynomialPotential(1, terms),
                               basis=BasisChoice.FOCK, fock_params=FockParams(4.0))
        got = fock_potential(spec)
        assert_same_entries(got, chain_potential(spec))
        assert got.nnz == chain_powers(chain_x(1 << q, spec.fock_params), 2)[2].nnz
