"""Direct Z-support expansion against the dict product, closed forms and exact zeros."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import (CapExceededError, HamiltonianSpec, Monomial, PolynomialPotential,
                    TruncationConfig, expand_potential_zsum, kinetic_zsum, momentum_zsum,
                    position_zsum)
from qboson.cli import main


def dict_product_expansion(spec, zsum=position_zsum, monomials=None, number=float):
    """The oracle: multiply out every monomial one Z-sum factor at a time in a
    z_mask -> coefficient dict (sigma_z**2 = I as XOR), then add monomials.
    With ``number=Fraction`` every product and sum is exact."""
    cfg = spec.config
    if monomials is None:
        monomials = [(m.coefficient, m.exponents) for m in spec.potential.terms]
    total: dict[int, float] = {}
    for coeff, exponents in monomials:
        cur = {0: number(coeff)}
        for boson in sorted(exponents):
            factor = [(t.z_mask, number(t.coefficient.real)) for t in zsum(cfg, boson)]
            for _ in range(exponents[boson]):
                out: dict[int, float] = {}
                for mask, c in cur.items():
                    for bit, w in factor:
                        out[mask ^ bit] = out.get(mask ^ bit, 0.0) + c * w
                cur = out
        for mask, c in cur.items():
            total[mask] = total.get(mask, 0) + c
    return total


def table(psum) -> dict[int, float]:
    assert all(t.x_mask == 0 and t.coefficient.imag == 0 for t in psum)
    return {t.z_mask: t.coefficient.real for t in psum}


def spec_of(bosons, qubits, radius, terms):
    monomials = tuple(Monomial(c, dict(enumerate(e))) for c, e in terms)
    return HamiltonianSpec(TruncationConfig(bosons, qubits, radius),
                           PolynomialPotential(bosons, monomials))


@st.composite
def polynomials(draw):
    bosons = draw(st.integers(1, 3))
    qubits = draw(st.integers(1, {1: 8, 2: 6, 3: 4}[bosons]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(0, 8))
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=bosons - 1,
                                    max_size=bosons - 1)))
        exponents = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        coeff = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
        terms.append((coeff, exponents))
    radius = draw(st.floats(0.3, 3.0))
    return spec_of(bosons, qubits, radius, terms)


class TestAgainstDictProduct:
    @given(spec=polynomials())
    @settings(max_examples=60, deadline=None)
    def test_mixed_sign_polynomials(self, spec):
        new = table(expand_potential_zsum(spec))
        old = dict_product_expansion(spec)
        # the same polynomial with |c|: per string, the sum of |contributions|
        # (every contribution to a string has the sign of its c)
        scale = {k: abs(v) for k, v in dict_product_expansion(
            spec, monomials=[(abs(m.coefficient), m.exponents)
                             for m in spec.potential.terms]).items()}
        assert set(new) <= set(old)
        for mask in old:
            assert abs(new.get(mask, 0.0) - old[mask]) <= 1e-13 * scale[mask]

    @pytest.mark.parametrize("bosons,qubits", [(1, 1), (1, 5), (2, 3), (3, 2)])
    def test_kinetic(self, bosons, qubits):
        spec = spec_of(bosons, qubits, 1.3, [(1.0, [2] * bosons)])
        new = table(kinetic_zsum(spec))
        old = dict_product_expansion(spec, momentum_zsum,
                                     [(0.5, {a: 2}) for a in range(bosons)])
        assert set(new) == {k for k, v in old.items() if v != 0.0}
        for mask, value in new.items():
            assert value == pytest.approx(old[mask], rel=1e-13)


def support_census(exponent_lists, qubits) -> dict[int, int]:
    """Strings per length: per boson every weight k <= d with k = d (mod 2)."""
    shapes = set()
    for exponents in exponent_lists:
        shapes.update(_weight_tuples(exponents, qubits))
    out: dict[int, int] = {}
    for shape in shapes:
        out[sum(shape)] = out.get(sum(shape), 0) + math.prod(math.comb(qubits, k)
                                                             for k in shape)
    return out


def _weight_tuples(exponents, qubits):
    if not exponents:
        return [()]
    head = range(exponents[0] % 2, min(exponents[0], qubits) + 1, 2)
    return [(k,) + rest for k in head for rest in _weight_tuples(exponents[1:], qubits)]


X4 = (1, [(1.0, [4])], lambda q: 1 + math.comb(q, 2) + math.comb(q, 4))
ANHARMONIC = (1, [(1.0, [2]), (2.0, [4]), (1.0, [6])],
              lambda q: 1 + math.comb(q, 2) + math.comb(q, 4) + math.comb(q, 6))
COUPLED = (2, [(0.5, [2, 0]), (0.5, [0, 2]), (0.25, [4, 0]), (0.25, [0, 4]), (0.5, [2, 2])],
           lambda q: 1 + 2 * (math.comb(q, 2) + math.comb(q, 4)) + math.comb(q, 2) ** 2)


class TestDefaultCountIsExact:
    @pytest.mark.parametrize("radius", [2.0, 1.7])
    @pytest.mark.parametrize("case", [X4, ANHARMONIC, COUPLED], ids=["x4", "anharmonic6",
                                                                     "coupled_quartic"])
    def test_closed_forms_through_q20(self, case, radius, tmp_path, capsys):
        bosons, terms, exact = case
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "bosons": bosons, "qubits_per_boson": 2, "radius": radius,
            "potential": [{"coeff": c, "exponents": e} for c, e in terms]}))
        assert main(["count", str(path), "--q-min", "2", "--q-max", "20",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["Q"] for r in rows] == list(range(2, 21))
        for r in rows:
            q = r["Q"]
            census = support_census([e for _, e in terms], q)
            assert r["n_pauli"] == exact(q) == sum(census.values())
            assert r["census"] == ";".join(f"{l}:{census[l]}" for l in sorted(census))
            assert r["n_nontrivial"] == r["n_pauli"] - 1
            assert r["n_pruned"] <= r["n_pauli"] and r["dropped_l1"] >= 0.0
            assert (r["dropped_l1"] > 0.0) == (r["n_pruned"] < r["n_pauli"])

    def test_pruned_rows_undercount(self, tmp_path, capsys):
        # at Q=14..16 the relative prune at 1e-12 drops part of the support of x^4
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"bosons": 1, "qubits_per_boson": 14, "radius": 2.0,
                                    "potential": [{"coeff": 1.0, "exponents": [4]}]}))
        assert main(["count", str(path), "--q-max", "16", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["n_pauli"], r["n_pruned"]) for r in rows] == [
            (1093, 1086), (1471, 1433), (1941, 1820)]
        assert all(0.0 < r["dropped_l1"] < 1e-9 for r in rows)


def _identity_x2_x4(qubits, radius):
    """Identity coefficients of x^2 and x^4 in rationals, from the moments of
    x = -R sum_j 2**(j-Q) Z_j: <x^2> = R^2 sum y, <x^4> = R^4 (3 (sum y)^2 - 2 sum y^2)."""
    y = [Fraction(1, 4 ** (qubits - j)) for j in range(qubits)]
    r2 = Fraction(radius) ** 2
    return r2 * sum(y), r2 ** 2 * (3 * sum(y) ** 2 - 2 * sum(v * v for v in y))


class TestExactZeros:
    def test_cancelling_spec(self, tmp_path, capsys):
        # dx = 1: the identity coefficient is 41 * 5/4 - 20 * 41/16 = 0
        assert _identity_x2_x4(2, 2.0) == (Fraction(5, 4), Fraction(41, 16))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"bosons": 1, "qubits_per_boson": 2, "radius": 2.0,
                                    "potential": [{"coeff": 41.0, "exponents": [2]},
                                                  {"coeff": -20.0, "exponents": [4]}]}))
        assert main(["count", str(path), "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert (row["n_pauli"], row["n_nontrivial"], row["census"]) == (1, 1, "2:1")
        spec = spec_of(1, 2, 2.0, [(41.0, [2]), (-20.0, [4])])
        assert len(dict_product_expansion(spec)) == 2
        assert table(expand_potential_zsum(spec)) == {0b11: pytest.approx(41.0 - 50.0)}

    @pytest.mark.parametrize("qubits", range(1, 9))
    def test_identity_cancels_at_any_q(self, qubits):
        # a x^2 + b x^4 with a <x^2> + b <x^4> = 0 exactly; R = 1.5 makes the
        # float terms inexact, so the zero is found in rationals
        i2, i4 = _identity_x2_x4(qubits, 1.5)
        scale = 15 / Fraction(1.5) ** 2  # clears the 1/3 and 1/15 of the moments
        a, b = i4 * scale, -i2 * scale
        assert float(a) == a and float(b) == b  # both coefficients are floats exactly
        spec = spec_of(1, qubits, 1.5, [(float(a), [2]), (float(b), [4])])
        psum = expand_potential_zsum(spec)
        expected = math.comb(qubits, 2) + math.comb(qubits, 4)
        assert len(psum) == expected and psum.coefficient(0, 0) == 0.0

    def test_equal_monomials_cancel(self):
        spec = spec_of(2, 3, 1.0, [(0.7, [3, 1]), (-0.7, [3, 1]), (1.0, [0, 2])])
        assert set(table(expand_potential_zsum(spec))) == {0, 0b011000, 0b101000, 0b110000}

    @pytest.mark.parametrize("bosons,first,second,target", [
        (1, [2], [4], 0b011),  # qubits 0 and 1: one of the three pairs
        (2, [1, 2], [3, 4], 0b011_010),  # qubit 1 of boson 0, qubits 0 and 1 of boson 1
    ], ids=["one-boson", "cross-term"])
    def test_one_string_of_weight_above_zero_cancels(self, bosons, first, second, target):
        # c x**first + x**second with c chosen in rationals so that the target
        # string, and no other, cancels: each string's rationals must be those
        # of its own mask, not of another row or another boson's qubits
        q, radius = 3, 1.5
        unit = [dict_product_expansion(spec_of(bosons, q, radius, [(1.0, e)]), number=Fraction)
                for e in (first, second)]
        c = -unit[1][target] / unit[0][target]
        assert float(c) == c
        terms = [(float(c), first), (1.0, second)]
        spec = spec_of(bosons, q, radius, terms)
        exact = dict_product_expansion(spec, number=Fraction)
        assert [mask for mask, v in exact.items() if v == 0] == [target]
        new = table(expand_potential_zsum(spec))
        assert set(new) == set(exact) - {target}
        old = dict_product_expansion(spec)
        scale = dict_product_expansion(spec, monomials=[(abs(c), dict(enumerate(e)))
                                                        for c, e in terms])
        for mask, value in new.items():
            assert value == pytest.approx(float(exact[mask]), rel=1e-13)
            assert abs(value - old[mask]) <= 1e-13 * abs(scale[mask])


class TestUnderflow:
    def test_weight_four_strings_kept_at_1e_78(self):
        psum = expand_potential_zsum(spec_of(1, 6, 1e-78, [(1.0, [4])]))
        assert len(psum) == 1 + math.comb(6, 2) + math.comb(6, 4)

    @pytest.mark.parametrize("terms,degree", [
        ([(1.0, [4])], 4),  # one sign: the weight-4 strings round to 0.0
        ([(1e-82, [6]), (-0.1, [8])], 8),  # mixed signs: nonzero in rationals, 0.0 in floats
    ], ids=["one-sign", "mixed-signs"])
    def test_underflowed_string_refused(self, terms, degree):
        radius = 1e-80 if degree == 4 else 1e-40
        with pytest.raises(ValueError, match=f"degree {degree} underflows to zero at radius "
                                             f"{radius!r} with qubits_per_boson 6"):
            expand_potential_zsum(spec_of(1, 6, radius, terms))


class TestWideRegisters:
    def test_66_qubits(self):
        q, radius = 22, 2.0
        spec = spec_of(3, q, radius, [(1.0, [4, 0, 0]), (1.0, [0, 4, 0]), (1.0, [0, 0, 4])])
        psum = expand_potential_zsum(spec)
        assert psum.n_qubits == 66 and psum.z_words.shape[1] == 2
        assert len(psum) == 1 + 3 * (math.comb(q, 2) + math.comb(q, 4))
        # x^4 = R^4 (sum w Z)^4 with w_j = 2**(j-Q), y = w**2, on each boson
        w = [2.0 ** (j - q) for j in range(q)]
        y_sum = sum(v * v for v in w)
        identity = 3 * radius ** 4 * (3 * y_sum ** 2 - 2 * sum(v ** 4 for v in w))
        assert psum.coefficient(0, 0) == pytest.approx(identity, rel=1e-13)
        for term in psum.terms()[1:]:
            mask = term.z_mask
            boson = (mask.bit_length() - 1) // q
            local = [j for j in range(q) if mask >> (boson * q + j) & 1]
            assert mask == sum(1 << (boson * q + j) for j in local)
            prod_w = math.prod(w[j] for j in local)
            if len(local) == 4:
                expected = 24 * prod_w
            else:
                i, j = local
                expected = prod_w * (12 * y_sum - 8 * (w[i] ** 2 + w[j] ** 2))
            assert term.coefficient.real == pytest.approx(radius ** 4 * expected, rel=1e-13)

    def test_70_qubits_one_boson(self):
        psum = expand_potential_zsum(spec_of(1, 70, 2.0, [(1.0, [2])]))
        assert len(psum) == 1 + math.comb(70, 2)
        assert np.all(np.bitwise_count(psum.z_words).sum(axis=1)[1:] == 2)
        top = (1 << 69) | (1 << 68)
        assert psum.coefficient(0, top) == pytest.approx(2 * 4.0 * 2.0 ** -1 * 2.0 ** -2)

    def test_cap_before_allocation(self):
        with pytest.raises(CapExceededError, match="capped"):
            expand_potential_zsum(spec_of(1, 60, 2.0, [(1.0, [8])]))
