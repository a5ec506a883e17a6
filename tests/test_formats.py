"""Round trips and malformed input for the Pauli-text, spec JSON and circuit text formats.

Bad input must raise the format's documented error (``ValueError`` for the
two text formats, ``SpecFileError`` for spec files) with a message that names
the offending line, header or key, and nothing else.
"""
import json
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qboson import (Circuit, Gate, SpecFileError, circuit_from_text, circuit_to_text,
                    hamiltonian_spec_from_dict, load_hamiltonian_spec, pauli_sum_from_text,
                    pauli_sum_to_text)
from qboson.circuits import GATE_ARITY
from qboson.cli import main
from qboson.pauli import TEXT_QUBIT_LIMIT
from refdata import sum_from_masks

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=3),
    max_leaves=6)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 70))
    masks = st.integers(0, (1 << n) - 1)
    coeffs = draw(st.dictionaries(st.tuples(masks, masks), st.complex_numbers(
        allow_nan=False, allow_infinity=False), max_size=12))
    return sum_from_masks(n, list(coeffs.items()))


def as_table(psum):
    return {(t.x_mask, t.z_mask): t.coefficient for t in psum}


class TestPauliText:
    @given(psum=pauli_sums())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_both_orderings(self, psum):
        text = pauli_sum_to_text(psum)
        assert as_table(pauli_sum_from_text(text)) == as_table(psum)
        header, *lines = text.splitlines()
        lsb = [header.replace("msb-left", "lsb-left")]
        lsb += [f"{label[::-1]} {rest}" for label, rest in (ln.split(" ", 1) for ln in lines)]
        assert as_table(pauli_sum_from_text("\n".join(lsb) + "\n")) == as_table(psum)

    @given(psum=pauli_sums(), data=st.data())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_malformed_line_named(self, psum, data):
        lines = pauli_sum_to_text(psum).splitlines()
        assume(len(lines) > 1)
        i = data.draw(st.integers(1, len(lines) - 1))
        label, re_s, im_s = lines[i].split()
        bad = data.draw(st.sampled_from([
            f"{label}Z {re_s} {im_s}", f"{label[1:]} {re_s} {im_s}",
            f"{label[:-1]}Q {re_s} {im_s}", f"{label} {re_s}", f"{label} {re_s} {im_s} 0",
            f"{label} nan {im_s}", f"{label} {re_s} -inf", f"{label} 1e999 {im_s}",
            f"{label} {re_s} one"]))
        lines[i] = bad
        # lines are checked in file order: a later bad letter or number is not named
        lines += [f"{label[:-1]}Q {re_s} {im_s}", f"{label} one {im_s}"]
        with pytest.raises(ValueError) as exc:
            pauli_sum_from_text("\n".join(lines))
        assert f"malformed pauli-sum line {bad!r}" in str(exc.value)

    def test_duplicates_add_in_file_order(self):
        # (0.1 + 0.2) + 0.3 is 0.6000000000000001; 0.1 + (0.2 + 0.3) is 0.6
        psum = pauli_sum_from_text("# pauli-sum n_qubits=2\nXZ 0.1 -0.3\nZI 1 0\n"
                                   "XZ 0.2 -0.2\nXZ 0.3 -0.1\n")
        assert len(psum) == 2
        merged = psum.coefficient(0b10, 0b01)
        assert merged.real == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert merged.imag == (-0.3 + -0.2) + -0.1

    @given(value=st.text(alphabet="0123456789-+= x", max_size=20) | st.integers().map(str))
    @settings(max_examples=100, deadline=None)
    def test_header_named(self, value):
        header = f"# pauli-sum n_qubits={value}"
        if re.fullmatch(r"[+-]?\d+ *", value) and 1 <= int(value) <= TEXT_QUBIT_LIMIT:
            assert len(pauli_sum_from_text(header + "\n")) == 0
            return
        with pytest.raises(ValueError) as exc:
            pauli_sum_from_text(header + "\n")
        assert f"malformed pauli-sum header {header!r}" in str(exc.value)

    def test_limit(self):
        assert pauli_sum_from_text(f"# pauli-sum n_qubits={TEXT_QUBIT_LIMIT}\n").n_qubits \
            == TEXT_QUBIT_LIMIT
        with pytest.raises(ValueError, match="header"):
            pauli_sum_from_text(f"# pauli-sum n_qubits={TEXT_QUBIT_LIMIT + 1}\n")

    @given(text=st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            pauli_sum_from_text(text)
        except ValueError as exc:
            assert "pauli-sum" in str(exc)


def valid_spec_docs():
    term = lambda bosons: st.fixed_dictionaries({  # noqa: E731
        "coeff": FINITE.filter(lambda c: abs(c) < 1e300),
        "exponents": st.lists(st.integers(0, 6), min_size=bosons, max_size=bosons)})
    return st.integers(1, 3).flatmap(lambda bosons: st.fixed_dictionaries({
        "bosons": st.just(bosons),
        "qubits_per_boson": st.integers(1, 12),
        "radius": st.floats(0.01, 100.0),
        "basis": st.sampled_from(["coordinate-qft", "fock"]),
        "kinetic_scheme": st.sampled_from(["momentum-basis-diagonal", "finite-difference-open",
                                           "finite-difference-periodic"]),
        "fock": st.fixed_dictionaries({"mass": st.floats(0.1, 10.0),
                                       "frequency": st.floats(0.1, 10.0)}),
        "potential": st.lists(term(bosons), max_size=4)}))


class TestSpecJson:
    @given(doc=valid_spec_docs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, doc, tmp_path_factory):
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_hamiltonian_spec(path)
        assert (spec.config.bosons, spec.config.qubits_per_boson, spec.config.radius) == (
            doc["bosons"], doc["qubits_per_boson"], doc["radius"])
        assert (spec.basis.value, spec.kinetic_scheme.value) == (doc["basis"],
                                                                doc["kinetic_scheme"])
        assert (spec.fock_params.mass, spec.fock_params.frequency) == (
            doc["fock"]["mass"], doc["fock"]["frequency"])
        assert [(m.coefficient, [m.exponents.get(a, 0) for a in range(doc["bosons"])])
                for m in spec.potential.terms] == [(t["coeff"], t["exponents"])
                                                   for t in doc["potential"]]

    @given(doc=valid_spec_docs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_value_named(self, doc, data):
        keys = ["bosons", "qubits_per_boson", "radius", "basis", "kinetic_scheme", "fock",
                "potential", "fock.mass", "fock.frequency"]
        keys += [f"potential.{i}.{k}" for i in range(len(doc["potential"]))
                 for k in ("coeff", "exponents")]
        key = data.draw(st.sampled_from(keys))
        value = data.draw(JSON_VALUES)
        *path, last = key.split(".")
        target = doc
        for part in path:
            target = target[int(part)] if part.isdigit() else target[part]
        target[last] = value
        try:
            hamiltonian_spec_from_dict(doc)
        except SpecFileError as exc:
            message = str(exc)
            if key.startswith("potential."):
                named = [f"potential term {path[1]}"]
            elif key == "bosons":  # a count the exponent lists no longer match
                named = ["bosons", "exponents"]
            else:
                named = [last]
            assert any(word in message for word in named), (key, message)

    @given(extra=st.text(min_size=1, max_size=8), where=st.sampled_from(["", "fock", "term"]))
    @settings(max_examples=50, deadline=None)
    def test_unknown_key_named(self, extra, where):
        doc = {"bosons": 1, "qubits_per_boson": 2, "radius": 1.0, "fock": {},
               "potential": [{"coeff": 1.0, "exponents": [2]}]}
        target = {"": doc, "fock": doc["fock"], "term": doc["potential"][0]}[where]
        assume(extra not in target and extra not in ("mass", "frequency", "basis",
                                                      "kinetic_scheme"))
        target[extra] = 1
        with pytest.raises(SpecFileError, match="unknown key"):
            hamiltonian_spec_from_dict(doc)

    @given(data=st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_file(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_bytes(data)
        try:
            load_hamiltonian_spec(path)
        except SpecFileError as exc:
            assert str(exc)

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000, b'{"bosons": 1' + b"1" * 5000 + b"}"],
                             ids=["not-utf8", "too-deep", "too-many-digits"])
    def test_unreadable_json_names_path(self, content, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        with pytest.raises(SpecFileError, match="spec.json"):
            load_hamiltonian_spec(path)
        assert main(["count", str(path)]) == 2
        assert f"error: {path}" in capsys.readouterr().err


GATES = sorted(GATE_ARITY)


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 12))
    gates = []
    for _ in range(draw(st.integers(0, 15))):
        kind = draw(st.sampled_from(GATES))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=GATE_ARITY[kind],
                               max_size=GATE_ARITY[kind], unique=True))
        angle = draw(FINITE) if kind in ("RZ", "PHASE", "CPHASE", "DIAGPHASE") else None
        gates.append(Gate(kind, tuple(qubits), angle))
    return Circuit(n, gates)


class TestCircuitText:
    @given(circuit=circuits())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, circuit):
        back = circuit_from_text(circuit_to_text(circuit))
        assert back.n_qubits == circuit.n_qubits and back.gates == circuit.gates

    @given(circuit=circuits(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_malformed_line_named(self, circuit, data):
        assume(len(circuit))
        lines = circuit_to_text(circuit).splitlines()
        i = data.draw(st.integers(1, len(lines) - 1))
        kind, *rest = lines[i].split()
        n = circuit.n_qubits
        bad = data.draw(st.sampled_from([
            f"FOO {' '.join(rest)}", f"{kind} {' '.join(rest)} 7", f"{kind} {n} {' '.join(rest)}",
            f"{kind} -1 {' '.join(rest)}", f"{kind} x {' '.join(rest)}",
            f"{kind} {' '.join(rest[:-1])}" if rest else f"{kind} 0",
            f"{kind} {' '.join(rest[:-1] + ['nan'])}" if rest else f"{kind} inf"]))
        lines[i] = bad
        with pytest.raises(ValueError) as exc:
            circuit_from_text("\n".join(lines))
        assert repr(bad) in str(exc.value)

    @given(value=st.text(alphabet="0123456789-+= x", max_size=16) | st.integers().map(str))
    @settings(max_examples=100, deadline=None)
    def test_header_named(self, value):
        header = f"# circuit n_qubits={value}"
        if re.fullmatch(r"[+-]?\d+ *", value) and int(value) >= 1:
            assert circuit_from_text(header + "\n").n_qubits == int(value)
            return
        with pytest.raises(ValueError) as exc:
            circuit_from_text(header + "\n")
        assert f"malformed circuit header {header!r}" in str(exc.value)

    @given(text=st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            circuit_from_text(text)
        except ValueError as exc:
            assert "circuit" in str(exc)
