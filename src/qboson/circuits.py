"""Gate-level circuits: centered QFT, Z-string rotations, and Trotter steps.

Conventions (fixed here, verified numerically in the tests):
  * RZ(phi) = diag(exp(-i phi/2), exp(+i phi/2)).
  * PHASE(phi) multiplies the whole state by exp(i phi) (zero-qubit gate);
    identity strings in rotation layers become PHASE gates so that simulated
    circuits match exact propagators including the global phase.
  * DIAGPHASE(phi) on one qubit is diag(1, exp(i phi)).
  * CPHASE(phi) applies exp(i phi) when control and target are both |1>.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .hamiltonian import (HamiltonianSpec, KineticScheme, expand_potential_zsum,
                          kinetic_zsum, raw_string_count)
from .pauli import PauliSum, PauliTerm

GATE_ARITY = {
    "H": 1, "X": 1, "RZ": 1, "DIAGPHASE": 1,
    "PHASE": 0,
    "CNOT": 2, "CPHASE": 2, "SWAP": 2,
}
_ANGLED = {"RZ", "PHASE", "CPHASE", "DIAGPHASE"}
ROTATION_KINDS = ("RZ", "PHASE", "DIAGPHASE")
ENTANGLING_KINDS = ("CNOT", "CPHASE", "SWAP")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} qubits, "
                             f"got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.kind} {self.qubits}")
        if (self.angle is None) == (self.kind in _ANGLED):
            raise ValueError(f"{self.kind}: angle {'required' if self.kind in _ANGLED else 'not allowed'}")

    def inverse(self) -> "Gate":
        if self.kind in _ANGLED:
            return Gate(self.kind, self.qubits, -self.angle)
        return self  # H, X, CNOT, SWAP are involutions

    def shifted(self, offset: int) -> "Gate":
        return Gate(self.kind, tuple(q + offset for q in self.qubits), self.angle)


class Circuit:
    """Ordered gate list on a sized register."""

    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []
        self.extend(gates)

    def append(self, gate: Gate) -> None:
        if any(not 0 <= q < self.n_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate} outside register of {self.n_qubits} qubits")
        self.gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for g in gates:
            self.append(g)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        return Circuit(self.n_qubits, list(self.gates) + list(other.gates))

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, [g.inverse() for g in reversed(self.gates)])

    def embedded(self, n_qubits: int, offset: int = 0) -> "Circuit":
        """Same gates on a larger register, qubit indices shifted by offset."""
        if offset < 0 or offset + self.n_qubits > n_qubits:
            raise ValueError("embedding window out of range")
        return Circuit(n_qubits, [g.shifted(offset) for g in self.gates])

    def counts(self) -> Counter:
        return Counter(g.kind for g in self.gates)

    def __repr__(self) -> str:
        return f"Circuit(n_qubits={self.n_qubits}, n_gates={len(self)})"


# -- serialization: one gate per line, "<KIND> <qubits...> [angle]" ---------------

def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"# circuit n_qubits={circuit.n_qubits}"]
    for g in circuit:
        parts = [g.kind, *map(str, g.qubits)]
        if g.angle is not None:
            parts.append(f"{g.angle:.16e}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# circuit"):
        raise ValueError("missing circuit header line")
    try:
        header = dict(kv.split("=") for kv in lines[0].split()[2:])
        circ = Circuit(int(header.pop("n_qubits")))
        if header:
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(f"malformed circuit header {lines[0]!r}") from None
    for ln in lines[1:]:
        kind, *operands = ln.split()
        if kind not in GATE_ARITY:
            raise ValueError(f"unknown gate in line {ln!r}")
        arity = GATE_ARITY[kind]
        try:
            if len(operands) != arity + (kind in _ANGLED):
                raise ValueError(f"{kind} takes {arity} qubits"
                                 + (" and an angle" if kind in _ANGLED else ""))
            angle = float(operands[arity]) if kind in _ANGLED else None
            if angle is not None and not math.isfinite(angle):
                raise ValueError("angle must be finite")
            circ.append(Gate(kind, tuple(int(p) for p in operands[:arity]), angle))
        except ValueError as exc:
            raise ValueError(f"malformed circuit line {ln!r}: {exc}") from None
    return circ


def write_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        fh.write(circuit_to_text(circuit))


def read_circuit(path) -> Circuit:
    with open(path) as fh:
        return circuit_from_text(fh.read())


# -- QFT ---------------------------------------------------------------------------

def qft_circuit(qubits: int, centered: bool = False) -> Circuit:
    """Quantum Fourier transform on a little-endian register.

    Plain variant: H + controlled-phase ladder + final swaps, realizing
    F[k, n] = exp(2 pi i k n / Lambda) / sqrt(Lambda). With ``centered`` the
    ladder is conjugated by single-qubit phase layers plus a global phase so
    the matrix equals the symmetric-grid kernel exp(i p_k x_n) / sqrt(Lambda).
    """
    if qubits < 1:
        raise ValueError("qubits must be >= 1")
    dim = 1 << qubits
    circ = Circuit(qubits)

    def phase_dressing():
        # exp(i p x) = exp(2 pi i (k-c)(n-c)/Lambda) with c = (Lambda-1)/2 factors
        # into index-linear layers exp(-i theta_c k) around the plain transform.
        theta_c = 2.0 * math.pi * (dim - 1) / 2.0 / dim
        for j in range(qubits):
            circ.append(Gate("DIAGPHASE", (j,), -theta_c * (1 << j)))

    if centered:
        phase_dressing()
    for target in range(qubits - 1, -1, -1):
        circ.append(Gate("H", (target,)))
        for control in range(target - 1, -1, -1):
            circ.append(Gate("CPHASE", (control, target),
                             2.0 * math.pi / (1 << (target - control + 1))))
    for j in range(qubits // 2):
        circ.append(Gate("SWAP", (j, qubits - 1 - j)))
    if centered:
        phase_dressing()
        c = (dim - 1) / 2.0
        circ.append(Gate("PHASE", (), 2.0 * math.pi * c * c / dim))
    return circ


# -- Pauli-Z exponentials ------------------------------------------------------------

def zstring_rotation(term: PauliTerm, angle: float) -> Circuit:
    """exp(-i angle P) for an I/Z-only string P (unit coefficient).

    CNOT parity ladder onto the last support qubit, RZ(2 angle), uncompute;
    the identity string becomes a global PHASE(-angle).
    """
    if term.x_mask != 0:
        raise ValueError("zstring_rotation needs an I/Z-only string")
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    circ = Circuit(term.n_qubits)
    support = [j for j in range(term.n_qubits) if (term.z_mask >> j) & 1]
    if not support:
        circ.append(Gate("PHASE", (), -angle))
        return circ
    ladder = [Gate("CNOT", (support[i], support[i + 1])) for i in range(len(support) - 1)]
    circ.extend(ladder)
    circ.append(Gate("RZ", (support[-1],), 2.0 * angle))
    circ.extend(reversed(ladder))
    return circ


# -- Trotter assembly ----------------------------------------------------------------

LAYER_NAMES = ("potential", "qft", "kinetic", "inverse_qft")


@dataclass
class GateCountReport:
    """Per-layer gate tallies for one or more Trotter steps."""

    layers: dict[str, Counter] = field(default_factory=dict)
    steps: int = 1
    potential_strings_merged: int = 0
    potential_strings_raw: int = 0

    def layer_total(self, layer: str) -> int:
        return sum(self.layers.get(layer, Counter()).values())

    def count(self, *kinds: str) -> int:
        return sum(c.get(k, 0) for c in self.layers.values() for k in kinds)

    @property
    def rotations(self) -> int:
        return self.count(*ROTATION_KINDS)

    @property
    def entangling(self) -> int:
        return self.count(*ENTANGLING_KINDS)

    @property
    def hadamards(self) -> int:
        return self.count("H")

    @property
    def total(self) -> int:
        return sum(self.layer_total(name) for name in self.layers)

    def scaled(self, repetitions: int) -> "GateCountReport":
        layers = {name: Counter({k: v * repetitions for k, v in c.items()})
                  for name, c in self.layers.items()}
        return GateCountReport(layers, self.steps * repetitions,
                               self.potential_strings_merged,
                               self.potential_strings_raw)

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "totals": {"rotations": self.rotations, "entangling": self.entangling,
                       "hadamards": self.hadamards, "total": self.total},
            "layers": {name: dict(sorted(c.items())) for name, c in self.layers.items()},
            "potential_strings": {"merged": self.potential_strings_merged,
                                  "raw": self.potential_strings_raw},
        }


def _rotation_layer(psum: PauliSum, dt: float) -> Circuit:
    circ = Circuit(psum.n_qubits)
    for term in psum.terms():
        bare = PauliTerm(term.n_qubits, 0, term.z_mask)
        circ.extend(zstring_rotation(bare, term.coefficient.real * dt))
    return circ


def trotter_step(spec: HamiltonianSpec, dt: float,
                 include_kinetic: bool = True) -> tuple[Circuit, GateCountReport]:
    """One first-order step: potential rotations, QFT, kinetic rotations, QFT^-1.

    Angles are coefficient * dt per string. The kinetic layer is skipped (with
    its transforms) when ``include_kinetic`` is false or the scheme is not
    momentum-diagonal-compatible.
    """
    if spec.kinetic_scheme is not KineticScheme.MOMENTUM_DIAGONAL:
        raise ValueError("trotter_step needs the momentum-basis-diagonal scheme")
    cfg = spec.config
    n = cfg.total_qubits
    pot_sum = expand_potential_zsum(spec)

    potential = _rotation_layer(pot_sum, dt)
    layers: dict[str, Circuit] = {"potential": potential}
    if include_kinetic:
        qft_all = Circuit(n)
        per_boson = qft_circuit(cfg.qubits_per_boson, centered=True)
        for a in range(cfg.bosons):
            qft_all += per_boson.embedded(n, a * cfg.qubits_per_boson)
        layers["qft"] = qft_all
        layers["kinetic"] = _rotation_layer(kinetic_zsum(spec), dt)
        layers["inverse_qft"] = qft_all.inverse()

    circ = Circuit(n)
    report_layers: dict[str, Counter] = {}
    for name in LAYER_NAMES:
        if name in layers:
            circ += layers[name]
            report_layers[name] = layers[name].counts()
    report = GateCountReport(
        report_layers, steps=1,
        potential_strings_merged=len(pot_sum),
        potential_strings_raw=raw_string_count(spec.potential, cfg.qubits_per_boson))
    return circ, report


def trotter_evolution(spec: HamiltonianSpec, total_time: float, steps: int,
                      include_kinetic: bool = True) -> tuple[Circuit, GateCountReport]:
    """``steps`` repetitions of trotter_step(spec, total_time / steps)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    step, report = trotter_step(spec, total_time / steps, include_kinetic)
    circ = Circuit(step.n_qubits)
    for _ in range(steps):
        circ += step
    return circ, report.scaled(steps)
