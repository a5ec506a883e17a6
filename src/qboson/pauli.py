"""Bit-packed Pauli strings with complex weights.

A term on ``n`` qubits is encoded by two masks: bit ``j`` of ``(x_mask, z_mask)``
selects qubit j's letter via (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y. Qubit 0 is the
least-significant bit of the computational-basis index (little-endian). Text
serialization prints the most-significant qubit leftmost.
"""
from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .sparse import SparseOperator

# coefficients below RELATIVE_PRUNE_TOL * max|coeff| are dropped when pruning
RELATIVE_PRUNE_TOL = 1e-12

_LETTERS = ("I", "X", "Z", "Y")  # indexed by x_bit + 2*z_bit


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string."""

    n_qubits: int
    x_mask: int
    z_mask: int
    coefficient: complex = 1.0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask does not fit in n_qubits bits")

    @property
    def weight(self) -> int:
        """Number of non-identity letters (string length in the counting sense)."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def n_y(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def is_diagonal(self) -> bool:
        """True when the string contains only I/Z letters."""
        return self.x_mask == 0

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def letter(self, qubit: int) -> str:
        xb = (self.x_mask >> qubit) & 1
        zb = (self.z_mask >> qubit) & 1
        return _LETTERS[xb + 2 * zb]

    def label(self, msb_first: bool = True) -> str:
        s = "".join(self.letter(j) for j in range(self.n_qubits))
        return s[::-1] if msb_first else s

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0,
                   msb_first: bool = True) -> "PauliTerm":
        s = label[::-1] if msb_first else label
        x = z = 0
        for j, ch in enumerate(s):
            try:
                code = _LETTERS.index(ch)
            except ValueError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}") from None
            x |= (code & 1) << j
            z |= (code >> 1) << j
        return cls(len(s), x, z, coefficient)

    def string_matrix(self) -> SparseOperator:
        """Matrix of the bare string (unit coefficient), with exact Y phases."""
        dim = 1 << self.n_qubits
        cols = np.arange(dim)
        rows = cols ^ self.x_mask
        # P = i^{#Y} X^x Z^z and (X^x Z^z)|c> = (-1)^{popcount(z & c)} |c ^ x>
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & self.z_mask) & 1)
        phase = 1j ** (self.n_y % 4)
        return SparseOperator(dim, rows, cols, phase * signs)

    def matrix(self) -> SparseOperator:
        return self.coefficient * self.string_matrix()


class PauliSum:
    """Sum of Pauli strings, unique by (x_mask, z_mask)."""

    __slots__ = ("n_qubits", "_coeffs")

    def __init__(self, n_qubits: int,
                 coeffs: dict[tuple[int, int], complex] | None = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self._coeffs: dict[tuple[int, int], complex] = dict(coeffs or {})

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[PauliTerm]) -> "PauliSum":
        coeffs: dict[tuple[int, int], complex] = {}
        for t in terms:
            if t.n_qubits != n_qubits:
                raise ValueError("term qubit count mismatch")
            key = (t.x_mask, t.z_mask)
            coeffs[key] = coeffs.get(key, 0.0) + t.coefficient
        return cls(n_qubits, coeffs)

    def coefficient(self, x_mask: int, z_mask: int) -> complex:
        return self._coeffs.get((x_mask, z_mask), 0.0)

    def items(self):
        """((x_mask, z_mask), coefficient) pairs in storage order, unsorted."""
        return self._coeffs.items()

    def terms(self) -> list[PauliTerm]:
        """Terms in canonical order: by weight, then (x_mask, z_mask)."""
        keys = sorted(self._coeffs, key=lambda k: ((k[0] | k[1]).bit_count(), k[0], k[1]))
        return [PauliTerm(self.n_qubits, x, z, self._coeffs[(x, z)]) for x, z in keys]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        coeffs = dict(self._coeffs)
        for k, v in other._coeffs.items():
            coeffs[k] = coeffs.get(k, 0.0) + v
        return PauliSum(self.n_qubits, coeffs)

    def __mul__(self, scalar) -> "PauliSum":
        return PauliSum(self.n_qubits, {k: v * scalar for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    def prune(self, rel_tol: float = RELATIVE_PRUNE_TOL) -> "PauliSum":
        """Drop coefficients below rel_tol relative to the largest magnitude."""
        cut = rel_tol * self.max_abs_coeff()
        return PauliSum(self.n_qubits,
                        {k: v for k, v in self._coeffs.items() if abs(v) > cut})

    def max_imag(self) -> float:
        return max((abs(v.imag) for v in self._coeffs.values()), default=0.0)

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={len(self)})"


def count_strings(psum: PauliSum, tol: float = 0.0) -> int:
    """Number of strings with |coefficient| > tol (absolute)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return sum(1 for v in psum._coeffs.values() if abs(v) > tol)


@dataclass
class StringCensus:
    """Per-length statistics of a Pauli sum (identity counted at length 0)."""

    total: int
    by_length: dict[int, int]
    y_counts: dict[int, Counter] = field(default_factory=dict)  # length -> {#Y: strings}
    letters: dict[int, Counter] = field(default_factory=dict)   # length -> letter tally

    def lengths(self) -> list[int]:
        return sorted(self.by_length)


def string_census(psum: PauliSum, tol: float = 0.0) -> StringCensus:
    """Histogram strings by length with per-length #Y and letter tallies, from mask
    popcounts alone: length |x|z|, #Y |x&z|, #X length - |z|, #Z length - |x|."""
    shapes = Counter(((x | z).bit_count(), (x & z).bit_count(), x.bit_count(), z.bit_count())
                     for (x, z), v in psum.items() if abs(v) > tol)
    census = StringCensus(0, {})
    for (l, n_y, n_x_bits, n_z_bits), m in sorted(shapes.items()):
        census.total += m
        census.by_length[l] = census.by_length.get(l, 0) + m
        census.y_counts.setdefault(l, Counter())[n_y] += m
        tally = {"X": l - n_z_bits, "Y": n_y, "Z": l - n_x_bits}
        census.letters.setdefault(l, Counter()).update({ch: k * m for ch, k in tally.items() if k})
    return census


# -- text serialization --------------------------------------------------------
# One term per line: "<letters> <re> <im>", most-significant qubit leftmost.

def pauli_sum_to_text(psum: PauliSum) -> str:
    lines = [f"# pauli-sum n_qubits={psum.n_qubits} ordering=msb-left"]
    for t in psum.terms():
        c = complex(t.coefficient)
        lines.append(f"{t.label()} {c.real:.16e} {c.imag:.16e}")
    return "\n".join(lines) + "\n"


def pauli_sum_from_text(text: str) -> PauliSum:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# pauli-sum"):
        raise ValueError("missing pauli-sum header line")
    try:
        header = dict(kv.split("=") for kv in lines[0].split()[2:])
        n_qubits = int(header.pop("n_qubits"))
        msb_first = {"msb-left": True, "lsb-left": False}[header.pop("ordering", "msb-left")]
        if header or n_qubits < 1:
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(f"malformed pauli-sum header {lines[0]!r}") from None
    terms = []
    for ln in lines[1:]:
        try:
            label, re_s, im_s = ln.split()
            coeff = complex(float(re_s), float(im_s))
            if len(label) != n_qubits or not cmath.isfinite(coeff):
                raise ValueError
        except ValueError:
            raise ValueError(f"malformed pauli-sum line {ln!r} for n_qubits={n_qubits}") from None
        terms.append(PauliTerm.from_label(label, coeff, msb_first=msb_first))
    return PauliSum.from_terms(n_qubits, terms)


def write_pauli_sum(psum: PauliSum, path) -> None:
    with open(path, "w") as fh:
        fh.write(pauli_sum_to_text(psum))


def read_pauli_sum(path) -> PauliSum:
    with open(path) as fh:
        return pauli_sum_from_text(fh.read())
