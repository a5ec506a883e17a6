"""Bit-packed Pauli strings with complex weights.

A term on ``n`` qubits is encoded by two masks: bit ``j`` of ``(x_mask, z_mask)``
selects qubit j's letter via (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y. Qubit 0 is the
least-significant bit of the computational-basis index (little-endian). Text
serialization prints the most-significant qubit leftmost.
"""
from __future__ import annotations

import cmath
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .sparse import SparseOperator, merge_rows

# coefficients below RELATIVE_PRUNE_TOL * max|coeff| are dropped when pruning
RELATIVE_PRUNE_TOL = 1e-12

_LETTERS = ("I", "X", "Z", "Y")  # indexed by x_bit + 2*z_bit

I_POWERS = np.array([1, 1j, -1, -1j])  # i**k for k mod 4; conjugate gives (-i)**k

_WORD = (1 << 64) - 1


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
        rows = np.arange(1 << self.n_qubits)
        return SparseOperator(rows.size, rows, *string_entries(self.x_mask, self.z_mask, rows))

    def matrix(self) -> SparseOperator:
        return self.coefficient * self.string_matrix()


def string_entries(x_mask, z_mask, rows, coeff=1.0):
    """Column and value of the one entry in each of ``rows`` of coeff * (x, z).

    P = i^{#Y} X^x Z^z and X^x Z^z |c> = (-1)^{|c & z|} |c ^ x>, so row r holds
    coeff i^{#Y} (-1)^{|(r ^ x) & z|} in column r ^ x. Masks, coefficients and
    rows broadcast against each other.
    """
    cols = rows ^ x_mask
    phase = coeff * I_POWERS[np.bitwise_count(x_mask & z_mask) % 4]
    return cols, phase * (1.0 - 2.0 * (np.bitwise_count(cols & z_mask) & 1))


def mask_words(n_qubits: int) -> int:
    """Number of 64-bit words that hold an ``n_qubits``-bit mask."""
    return (n_qubits + 63) // 64


def single_qubit_words(n_qubits: int) -> np.ndarray:
    """``(n_qubits, W)`` uint64 words; row g is the mask of qubit g alone."""
    g = np.arange(n_qubits)
    out = np.zeros((n_qubits, mask_words(n_qubits)), dtype=np.uint64)
    out[g, g >> 6] = np.left_shift(np.uint64(1), (g & 63).astype(np.uint64))
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a word array, as int64."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _to_words(masks: list[int], n_words: int) -> np.ndarray:
    """Python-int masks as a ``(len, n_words)`` uint64 array, low word first."""
    return np.array([[(m >> (64 * k)) & _WORD for k in range(n_words)] for m in masks],
                    dtype=np.uint64).reshape(len(masks), n_words)


def _int_columns(n_qubits: int, keys: list[tuple[int, int]], coeffs: list):
    """Canonical columns from (x_mask, z_mask) Python-int pairs."""
    w = mask_words(n_qubits)
    return _canonical(_to_words([x for x, _ in keys], w), _to_words([z for _, z in keys], w),
                      np.array(coeffs, dtype=np.complex128))


def _to_ints(words: np.ndarray) -> list[int]:
    """Rows of a uint64 word array as Python-int masks."""
    columns = [words[:, k].tolist() for k in range(words.shape[1])]
    if len(columns) == 1:
        return columns[0]
    return [sum(w << (64 * k) for k, w in enumerate(row)) for row in zip(*columns)]


def _canonical(x: np.ndarray, z: np.ndarray, c: np.ndarray):
    """Sort rows by weight, then x, then z (as integers) and sum duplicates."""
    weight = np.bitwise_count(x | z).sum(axis=1, dtype=np.int32)
    take, c = merge_rows([weight, *x.T[::-1], *z.T[::-1]], c)  # most significant first
    return x[take], z[take], c


class PauliSum:
    """Sum of Pauli strings as sorted columns (structure of arrays).

    ``x_words`` and ``z_words`` are ``(len, W)`` uint64 arrays with
    ``W = mask_words(n_qubits)``; word ``k`` carries qubits ``64k .. 64k+63``.
    ``coeffs`` is complex128. Rows are unique by (x_mask, z_mask) and kept in
    canonical order: by weight, then x_mask, then z_mask. Merging keeps exact
    zeros; ``prune`` drops them.
    """

    __slots__ = ("n_qubits", "x_words", "z_words", "coeffs")

    def __init__(self, n_qubits: int,
                 coeffs: dict[tuple[int, int], complex] | None = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        keys = list(coeffs or {})
        if any((x | z) >> n_qubits for x, z in keys):
            raise ValueError("mask does not fit in n_qubits bits")
        self.n_qubits = n_qubits
        self.x_words, self.z_words, self.coeffs = _int_columns(
            n_qubits, keys, [coeffs[k] for k in keys])

    @classmethod
    def _wrap(cls, n_qubits: int, x, z, c) -> "PauliSum":
        """Adopt columns that are already canonical."""
        out = cls.__new__(cls)
        out.n_qubits, out.x_words, out.z_words, out.coeffs = n_qubits, x, z, c
        return out

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, coeffs) -> "PauliSum":
        """Sum from mask columns in any order; duplicates are added.

        ``x`` and ``z`` are ``(len, W)`` word arrays, or 1-D integer arrays of
        masks when ``n_qubits <= 64``.
        """
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        w = mask_words(n_qubits)
        x, z = (np.asarray(a).astype(np.uint64, copy=False).reshape(-1, w) for a in (x, z))
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if not x.shape == z.shape == (c.size, w):
            raise ValueError("mask and coefficient columns must align")
        if n_qubits % 64 and c.size and ((x[:, -1] | z[:, -1]) >> (n_qubits % 64)).any():
            raise ValueError("mask does not fit in n_qubits bits")
        return cls._wrap(n_qubits, *_canonical(x, z, c))

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[PauliTerm]) -> "PauliSum":
        terms = list(terms)
        if any(t.n_qubits != n_qubits for t in terms):
            raise ValueError("term qubit count mismatch")
        return cls._wrap(n_qubits, *_int_columns(
            n_qubits, [(t.x_mask, t.z_mask) for t in terms], [t.coefficient for t in terms]))

    def _key(self, i: int) -> tuple[int, int, int]:
        x, z = _to_ints(self.x_words[i:i + 1])[0], _to_ints(self.z_words[i:i + 1])[0]
        return (x | z).bit_count(), x, z

    def coefficient(self, x_mask: int, z_mask: int) -> complex:
        """Binary search in the canonical order; 0 for an absent string."""
        target = ((x_mask | z_mask).bit_count(), x_mask, z_mask)
        i = bisect_left(range(len(self)), target, key=self._key)
        if i < len(self) and self._key(i) == target:
            return complex(self.coeffs[i])
        return 0.0

    def terms(self) -> list[PauliTerm]:
        """Terms in canonical order: by weight, then (x_mask, z_mask)."""
        return [PauliTerm(self.n_qubits, x, z, c) for x, z, c in
                zip(_to_ints(self.x_words), _to_ints(self.z_words), self.coeffs.tolist())]

    def __len__(self) -> int:
        return int(self.coeffs.size)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        return PauliSum._wrap(self.n_qubits, *_canonical(
            np.concatenate([self.x_words, other.x_words]),
            np.concatenate([self.z_words, other.z_words]),
            np.concatenate([self.coeffs, other.coeffs])))

    def __mul__(self, scalar) -> "PauliSum":
        return PauliSum._wrap(self.n_qubits, self.x_words, self.z_words, self.coeffs * scalar)

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def _kept(self, rel_tol: float) -> np.ndarray:
        mags = np.abs(self.coeffs)
        return mags > rel_tol * mags.max(initial=0.0)

    def prune(self, rel_tol: float = RELATIVE_PRUNE_TOL) -> "PauliSum":
        """Drop coefficients at or below rel_tol times the largest magnitude."""
        keep = self._kept(rel_tol)
        return PauliSum._wrap(self.n_qubits, self.x_words[keep], self.z_words[keep],
                              self.coeffs[keep])

    def dropped_l1(self, rel_tol: float = RELATIVE_PRUNE_TOL) -> float:
        """Sum of |coefficient| over the strings ``prune(rel_tol)`` drops."""
        return float(np.abs(self.coeffs[~self._kept(rel_tol)]).sum())

    def max_imag(self) -> float:
        return float(np.abs(self.coeffs.imag).max(initial=0.0))

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={len(self)})"


def count_strings(psum: PauliSum, tol: float = 0.0) -> int:
    """Number of strings with |coefficient| > tol (absolute)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return int(np.count_nonzero(np.abs(psum.coeffs) > tol))


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
    popcounts alone: #Y |x&z|, #X |x| - #Y, #Z |z| - #Y, length #X + #Y + #Z.

    The three popcounts of each string are packed into one integer and counted
    with ``np.unique``, so the work per string is a few array passes."""
    keep = np.abs(psum.coeffs) > tol
    x, z = psum.x_words, psum.z_words
    if not keep.all():
        x, z = x[keep], z[keep]
    base = psum.n_qubits + 1
    packed = _popcount(x & z)
    for words in (x, z):
        packed *= base
        packed += _popcount(words)
    keys, counts = np.unique(packed, return_counts=True)
    census = StringCensus(0, {})
    for key, m in zip(keys.tolist(), counts.tolist()):
        rest, n_z_bits = divmod(key, base)
        y, n_x_bits = divmod(rest, base)
        tally = {"X": n_x_bits - y, "Y": y, "Z": n_z_bits - y}
        l = sum(tally.values())
        census.total += m
        census.by_length[l] = census.by_length.get(l, 0) + m
        census.y_counts.setdefault(l, Counter())[y] += m
        census.letters.setdefault(l, Counter()).update({ch: k * m for ch, k in tally.items() if k})
    return census


# -- text serialization --------------------------------------------------------
# One term per line: "<letters> <re> <im>", most-significant qubit leftmost.

TEXT_QUBIT_LIMIT = 1 << 20  # largest n_qubits a pauli-sum header may declare

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
        if header or not 1 <= n_qubits <= TEXT_QUBIT_LIMIT:
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
            terms.append(PauliTerm.from_label(label, coeff, msb_first=msb_first))
        except ValueError:
            raise ValueError(f"malformed pauli-sum line {ln!r} for n_qubits={n_qubits}") from None
    return PauliSum.from_terms(n_qubits, terms)


def write_pauli_sum(psum: PauliSum, path) -> None:
    with open(path, "w") as fh:
        fh.write(pauli_sum_to_text(psum))


def read_pauli_sum(path) -> PauliSum:
    with open(path) as fh:
        return pauli_sum_from_text(fh.read())
