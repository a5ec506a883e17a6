"""Bit-packed Pauli strings with complex weights.

A term on ``n`` qubits is encoded by two masks: bit ``j`` of ``(x_mask, z_mask)``
selects qubit j's letter via (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y. Qubit 0 is the
least-significant bit of the computational-basis index (little-endian). Text
serialization prints the most-significant qubit leftmost.
"""
from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .sparse import SparseOperator, merge_rows

# coefficients below RELATIVE_PRUNE_TOL * max|coeff| are dropped when pruning
RELATIVE_PRUNE_TOL = 1e-12

_LETTERS = "IXZY"  # indexed by the code x_bit + 2*z_bit; the text reader and writer share it

I_POWERS = np.array([1, 1j, -1, -1j])  # i**k for k mod 4; conjugate gives (-i)**k


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

    def letter(self, qubit: int) -> str:
        xb = (self.x_mask >> qubit) & 1
        zb = (self.z_mask >> qubit) & 1
        return _LETTERS[xb + 2 * zb]

    def label(self, msb_first: bool = True) -> str:
        s = "".join(self.letter(j) for j in range(self.n_qubits))
        return s[::-1] if msb_first else s

    def string_matrix(self) -> SparseOperator:
        """Matrix of the bare string (unit coefficient), with exact Y phases."""
        rows = np.arange(1 << self.n_qubits)
        return SparseOperator(rows.size, rows, *string_entries(self.x_mask, self.z_mask, rows))


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


def mask_bits(words: np.ndarray, n_qubits: int) -> np.ndarray:
    """``(len, n_qubits)`` uint64 0/1 array; column j is qubit j's bit of each row."""
    qubit = np.arange(n_qubits)
    return (words[:, qubit >> 6] >> (qubit & 63).astype(np.uint64)) & np.uint64(1)


def _bits_to_words(bits: np.ndarray, n_qubits: int) -> np.ndarray:
    """``(len, W)`` uint64 words of a ``(len, n_qubits)`` 0/1 array; inverse of mask_bits."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(bits), 8 * mask_words(n_qubits)), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a word array, as int64."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _to_ints(words: np.ndarray) -> list[int]:
    """Rows of a uint64 word array as Python-int masks."""
    columns = [words[:, k].tolist() for k in range(words.shape[1])]
    if len(columns) == 1:
        return columns[0]
    return [sum(w << (64 * k) for k, w in enumerate(row)) for row in zip(*columns)]


def _canonical(x: np.ndarray, z: np.ndarray, c: np.ndarray):
    """Sort rows by weight, then x, then z (as integers) and sum duplicates."""
    # the smallest type that holds any weight; 16 bits or less sort by radix
    weight = np.bitwise_count(x | z).sum(axis=1, dtype=np.min_scalar_type(64 * x.shape[1]))
    take, c = merge_rows([weight, *x.T[::-1], *z.T[::-1]], c)  # most significant first
    return x[take], z[take], c


class PauliSum:
    """Sum of Pauli strings as sorted columns (structure of arrays).

    ``x_words`` and ``z_words`` are ``(len, W)`` uint64 arrays with
    ``W = mask_words(n_qubits)``; word ``k`` carries qubits ``64k .. 64k+63``.
    ``coeffs`` is complex128. Rows are unique by (x_mask, z_mask) and kept in
    canonical order: by weight, then x_mask, then z_mask. No coefficient is
    zero: every sum goes through ``merge_rows``, which drops exact zeros.
    ``PauliSum(n)`` is the empty sum; ``from_arrays`` and ``pauli_sum_from_text``
    build every other.
    """

    __slots__ = ("n_qubits", "x_words", "z_words", "coeffs")

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self.x_words = self.z_words = np.zeros((0, mask_words(n_qubits)), dtype=np.uint64)
        self.coeffs = np.zeros(0, dtype=np.complex128)

    @classmethod
    def _wrap(cls, n_qubits: int, x, z, c) -> "PauliSum":
        """Adopt columns that are already canonical."""
        out = cls.__new__(cls)
        out.n_qubits, out.x_words, out.z_words, out.coeffs = n_qubits, x, z, c
        return out

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, coeffs) -> "PauliSum":
        """Sum from mask columns in any order; duplicates are added, zeros dropped.

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
        return PauliSum.from_arrays(self.n_qubits, self.x_words, self.z_words, self.coeffs * scalar)

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


def count_strings(psum: PauliSum) -> int:
    """Number of strings; a sum stores no zero coefficient."""
    return len(psum)


@dataclass
class StringCensus:
    """Strings per length (non-identity letters; the identity has length 0)."""

    total: int
    by_length: dict[int, int]

    def lengths(self) -> list[int]:
        return sorted(self.by_length)


def string_census(psum: PauliSum) -> StringCensus:
    """Histogram the strings by length, ``popcount(x | z)``, in one bincount."""
    counts = np.bincount(_popcount(psum.x_words | psum.z_words))
    lengths = np.flatnonzero(counts)
    return StringCensus(len(psum), dict(zip(lengths.tolist(), counts[lengths].tolist())))


# -- text serialization --------------------------------------------------------
# One term per line: "<letters> <re> <im>", most-significant qubit leftmost.

TEXT_QUBIT_LIMIT = 1 << 20  # largest n_qubits a pauli-sum header may declare
_CODES = np.zeros(256, dtype=np.uint8)  # letter byte -> code, the inverse of _LETTERS
_CODES[np.frombuffer(_LETTERS.encode(), np.uint8)] = np.arange(4)

def pauli_sum_to_text(psum: PauliSum) -> str:
    n = psum.n_qubits
    codes = mask_bits(psum.x_words, n) + 2 * mask_bits(psum.z_words, n)
    letters = np.frombuffer(_LETTERS.encode(), np.uint8)[codes][:, ::-1]  # msb leftmost
    labels = np.ascontiguousarray(letters).view(f"S{n}").ravel()
    lines = [f"# pauli-sum n_qubits={n} ordering=msb-left"]
    lines += [f"{label.decode()} {c.real:.16e} {c.imag:.16e}"
              for label, c in zip(labels.tolist(), psum.coeffs.tolist())]
    return "\n".join(lines) + "\n"


def pauli_sum_from_text(text: str) -> PauliSum:
    """Inverse of ``pauli_sum_to_text``; duplicate labels are added in file order.

    Each line is checked in file order; the first malformed one is named. The
    checked labels then become mask words in one pass.
    """
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
    labels, coeffs = [], []
    for ln in lines[1:]:
        try:
            label, re_s, im_s = ln.split()
            coeff = complex(float(re_s), float(im_s))
            # strip leaves the label empty only when every letter is one of IXZY
            if len(label) != n_qubits or not cmath.isfinite(coeff) or label.strip(_LETTERS):
                raise ValueError
        except ValueError:
            raise ValueError(f"malformed pauli-sum line {ln!r} for n_qubits={n_qubits}") from None
        labels.append(label)
        coeffs.append(coeff)
    codes = _CODES[np.frombuffer("".join(labels).encode(), np.uint8).reshape(-1, n_qubits)]
    if msb_first:
        codes = codes[:, ::-1]
    return PauliSum.from_arrays(n_qubits, _bits_to_words(codes & 1, n_qubits),
                                _bits_to_words(codes >> 1, n_qubits), coeffs)
