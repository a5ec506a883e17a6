"""Polynomial-potential Hamiltonians and their basis-specific expansions.

The model class is H = sum_a p_a**2 / 2 + V(x_1, ..., x_B) with V a polynomial.
The coordinate-basis route expands V into Z-strings and keeps the kinetic term
diagonal in the momentum basis; the finite-difference and Fock routes build the
dense-basis alternatives whose decompositions grow exponentially.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import CapExceededError, SpecFileError
from .operators import (FockParams, TruncationConfig, coordinate_values, fock_p,
                        fock_x, momentum_values, p2_finite_difference)
from .pauli import PauliSum, mask_bits, single_qubit_words
from .sparse import SparseOperator

FOCK_TOTAL_QUBIT_CAP = 14  # dense/banded matrix products stop being desk-scale
FOCK_BAND_ENTRY_CAP = 1 << 25  # floats the banded powers of x may hold (256 MiB)


@dataclass(frozen=True)
class Monomial:
    """coefficient * prod_a x_a**power_a; zero powers are dropped on input."""

    coefficient: float
    exponents: Mapping[int, int]

    def __post_init__(self):
        clean = {}
        for boson, power in self.exponents.items():
            if power < 0:
                raise ValueError("exponents must be nonnegative")
            if boson < 0:
                raise ValueError("boson index must be nonnegative")
            if power > 0:
                clean[int(boson)] = int(power)
        object.__setattr__(self, "exponents", clean)
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    @property
    def degree(self) -> int:
        return sum(self.exponents.values())


@dataclass(frozen=True)
class PolynomialPotential:
    bosons: int
    terms: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.exponents and max(t.exponents) >= self.bosons:
                raise ValueError(f"monomial touches boson >= {self.bosons}")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)

    @classmethod
    def one_boson(cls, coeffs_by_power: Mapping[int, float]) -> "PolynomialPotential":
        terms = [Monomial(c, {0: p}) for p, c in sorted(coeffs_by_power.items()) if c != 0.0]
        return cls(1, tuple(terms))


def _square_poly(coeffs: Mapping[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for p1, c1 in coeffs.items():
        for p2, c2 in coeffs.items():
            out[p1 + p2] = out.get(p1 + p2, 0.0) + c1 * c2
    return out


def double_well_potential(m: float = 1.0, g: float = 1.0, mu: float = 1.0) -> PolynomialPotential:
    """(m x + g x**2 + g mu**2)**2 expanded to monomials, single boson."""
    return PolynomialPotential.one_boson(_square_poly({1: m, 2: g, 0: g * mu**2}))


def anharmonic_potential(m: float = 1.0, g: float = 1.0) -> PolynomialPotential:
    """(m x + g x**3)**2 expanded to monomials, single boson."""
    return PolynomialPotential.one_boson(_square_poly({1: m, 3: g}))


class KineticScheme(Enum):
    MOMENTUM_DIAGONAL = "momentum-basis-diagonal"
    FINITE_DIFFERENCE_OPEN = "finite-difference-open"
    FINITE_DIFFERENCE_PERIODIC = "finite-difference-periodic"


class BasisChoice(Enum):
    COORDINATE_QFT = "coordinate-qft"
    FOCK = "fock"


@dataclass(frozen=True)
class HamiltonianSpec:
    """A truncation config plus the potential and the chosen encoding route."""

    config: TruncationConfig
    potential: PolynomialPotential
    kinetic_scheme: KineticScheme = KineticScheme.MOMENTUM_DIAGONAL
    basis: BasisChoice = BasisChoice.COORDINATE_QFT
    fock_params: FockParams = field(default_factory=FockParams)

    def __post_init__(self):
        if self.potential.bosons != self.config.bosons:
            raise ValueError("potential and config disagree on boson count")
        if self.basis is BasisChoice.COORDINATE_QFT and self.config.radius is None:
            raise ValueError("coordinate basis requires an explicit radius")
        if (self.kinetic_scheme is not KineticScheme.MOMENTUM_DIAGONAL
                and self.config.radius is None):
            raise ValueError("finite-difference kinetic term requires a radius")


def _require_route(spec: HamiltonianSpec, what: str, schemes=()) -> None:
    """Refuse, in the spec file's words, a spec off the coordinate basis or, when
    ``schemes`` are given, with a kinetic scheme outside them."""
    if spec.basis is BasisChoice.COORDINATE_QFT and (not schemes or spec.kinetic_scheme in schemes):
        return
    wanted = f"basis {BasisChoice.COORDINATE_QFT.value!r}"
    if schemes:
        wanted += " with kinetic scheme " + " or ".join(repr(s.value) for s in schemes)
    raise ValueError(f"{what} encodes {wanted} only, not basis {spec.basis.value!r} "
                     f"with kinetic scheme {spec.kinetic_scheme.value!r}")


# -- coordinate-basis expansions ------------------------------------------------
# On Q qubits, x = alpha * sum_j w_j Z_j with w_j = 2**(j-Q) and
# alpha = -step * 2**(Q-1) (step = dx, or dp for the momentum grid). In the
# multinomial expansion of (sum_j w_j Z_j)**d, Z_j**2 = I leaves the string Z_S,
# S = {j : Z_j appears an odd number of times}, so |S| <= d, |S| = d (mod 2),
# with coefficient
#     d! * prod_{j in S} w_j * E_r(S),   r = (d - |S|) / 2,
#     E_r(S) = [u**r] prod_{j not in S} cosh(w_j t) * prod_{j in S} sinh(w_j t)/(w_j t)
# in u = t**2: a sum of positive terms. A monomial over several bosons is the
# product of its bosons' factors on disjoint qubits, so its strings fall into
# "shapes", one support size per boson, and every monomial whose shape sets
# include a shape adds a multiple of the same string list.

EXPANSION_STRING_CAP = 1 << 25  # strings one expansion may enumerate (about 1 GiB)

# A shape whose monomials have coefficients of both signs may cancel. Where the
# float sum is within this share of the summed magnitudes (far above its
# rounding error), the string's coefficient is recomputed in exact rationals.
_EXACT_RECHECK = 2.0 ** -30


def _series_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of power series in u stored along axis 0, to the same order."""
    out = a[0] * b  # the s = 0 term of every order
    for s in range(1, len(out)):  # order t gains a[s] * b[t - s], s ascending
        out[s:] += a[s] * b[:len(out) - s]
    return out


def _cosh_gaps(q: int, r: int) -> np.ndarray:
    """gap[t, a, b] = [u**t] prod_{a <= j < b} cosh(w_j sqrt(u)), zero for a > b.

    Going from [a, j) to [a, j+1) adds sum_s w_j**(2s)/(2s)! * gap[t-s, a, j]
    to coefficient t, so each order is one cumulative sum of positive terms.
    """
    y = np.ldexp(1.0, 2 * (np.arange(q) - q))  # w_j**2
    terms = [y ** s / math.factorial(2 * s) for s in range(1, r + 1)]
    gap = np.zeros((r + 1, q + 1, q + 1))
    edge = np.arange(q + 1)
    gap[0] = edge[:, None] <= edge  # the empty product for a <= b
    for t in range(1, r + 1):
        added = terms[0] * gap[t - 1, :, :q]
        for s in range(2, t + 1):
            added += terms[s - 1] * gap[t - s, :, :q]
        np.cumsum(added, axis=1, out=gap[t, :, 1:])
    return gap


def _colex_levels(q: int, k_max: int, d_max: int, wanted) -> list[tuple]:
    """The k-subsets S of range(q) for k <= k_max, with their coefficients.

    Level k is ``(lead, top, coef)``. It lists the subsets in increasing mask
    order (colexicographic): row i is row ``lead[i]`` of level k-1 plus the
    qubit ``top[i] = max S``. The subsets of range(t) lead that order, so top
    t extends the first C(t, k-1) rows of the level below.
    ``coef[t, i] = prod_{j in S} w_j * E_t(S)`` for t <= (d_max - k) // 2,
    on the levels in ``wanted`` (None on the others). A subset's series is
    built along the same steps: the cosh run below the new top, then the
    top's sinh factor, and last the cosh run above it, all positive terms.
    """
    r_max = d_max // 2
    gap = _cosh_gaps(q, r_max)
    t = np.arange(r_max + 1)
    # w_j * sinh(w_j sqrt u) / (w_j sqrt u) = sum_t w_j**(2t+1) / (2t+1)! u**t
    odd = np.ldexp(1.0, np.outer(2 * t + 1, np.arange(q) - q)) / [
        [math.factorial(2 * i + 1)] for i in t.tolist()]
    # step[:, a, b]: from a subset whose top is a - 1 to one with top b, the
    # qubits [a, b) and then b; last[:, a, b] also covers the qubits above b
    step = _series_multiply(gap[:, :, :q], odd[:, None, :])
    last = _series_multiply(step, gap[:, None, 1:, q])
    head, top = np.eye(r_max + 1, 1), np.array([-1], dtype=np.int32)
    levels = [(None, top, gap[:, 0, q:] if 0 in wanted else None)]
    qubits = np.arange(q, dtype=np.int32)
    for k in range(1, k_max + 1):
        r = (d_max - k) // 2
        tops = qubits[k - 1:]
        counts = top.searchsorted(tops).astype(np.int32)  # rows below with a lower top
        starts = counts.cumsum(dtype=np.int32) - counts
        lead = np.arange(math.comb(q, k), dtype=np.int32) - starts.repeat(counts)
        below, top = top[lead] + 1, tops.repeat(counts)
        head = head[:r + 1, lead]
        coef = _series_multiply(head, last[:r + 1, below, top]) if k in wanted else None
        if k < k_max:
            head = _series_multiply(head, step[:r + 1, below, top])
        levels.append((lead, top, coef))
    return levels


def _exact_factor(subset, q: int, d: int):
    """d! * prod_{j in S} w_j * E_r(S) for one subset S, as a Fraction."""
    from fractions import Fraction
    r = (d - len(subset)) // 2
    inside = set(subset)
    poly = [Fraction(1)] + [Fraction(0)] * r
    for j in range(q):
        w2 = Fraction(1, 4 ** (q - j))
        series = [w2 ** i / math.factorial(2 * i + (j in inside)) for i in range(r + 1)]
        poly = [sum(poly[s] * series[i - s] for s in range(i + 1)) for i in range(r + 1)]
    return math.factorial(d) * poly[r] / 2 ** sum(q - j for j in subset)


def _underflow(what: str, degree: int, config: TruncationConfig) -> ValueError:
    return ValueError(f"the Z-sum {what} of degree {degree} underflows to zero at radius "
                      f"{config.radius!r} with qubits_per_boson {config.qubits_per_boson}")


def _zsum(config: TruncationConfig, step: float,
          monomials: list[tuple[float, tuple[int, ...]]], what: str,
          vanishing_ok: bool = False) -> PauliSum:
    """Z-strings of sum_m c_m prod_a x_a**d_a with x_a the Q-term Z-sum of
    grid spacing ``step``: exact support, exact zeros dropped. A sum whose
    coefficients may overflow is refused, naming ``what``; so is one with a
    nonzero string that underflows to zero, unless ``vanishing_ok``."""
    q, n = config.qubits_per_boson, config.total_qubits
    top = max((max(powers, default=0) for _, powers in monomials), default=0)
    if top >= 170:  # the tables divide by (2r + 1)! up to r = degree // 2; 171! is no float
        raise ValueError(f"the Z-sum {what} of degree {top} in one boson is past the largest, "
                         f"169, at qubits_per_boson {q}")
    # monomials with equal exponents share every string; math.fsum rounds their
    # exact sum once, so a group that cancels exactly leaves nothing behind
    groups: dict[tuple[int, ...], list[float]] = {}
    for coeff, powers in monomials:
        groups.setdefault(powers, []).append(coeff)
    alpha = math.ldexp(-step, q - 1)
    try:  # |c| * |alpha|**d bounds the l1 norm of the strings of c * x**d
        scales = [abs(math.fsum(cs)) * abs(alpha) ** sum(p) for p, cs in groups.items()]
    except OverflowError:
        scales = [math.inf]
    if sum(scales) == math.inf:
        raise ValueError(f"the Z-sum {what} of degree {max(map(sum, groups))} overflows at "
                         f"radius {config.radius!r} with qubits_per_boson {q}")
    for (powers, cs), scale in zip(groups.items(), scales):
        if scale == 0.0 and math.fsum(cs) and not vanishing_ok:
            raise _underflow(what, sum(powers), config)
    shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for powers, cs in groups.items():
        if math.fsum(cs):
            for shape in itertools.product(*(range(d % 2, min(d, q) + 1, 2) for d in powers)):
                shapes.setdefault(shape, []).append(powers)
    total = sum(math.prod(math.comb(q, k) for k in shape) for shape in shapes)
    if total > EXPANSION_STRING_CAP:
        raise CapExceededError(f"Z-sum expansion on {q} qubits per boson has {total} "
                               f"strings, capped at {EXPANSION_STRING_CAP}")
    if not shapes:
        return PauliSum(n)
    z, coeff, lost = _shape_blocks(q, n, alpha, groups, shapes)
    if lost is not None and not vanishing_ok:
        raise _underflow(what, lost, config)
    return PauliSum.from_arrays(n, np.zeros_like(z), z, coeff)


def _shape_blocks(q: int, n: int, alpha: float, groups: dict, shapes: dict):
    """Z masks and coefficients of every shape, shapes in order of total weight
    (zeros included: ``from_arrays`` drops them), and the degree of the first
    shape with a nonzero string that underflowed to 0.0 (None when none did)."""
    bosons = len(next(iter(shapes)))
    levels = _colex_levels(q, max(max(s) for s in shapes), max(max(p) for p in groups),
                           {k for shape in shapes for k in shape})
    bits = single_qubit_words(n)
    masks = {}

    def boson_masks(a, k):
        """Masks of boson a's k-subsets, built level by level."""
        done = masks.setdefault(a, [np.zeros((1, bits.shape[1]), dtype=np.uint64)])
        while len(done) <= k:
            lead, top, _ = levels[len(done)]
            done.append(done[-1][lead] | bits[a * q + top])
        return done[k]

    def factor(d, k):
        """d! * prod_{j in S} w_j * E_r(S) for every k-subset S."""
        return math.factorial(d) * levels[k][2][(d - k) // 2]

    z_blocks, c_blocks, lost = [], [], None
    for shape in sorted(shapes, key=sum):
        # the highest boson varies slowest, so z ascends within the shape
        z = boson_masks(bosons - 1, shape[-1])
        for a in range(bosons - 2, -1, -1):
            z = (z[:, None] | boson_masks(a, shape[a])[None]).reshape(-1, z.shape[1])
        parts = []
        for powers in shapes[shape]:
            part = math.fsum(groups[powers]) * alpha ** sum(powers)
            for a in range(bosons - 1, -1, -1):
                part = np.multiply.outer(part, factor(powers[a], shape[a])).ravel()
            parts.append(part)
        coeff = parts[0] if len(parts) == 1 else np.sum(parts, axis=0)
        cancelled = 0  # strings whose exact coefficient is zero
        if len({math.fsum(groups[p]) > 0 for p in shapes[shape]}) > 1:
            from fractions import Fraction  # only here: it also loads decimal
            magnitude = np.sum(np.abs(parts), axis=0)
            rows = np.flatnonzero(np.abs(coeff) <= _EXACT_RECHECK * magnitude)
            # boson a's subset is bits a*q .. a*q + q - 1 of the string's own mask
            picked = mask_bits(z[rows], n).reshape(len(rows), bosons, q)
            for i, row in zip(rows.tolist(), picked):
                subsets = [np.flatnonzero(b).tolist() for b in row]
                exact = sum(sum(map(Fraction, groups[p])) * Fraction(alpha) ** sum(p)
                            * math.prod(_exact_factor(s, q, d) for s, d in zip(subsets, p))
                            for p in shapes[shape])
                coeff[i] = float(exact)
                cancelled += not exact
        # past the exact zeros counted above, a 0.0 has underflowed (in a shape
        # of one sign every factor is positive, so each of its zeros has)
        if lost is None and coeff.size - np.count_nonzero(coeff) > cancelled:
            lost = max(map(sum, shapes[shape]))
        z_blocks.append(z)
        c_blocks.append(coeff)
    return np.concatenate(z_blocks), np.concatenate(c_blocks), lost


def expand_potential_zsum(spec: HamiltonianSpec) -> PauliSum:
    """Substitute each x_a by its Z-sum and distribute all products.

    The strings are enumerated directly from their closed-form coefficients,
    one support shape at a time, so the result is the exact support: only
    strings whose coefficient is exactly zero (decided in rationals where
    monomials of opposite sign meet) are left out. The identity is kept.
    A spec in another basis is refused, not expanded on the coordinate grid.
    """
    _require_route(spec, "the Z-sum potential")
    cfg = spec.config
    if spec.potential.terms and spec.potential.degree == 0:
        warnings.warn("potential has only constant terms; expansion is a pure phase")
    return _zsum(cfg, cfg.spacing,
                 [(m.coefficient, tuple(m.exponents.get(a, 0) for a in range(cfg.bosons)))
                  for m in spec.potential.terms], "potential")


def raw_string_count(potential: PolynomialPotential, qubits_per_boson: int) -> int:
    """Pre-merge string count: Q**degree per monomial (constants count 1)."""
    return sum(qubits_per_boson ** t.degree for t in potential.terms)


def kinetic_zsum(spec: HamiltonianSpec) -> PauliSum:
    """sum_a p_a**2 / 2 as momentum-basis Z-strings.

    Squaring the Q-term Z-sum leaves the identity plus Q(Q-1)/2 ZZ couplings
    per boson; single-Z terms cancel in the square. Its coefficients vanish
    only past a radius of about 1e160, where a potential of degree 2 or more
    overflows. That refusal names the radius too, so strings that vanish are
    dropped here and refused by ``require_kinetic_support`` once the potential
    has been expanded.
    """
    _require_route(spec, "the Z-sum kinetic term", (KineticScheme.MOMENTUM_DIAGONAL,))
    cfg = spec.config
    return _zsum(cfg, cfg.momentum_spacing,
                 [(0.5, tuple(2 * (b == a) for b in range(cfg.bosons)))
                  for a in range(cfg.bosons)], "kinetic term", vanishing_ok=True)


def require_kinetic_support(spec: HamiltonianSpec, kinetic: PauliSum) -> None:
    """Refuse a kinetic Z-sum short of its 1 + B Q(Q-1)/2 strings: every
    coefficient is positive, so a missing string has underflowed."""
    cfg = spec.config
    if len(kinetic) < 1 + cfg.bosons * math.comb(cfg.qubits_per_boson, 2):
        raise _underflow("kinetic term", 2, cfg)


def _embed_per_boson(config: TruncationConfig, local: SparseOperator) -> SparseOperator:
    """sum_a I x ... x local_a x ... x I over the full register."""
    dim_local = config.cutoff
    total = SparseOperator.zeros(dim_local ** config.bosons)
    for a in range(config.bosons):
        op = SparseOperator.identity(dim_local ** (config.bosons - 1 - a))
        op = op.kron(local)
        op = op.kron(SparseOperator.identity(dim_local ** a))
        total = total + op
    return total


def kinetic_finite_difference(spec: HamiltonianSpec) -> SparseOperator:
    """(2I - S_Q) / dx**2 per boson, tensor-embedded into the full register."""
    _require_route(spec, "the finite-difference kinetic term",
                   (KineticScheme.FINITE_DIFFERENCE_OPEN, KineticScheme.FINITE_DIFFERENCE_PERIODIC))
    periodic = spec.kinetic_scheme is KineticScheme.FINITE_DIFFERENCE_PERIODIC
    cfg = spec.config
    local = p2_finite_difference(cfg.qubits_per_boson, cfg.spacing, periodic)
    return _embed_per_boson(cfg, local)


# -- grid diagonals (independent of the Pauli expansions) -----------------------

def _boson_digit_values(config: TruncationConfig, values: np.ndarray, boson: int) -> np.ndarray:
    idx = np.arange(config.cutoff ** config.bosons)
    digits = (idx >> (boson * config.qubits_per_boson)) & (config.cutoff - 1)
    return values[digits]


def potential_grid_diagonal(spec: HamiltonianSpec) -> np.ndarray:
    """V evaluated on the coordinate grid for every register basis state."""
    cfg = spec.config
    xvals = coordinate_values(cfg)
    out = np.zeros(cfg.cutoff ** cfg.bosons)
    for mono in spec.potential.terms:
        term = np.full(out.shape, mono.coefficient)
        for boson, power in mono.exponents.items():
            term = term * _boson_digit_values(cfg, xvals, boson) ** power
        out += term
    return out


def kinetic_grid_diagonal(spec: HamiltonianSpec) -> np.ndarray:
    """sum_a p_a**2 / 2 on the momentum grid for every register basis state."""
    cfg = spec.config
    pvals = momentum_values(cfg)
    out = np.zeros(cfg.cutoff ** cfg.bosons)
    for boson in range(cfg.bosons):
        out += _boson_digit_values(cfg, pvals, boson) ** 2 / 2.0
    return out


# -- Fock-basis construction -----------------------------------------------------

def _banded_powers(op: SparseOperator, degree: int, what: str = "the operator") -> list[np.ndarray]:
    """op**0 .. op**degree as bands (row r holds op**m[r, r + o - degree - 1] at
    column o) for a real op with entries only at (j, j +- 1). Each product adds
    op**m[r, c-1] op[c-1, c] + op**m[r, c+1] op[c+1, c] in the order of the
    ``@`` row join. A power that overflows, or has a product that underflows,
    is refused, naming ``what``, before its NaNs or lost entries drop."""
    pad = degree + 1
    at = np.arange(op.dim)[:, None] + np.arange(1, 2 * pad)  # column + pad
    into = np.zeros((2, op.dim + 2 * pad))
    into[(op.rows > op.cols).astype(int), op.cols + pad] = op.vals.real  # op[c-1, c], op[c+1, c]
    left, right = into[:, at]
    powers = [np.zeros((op.dim, 2 * pad + 1))]
    powers[0][:, pad] = 1.0
    for m in range(1, degree + 1):
        band = np.zeros_like(powers[0])
        with _underflow_refused(lambda problem: ValueError(f"power {m} of {what} {problem}")):
            band[:, 1:-1] = powers[-1][:, :-2] * left + powers[-1][:, 2:] * right
        if not np.isfinite(band).all():
            raise ValueError(f"power {m} of {what} is not finite")
        powers.append(band)
    return powers


@contextlib.contextmanager
def _underflow_refused(error):
    """Raise ``error(problem)`` where a float product of the block underflows:
    rounds to 0.0, which would drop its entry, or to a subnormal, which keeps
    few bits (IEEE 754's underflow: tiny and inexact). Overflow is left to the
    caller."""
    try:
        with np.errstate(over="ignore", invalid="ignore", under="raise"):
            yield
    except FloatingPointError:
        raise error("underflows (a product rounds below the normal float range)") from None


def _band_operator(band: np.ndarray) -> SparseOperator:
    rows, o = np.nonzero(band)  # in (row, col) order
    return SparseOperator(len(band), rows, rows + o - len(band[0]) // 2, band[rows, o])


def _fock_at(operator: str, spec: HamiltonianSpec) -> str:
    params = spec.fock_params
    return f"{operator} at fock: mass {params.mass!r}, frequency {params.frequency!r}"


def fock_potential(spec: HamiltonianSpec) -> SparseOperator:
    """V evaluated on truncated Fock coordinate matrices (truncate, then multiply):
    one boson adds its monomials as bands, more bosons ``kron`` the powers.
    A term that overflows, or has a product that underflows, is refused."""
    cfg = spec.config
    if cfg.total_qubits > FOCK_TOTAL_QUBIT_CAP:
        raise CapExceededError(f"Fock-basis construction capped at {FOCK_TOTAL_QUBIT_CAP} "
                               f"total qubits, got {cfg.total_qubits}")
    tops = [max(mono.exponents.values(), default=0) for mono in spec.potential.terms]
    degree = max(tops, default=0)  # the highest power of x any one boson takes
    if (degree + 1) * cfg.cutoff * (2 * degree + 3) > FOCK_BAND_ENTRY_CAP:
        raise CapExceededError(f"the Fock powers of x to degree {degree} at qubits_per_boson "
                               f"{cfg.qubits_per_boson} hold more than {FOCK_BAND_ENTRY_CAP} "
                               "entries")
    top = f"x (potential term {tops.index(degree)})" if tops else "x"
    powers = _banded_powers(fock_x(cfg.cutoff, spec.fock_params), degree, _fock_at(top, spec))
    if cfg.bosons == 1:
        total = np.zeros_like(powers[0])
        for i, mono in enumerate(spec.potential.terms):
            with _underflow_refused(functools.partial(_term_error, i, spec)):
                total = total + mono.coefficient * powers[mono.degree]
            _require_finite(total, i, spec)
        return _band_operator(total)
    powers = [_band_operator(band) for band in powers]
    total = SparseOperator.zeros(cfg.cutoff ** cfg.bosons)
    for i, mono in enumerate(spec.potential.terms):
        with _underflow_refused(functools.partial(_term_error, i, spec)):
            op = SparseOperator.from_entries(1, [(0, 0, mono.coefficient)])
            for a in range(cfg.bosons - 1, -1, -1):  # high boson first, boson 0 least significant
                op = op.kron(powers[mono.exponents.get(a, 0)])
            total = total + op
        _require_finite(total.vals, i, spec)
    return total


def _require_finite(values: np.ndarray, term: int, spec: HamiltonianSpec) -> None:
    """Refuse a Fock potential that stopped being finite at potential term ``term``."""
    if not np.isfinite(values).all():
        raise _term_error(term, spec, "is not finite")


def _term_error(term: int, spec: HamiltonianSpec, problem: str) -> ValueError:
    mono = spec.potential.terms[term]
    return ValueError(f"potential term {term} (coeff {mono.coefficient!r}, degree "
                      f"{mono.degree}) {problem} on the Fock basis at qubits_per_boson "
                      f"{spec.config.qubits_per_boson}, {_fock_at('x', spec)}")


def fock_hamiltonian(spec: HamiltonianSpec) -> SparseOperator:
    """Fock-basis H: the potential on fock_x plus sum_a p_a**2 / 2 from fock_p."""
    cfg = spec.config
    potential = fock_potential(spec)
    # p = i R with R real, so p**2 = -(R**2), bit for bit
    r2 = _banded_powers(-1j * fock_p(cfg.cutoff, spec.fock_params), 2, _fock_at("p", spec))[2]
    return potential + 0.5 * _embed_per_boson(cfg, _band_operator(-r2))


# -- spec files -------------------------------------------------------------------
# JSON document; see README for the schema. Decimal literals only. Parsing is
# strict: unknown keys are rejected and no value is coerced to another type.

_SPEC_KEYS = ("bosons", "qubits_per_boson", "radius", "basis", "kinetic_scheme",
              "fock", "potential")
_TERM_KEYS = ("coeff", "exponents")
_FOCK_KEYS = ("mass", "frequency")


def _checked_object(obj, where: str, allowed, required=()) -> dict:
    if not isinstance(obj, dict):
        raise SpecFileError(f"{where}: JSON object expected, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise SpecFileError(f"{where}: unknown key {key!r} (allowed: {', '.join(allowed)})")
    for key in required:
        if key not in obj:
            raise SpecFileError(f"{where}: missing key {key!r}")
    return obj


def _integer(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecFileError(f"{where} must be a JSON integer, got {value!r}")


def _real(value, where: str) -> float:
    # the bound is false for nan, infinities and integers past the float range
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise SpecFileError(f"{where} must be a finite JSON number, got {value!r}")


def _choice(kind: type[Enum], value, where: str) -> Enum:
    for member in kind:
        if member.value == value:
            return member
    allowed = ", ".join(repr(m.value) for m in kind)
    raise SpecFileError(f"{where} must be one of {allowed}, got {value!r}")


def _monomial(doc, bosons: int, where: str) -> Monomial:
    _checked_object(doc, where, _TERM_KEYS, _TERM_KEYS)
    expo = doc["exponents"]
    if not isinstance(expo, list) or len(expo) != bosons:
        raise SpecFileError(f"{where}: expected a list of {bosons} exponents, got {expo!r}")
    powers = {a: _integer(p, f"{where}: exponent {a}") for a, p in enumerate(expo)}
    try:
        return Monomial(_real(doc["coeff"], f"{where}: coeff"), powers)
    except ValueError as exc:
        raise SpecFileError(f"{where}: {exc}") from None


def hamiltonian_spec_from_dict(doc: dict) -> HamiltonianSpec:
    """Validate a parsed spec document and build the spec; errors name the key or term."""
    _checked_object(doc, "spec", _SPEC_KEYS, ("bosons", "qubits_per_boson"))
    bosons = _integer(doc["bosons"], "bosons")
    qubits = _integer(doc["qubits_per_boson"], "qubits_per_boson")
    radius = doc.get("radius")
    potential = doc.get("potential", [])
    if not isinstance(potential, list):
        raise SpecFileError(f"potential: JSON list expected, got {potential!r}")
    fock_doc = _checked_object(doc.get("fock", {}), "fock", _FOCK_KEYS)
    try:
        config = TruncationConfig(bosons, qubits,
                                  None if radius is None else _real(radius, "radius"))
        terms = [_monomial(td, bosons, f"potential term {i}") for i, td in enumerate(potential)]
        scheme = _choice(KineticScheme, doc.get("kinetic_scheme", "momentum-basis-diagonal"),
                         "kinetic_scheme")
        basis = _choice(BasisChoice, doc.get("basis", "coordinate-qft"), "basis")
        fock_params = FockParams(_real(fock_doc.get("mass", 1.0), "fock: mass"),
                                 _real(fock_doc.get("frequency", 1.0), "fock: frequency"))
        return HamiltonianSpec(config, PolynomialPotential(bosons, tuple(terms)),
                               scheme, basis, fock_params)
    except ValueError as exc:
        raise SpecFileError(f"invalid Hamiltonian spec: {exc}") from exc


def load_hamiltonian_spec(path) -> HamiltonianSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise SpecFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: top-level JSON object expected")
    return hamiltonian_spec_from_dict(doc)
