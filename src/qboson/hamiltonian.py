"""Polynomial-potential Hamiltonians and their basis-specific expansions.

The model class is H = sum_a p_a**2 / 2 + V(x_1, ..., x_B) with V a polynomial.
The coordinate-basis route expands V into Z-strings and keeps the kinetic term
diagonal in the momentum basis; the finite-difference and Fock routes build the
dense-basis alternatives whose decompositions grow exponentially.
"""
from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import CapExceededError, SpecFileError
from .operators import (FockParams, TruncationConfig, coordinate_values, fock_p,
                        fock_x, momentum_values, momentum_zsum, p2_finite_difference,
                        position_zsum)
from .pauli import PauliSum
from .sparse import SparseOperator

FOCK_TOTAL_QUBIT_CAP = 14  # dense/banded matrix products stop being desk-scale


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


# -- coordinate-basis expansions ------------------------------------------------

def _multiply_zsum_factor(acc: dict[int, float], factor: PauliSum) -> dict[int, float]:
    """Multiply a z_mask -> coefficient map by a sum of single-Z strings."""
    out: dict[int, float] = {}
    for mask, coeff in acc.items():
        for (_, bit), w in factor.items():
            key = mask ^ bit  # sigma_z**2 = I collapses repeated qubits
            out[key] = out.get(key, 0.0) + coeff * w
    return out


def expand_potential_zsum(spec: HamiltonianSpec) -> PauliSum:
    """Substitute each x_a by its Z-sum and distribute all products.

    Every factor of every monomial multiplies the raw term count by Q; the
    returned sum is the merged result (identity term retained).
    """
    cfg = spec.config
    if spec.potential.terms and spec.potential.degree == 0:
        warnings.warn("potential has only constant terms; expansion is a pure phase")
    acc: dict[tuple[int, int], complex] = {}
    for mono in spec.potential.terms:
        cur: dict[int, float] = {0: mono.coefficient}
        for boson in sorted(mono.exponents):
            x = position_zsum(cfg, boson)
            for _ in range(mono.exponents[boson]):
                cur = _multiply_zsum_factor(cur, x)
        for mask, coeff in cur.items():
            key = (0, mask)
            acc[key] = acc.get(key, 0.0) + coeff
    # drop exact zeros only: count --tol applies the caller's tolerance
    return PauliSum(cfg.total_qubits, acc).prune(0.0)


def raw_string_count(potential: PolynomialPotential, qubits_per_boson: int) -> int:
    """Pre-merge string count: Q**degree per monomial (constants count 1)."""
    return sum(qubits_per_boson ** t.degree for t in potential.terms)


def kinetic_zsum(spec: HamiltonianSpec) -> PauliSum:
    """sum_a p_a**2 / 2 as momentum-basis Z-strings.

    Squaring the Q-term Z-sum leaves the identity plus Q(Q-1)/2 ZZ couplings
    per boson; single-Z terms cancel in the square.
    """
    if spec.kinetic_scheme is not KineticScheme.MOMENTUM_DIAGONAL:
        raise ValueError(f"kinetic_zsum needs {KineticScheme.MOMENTUM_DIAGONAL}, "
                         f"got {spec.kinetic_scheme}")
    cfg = spec.config
    acc: dict[tuple[int, int], complex] = {}
    for boson in range(cfg.bosons):
        p = momentum_zsum(cfg, boson)
        cur = _multiply_zsum_factor(_multiply_zsum_factor({0: 0.5}, p), p)
        for mask, coeff in cur.items():
            acc[(0, mask)] = acc.get((0, mask), 0.0) + coeff
    return PauliSum(cfg.total_qubits, acc).prune(0.0)


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
    if spec.kinetic_scheme not in (KineticScheme.FINITE_DIFFERENCE_OPEN,
                                   KineticScheme.FINITE_DIFFERENCE_PERIODIC):
        raise ValueError("kinetic_finite_difference needs a finite-difference scheme")
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

def _check_fock_size(config: TruncationConfig) -> None:
    if config.total_qubits > FOCK_TOTAL_QUBIT_CAP:
        raise CapExceededError(
            f"Fock-basis construction capped at {FOCK_TOTAL_QUBIT_CAP} total qubits, "
            f"got {config.total_qubits}")


def fock_potential(spec: HamiltonianSpec) -> SparseOperator:
    """V evaluated on truncated Fock coordinate matrices (truncate, then multiply)."""
    cfg = spec.config
    _check_fock_size(cfg)
    x1 = fock_x(cfg.cutoff, spec.fock_params)
    powers = [SparseOperator.identity(cfg.cutoff)]
    for _ in range(spec.potential.degree):
        powers.append(powers[-1] @ x1)
    dim = cfg.cutoff ** cfg.bosons
    total = SparseOperator.zeros(dim)
    for mono in spec.potential.terms:
        op = SparseOperator.from_entries(1, [(0, 0, mono.coefficient)])
        for a in range(cfg.bosons - 1, -1, -1):  # high boson first, boson 0 least significant
            op = op.kron(powers[mono.exponents.get(a, 0)])
        total = total + op
    return total


def fock_hamiltonian(spec: HamiltonianSpec, include_kinetic: bool = True) -> SparseOperator:
    """Fock-basis H: the potential on fock_x plus sum_a p_a**2 / 2 from fock_p."""
    cfg = spec.config
    total = fock_potential(spec)
    if include_kinetic:
        p1 = fock_p(cfg.cutoff, spec.fock_params)
        total = total + 0.5 * _embed_per_boson(cfg, p1 @ p1)
    return total


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
        scheme = KineticScheme(doc.get("kinetic_scheme", "momentum-basis-diagonal"))
        basis = BasisChoice(doc.get("basis", "coordinate-qft"))
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
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: top-level JSON object expected")
    return hamiltonian_spec_from_dict(doc)
