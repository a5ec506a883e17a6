"""Reference computations for the benchmark's output checks.

Nothing here imports qboson: every figure is recomputed from the spec by a
route of its own (closed forms, Walsh-Hadamard transforms, numpy FFT), so a
check compares the program against an independent computation.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

# the program drops coefficients at or below this share of the largest one
PRUNE_REL_TOL = 1e-12


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis (length 2**n)."""
    out = np.array(values, dtype=np.result_type(values, np.float64), copy=True)
    n = out.shape[-1]
    lead = out.shape[:-1]
    h = 1
    while h < n:
        view = out.reshape(lead + (n // (2 * h), 2, h))
        a = view[..., 0, :].copy()
        b = view[..., 1, :]
        view[..., 0, :] += b
        view[..., 1, :] = a - b
        h *= 2
    return out


def popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(np.asarray(values, dtype=np.int64))


# -- Fock basis -----------------------------------------------------------------

def fock_x_matrix(cutoff: int, mass: float = 1.0, frequency: float = 1.0) -> sp.csr_matrix:
    """Truncated (a + a^dagger) / sqrt(2 m omega) as a tridiagonal matrix."""
    off = np.sqrt(np.arange(1, cutoff, dtype=float)) / math.sqrt(2.0 * mass * frequency)
    return sp.diags([off, off], [-1, 1], shape=(cutoff, cutoff), format="csr",
                    dtype=np.complex128)


def fock_p_matrix(cutoff: int, mass: float = 1.0, frequency: float = 1.0) -> sp.csr_matrix:
    """Truncated i sqrt(m omega / 2) (a^dagger - a)."""
    off = 1j * np.sqrt(np.arange(1, cutoff, dtype=float)) * math.sqrt(mass * frequency / 2.0)
    return sp.diags([off, -off], [-1, 1], shape=(cutoff, cutoff), format="csr")


def fock_potential_matrix(powers: dict[int, float], cutoff: int) -> sp.csr_matrix:
    """sum_k c_k x**k on the truncated x (truncate first, then multiply)."""
    x = fock_x_matrix(cutoff)
    total = sp.csr_matrix((cutoff, cutoff), dtype=np.complex128)
    for power, coeff in powers.items():
        term = sp.identity(cutoff, dtype=np.complex128, format="csr")
        for _ in range(power):
            term = term @ x
        total = total + coeff * term
    return total


def pauli_coefficients(matrix: sp.spmatrix) -> dict[tuple[int, int], complex]:
    """All Pauli coefficients Tr(P^dagger M) / 2**n, grouped by X-mask.

    Entries sharing x = row XOR col form one vector over the column index;
    its Walsh-Hadamard transform gives every Z-mask of that X-mask at once.
    """
    coo = sp.coo_matrix(matrix)
    dim = coo.shape[0]
    rows, cols, vals = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    keep = vals != 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    xors = rows ^ cols
    zs = np.arange(dim, dtype=np.int64)
    out: dict[tuple[int, int], complex] = {}
    for x in np.unique(xors):
        sel = xors == x
        vec = np.zeros(dim, dtype=np.complex128)
        vec[cols[sel]] = vals[sel]
        coeffs = fwht(vec) * (-1j) ** (popcount(zs & x) % 4) / dim
        for z in np.nonzero(coeffs)[0]:
            out[(int(x), int(z))] = complex(coeffs[z])
    return out


def pruned(coeffs: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    """The strings that survive the program's relative prune."""
    cut = PRUNE_REL_TOL * max((abs(v) for v in coeffs.values()), default=0.0)
    return {k: v for k, v in coeffs.items() if abs(v) > cut}


def census(keys) -> dict[int, int]:
    """Strings per length (number of non-identity letters)."""
    out: dict[int, int] = {}
    for x, z in keys:
        length = (x | z).bit_count()
        out[length] = out.get(length, 0) + 1
    return out


# -- coordinate basis -----------------------------------------------------------

def zsum_support_census(exponents: list[list[int]], qubits_per_boson: int) -> dict[int, int]:
    """Exact Z-string support of a polynomial potential, counted per length.

    x_a**d expands into Z-strings on boson a of every weight k <= d with
    k = d (mod 2), each with a coefficient of one sign; so with positive
    monomial coefficients nothing cancels, and the support is the union over
    monomials of these per-boson weight patterns.
    """
    allowed: set[tuple[int, ...]] = set()
    for expo in exponents:
        choices = [range(d % 2, min(d, qubits_per_boson) + 1, 2) for d in expo]
        allowed.update(itertools.product(*choices))
    out: dict[int, int] = {}
    for weights in allowed:
        length = sum(weights)
        out[length] = out.get(length, 0) + math.prod(math.comb(qubits_per_boson, w)
                                                     for w in weights)
    return out


def grid_values(qubits: int, radius: float) -> np.ndarray:
    """Symmetric coordinate grid x_n = (n - (L-1)/2) * 2R/L."""
    cutoff = 1 << qubits
    return (np.arange(cutoff) - (cutoff - 1) / 2.0) * (2.0 * radius / cutoff)


def momentum_values(qubits: int, radius: float) -> np.ndarray:
    cutoff = 1 << qubits
    return (np.arange(cutoff) - (cutoff - 1) / 2.0) * (math.pi / radius)


def _per_boson(bosons: int, qubits: int, values: np.ndarray, boson: int) -> np.ndarray:
    """values[digit of boson] on every register index (boson 0 least significant)."""
    shape = [1] * bosons
    shape[bosons - 1 - boson] = values.size
    return np.broadcast_to(values.reshape(shape), (values.size,) * bosons).reshape(-1)


def potential_diagonal(terms: list[tuple[float, list[int]]], qubits: int,
                       radius: float) -> np.ndarray:
    bosons = len(terms[0][1])
    x = grid_values(qubits, radius)
    out = np.zeros((1 << qubits) ** bosons)
    for coeff, expo in terms:
        term = np.full(out.shape, coeff)
        for boson, power in enumerate(expo):
            if power:
                term = term * _per_boson(bosons, qubits, x, boson) ** power
        out += term
    return out


def kinetic_diagonal(bosons: int, qubits: int, radius: float) -> np.ndarray:
    p = momentum_values(qubits, radius)
    return sum(_per_boson(bosons, qubits, p, a) ** 2 / 2.0 for a in range(bosons))


def diagonal_zcoefficients(diagonal: np.ndarray) -> np.ndarray:
    """Z-string coefficients of diag(d), indexed by Z-mask."""
    return fwht(diagonal) / diagonal.size


def centered_fourier(states: np.ndarray, bosons: int, qubits: int,
                     inverse: bool = False) -> np.ndarray:
    """Apply the centred kernel exp(i p_k x_n)/sqrt(L) per boson to columns.

    F[k, n] = exp(2 pi i (k-c)(n-c)/L)/sqrt(L) with c = (L-1)/2, which is a
    phase ramp, an inverse DFT scaled by sqrt(L), a second ramp and a
    constant phase.
    """
    cutoff = 1 << qubits
    c = (cutoff - 1) / 2.0
    sign = -1.0 if inverse else 1.0
    ramp = np.exp(sign * -2j * math.pi * c * np.arange(cutoff) / cutoff)
    const = np.exp(sign * 2j * math.pi * c * c / cutoff)
    extra = states.shape[1:]
    t = states.reshape((cutoff,) * bosons + extra)
    for boson in range(bosons):
        axis = bosons - 1 - boson
        shape = [1] * t.ndim
        shape[axis] = cutoff
        r = ramp.reshape(shape)
        if inverse:
            t = np.fft.fft(t * r, axis=axis, norm="ortho") * r
        else:
            t = np.fft.ifft(t * r, axis=axis, norm="ortho") * r
        t = t * const
    return t.reshape(states.shape)


def hamiltonian_fft(terms, bosons: int, qubits: int, radius: float) -> np.ndarray:
    """Dense H = diag(V) + F^dagger diag(K) F, with F applied by FFT."""
    dim = (1 << qubits) ** bosons
    f = centered_fourier(np.eye(dim, dtype=np.complex128), bosons, qubits)
    k = kinetic_diagonal(bosons, qubits, radius)
    h = centered_fourier(k[:, None] * f, bosons, qubits, inverse=True)
    h[np.diag_indices(dim)] += potential_diagonal(terms, qubits, radius)
    return h


def trotter_state(terms, bosons: int, qubits: int, radius: float, time: float,
                  steps: int, state: np.ndarray) -> np.ndarray:
    """(F^dagger e^{-iK dt} F e^{-iV dt})**steps applied to a state vector."""
    dt = time / steps
    v = np.exp(-1j * dt * potential_diagonal(terms, qubits, radius))
    k = np.exp(-1j * dt * kinetic_diagonal(bosons, qubits, radius))
    psi = state[:, None].astype(np.complex128)
    for _ in range(steps):
        psi = centered_fourier(k[:, None] * centered_fourier(v[:, None] * psi, bosons, qubits),
                               bosons, qubits, inverse=True)
    return psi[:, 0]


# -- scaling fit ----------------------------------------------------------------

def scaling_fit(qs, counts) -> tuple[float, float, float, float]:
    """(a, b, c, rms) of (1/Q) ln N = a + (b + c ln Q)/Q by numpy least squares."""
    q = np.asarray(qs, dtype=float)
    y = np.log(np.asarray(counts, dtype=float)) / q
    design = np.column_stack([np.ones_like(q), 1.0 / q, np.log(q) / q])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    return float(beta[0]), float(beta[1]), float(beta[2]), float(np.sqrt(np.mean(resid**2)))
