"""Exact statevector simulation and matrix-exponential propagator oracles.

Amplitudes are dense and every simulation runs one op list through one loop
(``_apply``): a run of permutation/phase gates is one row gather and phase, an
H a butterfly on a reshaped view, a Trotter step's diagonal layer its phase
angles and each boson's QFT one small unitary. Qubit j addresses the 2**j bit
of the basis index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuits import LAYER_NAMES, Circuit, GateCountReport, trotter_evolution
from .decompose import butterfly_level
from .errors import CapExceededError
from .hamiltonian import HamiltonianSpec, potential_grid_diagonal
# fourier_kernel_multi is no longer called here but stays a module attribute,
# since perfbench/tracing.py wraps it by this name
from .operators import fourier_kernel, fourier_kernel_multi, momentum_values  # noqa: F401

APPLY_QUBIT_CAP = 20
MATRIX_QUBIT_CAP = 12

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# an unnormalised butterfly grows a norm by sqrt(2): 2**256 at most in between
_MAX_PENDING_H = 512


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _fused_angles(gates, n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """One run of non-H gates on n qubits as ``(pos, theta)``: basis state j
    ends at ``pos[j]`` (``pos`` is None when the run permutes nothing) with
    phase ``exp(i theta[j])``.

    The run's permutation is affine in the index bits, so it is followed on
    masks: bit q of the position of state j is the parity of ``j & masks[q]``
    xor bit q of ``flips``, and each CNOT, X or SWAP is an integer operation.
    Each phase gate records the (mask, flip) of the bits it reads with its
    angle, and theta sums angle * (product of those bits) over the index
    vector once per distinct set of bits, in gate order.
    """
    masks, flips = [1 << q for q in range(n)], 0
    weights: dict[tuple, float] = {}  # the bits a phase reads -> its angle
    const = 0.0
    for gate in gates:
        kind, qubits = gate.kind, gate.qubits
        if kind == "PHASE":
            const += gate.angle
        elif kind in ("RZ", "DIAGPHASE", "CPHASE"):
            bits = tuple((masks[q], (flips >> q) & 1) for q in qubits)
            weights[bits] = weights.get(bits, 0.0) + gate.angle
            if kind == "RZ":
                const -= 0.5 * gate.angle
        elif kind == "X":
            flips ^= 1 << qubits[0]
        elif kind == "CNOT":
            c, t = qubits
            masks[t] ^= masks[c]
            flips ^= ((flips >> c) & 1) << t
        elif kind == "SWAP":
            a, b = qubits
            masks[a], masks[b] = masks[b], masks[a]
            flips ^= (((flips >> a) ^ (flips >> b)) & 1) * ((1 << a) | (1 << b))
        else:  # H ends a run; Gate validates kinds
            raise ValueError(f"gate kind {kind!r} is not a permutation or a phase")
    idx = np.arange(1 << n)
    theta = np.zeros(1 << n)
    for bits, angle in weights.items():
        read = 1
        for mask, flip in bits:
            read = read & ((np.bitwise_count(idx & mask) & 1) ^ flip)
        theta += angle * read
    theta += const
    if flips == 0 and all(m == 1 << q for q, m in enumerate(masks)):
        return None, theta
    pos = np.array([flips])
    for b in range(n):  # the states with bit b set move by the image of bit b
        pos = np.concatenate([pos, pos ^ sum(((m >> b) & 1) << q for q, m in enumerate(masks))])
    return pos, theta


def _fused_run(gates, n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """One run of non-H gates as ``(src, phase)``: the run maps psi to
    ``phase * psi[src]``; ``src`` is None when the run permutes nothing."""
    pos, theta = _fused_angles(gates, n)
    phase = np.exp(1j * theta)
    if pos is None:
        return None, phase
    src = np.empty_like(pos)
    src[pos] = np.arange(len(pos))
    return src, phase[src]


def _compile(gates, n: int) -> list:
    """Gates on n qubits as ops: each maximal run of other gates is one
    ``("run", src, phase)``, each H one ``("h", q)``, an unnormalised butterfly
    whose 2**(-1/2) rides on the next run's phase, or on a ``("scale", s)`` at
    the end or after _MAX_PENDING_H butterflies."""
    ops, pending = [], 0  # butterflies not yet normalised
    for is_h, run in groupby(gates, key=lambda g: g.kind == "H"):
        if not is_h:
            src, phase = _fused_run(run, n)
            if pending:
                phase *= _hadamard_norm(pending)
                pending = 0
            ops.append(("run", src, phase[:, None]))
            continue
        for gate in run:
            ops.append(("h", gate.qubits[0]))
            pending += 1
            if pending == _MAX_PENDING_H:  # keep the growth far from overflow
                ops.append(("scale", _hadamard_norm(pending)))
                pending = 0
    if pending:
        ops.append(("scale", _hadamard_norm(pending)))
    return ops


def _apply(ops, amps: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Run ``ops`` in place on the rows of ``amps`` (C-contiguous, shape
    ``(2**n, batch)``) and return it, with ``spare`` (same shape) as work space:
    those of ``_compile``, ``("angles", theta)`` for psi -> exp(i theta) psi,
    and ``("window", shift, u)`` for u on the qubits from ``shift`` on."""
    dim, work = amps.shape[0], amps
    for op in ops:
        kind = op[0]
        if kind == "h":  # axis 1 of the view: qubit q
            butterfly_level(work.reshape(dim >> (op[1] + 1), 2, -1), spare.reshape(-1))
        elif kind == "run":
            if op[1] is not None:
                np.take(work, op[1], axis=0, out=spare)
                work, spare = spare, work
            work *= op[2]
        elif kind == "angles":
            work *= np.exp(1j * op[1])[:, None]
        elif kind == "window":
            _, shift, u = op  # axis 1 of the view: the window's qubits
            shape = (dim // (len(u) << shift), len(u), -1)
            np.matmul(u, work.reshape(shape), out=spare.reshape(shape))
            work, spare = spare, work
        else:  # "scale"
            work *= op[1]
    if work is not amps:
        amps[...] = work
    return amps


def _hadamard_norm(h: int) -> float:
    """2**(-h/2), exact for even h."""
    return math.ldexp(_SQRT_HALF if h % 2 else 1.0, -(h // 2))


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply all gates in order; returns a new StateVector."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    if circuit.n_qubits > APPLY_QUBIT_CAP:
        raise CapExceededError(f"apply_circuit capped at {APPLY_QUBIT_CAP} qubits")
    amps = state.amplitudes.astype(np.complex128, copy=True).reshape(-1, 1)
    _apply(_compile(circuit, circuit.n_qubits), amps, np.empty_like(amps))
    return StateVector(circuit.n_qubits, amps.reshape(-1))


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary, built by pushing all basis states through at once."""
    n = circuit.n_qubits
    if n > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"circuit_matrix capped at {MATRIX_QUBIT_CAP} qubits")
    unitary = np.eye(1 << n, dtype=np.complex128)
    return _apply(_compile(circuit, n), unitary, np.empty_like(unitary))


@dataclass
class Propagator:
    """exp(-i H t) from a Hermitian eigendecomposition."""

    time: float
    unitary: np.ndarray


def exact_propagator(hamiltonian: np.ndarray, time: float) -> Propagator:
    """Ground-truth propagator of the dense matrix ``hamiltonian``.

    H is diagonalized one reflection sector at a time: wherever flipping the
    low k bits of both indices leaves H exactly unchanged, each block splits
    into its even and odd halves (``_split``), and U is joined back from the
    blocks' propagators (``_join``). A potential even in each boson gives
    2**bosons blocks; an H with no such symmetry is one block.
    """
    if np.shape(hamiltonian)[0] > 1 << MATRIX_QUBIT_CAP:  # before anything is copied
        raise CapExceededError("exact_propagator capped at dimension 4096")
    h = np.asarray(hamiltonian)
    # a real symmetric H stays real: eigh then runs several times faster
    h = h.astype(np.float64 if np.isrealobj(h) else np.complex128, copy=False)
    if not _hermitian(h):
        raise ValueError("exact_propagator requires a Hermitian matrix")
    splits = _reflections(h)
    blocks = h[None]
    for k in splits:
        blocks = _split(blocks, k)
    evals, evecs = np.linalg.eigh(blocks)
    peak = float(np.abs(evals).max(initial=0.0))
    if not math.isfinite(peak * abs(time)):
        raise OverflowError(f"the exact propagator's phase |E| t = {peak!r} * {abs(time)!r} "
                            f"is not finite")
    # exp(-iEt) = cos(Et) - i sin(Et): for a real H both products stay real,
    # two real matrix products in place of one complex one
    vh, phase = np.swapaxes(evecs.conj(), 1, 2), evals[:, None, :] * time
    u = (evecs * np.cos(phase)) @ vh - 1j * ((evecs * np.sin(phase)) @ vh)
    for k in reversed(splits):
        u = _join(u, k)
    return Propagator(time, u[0])


def _hermitian(h: np.ndarray) -> bool:
    """max |H - H^dagger| <= 1e-12 max(1, max |H|), in one buffer that holds
    |H| first. Past 512 rows H^dagger is read in 64 x 64 tiles: a column read
    whole touches one memory page per entry."""
    gap = np.abs(h, out=np.empty_like(h))
    scale = max(1.0, float(gap.real.max(initial=0.0)))
    dim = len(h)
    tile = dim if 0 < dim <= 512 else 64
    for i in range(0, dim, tile):
        for j in range(0, dim, tile):
            np.conjugate(h[j:j + tile, i:i + tile].T, out=gap[i:i + tile, j:j + tile])
    np.subtract(h, gap, out=gap)
    return not float(np.abs(gap, out=gap).real.max(initial=0.0)) > 1e-12 * scale


def _reflections(h: np.ndarray) -> list[int]:
    """Each k, from n down to 1, for which flipping the low k bits of both
    indices (``i -> i ^ (2**k - 1)``, a reversal of the low axis of a
    ``(2**(n-k), 2**k)`` view) leaves the 2**n x 2**n matrix ``h`` exactly
    equal; none for a dimension that is not a power of two."""
    dim = len(h)
    if dim & (dim - 1):
        return []
    found = []
    for k in range(dim.bit_length() - 1, 0, -1):
        view = h.reshape(dim >> k, 1 << k, dim >> k, 1 << k)
        flipped = view[:, ::-1, :, ::-1]
        # row 0 first: a broken symmetry mostly shows there, at 1/dim of the cost
        if np.array_equal(view[0, 0], flipped[0, 0]) and np.array_equal(view, flipped):
            found.append(k)
    return found


def _split(blocks: np.ndarray, k: int) -> np.ndarray:
    """Blocks invariant under the flip of their low k index bits, to the even
    and odd halves of that flip (Cantoni & Butler, Linear Algebra Appl. 13,
    275 (1976)): ordered by bit k-1 of the index, with J the flip of the low
    k-1 bits, block b is ``[[A, B], [JBJ, JAJ]]``, and A + BJ and A - BJ are
    blocks ``2b`` and ``2b + 1`` of the output."""
    count, dim = blocks.shape[:2]
    high, low = dim >> k, 1 << (k - 1)
    view = blocks.reshape(count, high, 2, low, high, 2, low)
    a, bj = view[:, :, 0, :, :, 0], view[:, :, 0, :, :, 1, ::-1]
    out = np.empty((count, 2, high, low, high, low), dtype=blocks.dtype)
    np.add(a, bj, out=out[:, 0])
    np.subtract(a, bj, out=out[:, 1])
    return out.reshape(2 * count, dim // 2, dim // 2)


def _join(halves: np.ndarray, k: int) -> np.ndarray:
    """The inverse of ``_split`` on functions of the blocks: from U+ and U- of
    each pair, the block ``[[S, DJ], [JD, JSJ]]`` with S = (U+ + U-) / 2 and
    D = (U+ - U-) / 2."""
    count, dim = halves.shape[0] // 2, 2 * halves.shape[1]
    high, low = dim >> k, 1 << (k - 1)
    pair = halves.reshape(count, 2, high, low, high, low)
    out = np.empty((count, high, 2, low, high, 2, low), dtype=halves.dtype)
    top = out[:, :, 0]  # rows with bit k-1 clear: S, then DJ
    np.add(pair[:, 0], pair[:, 1], out=top[:, :, :, :, 0])
    np.subtract(pair[:, 0], pair[:, 1], out=top[:, :, :, :, 1, ::-1])
    top *= 0.5
    out[:, :, 1] = top[:, :, ::-1, :, ::-1, ::-1]  # the other rows are J (top) J
    return out.reshape(count, dim, dim)


def assemble_hamiltonian_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense H: potential diagonal on the coordinate grid plus F^dag K F.

    K is the momentum-grid diagonal of sum_a p_a**2 / 2 and F the centered
    Fourier kernel on all bosons. F is a Kronecker product of one kernel f
    per boson and K a sum of one-boson terms, so F^dag K F is the sum over
    bosons of f^dag (p**2/2) f on that boson's digits, with the identity on
    the others: entry (i, j) of that block is added where the two indices
    differ in boson a's digits only, through a view of H as
    (high, digit, low) x (high, digit, low). Both grids are symmetric about 0
    and p**2 is even, so that kernel is real; its imaginary part is rounding
    and is dropped, which lets ``exact_propagator`` diagonalize in real
    arithmetic. Serves as the reference for Trotter and block-encoding
    verification.
    """
    cfg = spec.config
    if cfg.total_qubits > MATRIX_QUBIT_CAP:
        raise CapExceededError(
            f"assemble_hamiltonian_matrix capped at {MATRIX_QUBIT_CAP} qubits")
    h = np.diag(potential_grid_diagonal(spec))
    f = fourier_kernel(cfg.cutoff)
    local = (f.conj().T @ (momentum_values(cfg)[:, None] ** 2 / 2.0 * f)).real
    for a in range(cfg.bosons):
        high, low = cfg.cutoff ** (cfg.bosons - 1 - a), cfg.cutoff ** a
        hi, lo = np.ogrid[:high, :low]
        h.reshape(high, cfg.cutoff, low, high, cfg.cutoff, low)[hi, :, lo, hi, :, lo] += local
    return h


# Up to this many qubits per boson a QFT layer runs as one matmul per boson, at
# 2**Q multiply-adds per entry; past it (one boson, Q = 7..12, under the matrix
# cap) its gates run on the full register, in about 4Q array passes
WINDOW_QUBIT_CAP = 6
# one pass over the array (a butterfly, a row gather or scaling) costs about as
# much as this many multiply-adds per entry of a window matmul
_PASS_COST = 16


class LayeredStep:
    """One Trotter step as the ops of its layers in step order (``_apply``);
    ``peak_angle`` is the largest |angle| of a diagonal layer's gates."""

    __slots__ = ("n_qubits", "ops", "peak_angle")

    def __init__(self, n_qubits: int, ops: tuple, peak_angle: float):
        self.n_qubits, self.ops, self.peak_angle = n_qubits, ops, peak_angle

    def doubled(self) -> "LayeredStep":
        """The same step at twice the time step: each rotation angle is c * dt,
        and doubling is exact in binary, so every diagonal phase doubles."""
        with np.errstate(over="ignore"):  # refused just below
            ops = tuple(("angles", 2.0 * op[1]) if op[0] == "angles" else op
                        for op in self.ops)
        if not (math.isfinite(2.0 * self.peak_angle) and all(
                np.isfinite(op[1]).all() for op in ops if op[0] == "angles")):
            raise OverflowError(f"the doubled rotation angles (2 * {self.peak_angle!r} "
                                f"at most per gate) are not finite")
        return LayeredStep(self.n_qubits, ops, 2.0 * self.peak_angle)

    def power(self, steps: int) -> np.ndarray:
        """The step's unitary raised to ``steps``: the ops applied ``steps``
        times, or, where that costs more, once and then raised by repeated
        squaring."""
        dim = 1 << self.n_qubits
        unitary = np.eye(dim, dtype=np.complex128)
        spare = np.empty_like(unitary)
        # multiply-adds per entry: a window's size, or one array pass
        per_entry = sum(len(op[2]) if op[0] == "window" else _PASS_COST for op in self.ops)
        steps = int(steps)
        squarings = steps.bit_length() + steps.bit_count() - 2  # matmuls of matrix_power
        if (steps - 1) * per_entry <= squarings * dim:
            for _ in range(steps):
                _apply(self.ops, unitary, spare)
            return unitary
        return np.linalg.matrix_power(_apply(self.ops, unitary, spare), steps)


def layered_step(circuit: Circuit, report: GateCountReport,
                 qubits_per_boson: int) -> LayeredStep:
    """The first step of a Trotter circuit, cut into its layers by the report's
    per-layer gate counts.

    Each diagonal layer is one ``("angles", theta)``, fused over the basis
    index. Each QFT layer is one ``("window", shift, u)`` per boson, u its
    gates on that boson's own qubits (one u for the bosons with equal gates),
    with its zero-qubit PHASE gates folded into a copy for the first window;
    past WINDOW_QUBIT_CAP qubits per boson, or when a gate spans two bosons,
    its gates are compiled for the full register.
    """
    n, q = circuit.n_qubits, qubits_per_boson
    if n > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"layered_step capped at {MATRIX_QUBIT_CAP} qubits")
    ops, peak, offset = [], 0.0, 0
    for name in LAYER_NAMES:
        size = report.layer_total(name) // report.steps
        gates = circuit.gates[offset:offset + size]
        offset += size
        if name in ("potential", "kinetic"):
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                pos, theta = _fused_angles(gates, n)
            if pos is not None:
                raise ValueError(f"the {name} layer permutes basis states")
            if not np.isfinite(theta).all():
                raise OverflowError(f"the {name} layer's phase angles are not finite")
            ops.append(("angles", theta))
            peak = max(peak, max((abs(g.angle) for g in gates if g.angle is not None),
                                 default=0.0))
        else:
            ops += _windows(gates, n, q) or _compile(gates, n)
    return LayeredStep(n, tuple(ops), peak)


def _windows(gates, n: int, q: int) -> list | None:
    """A QFT layer as one ``("window", shift, unitary)`` op per boson, or None
    where it does not split into windows of q <= WINDOW_QUBIT_CAP qubits."""
    if q > WINDOW_QUBIT_CAP:
        return None
    per_boson: dict[int, list] = {}
    const = 0.0
    for gate in gates:
        if not gate.qubits:
            const += gate.angle
            continue
        a = gate.qubits[0] // q
        if any(b // q != a for b in gate.qubits):
            return None
        per_boson.setdefault(a, []).append(gate.shifted(-a * q))
    matrices: dict[tuple, np.ndarray] = {}  # bosons with equal gates share one unitary
    windows = []
    for a, boson_gates in sorted(per_boson.items()):
        key = tuple(boson_gates)
        if key not in matrices:
            matrices[key] = circuit_matrix(Circuit(q, boson_gates))
        windows.append(("window", a * q, matrices[key]))
    _, shift, first = windows[0]
    windows[0] = ("window", shift, first * np.exp(1j * const))  # a copy: first is shared
    return windows


def trotter_error(spec: HamiltonianSpec, total_time: float, steps: int,
                  exact: Propagator | None = None, step: LayeredStep | None = None) -> float:
    """max entrywise |U_trotter - U_exact| for the assembled Hamiltonian.

    U_trotter is one step (dt = total_time / steps), simulated layer by layer,
    raised to ``steps``. ``exact`` is the reference propagator
    exp(-i H total_time); pass it to share one reference between step counts,
    or leave it None to build it here; likewise ``step``, the step's layers.
    """
    n = spec.config.total_qubits
    if n > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"trotter_error capped at {MATRIX_QUBIT_CAP} qubits")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if exact is None:
        exact = exact_propagator(assemble_hamiltonian_matrix(spec), total_time)
    elif exact.time != total_time or exact.unitary.shape != (1 << n, 1 << n):
        raise ValueError(f"reference propagator (time {exact.time}, shape "
                         f"{exact.unitary.shape}) does not match time {total_time} "
                         f"on {n} qubits")
    if step is None:
        step = layered_step(*trotter_evolution(spec, total_time / steps, 1),
                            spec.config.qubits_per_boson)
    elif step.n_qubits != n:
        raise ValueError(f"step on {step.n_qubits} qubits does not match {n} qubits")
    u = step.power(steps)
    return float(np.abs(np.subtract(u, exact.unitary, out=u)).max())
