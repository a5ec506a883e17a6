"""Checks of every job's output against reference.py, outside the timed region.

`check_outputs` reads the files a round's CLI jobs wrote and needs no qboson
import; it runs in the benchmark's parent process after every round.
`spot_checks` calls the program's functions on a few seed-chosen inputs and
runs in the worker after the first round's jobs.

A `count` row whose string count falls short of the exact support count is
the known fault of the program's internal relative prune: it counts as a
failed operation, not as a wrong result. Anything else that disagrees with
the reference is a problem and makes the run incorrect.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import os
import random

import numpy as np

import reference
import workloads as wl

FIT_TOL = 1e-8
MATRIX_TOL = 1e-9
HALVING_RANGE = (0.4, 0.6)
LCU_TOL = 1e-10
SPOT_MAX_QUBITS = 16


class Outcome:
    """Failed operations (the known prune fault) and problems (anything else)."""

    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _census_cell(census: dict[int, int]) -> str:
    return ";".join(f"{length}:{census[length]}" for length in sorted(census))


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _exponents(spec: str) -> list[list[int]]:
    return [expo for _, expo in wl.SPECS[spec][2]]


@functools.lru_cache(maxsize=None)
def _fock_decomposition(q: int) -> tuple[dict[tuple[int, int], complex], float]:
    """Every Pauli coefficient of the Fock potential, and its ||M||_F**2."""
    powers = {expo[0]: c for c, expo in wl.SPECS["fock_quartic"][2]}
    m = reference.fock_potential_matrix(powers, 1 << q)
    return reference.pauli_coefficients(m), float(np.sum(np.abs(m.data) ** 2))


def fock_reference(q: int) -> dict[tuple[int, int], complex]:
    return reference.pruned(_fock_decomposition(q)[0])


# -- output checks, per workload ------------------------------------------------------

def _check_fock_count(workdir: str, out: Outcome) -> None:
    rows = _read_csv(os.path.join(workdir, "table1.csv"))
    out.expect([int(r["Q"]) for r in rows] == list(range(1, wl.TABLE1_Q_MAX + 1)),
               "table1: wrong Q rows")
    for r in rows:
        q = int(r["Q"])
        formula = q * 2 ** (q - 1)
        out.expect(int(r["Lambda"]) == 2 ** q and int(r["n_pauli_x"]) == formula
                   and int(r["n_pauli_p"]) == formula and int(r["formula"]) == formula
                   and r["match"] == "True", f"table1 Q={q}: {r} != Q*2^(Q-1) = {formula}")
    for q in wl.FOCK_ROWS:
        rows = _read_csv(os.path.join(workdir, f"fock_count_q{q}.csv"))
        out.expect([int(r["Q"]) for r in rows] == [q], f"fock count Q={q}: wrong Q rows")
        r = rows[0]
        ref = fock_reference(q)
        census = reference.census(ref)
        out.expect(int(r["n_pauli"]) == len(ref) and r["census"] == _census_cell(census)
                   and int(r["n_nontrivial"]) == len(ref) - census.get(0, 0)
                   and r["basis"] == "fock" and r["raw_strings"] == "",
                   f"fock count Q={q}: {r} != reference {len(ref)} {_census_cell(census)}")


def _check_count_rows(spec: str, rows: list[dict], out: Outcome) -> None:
    lo, hi = wl.COORD_SWEEPS[spec]
    out.expect([int(r["Q"]) for r in rows] == list(range(lo, hi + 1)), f"{spec}: wrong Q rows")
    for r in rows:
        q = int(r["Q"])
        exact = reference.zsum_support_census(_exponents(spec), q)
        n_exact = sum(exact.values())
        n = int(r["n_pauli"])
        reported = {int(length): int(k) for length, k in
                    (cell.split(":") for cell in r["census"].split(";"))}
        raw = sum(q ** sum(expo) for expo in _exponents(spec))
        shape_ok = (r["basis"] == "coordinate-qft" and int(r["raw_strings"]) == raw
                    and int(r["n_nontrivial"]) == n - reported.get(0, 0)
                    and sum(reported.values()) == n)
        if n < n_exact and shape_ok and all(k <= exact.get(length, 0)
                                            for length, k in reported.items()):
            out.failed += 1  # strings lost to the internal relative prune
            continue
        out.expect(shape_ok and n == n_exact and reported == exact,
                   f"{spec} count Q={q}: {r} != exact {n_exact} {_census_cell(exact)}")


def _check_fit(path: str, qs, counts, out: Outcome, exact: tuple | None = None) -> None:
    doc = _read_json(path)
    a, b, c, rms = reference.scaling_fit(qs, counts)
    ok = (doc["rows_fitted"] == len(qs) and _close(doc["a"], a, FIT_TOL)
          and _close(doc["b"], b, FIT_TOL) and _close(doc["c"], c, FIT_TOL)
          and abs(doc["residual_rms"] - rms) <= FIT_TOL)
    if exact is not None:
        ok = ok and all(_close(doc[k], v, FIT_TOL) for k, v in zip("abc", exact))
    out.expect(ok, f"{os.path.basename(path)}: {doc} != reference ({a}, {b}, {c}, {rms})")


def _check_coord_count(workdir: str, out: Outcome) -> None:
    for spec in wl.COORD_SWEEPS:
        rows = _read_csv(os.path.join(workdir, f"{spec}_count.csv"))
        _check_count_rows(spec, rows, out)
        _check_fit(os.path.join(workdir, f"{spec}_fit.json"),
                   [int(r["Q"]) for r in rows], [int(r["n_pauli"]) for r in rows], out)
    qs = list(wl.EXACT_SERIES_Q)
    _check_fit(os.path.join(workdir, "exact_fit.json"), qs, [q * 2 ** (q - 1) for q in qs],
               out, exact=(math.log(2), -math.log(2), 1.0))


def _qft_counts(qubits: int) -> dict[str, int]:
    """Gates of one centred QFT on one boson's register."""
    counts = {"H": qubits, "CPHASE": qubits * (qubits - 1) // 2,
              "DIAGPHASE": 2 * qubits, "PHASE": 1}
    if qubits // 2:
        counts["SWAP"] = qubits // 2
    return counts


def _check_trotter(workdir: str, out: Outcome) -> None:
    t = wl.TROTTER
    bosons, q, steps = wl.SPECS[t["spec"]][0], t["q"], t["steps"]
    doc = _read_json(os.path.join(workdir, "trotter.json"))
    exact = reference.zsum_support_census(_exponents(t["spec"]), q)
    qft = {k: v * bosons * steps for k, v in _qft_counts(q).items()}
    pairs = bosons * q * (q - 1) // 2
    kinetic = {"CNOT": 2 * pairs * steps, "RZ": pairs * steps, "PHASE": steps}
    potential = {"CNOT": steps * sum(2 * (length - 1) * k for length, k in exact.items() if length),
                 "RZ": steps * sum(k for length, k in exact.items() if length),
                 "PHASE": steps * exact.get(0, 0)}
    expected_layers = {"potential": potential, "qft": qft, "kinetic": kinetic,
                       "inverse_qft": qft}
    out.expect(doc["layers"] == expected_layers,
               f"trotter layers {doc['layers']} != closed forms {expected_layers}")
    out.expect(doc["potential_strings"] == {
        "merged": sum(exact.values()),
        "raw": sum(q ** sum(expo) for expo in _exponents(t["spec"]))},
        f"trotter potential strings {doc['potential_strings']}")
    total = sum(sum(layer.values()) for layer in expected_layers.values())
    out.expect(doc["steps"] == steps and doc["total_gates"] == total
               and doc["totals"]["total"] == total, f"trotter totals {doc['totals']} != {total}")
    ratio = doc.get("halving_ratio", float("nan"))
    out.expect(HALVING_RANGE[0] <= ratio <= HALVING_RANGE[1]
               and 0 < doc["trotter_error"] < doc["trotter_error_half_steps"],
               f"trotter halving ratio {ratio} outside {HALVING_RANGE}")
    with open(os.path.join(workdir, "trotter.circ")) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    out.expect(lines[0] == f"# circuit n_qubits={bosons * q}" and len(lines) == total + 1,
               f"trotter circuit file: header {lines[0]!r}, {len(lines) - 1} gates != {total}")


@functools.lru_cache(maxsize=None)
def _lcu_reference(spec: str, q: int) -> dict:
    bosons, _, terms = wl.SPECS[spec]
    pot = reference.diagonal_zcoefficients(reference.potential_diagonal(terms, q, wl.RADIUS))
    kin = reference.diagonal_zcoefficients(reference.kinetic_diagonal(bosons, q, wl.RADIUS))
    n_pot = sum(reference.zsum_support_census(_exponents(spec), q).values())
    n_kin = 1 + bosons * q * (q - 1) // 2
    return {"lambda": float(np.abs(pot).sum() + np.abs(kin).sum()),
            "terms_potential": n_pot, "terms_kinetic": n_kin, "n_terms": n_pot + n_kin,
            "ancilla_count": (n_pot + n_kin - 1).bit_length(), "system_qubits": bosons * q}


def _check_lcu(workdir: str, out: Outcome) -> None:
    for spec, q in wl.LCU_INSTANCES:
        doc = _read_json(os.path.join(workdir, f"lcu_{spec}_q{q}.json"))
        ref = _lcu_reference(spec, q)
        ok = (doc["verify_error"] <= LCU_TOL and _close(doc["lambda"], ref["lambda"], 1e-9)
              and all(doc[k] == ref[k] for k in ref if k != "lambda"))
        out.expect(ok, f"blockenc {spec} Q={q}: {doc} != reference {ref}")


OUTPUT_CHECKS = {"fock_count": _check_fock_count, "coord_count": _check_coord_count,
                 "trotter_verify": _check_trotter, "lcu_verify": _check_lcu}


def check_outputs(workload: str, workdir: str) -> Outcome:
    out = Outcome()
    for group in wl.WORKLOADS[workload]:
        try:
            OUTPUT_CHECKS[group](workdir, out)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            out.problems.append(f"{group}: unreadable output: {exc!r}")
    return out


def check_reference(workload: str) -> list[str]:
    """Build the references the output checks use, and self-check them.

    For the Fock counts that is Parseval, ||M||_F**2 = 2**n sum |c|**2.
    """
    problems = []
    if "fock_count" in wl.WORKLOADS[workload]:
        for q in wl.FOCK_ROWS:
            coeffs, frob = _fock_decomposition(q)
            mass = (1 << q) * sum(abs(v) ** 2 for v in coeffs.values())
            if not _close(mass, frob, 1e-9):
                problems.append(f"reference Parseval fails at Q={q}: {mass} != {frob}")
    return problems


# -- program spot checks (run in the worker; they import qboson) ---------------------------

def _spec(name: str, q: int):
    from qboson import hamiltonian_spec_from_dict
    return hamiltonian_spec_from_dict(wl.spec_doc(name, q))


def _same_coefficients(program: dict, ref: dict, label: str, out: Outcome) -> None:
    scale = max(abs(v) for v in ref.values())
    worst = max(abs(program.get(k, 0) - ref.get(k, 0)) for k in set(program) | set(ref))
    out.expect(set(program) == set(ref) and worst <= MATRIX_TOL * scale,
               f"{label}: {len(program)} strings vs reference {len(ref)}, max diff {worst:.3e}")


def _random_state(rng: random.Random, dim: int) -> np.ndarray:
    gen = np.random.default_rng(rng.getrandbits(64))
    psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _hamiltonian_ok(name: str, q: int, out: Outcome) -> np.ndarray:
    from qboson import assemble_hamiltonian_matrix
    bosons, _, terms = wl.SPECS[name]
    ref = reference.hamiltonian_fft(terms, bosons, q, wl.RADIUS)
    diff = float(np.abs(assemble_hamiltonian_matrix(_spec(name, q)) - ref).max())
    out.expect(diff <= MATRIX_TOL * np.abs(ref).max(),
               f"assemble_hamiltonian_matrix {name} Q={q}: differs from FFT-built H by {diff:.3e}")
    return ref


def spot_checks(workload: str, workdir: str, seed: int) -> list[str]:
    """Seed-chosen checks of program internals against the references."""
    from qboson import (FockParams, StateVector, apply_circuit, block_encode,
                        decompose_tensorized, expand_potential_zsum, fock_p, fock_potential,
                        fock_x, read_circuit)
    rng = random.Random(seed)
    out = Outcome()
    groups = wl.WORKLOADS[workload]
    if "fock_count" in groups:
        q = rng.randint(2, 10)
        program = decompose_tensorized(fock_potential(_spec("fock_quartic", q)))
        _same_coefficients({(t.x_mask, t.z_mask): t.coefficient for t in program},
                           fock_reference(q), f"fock potential Q={q}", out)
        q = rng.randint(2, 10)
        for label, op, matrix in (("x", fock_x, reference.fock_x_matrix),
                                  ("p", fock_p, reference.fock_p_matrix)):
            program = decompose_tensorized(op(1 << q, FockParams()))
            ref = reference.pruned(reference.pauli_coefficients(matrix(1 << q)))
            _same_coefficients({(t.x_mask, t.z_mask): t.coefficient for t in program}, ref,
                               f"fock {label} Q={q}", out)
    if "coord_count" in groups:
        choices = [(name, q) for name, (lo, hi) in wl.COORD_SWEEPS.items()
                   for q in range(lo, hi + 1) if wl.SPECS[name][0] * q <= SPOT_MAX_QUBITS]
        name, q = rng.choice(choices)
        bosons, _, terms = wl.SPECS[name]
        ref = reference.diagonal_zcoefficients(reference.potential_diagonal(terms, q, wl.RADIUS))
        program = {t.z_mask: t.coefficient for t in expand_potential_zsum(_spec(name, q))}
        scale = np.abs(ref).max()
        worst = max(abs(c - ref[z]) for z, c in program.items())
        dropped = np.abs(np.delete(ref, list(program))).max(initial=0.0)
        out.expect(worst <= MATRIX_TOL * scale and dropped <= 2 * reference.PRUNE_REL_TOL * scale,
                   f"expand {name} Q={q}: max diff {worst:.3e}, largest dropped {dropped:.3e}")
    if "trotter_verify" in groups:
        t = wl.TROTTER
        bosons, _, terms = wl.SPECS[t["spec"]]
        _hamiltonian_ok(t["spec"], t["q"], out)
        psi = _random_state(rng, 1 << (bosons * t["q"]))
        circuit = read_circuit(os.path.join(workdir, "trotter.circ"))
        program = apply_circuit(circuit, StateVector(circuit.n_qubits, psi)).amplitudes
        ref = reference.trotter_state(terms, bosons, t["q"], wl.RADIUS, t["time"],
                                      t["steps"], psi)
        diff = float(np.abs(program - ref).max())
        out.expect(diff <= MATRIX_TOL, f"trotter circuit on a random state: diff {diff:.3e}")
    if "lcu_verify" in groups:
        refs = {inst: _hamiltonian_ok(*inst, out) for inst in wl.LCU_INSTANCES}
        name, q = rng.choice(wl.LCU_INSTANCES)
        encoding = block_encode(_spec(name, q))
        dim = 1 << encoding.n_system_qubits
        g = encoding.g_state
        psi = _random_state(rng, dim)
        branches = (encoding.select.to_csr() @ np.kron(g, psi)).reshape(g.size, dim)
        diff = float(np.abs(np.conj(g) @ branches
                            - refs[(name, q)] @ psi / encoding.plan.lam).max())
        out.expect(diff <= LCU_TOL, f"block encoding {name} Q={q} on a random state: {diff:.3e}")
    return out.problems
