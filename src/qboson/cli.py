"""Command-line front end: counting, fitting, Trotter, and block-encoding reports.

Subcommands: table1, count, fit, trotter, blockenc. Exit codes: 0 success,
2 input error, 3 size cap exceeded, 4 verification failure beyond tolerance.
``main`` writes each report once, in --format, an exit-4 report included. CSV
output is deterministic byte-for-byte for identical inputs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys

from .blockenc import (KINETIC, POTENTIAL, block_encode, plan_from_spec,
                       verify_block_encoding)
from .circuits import trotter_evolution, write_circuit
from .decompose import decompose_tensorized
from .errors import CapExceededError, SpecFileError, VerificationError
from .hamiltonian import (EXPANSION_STRING_CAP, BasisChoice, HamiltonianSpec,
                          expand_potential_zsum, fock_potential, load_hamiltonian_spec,
                          raw_string_count)
from .operators import FockParams, fock_p, fock_x
from .pauli import RELATIVE_PRUNE_TOL, count_strings, string_census
from .scaling import fit_scaling, series_from_csv
from . import simulate
from .simulate import assemble_hamiltonian_matrix, trotter_error

TABLE1_MAX_Q = 14


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write(args, doc, header, rows) -> None:
    """The one report writer: ``doc`` as JSON, or ``header`` and ``rows`` as CSV."""
    buf = io.StringIO()
    if args.format == "json":
        buf.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _census_cell(census) -> str:
    return ";".join(f"{l}:{census.by_length[l]}" for l in census.lengths())


def _respec_q(spec: HamiltonianSpec, q: int) -> HamiltonianSpec:
    config = dataclasses.replace(spec.config, qubits_per_boson=q)
    return dataclasses.replace(spec, config=config)


# -- subcommands --------------------------------------------------------------------
# Each returns (doc, header, rows, failure): the JSON document, the CSV table, and
# None or the message of a verification failure. `main` writes the report.

def cmd_table1(args):
    """Fock-basis x/p string counts against the Q * 2**(Q-1) formula."""
    params, q_max = FockParams(), args.q_max
    # x and p have Q XOR diagonals of 2**Q entries each, so the decompositions may keep
    # Q 2**Q sums: refused before the first row (the shift is clamped, so that a huge
    # --q-max forms no huge integer)
    if q_max << min(q_max, 64) > EXPANSION_STRING_CAP:
        raise CapExceededError(f"table1 --q-max {q_max}: the decompositions of x and p may "
                               f"keep {q_max} * 2**{q_max} sums, capped at "
                               f"{EXPANSION_STRING_CAP}")
    header = ["Q", "Lambda", "n_pauli_x", "n_pauli_p", "formula", "match"]
    rows = []
    for q in range(1, q_max + 1):
        cutoff = 1 << q
        nx = count_strings(decompose_tensorized(fock_x(cutoff, params), args.tol))
        np_ = count_strings(decompose_tensorized(fock_p(cutoff, params), args.tol))
        formula = q * (1 << (q - 1))
        rows.append([q, cutoff, nx, np_, formula, nx == np_ == formula])
    return {"rows": [dict(zip(header, r)) for r in rows]}, header, rows, None


def cmd_count(args):
    """Per-Q Pauli-string counts of the potential term in the spec's basis.

    On the coordinate route n_pauli and the census count the exact support;
    n_pruned counts what a relative prune at --tol keeps, and dropped_l1 sums
    the magnitudes it drops. The Fock route counts at --tol throughout.
    """
    spec = load_hamiltonian_spec(args.spec)
    q_lo = spec.config.qubits_per_boson if args.q_min is None else args.q_min
    q_hi = q_lo if args.q_max is None else args.q_max
    if q_hi < q_lo:
        raise SpecFileError(f"bad Q range [{q_lo}, {q_hi}]")
    header = ["Q", "basis", "n_pauli", "n_nontrivial", "raw_strings", "census",
              "n_pruned", "dropped_l1"]
    rows = []
    for q in range(q_lo, q_hi + 1):
        sq = _respec_q(spec, q)
        if spec.basis is BasisChoice.FOCK:
            census = string_census(decompose_tensorized(fock_potential(sq), args.tol))
            # the butterfly pruned at --tol against the same peak: nothing is left to drop
            raw, n_pruned, dropped = "", census.total, 0.0
        else:
            psum = expand_potential_zsum(sq)
            census = string_census(psum)
            raw = raw_string_count(sq.potential, q)
            n_pruned, dropped = count_strings(psum.prune(args.tol)), psum.dropped_l1(args.tol)
        rows.append([q, spec.basis.value, census.total,
                     census.total - census.by_length.get(0, 0), raw, _census_cell(census),
                     n_pruned, dropped])
    return {"spec": args.spec, "rows": [dict(zip(header, r)) for r in rows]}, header, rows, None


def cmd_fit(args):
    """Fit (1/Q) ln N = a + (b + c ln Q)/Q to a Q,n_pauli series CSV."""
    try:
        with open(args.series) as fh:
            series = series_from_csv(fh.read())
        result = fit_scaling(series)
    except OSError as exc:
        raise SpecFileError(f"cannot read {args.series}: {exc}") from exc
    except ValueError as exc:  # the series, its CSV or its text encoding
        raise SpecFileError(f"{args.series}: {exc}") from exc
    header = ["a", "b", "c", "residual_rms", "var_a", "var_b", "var_c"]
    row = [result.a, result.b, result.c, result.residual_rms, *result.covariance_diag]
    doc = {"a": result.a, "b": result.b, "c": result.c,
           "residual_rms": result.residual_rms,
           "covariance_diag": list(result.covariance_diag),
           "rows_fitted": len(series)}
    return doc, header, [row], None


def cmd_trotter(args):
    """A Trotter-evolution circuit plus its per-layer gate-count report.

    --verify simulates the report's first step layer by layer; the N/2-step
    error uses the same step with its rotation angles doubled.
    """
    spec = load_hamiltonian_spec(args.spec)
    try:
        circuit, report = trotter_evolution(spec, args.time, args.steps)
        step = half = exact = None
        if args.verify:
            n = spec.config.total_qubits
            if n > simulate.MATRIX_QUBIT_CAP:
                raise CapExceededError(f"--verify of {args.spec} is capped at "
                                       f"{simulate.MATRIX_QUBIT_CAP} qubits, got {n}")
            step = simulate.layered_step(circuit, report, spec.config.qubits_per_boson)
            half = step.doubled() if args.steps % 2 == 0 else None
            # the errors at N and N/2 steps share the total time, so one reference
            # serves both; looked up on the module so that a wrapper installed on
            # simulate.exact_propagator (perfbench/tracing.py) sees this call
            exact = simulate.exact_propagator(assemble_hamiltonian_matrix(spec), args.time)
    except OverflowError as exc:
        raise SpecFileError(f"--time {args.time!r} over --steps {args.steps} overflows a "
                            f"phase of {args.spec}: {exc}") from None
    if args.circuit_out:
        write_circuit(circuit, args.circuit_out)
    doc = report.to_dict()
    doc.update({"spec": args.spec, "time": args.time, "total_gates": len(circuit)})
    rows = [["totals", "steps", report.steps],
            ["totals", "rotations", report.rotations],
            ["totals", "entangling", report.entangling],
            ["totals", "hadamards", report.hadamards],
            ["totals", "total", report.total],
            ["strings", "potential_merged", report.potential_strings_merged],
            ["strings", "potential_raw", report.potential_strings_raw]]
    for layer, counter in report.layers.items():
        for kind in sorted(counter):
            rows.append([f"layer:{layer}", kind, counter[kind]])
    failure = None
    if args.verify:
        err = trotter_error(spec, args.time, args.steps, exact=exact, step=step)
        doc["trotter_error"] = err
        rows.append(["verify", f"trotter_error:{args.steps}", err])
        if half is not None:
            err_half = trotter_error(spec, args.time, args.steps // 2, exact=exact, step=half)
            ratio = err / err_half if err_half > 0 else float("nan")
            doc["trotter_error_half_steps"] = err_half
            doc["halving_ratio"] = ratio
            rows.append(["verify", f"trotter_error:{args.steps // 2}", err_half])
            rows.append(["verify", "halving_ratio:", ratio])
        if args.tol is not None and not err <= args.tol:  # a NaN error fails too
            failure = f"trotter error {err:.3e} exceeds tol {args.tol:.3e}"
    return doc, ["section", "name", "value"], rows, failure


def cmd_blockenc(args):
    """Report lambda / term counts / ancillas from the plan; --verify checks the
    encoded block, summed from the plan's branches, against H / lambda."""
    spec = load_hamiltonian_spec(args.spec)
    encoding = block_encode(spec) if args.verify else None  # only verify is capped
    plan = encoding.plan if encoding else plan_from_spec(spec)
    doc = {
        "spec": args.spec,
        "lambda": plan.lam,
        "n_terms": plan.n_terms,
        "ancilla_count": plan.ancilla_count,
        "system_qubits": plan.n_system_qubits,
        "terms_potential": plan.n_potential,
        "terms_kinetic": plan.n_kinetic,
        # select cost is dominated by the potential branch count
        "dominant_subspace": POTENTIAL if plan.n_potential >= plan.n_kinetic else KINETIC,
    }
    failure = None
    if args.verify:
        err = verify_block_encoding(encoding, assemble_hamiltonian_matrix(spec))
        doc["verify_error"] = err
        if not err <= args.tol:  # a NaN error fails too
            failure = f"block-encoding error {err:.3e} exceeds tol {args.tol:.3e}"
    return doc, ["name", "value"], [[k, v] for k, v in doc.items()], failure


# -- parser ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    value = float(text)
    if abs(value) < float("inf"):  # false for nan
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _tolerance(text: str) -> float:
    value = float(text)
    if 0 <= value < float("inf"):  # false for nan
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")


def _positive_int(text: str) -> int:
    if int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _add_common(p: argparse.ArgumentParser, tol_default=None, tol_help: str = "") -> None:
    """--out and --format; --tol too where ``tol_help`` says what it does."""
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if tol_help:
        p.add_argument("--tol", type=_tolerance, default=tol_default, help=tol_help)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qboson",
        description="Pauli-string counting, Trotter circuits, and block encodings "
                    "for truncated bosonic Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Fock-basis x/p string counts vs Q*2^(Q-1)")
    p.add_argument("--q-max", type=_positive_int, default=TABLE1_MAX_Q,
                   help=f"largest Q (default {TABLE1_MAX_Q})")
    _add_common(p, RELATIVE_PRUNE_TOL, "relative pruning tolerance for coefficients")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("count", help="per-Q Pauli-string counts for a Hamiltonian spec")
    p.add_argument("spec", help="Hamiltonian spec file (JSON)")
    p.add_argument("--q-min", type=_positive_int, help="sweep start (default: spec's Q)")
    p.add_argument("--q-max", type=_positive_int, help="sweep end (default: q-min)")
    _add_common(p, RELATIVE_PRUNE_TOL, "relative pruning tolerance for coefficients")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("fit", help="fit the scaling ansatz to a Q,n_pauli CSV")
    p.add_argument("series", help="CSV with columns Q and n_pauli")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("trotter", help="emit a Trotter circuit and gate-count report")
    p.add_argument("spec", help="Hamiltonian spec file (JSON)")
    p.add_argument("--time", type=_finite, required=True, help="total evolution time")
    p.add_argument("--steps", type=_positive_int, required=True, help="number of Trotter steps")
    p.add_argument("--circuit-out", metavar="PATH", help="write the circuit text here")
    p.add_argument("--verify", action="store_true",
                   help="simulate against the exact propagator and print halving ratios")
    _add_common(p, None, "with --verify: fail (exit 4) when the error exceeds this")
    p.set_defaults(func=cmd_trotter)

    p = sub.add_parser("blockenc", help="LCU block-encoding report")
    p.add_argument("spec", help="Hamiltonian spec file (JSON)")
    p.add_argument("--verify", action="store_true",
                   help="check (<G|(x)I) U (|G>(x)I) = H/lambda numerically")
    _add_common(p, 1e-10, "with --verify: fail (exit 4) beyond this error")
    p.set_defaults(func=cmd_blockenc)
    # argparse takes "-1" and "-.5" for values but "-1e-12" or "-inf" for unknown options
    number = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = number
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, header, rows, failure = args.func(args)
        _write(args, doc, header, rows)
        if failure:
            raise VerificationError(failure)
        return 0
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
