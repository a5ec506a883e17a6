"""Command-line front end: counting, fitting, Trotter, and block-encoding reports.

Subcommands: table1, count, fit, trotter, blockenc. Exit codes: 0 success,
2 input error, 3 size cap exceeded, 4 verification failure beyond tolerance.
CSV output is deterministic byte-for-byte for identical inputs.
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
from .hamiltonian import (BasisChoice, HamiltonianSpec, expand_potential_zsum,
                          fock_potential, load_hamiltonian_spec, raw_string_count)
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


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(header, rows, json_doc, args) -> None:
    if args.format == "json":
        _emit(json.dumps(json_doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_rows_to_csv(header, rows), args.out)


def _census_cell(census) -> str:
    return ";".join(f"{l}:{census.by_length[l]}" for l in census.lengths())


def _respec_q(spec: HamiltonianSpec, q: int) -> HamiltonianSpec:
    config = dataclasses.replace(spec.config, qubits_per_boson=q)
    return dataclasses.replace(spec, config=config)


# -- subcommands --------------------------------------------------------------------

def cmd_table1(args) -> int:
    """Fock-basis x/p string counts against the Q * 2**(Q-1) formula."""
    params = FockParams()
    header = ["Q", "Lambda", "n_pauli_x", "n_pauli_p", "formula", "match"]
    rows = []
    for q in range(1, args.q_max + 1):
        cutoff = 1 << q
        nx = count_strings(decompose_tensorized(fock_x(cutoff, params), args.tol))
        np_ = count_strings(decompose_tensorized(fock_p(cutoff, params), args.tol))
        formula = q * (1 << (q - 1))
        rows.append([q, cutoff, nx, np_, formula, nx == np_ == formula])
    doc = {"rows": [dict(zip(header, r)) for r in rows]}
    _emit_table(header, rows, doc, args)
    return 0


def cmd_count(args) -> int:
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
            psum = decompose_tensorized(fock_potential(sq), args.tol)
            raw = ""
        else:
            psum = expand_potential_zsum(sq)
            raw = raw_string_count(sq.potential, q)
        census = string_census(psum)
        n_all = count_strings(psum)
        n_nontrivial = n_all - census.by_length.get(0, 0)
        n_pruned = count_strings(psum.prune(args.tol))
        rows.append([q, spec.basis.value, n_all, n_nontrivial, raw, _census_cell(census),
                     n_pruned, psum.dropped_l1(args.tol)])
    doc = {"spec": args.spec,
           "rows": [dict(zip(header, r)) for r in rows]}
    _emit_table(header, rows, doc, args)
    return 0


def cmd_fit(args) -> int:
    """Fit (1/Q) ln N = a + (b + c ln Q)/Q to a Q,n_pauli series CSV."""
    try:
        with open(args.series) as fh:
            series = series_from_csv(fh.read())
    except OSError as exc:
        raise SpecFileError(f"cannot read {args.series}: {exc}") from exc
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc
    result = fit_scaling(series)
    header = ["a", "b", "c", "residual_rms", "var_a", "var_b", "var_c"]
    row = [result.a, result.b, result.c, result.residual_rms, *result.covariance_diag]
    doc = {"a": result.a, "b": result.b, "c": result.c,
           "residual_rms": result.residual_rms,
           "covariance_diag": list(result.covariance_diag),
           "rows_fitted": len(series)}
    _emit_table(header, [row], doc, args)
    return 0


def cmd_trotter(args) -> int:
    """Emit a Trotter-evolution circuit plus its per-layer gate-count report."""
    spec = load_hamiltonian_spec(args.spec)
    circuit, report = trotter_evolution(spec, args.time, args.steps)
    if args.circuit_out:
        write_circuit(circuit, args.circuit_out)
    doc = report.to_dict()
    doc.update({"spec": args.spec, "time": args.time, "total_gates": len(circuit)})
    verify_rows = []
    if args.verify:
        # the errors at N and N/2 steps share the total time, so one reference
        # serves both; looked up on the module so that a wrapper installed on
        # simulate.exact_propagator (perfbench/tracing.py) sees this call
        exact = simulate.exact_propagator(assemble_hamiltonian_matrix(spec), args.time)
        err = trotter_error(spec, args.time, args.steps, exact=exact)
        doc["trotter_error"] = err
        verify_rows.append(["trotter_error", args.steps, err])
        if args.steps % 2 == 0 and args.steps >= 2:
            err_half = trotter_error(spec, args.time, args.steps // 2, exact=exact)
            ratio = err / err_half if err_half > 0 else float("nan")
            doc["trotter_error_half_steps"] = err_half
            doc["halving_ratio"] = ratio
            verify_rows.append(["trotter_error", args.steps // 2, err_half])
            verify_rows.append(["halving_ratio", "", ratio])
        if args.tol is not None and err > args.tol:
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
            raise VerificationError(f"trotter error {err:.3e} exceeds tol {args.tol:.3e}")
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        header = ["section", "name", "value"]
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
        for section, name, value in verify_rows:
            rows.append(["verify", f"{section}:{name}", value])
        _emit(_rows_to_csv(header, rows), args.out)
    return 0


def cmd_blockenc(args) -> int:
    """Report lambda / term counts / ancillas from the plan; --verify builds and checks U."""
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
    if args.verify:
        err = verify_block_encoding(encoding, assemble_hamiltonian_matrix(spec))
        doc["verify_error"] = err
        if err > args.tol:
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
            raise VerificationError(f"block-encoding error {err:.3e} exceeds tol {args.tol:.3e}")
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        rows = [[k, v] for k, v in doc.items()]
        _emit(_rows_to_csv(["name", "value"], rows), args.out)
    return 0


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


def _add_common(p: argparse.ArgumentParser, tol_default, tol_help: str) -> None:
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    _add_common(p, None, "unused; accepted for interface uniformity")
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
        return args.func(args)
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
