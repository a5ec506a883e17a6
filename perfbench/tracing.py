"""Spans around the program's public functions, recorded from outside.

`install` replaces the functions each CLI job reaches through the module
attributes of `qboson.cli`, `qboson.simulate`, `qboson.blockenc` and
`qboson.circuits` (and two methods on their classes) with wrappers that open
a span. Spans are kept in memory and handed to run.py, which writes them as
JSON lines when the run ends; `layer_metrics` turns them into the per-layer
metrics. Counts are taken after a span closes, so their cost lands in the
parent span and in the tracing overhead, not in the span they describe.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

import reference
import workloads


class Tracer:
    """In-memory span recorder: name, start, end, parent, and attributes (counts)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.artifacts: dict = {}
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self._restore: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self._origin, "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counter is not None:
                record["attrs"].update(counter(self, args, result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- counters: (tracer, call args, result) -> counts ------------------------------

def _expand_counts(tracer, args, result):
    spec = args[0]
    q = spec.config.qubits_per_boson
    exponents = [[t.exponents.get(a, 0) for a in range(spec.config.bosons)]
                 for t in spec.potential.terms]
    exact = sum(reference.zsum_support_census(exponents, q).values())
    return {"raw_strings": sum(q ** t.degree for t in spec.potential.terms),
            "merged_strings": len(result), "missing_strings": exact - len(result)}


def _decompose_counts(tracer, args, result):
    return {"input_nnz": args[0].nnz, "strings_out": len(result)}


def _census_counts(tracer, args, result):
    return {"strings_censused": result.total}


def _build_counts(tracer, args, result):
    circuit, report = result
    tracer.artifacts.setdefault("trotter", (circuit, report))
    counts = {"trotter_builds": 1}
    for layer in report.layers:
        counts[f"gates.{layer}"] = report.layer_total(layer)
    return counts


def _matrix_counts(tracer, args, result):
    return {"gates_applied": len(args[0])}


def _assemble_counts(tracer, args, result):
    return {"reference_builds": 1}


def _select_counts(tracer, args, result):
    return {"select_nnz": result.nnz}


def _block_counts(tracer, args, result):
    encoding = args[0]
    dim = 1 << encoding.n_system_qubits
    used = np.flatnonzero(encoding.g_state)
    select = encoding.select
    blocks = np.unique((select.rows // dim) * encoding.g_state.size + select.cols // dim)
    a, b = np.divmod(blocks, encoding.g_state.size)
    filled = np.isin(a, used) & np.isin(b, used)
    return {"block_pairs": used.size ** 2, "nonzero_blocks": int(filled.sum())}


def install(tracer: Tracer) -> None:
    """Wrap every public function a CLI job reaches, by layer."""
    import qboson.blockenc as blockenc
    import qboson.circuits as circuits
    import qboson.cli as cli
    import qboson.pauli as pauli
    import qboson.simulate as simulate

    wraps = [
        (cli, "fock_x", "operators.fock_ops", None),
        (cli, "fock_p", "operators.fock_ops", None),
        (blockenc, "fourier_kernel_multi", "operators.fourier_kernel", None),
        (simulate, "fourier_kernel_multi", "operators.fourier_kernel", None),
        (cli, "load_hamiltonian_spec", "hamiltonian.load_spec", None),
        (cli, "fock_potential", "hamiltonian.fock_potential", None),
        (cli, "expand_potential_zsum", "hamiltonian.expand", _expand_counts),
        (blockenc, "expand_potential_zsum", "hamiltonian.expand", _expand_counts),
        (circuits, "expand_potential_zsum", "hamiltonian.expand", _expand_counts),
        (blockenc, "kinetic_zsum", "hamiltonian.kinetic_zsum", None),
        (circuits, "kinetic_zsum", "hamiltonian.kinetic_zsum", None),
        (cli, "decompose_tensorized", "decompose.tensorized", _decompose_counts),
        (cli, "count_strings", "pauli.count", None),
        (cli, "string_census", "pauli.census", _census_counts),
        (pauli.PauliSum, "prune", "pauli.prune", None),
        (cli, "fit_scaling", "scaling.fit", None),
        (cli, "trotter_evolution", "circuits.trotter_build", _build_counts),
        (simulate, "trotter_evolution", "circuits.trotter_build", _build_counts),
        (cli, "trotter_error", "simulate.trotter_error", None),
        (simulate, "circuit_matrix", "simulate.circuit_matrix", _matrix_counts),
        (simulate, "assemble_hamiltonian_matrix", "simulate.assemble", _assemble_counts),
        (cli, "assemble_hamiltonian_matrix", "simulate.assemble", _assemble_counts),
        (simulate, "exact_propagator", "simulate.propagator", None),
        (cli, "block_encode", "blockenc.block_encode", None),
        (blockenc, "plan_from_spec", "blockenc.plan", None),
        (blockenc, "prepare_G", "blockenc.prepare", None),
        (blockenc, "build_select", "blockenc.select", _select_counts),
        (blockenc.BlockEncoding, "encoded_block", "blockenc.encoded_block", _block_counts),
        (cli, "verify_block_encoding", "blockenc.verify", None),
    ]
    for owner, attr, name, counter in wraps:
        tracer.wrap(owner, attr, name, counter)


def time_trotter_layers(tracer: Tracer) -> None:
    """Time circuit_matrix on each layer of one step of the traced Trotter circuit.

    The step is the first 1/steps of the circuit; its layers are cut in
    LAYER_NAMES order using the report's per-layer gate counts.
    """
    if "trotter" not in tracer.artifacts:
        return
    from qboson.circuits import LAYER_NAMES, Circuit
    from qboson.simulate import circuit_matrix

    circuit, report = tracer.artifacts["trotter"]
    offset = 0
    for layer in LAYER_NAMES:
        if layer not in report.layers:
            continue
        size = report.layer_total(layer) // report.steps
        part = Circuit(circuit.n_qubits, circuit.gates[offset:offset + size])
        offset += size
        with tracer.span(f"simulate.layer.{layer}", gates=size):
            circuit_matrix(part)


# -- per-layer metrics ----------------------------------------------------------------

LAYER_SECONDS = {
    # metric -> span name whose self time it sums
    "operators.fock_ops_s": "operators.fock_ops",
    "operators.fourier_kernel_s": "operators.fourier_kernel",
    "hamiltonian.load_spec_s": "hamiltonian.load_spec",
    "hamiltonian.fock_potential_s": "hamiltonian.fock_potential",
    "hamiltonian.expand_s": "hamiltonian.expand",
    "hamiltonian.kinetic_zsum_s": "hamiltonian.kinetic_zsum",
    "decompose.tensorized_s": "decompose.tensorized",
    "pauli.count_s": "pauli.count",
    "pauli.census_s": "pauli.census",
    "pauli.prune_s": "pauli.prune",
    "scaling.fit_s": "scaling.fit",
    "circuits.trotter_build_s": "circuits.trotter_build",
    "simulate.circuit_matrix_s": "simulate.circuit_matrix",
    "simulate.layer_s.potential": "simulate.layer.potential",
    "simulate.layer_s.qft": "simulate.layer.qft",
    "simulate.layer_s.kinetic": "simulate.layer.kinetic",
    "simulate.layer_s.inverse_qft": "simulate.layer.inverse_qft",
    "simulate.assemble_s": "simulate.assemble",
    "simulate.propagator_s": "simulate.propagator",
    "blockenc.plan_s": "blockenc.plan",
    "blockenc.prepare_s": "blockenc.prepare",
    "blockenc.select_s": "blockenc.select",
    "blockenc.encoded_block_s": "blockenc.encoded_block",
    "cli.self_s": "cli.job",
}

LAYER_COUNTS = {
    # metric -> (span name, count key) summed over spans
    "hamiltonian.raw_strings": ("hamiltonian.expand", "raw_strings"),
    "hamiltonian.merged_strings": ("hamiltonian.expand", "merged_strings"),
    "hamiltonian.missing_strings": ("hamiltonian.expand", "missing_strings"),
    "decompose.input_nnz": ("decompose.tensorized", "input_nnz"),
    "decompose.strings_out": ("decompose.tensorized", "strings_out"),
    "pauli.strings_censused": ("pauli.census", "strings_censused"),
    "circuits.trotter_builds": ("circuits.trotter_build", "trotter_builds"),
    "circuits.gates.potential": ("circuits.trotter_build", "gates.potential"),
    "circuits.gates.qft": ("circuits.trotter_build", "gates.qft"),
    "circuits.gates.kinetic": ("circuits.trotter_build", "gates.kinetic"),
    "circuits.gates.inverse_qft": ("circuits.trotter_build", "gates.inverse_qft"),
    "simulate.gates_applied": ("simulate.circuit_matrix", "gates_applied"),
    "simulate.reference_builds": ("simulate.assemble", "reference_builds"),
    "blockenc.select_nnz": ("blockenc.select", "select_nnz"),
    "blockenc.block_pairs": ("blockenc.encoded_block", "block_pairs"),
    "blockenc.nonzero_blocks": ("blockenc.encoded_block", "nonzero_blocks"),
}

# metric -> (numerator metric, denominator metric, unit); run.py forms these
# from the run's per-layer values
LAYER_RATIOS = {
    "decompose.strings_per_s": ("decompose.strings_out", "decompose.tensorized_s", "1/s"),
    "simulate.gates_per_s": ("simulate.gates_applied", "simulate.circuit_matrix_s", "1/s"),
    "blockenc.nonzero_block_share": ("blockenc.nonzero_blocks", "blockenc.block_pairs", "ratio"),
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric but the ratios as name -> (value, unit); layers a
    round never reached read 0. `jobs.<group>_s` is the wall time of one job
    group."""
    own = self_times(spans)
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    for metric, span_name in LAYER_SECONDS.items():
        values[metric] = sum((own[s["id"]] for s in spans if s["name"] == span_name), 0.0)
        units[metric] = "s"
    for metric, (span_name, key) in LAYER_COUNTS.items():
        values[metric] = sum(s["attrs"].get(key, 0) for s in spans if s["name"] == span_name)
        units[metric] = "count"
    jobs = [s for s in spans if s["name"] == "cli.job"]
    for group in workloads.GROUPS:
        values[f"jobs.{group}_s"] = sum((s["end"] - s["start"] for s in jobs
                                         if s["attrs"]["group"] == group), 0.0)
        units[f"jobs.{group}_s"] = "s"
    return {m: (values[m], units[m]) for m in values}
