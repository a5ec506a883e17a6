"""The benchmark's workloads: spec files and the CLI jobs one round runs.

Jobs come in four groups (fock_count, coord_count, trotter_verify,
lcu_verify); a workload runs one or more groups. A round is the same list of
`qboson` CLI jobs every time; an operation is one CLI job, or one row of a
`count` sweep. Inputs are fixed: the run's seed only picks the sampled spot
checks in checks.py.

Every job is sized to take well under half a second on one core: run.py
reports each job's fastest time over the run, and on a shared host only
short jobs find a stretch of full speed often enough for that to repeat.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

RADIUS = 2.0

# spec name -> (bosons, basis, [(coeff, exponents)])
SPECS = {
    # x**2 + x**4 on truncated Fock matrices: the exponential route
    "fock_quartic": (1, "fock", [(1.0, [2]), (1.0, [4])]),
    "x4": (1, "coordinate-qft", [(1.0, [4])]),
    # (m x + g x**3)**2 with m = g = 1
    "anharmonic6": (1, "coordinate-qft", [(1.0, [2]), (2.0, [4]), (1.0, [6])]),
    # (x0**2 + x1**2)/2 + (x0**2 + x1**2)**2 / 4
    "coupled_quartic": (2, "coordinate-qft", [(0.5, [2, 0]), (0.5, [0, 2]),
                                              (0.25, [4, 0]), (0.25, [0, 4]),
                                              (0.5, [2, 2])]),
}

# coordinate count sweeps: spec -> (q_min, q_max); each stops where the
# program's pruned count is a few percent short of the exact one
COORD_SWEEPS = {"x4": (2, 16), "anharmonic6": (2, 13), "coupled_quartic": (2, 12)}
# Fock count rows, one CLI job each
FOCK_ROWS = range(2, 11)
TABLE1_Q_MAX = 10
EXACT_SERIES_Q = range(2, 15)

TROTTER = {"spec": "coupled_quartic", "q": 4, "time": 0.05, "steps": 2}

# block-encoding instances up to 6 system qubits
LCU_INSTANCES = ([("x4", q) for q in range(2, 7)]
                 + [("anharmonic6", q) for q in range(2, 7)]
                 + [("coupled_quartic", q) for q in range(2, 4)])


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``ops`` is how many operations it counts for."""

    name: str
    argv: tuple[str, ...]
    ops: int = 1


def spec_doc(name: str, q: int) -> dict:
    bosons, basis, terms = SPECS[name]
    doc = {"bosons": bosons, "qubits_per_boson": q, "basis": basis,
           "potential": [{"coeff": c, "exponents": e} for c, e in terms]}
    if basis != "fock":
        doc["radius"] = RADIUS
    return doc


def spec_file(name: str, q: int) -> str:
    return f"{name}_q{q}.json"


def group_jobs(group: str) -> list[Job]:
    if group == "fock_count":
        return [Job("table1", ("table1", "--q-max", str(TABLE1_Q_MAX), "--out", "table1.csv"))] + [
            Job(f"fock_count_q{q}", ("count", spec_file("fock_quartic", FOCK_ROWS[0]),
                                     "--q-min", str(q), "--out", f"fock_count_q{q}.csv"))
            for q in FOCK_ROWS]
    if group == "coord_count":
        out = []
        for name, (lo, hi) in COORD_SWEEPS.items():
            out.append(Job(f"{name}_count", ("count", spec_file(name, lo), "--q-min", str(lo),
                                             "--q-max", str(hi), "--out", f"{name}_count.csv"),
                           hi - lo + 1))
            out.append(Job(f"{name}_fit", ("fit", f"{name}_count.csv", "--format", "json",
                                           "--out", f"{name}_fit.json")))
        out.append(Job("exact_fit", ("fit", "exact_series.csv", "--format", "json",
                                     "--out", "exact_fit.json")))
        return out
    if group == "trotter_verify":
        t = TROTTER
        return [Job("trotter", ("trotter", spec_file(t["spec"], t["q"]), "--time", str(t["time"]),
                                "--steps", str(t["steps"]), "--verify", "--format", "json",
                                "--circuit-out", "trotter.circ", "--out", "trotter.json"))]
    if group == "lcu_verify":
        return [Job(f"lcu_{name}_q{q}", ("blockenc", spec_file(name, q), "--verify",
                                         "--format", "json", "--out", f"lcu_{name}_q{q}.json"))
                for name, q in LCU_INSTANCES]
    raise ValueError(f"unknown job group {group!r}")


# A workload runs whole job groups, split by the program's two routes. `fock`
# is the exponential route of the paper's Table 1: decompose and the Pauli
# census, never circuits, simulate or blockenc. `coordinate` is the
# coordinate-qft route: Z-sum expansion, circuits, simulate and blockenc,
# never decompose. An optimisation of one route's layers should not move the
# other workload.
WORKLOADS = {"fock": ("fock_count",),
             "coordinate": ("coord_count", "trotter_verify", "lcu_verify")}
GROUPS = tuple(group for groups in WORKLOADS.values() for group in groups)


def jobs(workload: str) -> list[tuple[str, Job]]:
    """(group, job) for every job of one round, in order."""
    return [(group, job) for group in WORKLOADS[workload] for job in group_jobs(group)]


def write_inputs(workload: str, workdir: str) -> None:
    """Spec files (and the exact fit series) the workload's jobs read."""
    needed: list[tuple[str, int]] = []
    for group in WORKLOADS[workload]:
        if group == "fock_count":
            needed.append(("fock_quartic", FOCK_ROWS[0]))
        elif group == "coord_count":
            needed += [(name, lo) for name, (lo, _) in COORD_SWEEPS.items()]
            with open(os.path.join(workdir, "exact_series.csv"), "w") as fh:
                fh.write("Q,n_pauli\n")
                fh.writelines(f"{q},{q * 2 ** (q - 1)}\n" for q in EXACT_SERIES_Q)
        elif group == "trotter_verify":
            needed.append((TROTTER["spec"], TROTTER["q"]))
        elif group == "lcu_verify":
            needed += LCU_INSTANCES
    for name, q in needed:
        with open(os.path.join(workdir, spec_file(name, q)), "w") as fh:
            json.dump(spec_doc(name, q), fh)


def ops_per_round(workload: str) -> int:
    return sum(job.ops for _, job in jobs(workload))
