"""qboson benchmark: CLI workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qboson checkout; the program is imported from its
`src/`. Every round is one fresh worker process (worker.py) that imports
qboson and runs the workload's CLI jobs, with the BLAS/OpenMP pools pinned to
one thread. With --trace 0 the run makes whole rounds until the next round
would end after S seconds and tops up the set-up samples with set-up-only
probes. It reports the median setup_s and peak_rss_mb, and job_s and cpu_s
as the sum over the jobs of each job's fastest time. With
--trace 1 it alternates untraced and traced rounds in whole pairs, writes
the traced rounds' spans as JSON lines, and reports the per-layer metrics
plus the tracing overhead. Every round's outputs are checked against
reference.py; the seed picks the spot checks only. The last line of stdout
is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
MIN_SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark itself could not run (no checkout, worker crash)."""


def worker_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    for pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pool] = "1"
    return env


def start_worker(argv: list[str], src: str) -> tuple[float, dict | None]:
    """Run worker.py; return (seconds from spawn to `ready`, its JSON result)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                          env=worker_env(src), text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"worker {argv} ran past {WORKER_TIMEOUT_S} s") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if not ready.startswith("ready ") or not ready.split(" ", 1)[1].strip().startswith(src):
        raise BenchmarkError(f"worker did not import qboson from {src}: {ready!r}")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {argv} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


class Run:
    """Rounds of one workload in one work directory, with their checks."""

    def __init__(self, workload: str, seed: int, src: str, workdir: str):
        self.workload, self.seed, self.src, self.workdir = workload, seed, src, workdir
        self.ops = workloads.ops_per_round(workload)
        self.attempted = self.failed = 0
        self.problems: list[str] = checks.check_reference(workload)
        self.rounds: list[dict] = []
        workloads.write_inputs(workload, workdir)

    def round(self, traced: bool = False) -> dict:
        argv = [self.workload, self.workdir]
        if not self.rounds:
            argv += ["--spot-check", str(self.seed)]
        if traced:
            argv.append("--trace")
        setup, result = start_worker(argv, self.src)
        result["setup_s"] = setup
        self.problems += result.get("problems", [])
        self.problems += [f"{job} exited with {code}"
                          for job, code in result["exit_codes"].items() if code != 0]
        outcome = checks.check_outputs(self.workload, self.workdir)
        self.problems += outcome.problems
        self.attempted += self.ops
        self.failed += outcome.failed
        self.rounds.append(result)
        return result


def rounds_for(seconds: float, one_round) -> None:
    """Call one_round until the next call would end after `seconds` (at least once)."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def fastest_jobs(rounds: list[dict], index: int) -> float:
    """Sum over the jobs of each job's fastest wall (index 0) or CPU (1) time.

    The host's cores drop to about half speed for stretches of a few tenths
    of a second to a minute, so a median over a run moves with the share of
    slow stretches in it. A short job's fastest time repeats from run to run.
    """
    return sum(min(r["jobs"][job][index] for r in rounds) for job in rounds[0]["jobs"])


def measure(run: Run, seconds: float) -> dict:
    """Untraced rounds; set-up probes top up the set-up samples."""
    rounds_for(seconds, run.round)
    setups = [r["setup_s"] for r in run.rounds]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(start_worker(["--probe"], run.src)[0])
    return {"setup_s": (statistics.median(setups), "s"),
            "job_s": (fastest_jobs(run.rounds, 0), "s"),
            "cpu_s": (fastest_jobs(run.rounds, 1), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in run.rounds), "MiB")}


def trace(run: Run, seconds: float, spans_path: str) -> dict:
    """Pairs of an untraced and a traced round. Per-layer times are the fastest
    over the traced rounds, counts their median, and ratios are formed from
    these; the overhead is the difference of the two sides' job_s."""
    rounds_for(seconds, lambda: (run.round(), run.round(traced=True)))
    plain, traced = run.rounds[0::2], run.rounds[1::2]
    with open(spans_path, "w") as fh:
        for i, result in enumerate(traced):
            for span in result.pop("spans"):
                fh.write(json.dumps(dict(span, round=i), sort_keys=True) + "\n")
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        pick = min if unit == "s" else statistics.median
        metrics[name] = (pick(r["layers"][name][0] for r in traced), unit)
    for name, (num, den, unit) in tracing.LAYER_RATIOS.items():
        metrics[name] = (metrics[num][0] / metrics[den][0] if metrics[den][0] else 0.0, unit)
    metrics["trace.overhead_s"] = (fastest_jobs(traced, 0) - fastest_jobs(plain, 0), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qboson", "cli.py")):
        print(f"error: no qboson sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {tuple(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"work-{stem}-", dir=RESULTS)
    try:
        run = Run(args.workload, args.seed, src, workdir)
        if args.trace:
            metrics = trace(run, args.seconds, os.path.join(RESULTS, f"{stem}.spans.jsonl"))
        else:
            metrics = measure(run, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(RESULTS, f"{stem}.json"), "w") as fh:
        json.dump(dict(result, rounds=run.rounds, problems=run.problems), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
