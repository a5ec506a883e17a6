"""One round of a workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py WORKLOAD WORKDIR [--spot-check SEED] [--trace]
    python3 perfbench/worker.py --probe

The worker imports qboson, prints `ready` (the parent times set-up up to
that line), runs the workload's CLI jobs through `qboson.cli.main` in
WORKDIR, and prints one JSON line with every job's wall and CPU time and
the peak RSS. With --trace the jobs run under tracing.py's
wrappers and the line also carries the spans and the per-layer metrics.
With --probe it exits after `ready`. The parent pins the BLAS/OpenMP pools to one thread in the
environment, before numpy loads here.
"""
import json
import os
import resource
import sys
import time


def run_round(cli, argv: list[str]) -> dict:
    import workloads

    workload, workdir = argv[0], argv[1]
    seed = int(argv[argv.index("--spot-check") + 1]) if "--spot-check" in argv else None
    jobs = workloads.jobs(workload)
    os.chdir(workdir)

    tracer = None
    if "--trace" in argv:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes, times = {}, {}
    for group, job in jobs:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if tracer:
            with tracer.span("cli.job", group=group, job=job.name):
                codes[job.name] = cli.main(list(job.argv))
        else:
            codes[job.name] = cli.main(list(job.argv))
        times[job.name] = (time.perf_counter() - wall0, time.process_time() - cpu0)
    result = {"jobs": times,
              # ru_maxrss is in KiB on Linux
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "exit_codes": codes}

    if tracer:
        tracer.uninstall()
        tracing.time_trotter_layers(tracer)
        result["spans"] = tracer.spans
        result["layers"] = tracing.layer_metrics(tracer.spans)
    if seed is not None:
        import checks
        result["problems"] = checks.spot_checks(workload, workdir, seed)
    return result


def main(argv: list[str]) -> None:
    import qboson.cli
    print(f"ready {qboson.cli.__file__}", flush=True)
    if argv != ["--probe"]:
        print(json.dumps(run_round(qboson.cli, argv)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
