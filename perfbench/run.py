"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload job_stream --seed 1 --seconds 45 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` alternates untraced and traced
iterations and reports host time per layer (see ``perfbench/README.md``).
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
stamp the run (engine, host CPUs, Python) and digest its simulated
observables.  Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: campaign worker processes and the BLAS/OpenMP thread cap
NPROC = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
#: loaded before the clock starts: no change to this repository moves
#: their cost, and their shared-library loading is the noisiest part
THIRD_PARTY = "import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg"
IMPORTS = ("import repro.appvm, repro.campaign, repro.fem, repro.hardware, "
           "repro.lint.layering")

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "submit_ms_p50": "ms",
    "submit_ms_p99": "ms", "solve_s": "s", "msgs_per_s": "1/s",
    "peak_rss_mb": "MB", "success_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("job_stream", "large_solve", "campaign_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q):
    """Percentile ``q`` (1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_seconds():
    """Host seconds a fresh interpreter takes to import the repro stack.
    Bytecode is written even under ``PYTHONDONTWRITEBYTECODE``, so every
    import after the first reads it, as an installed package's would."""
    code = (f"import sys, time; {THIRD_PARTY}; "
            "sys.dont_write_bytecode = False; "
            "sys.path.insert(0, sys.argv[1]); "
            f"t = time.perf_counter(); {IMPORTS}; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload):
    """Median of several set-ups: a fresh-interpreter import of the
    repro packages plus the workload's input and model construction,
    each scaled by the reference loop timed just before it."""
    from workloads import REFERENCE_SECONDS, reference_seconds
    samples, inputs = [], None
    import_seconds()  # compiles the bytecode the timed imports read
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_SECONDS / reference_seconds()
        imported = import_seconds()
        start = time.perf_counter()
        inputs = workload.build()
        samples.append(scale * (imported + time.perf_counter() - start))
    return statistics.median(samples), inputs


def run_iteration(workload, inputs, **kw):
    from workloads import Iteration
    try:
        return workload.iterate(inputs, **kw)
    except Exception as exc:  # an operation raised: count, report, go on
        traceback.print_exc(file=sys.stderr)
        it = Iteration(attempted=1)
        it.fail(f"{workload.name}: {type(exc).__name__}: {exc}")
        return it


def untraced(workload, inputs, seconds):
    iterations, start = [], time.perf_counter()
    while not iterations or (time.perf_counter() - start < seconds
                             and not iterations[-1].errors):
        iterations.append(run_iteration(workload, inputs))
    done = [i for i in iterations if i.wall > 0 and not i.errors]
    if not done:
        return iterations, None, None
    # Host speed on a shared machine swings by a quarter for tens of
    # seconds at a time, so raw host times follow the host more than
    # the program.  Every time here is scaled, segment by segment, by
    # the reference loop timed around the segment (see Iteration).
    return iterations, {
        "jobs_per_s": statistics.median(
            i.completed / i.scaled_wall for i in done),
        "submit_ms_p50": 1e3 * statistics.median(
            statistics.median(i.submit_s) for i in done),
        "submit_ms_p99": 1e3 * percentile(
            [s for i in done for s in i.submit_s], 99),
        "solve_s": statistics.median(
            [t for i in done for t in i.turnaround_s]),
        "msgs_per_s": statistics.median(
            i.messages / i.scaled_wall for i in done),
    }, {
        "reference_ms": 1e3 * statistics.median(
            r for i in done for r in i.reference_s),
        "jobs_per_s": statistics.median(i.completed / i.wall for i in done),
    }


def traced(workload, inputs, seconds, run_id):
    """Alternate untraced and traced iterations of the same inputs;
    per-layer figures are per traced iteration."""
    from attribution import Profiles, Spans, per_layer
    spans = Spans(run_id)
    profiles = Profiles()
    iterations, start = [], time.perf_counter()
    while not iterations or (time.perf_counter() - start < seconds
                             and not iterations[-1].errors):
        iterations.append(run_iteration(workload, inputs))
        with spans.span(f"{workload.name}.iteration"), profiles.active():
            iterations.append(run_iteration(workload, inputs, spans=spans,
                                            profiles=profiles))
    plain_wall = sum(i.wall for i in iterations[0::2])
    traced_wall = sum(i.wall for i in iterations[1::2])
    metrics = per_layer(iterations[1::2], spans, profiles,
                        overhead=(traced_wall / plain_wall if plain_wall
                                  else 0.0))
    return iterations, spans, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import workloads

    options = {}
    if args.workload == "campaign_sweep":
        # the profiler sees only this process: traced campaigns run
        # their points here, and so do the untraced iterations they
        # are compared with
        options["workers"] = 0 if args.trace else NPROC
        # the traced run reports no submit latency
        options["probes"] = not args.trace
    workload = workloads.WORKLOADS[args.workload](args.seed, **options)
    setup_s, inputs = measure_setup(workload)
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "engine": workload.engine(), "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "fem2_engine_set": "FEM2_ENGINE" in os.environ,
        "campaign_workers": options.get("workers"),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))

    # one untimed iteration fills lazy caches (source text the analyses
    # read, imported submodules); its outputs are checked like the rest
    warmup = run_iteration(workload, inputs)
    gc.collect()
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if args.trace:
        iterations, spans, metrics = traced(workload, inputs, args.seconds,
                                            run_id)
        spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    stamp)
    else:
        iterations, measured, raw = untraced(workload, inputs, args.seconds)
        if measured is None:
            print("perfbench: no iteration completed", file=sys.stderr)
            return 1
        print("unscaled " + json.dumps(raw, sort_keys=True))
        values = dict(measured, setup_s=setup_s)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)

    iterations = [warmup] + iterations
    attempted = sum(i.attempted for i in iterations)
    failed = sum(i.failed for i in iterations)
    sims = [json.dumps(i.sim, sort_keys=True) for i in iterations if i.sim]
    if len(set(sims)) > 1:
        failed += 1
        print("perfbench: simulated observables differ between iterations",
              file=sys.stderr)
    for it in iterations:
        for message in it.errors:
            print(f"perfbench: FAILED {message}", file=sys.stderr)
    if sims:
        print(f"sim-digest {args.workload} seed={args.seed} {sims[0]}")
    if not args.trace:
        values["success_rate"] = 1.0 - failed / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
