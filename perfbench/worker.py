"""One workload process: set-up, then a closed loop of operations.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE [--setup-only]

``run.py`` starts this; it is not meant to be run by hand.  BLAS and OpenMP
are pinned to one thread before numpy is imported.  The result (set-up time,
one record per operation, peak RSS, environment and, when traced, the
per-layer metrics) is written as JSON to ``--result``; the traced run's spans
go to ``.perfbench_out/`` in the checkout.

Set-up covers the imports and input generation.  It is timed from the first
statement of this file and followed by calibrations (``workloads.calibrate``)
that give the host's speed at that moment.  A ``--setup-only`` process stops
there; the workload process then runs a warm-up design, which is checked but
not timed.  In the loop an operation starts as soon as the previous one
returns.  The loop runs at least the workload's ``counted_ops`` operations,
and after those it starts another only if, at the pace of the last one, it
ends within ``--seconds``.  Only the first ``counted_ops`` are measured, so
every run's figures rest on the same number of samples whatever the
program's speed.  A traced run alternates traced and untraced operations,
traced first, so that the tracing overhead is measured within the run; it
counts half as many of each, and at least one.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402

REFERENCE = os.path.join(BENCH_DIR, "reference_seed0.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def load_reference():
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_op(workload, i, tracer, traced):
    """One operation: timed call, then the checks outside the timed region."""
    record = {"i": i, "traced": traced}
    context = tracer.operation(i, workload.name) if traced else nullcontext()
    try:
        with context:
            t0 = time.perf_counter()
            out, times = workload.run(i)
            record["wall"] = time.perf_counter() - t0
        record["times"] = times
        record["problems"] = workload.check(out)
        record["facts"] = workload.facts(out) if not record["problems"] else {}
    except Exception as exc:  # an operation that raises counts as failed
        record["problems"] = [f"{type(exc).__name__}: {exc}"]
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import ntfforge

    if not os.path.abspath(ntfforge.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ntfforge imported from {ntfforge.__file__}, not {SRC}")
    import tracing
    import workloads

    reference = load_reference()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, reference)
    setup_s = time.perf_counter() - SETUP_START
    # the first calibration also pays for numpy's lazy set-up: dropped
    slowdowns = [workloads.calibrate() for _ in range(6)][1:]

    result = {"setup_s": setup_s,
              "setup_slowdown": statistics.median(slowdowns),
              "ops": [], "env": environment()}
    if not args.setup_only:
        result["warmup_problems"] = workloads.warm_up(args.workdir, reference)
        counted = (max(1, workload.counted_ops // 2) if args.trace
                   else workload.counted_ops)
        result["counted_ops"] = counted
        result["scale_steps"] = workload.scale_steps
        per_round = 2 if args.trace else 1  # traced, then untraced
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
        start = time.perf_counter()
        ops = result["ops"]
        last = 0.0  # the previous loop turn, checks included
        while (len(ops) < per_round * counted
               or time.perf_counter() - start + last <= args.seconds):
            t0 = time.perf_counter()
            ops.append(run_op(workload, len(ops), tracer,
                              bool(args.trace) and len(ops) % 2 == 0))
            last = time.perf_counter() - t0
        tracer.uninstall()
        if args.trace:
            result["absent"] = tracer.absent
            result["layer_metrics"] = tracing.run_metrics(
                [s for s in tracer.spans if s["op"] < per_round * counted])
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_path = os.path.join(
                TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            with open(trace_path, "w") as fh:
                fh.write(json.dumps({"env": result["env"],
                                     "absent": tracer.absent}) + "\n")
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
