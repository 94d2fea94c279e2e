#!/usr/bin/env python3
"""ntfforge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lowpass-sweep|bandpass-p49 \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ntfforge is imported from ``src/``.  The
workload runs in its own process with BLAS and OpenMP pinned to one thread.
Set-up (imports and input generation) is measured three times, in the
workload process and in one set-up-only process before it and one after
it, and reported as the median.  Set-ups, and the steps of workloads whose
work slows with the host as a fixed calibration computation does, are
stated at a reference host speed (see ``at_reference_speed``); the lines
above the result also give them as measured.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The lines before it print every
metric by name and unit, including those that only apply to some workloads.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("lowpass-sweep", "bandpass-p49")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up processes included

# Stage metrics: the sum of a stage's steps, or the mean step.  A workload
# reports those whose stage it runs.
STAGE_METRICS = (("sweep_s", "sweep", sum), ("design_s", "design", sum),
                 ("evaluate_s", "evaluate", statistics.mean),
                 ("verify_s", "verify", statistics.mean))


def unit_of(name):
    """Unit of a metric, read from its name."""
    if name.endswith("msamples_per_s"):
        return "Msamples/s"
    if name.endswith(("_s", "s_per_iter")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_calls", "iterations", "_len")):
        return "count"
    return "1"


class BenchError(Exception):
    pass


def run_worker(args, workdir, index, setup_only, deadline):
    result_path = os.path.join(workdir, f"result-{index}.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload process started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"workload process exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def at_reference_speed(seconds, slowdown):
    """A measured time restated at the reference host speed, by the host's
    slowdown next to it (``workloads.calibrate``).  Slow stretches of the
    host last longer than a run, so no statistic inside a run removes them;
    the calibration slows with the program, so the ratio of the two stays
    put."""
    return seconds / slowdown


def step_times(ops, stage, scaled):
    """Each step of a stage over the operations.  When ``scaled``, every
    sample is restated at the reference speed by the slowdown recorded with
    it (see ``workloads.Steps``), and the median is taken, since a scaled
    sample can err either way.  Otherwise the fastest sample is taken: the
    host can only slow a step down."""
    lists = [op["times"][stage] for op in ops if stage in op["times"]]
    if not scaled:
        return [min(t for t, _ in column) for column in zip(*lists)]
    return [statistics.median(at_reference_speed(t, c) for t, c in column)
            for column in zip(*lists)]


def counted(ops, traced, count):
    """The first ``count`` traced or untraced operations that completed."""
    return [op for op in [op for op in ops if op["traced"] == traced][:count]
            if "wall" in op]


def summarize(args, setups, main):
    ops = main["ops"]
    attempted = len(ops) + 1  # the warm-up counts as an operation
    failed = sum(bool(op["problems"]) for op in ops) + bool(main["warmup_problems"])
    timed = counted(ops, False, main["counted_ops"])
    if not timed:
        problems = [p for op in ops for p in op["problems"]]
        raise BenchError(f"no untraced operation completed: {problems[:3]}")
    walls = [op["wall"] for op in timed]
    scaled = main["scale_steps"]
    kind = "step medians at reference speed" if scaled else "step minima"
    stages = {stage: step_times(timed, stage, scaled) for stage in timed[0]["times"]}
    op_s = sum(map(sum, stages.values()))
    measured = sum(sum(step_times(timed, stage, False)) for stage in stages)
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(s["setup_s"],
                                                         s["setup_slowdown"])
                                      for s in setups), "s",
                    f"median of {len(setups)} set-ups at reference speed; as "
                    "measured: " + " ".join(f"{s['setup_s']:.3f}" for s in setups)),
        "op_s": (op_s, "s",
                 f"sum of {sum(map(len, stages.values()))} {kind} over the "
                 f"first {len(walls)} of {len(ops)} ops",
                 f"step minima as measured {measured:.6g}; op wall fastest "
                 f"{min(walls):.6g}, median {statistics.median(walls):.6g}"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", "workload process"),
        "fail_rate": (failed / attempted, "ratio", f"{failed}/{attempted} failed"),
    }
    if scaled:
        slowdowns = [c for op in timed for column in op["times"].values()
                     for _, c in column]
        metrics["host_slowdown"] = (statistics.median(slowdowns), "ratio",
                                    f"median over {len(slowdowns)} steps")
    for name, stage, reduce in STAGE_METRICS:
        if stages.get(stage):
            metrics[name] = (reduce(stages[stage]), "s",
                             f"{reduce.__name__} of {len(stages[stage])} {kind}")
    if args.trace:
        traced = counted(ops, True, main["counted_ops"])
        metrics.update({k: (v, unit_of(k), f"fastest of {len(traced)} traced ops")
                        for k, v in main.get("layer_metrics", {}).items()})
        if traced:
            # both sides are sums over the steps of as many operations
            metrics["trace.overhead_s"] = (
                sum(sum(step_times(traced, stage, scaled)) for stage in stages) - op_s,
                "s", f"{kind} of {len(traced)} traced ops minus op_s")
    return attempted, failed, metrics


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(args, spec, main, attempted, failed, metrics):
    env = main["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"env: {env['nproc']} cpus ({env['affinity']} usable), {env['cpu']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, threads {env['threads']}")
    for name in sorted(metrics):
        value, unit, note = metrics[name][0], metrics[name][1], metrics[name][2:]
        print(f"  {name:32s} {value:14.6g} {unit:10s}"
              f"  {'; '.join(note)}")
    facts = next((op["facts"] for op in main["ops"] if op.get("facts")), {})
    for kind in ("iterations", "snr_db"):
        if kind in facts:
            print(f"{kind} (reported, not gated): {json.dumps(facts[kind])}")
    if args.trace:
        print(f"absent span targets: {', '.join(main.get('absent', [])) or 'none'}")
        print(f"spans written to {main.get('trace_file')}")
    for problem in main["warmup_problems"] + [
            f"op {op['i']}: {p}" for op in main["ops"] for p in op["problems"]]:
        print(f"FAILED {problem}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"not measured on this workload: {', '.join(missing)}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in wanted if m["name"] in metrics}}
    print(json.dumps(line))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ntfforge", "__init__.py")):
        print("benchmark: no src/ntfforge in this checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        spec = load_spec()
        # set-up-only processes before and after the workload process, so
        # that the median samples the host over the whole run
        half = (SETUP_SAMPLES - 1) // 2
        setups = [run_worker(args, workdir, k, True, deadline) for k in range(half)]
        main_result = run_worker(args, workdir, half, False, deadline)
        setups += [main_result] + [run_worker(args, workdir, k, True, deadline)
                                   for k in range(half + 1, SETUP_SAMPLES)]
        attempted, failed, metrics = summarize(args, setups, main_result)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
    report(args, spec, main_result, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
