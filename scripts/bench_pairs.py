#!/usr/bin/env python3
"""Alternated parent/change pairs of the perfbench workloads.

    python3 scripts/bench_pairs.py --parent REV --pairs N --label NAME \
        [--workdir DIR]

The parent revision REV and HEAD are exported with ``git archive`` (so only
committed files are measured and no worktree is left registered in the
repository), and ``perfbench/run.py`` runs from each export.  Pair k runs
every workload of BENCHMARK.json once per side for its ``run_seconds``, with
seed k + 1; odd pairs run the parent first, even pairs the change.  Then each
side designs the bandpass P=49, the two-band P=50 and the bandpass P=64 (at
gamma 1.5 and 1.02) cases three times, each in a fresh process with BLAS
pinned to one thread.  Last, each side times ``simulate`` over 2^16 samples
of the lowpass P=12, bandpass P=49 and bandpass P=64 designs at the
benchmark's amplitudes, three fresh one-thread processes each.  Then each
side makes one traced run (``--trace 1``, seed 1) of every workload.

Writes ``BENCH_<label>.json`` in the repository root: per workload and side,
the median and quartiles of every end-to-end metric with the runs behind
them, failed/attempted counts and the pairs the change won, and per metric
two verdicts (``summarize``); per design and side, the wall times, solver
iterations and sigma2_h; per simulation and side, the wall times, the
largest |e| and a hash of the output bits; per traced run, its exit code,
whether its last line is strict JSON (no NaN or Infinity), its per-layer
metrics of BENCHMARK.json, those it lacks and its "absent span targets"
line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHANGE = "HEAD"
REPEATS = 3
# a change carries a claimed gain when it is better in at least 9 of 10
# pairs and its median gap exceeds the parent's interquartile range
CLAIM_SHARE = (9, 10)

BANDPASS = {"fs_hz": 2 * 64 * 400.0,
            "filter": {"kind": "bandpass_butterworth", "order": 8,
                       "bands_hz": [[800.0, 1200.0]]}}

# The paper's bandpass case and its two-band case (4th-order branch per band),
# as the acceptance tests define them, and the bandpass case at the largest
# order, where the solver's per-iteration cost shows most.
DESIGNS = {
    "bandpass-p49": {**BANDPASS, "fir_order": 49, "gamma": 1.5},
    "twoband-p50": {"fs_hz": 2 * 64 * 4400.0,
                    "filter": {"kind": "multiband_butterworth", "order": 4,
                               "bands_hz": [[800.0, 1200.0],
                                            [8000.0, 12000.0]]},
                    "fir_order": 50, "gamma": 1.5},
    "bandpass-p64": {**BANDPASS, "fir_order": 64, "gamma": 1.5},
    "bandpass-p64-g1.02": {**BANDPASS, "fir_order": 64, "gamma": 1.02},
}

# The loop simulations of the paper's lowpass case at A = 0.4 and of the
# bandpass cases at A = 0.75, the amplitudes perfbench evaluates them at:
# (design config, amplitude).
SIMULATIONS = {
    "lowpass-p12": ({"fs_hz": 2.048e6,
                     "filter": {"kind": "lowpass_butterworth", "order": 1,
                                "bands_hz": [[0.0, 2000.0]]},
                     "fir_order": 12, "gamma": 1.5}, 0.4),
    "bandpass-p49": (DESIGNS["bandpass-p49"], 0.75),
    "bandpass-p64": (DESIGNS["bandpass-p64"], 0.75),
}

DESIGN_SCRIPT = """
import json, sys, time
from ntfforge.design import DesignSpec, run_design
spec = DesignSpec.from_json_dict(json.loads(sys.argv[1]))
start = time.perf_counter()
result = run_design(spec)
print(json.dumps({"seconds": time.perf_counter() - start,
                  "iterations": result.solution.iterations,
                  "sigma2_h": result.sigma2_h}))
"""

SIMULATE_SCRIPT = """
import hashlib, json, sys, time
import numpy as np
from ntfforge.design import DesignSpec, default_tone_freqs, run_design
from ntfforge.modsim import make_test_signal, simulate
spec = DesignSpec.from_json_dict(json.loads(sys.argv[1]))
ntf = run_design(spec).ntf
w = make_test_signal("sine", default_tone_freqs(spec)[:1],
                     float(sys.argv[2]), spec.fs_hz, 2**16)
start = time.perf_counter()
trace = simulate(ntf, w, spec.quantizer)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds,
                  "max_abs_e": float(np.max(np.abs(trace.quant_error_e))),
                  "output_sha256":
                      hashlib.sha256(trace.output_x.tobytes()).hexdigest()}))
"""


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    """Committed files of ``rev`` unpacked into ``dest``; returns the sha."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return sha


def run_bench(checkout, workload, seed, seconds, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900)


def run_workload(checkout, workload, seed, seconds) -> dict:
    proc = run_bench(checkout, workload, seed, seconds, 0)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": (proc.stderr or proc.stdout)[-2000:]}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def traced_run(checkout, workload, seconds, per_layer) -> dict:
    """One traced run at seed 1, judged as a result line must be: its exit
    code, whether its last line parses as strict JSON, the values of the
    ``per_layer`` metrics it has, those it lacks and its "absent span
    targets" line."""
    proc = run_bench(checkout, workload, 1, seconds, 1)
    lines = proc.stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1],
                             parse_constant=_reject_constant)["metrics"]
        strict = True
    except (IndexError, KeyError, TypeError, ValueError):
        metrics, strict = {}, False
    return {"returncode": proc.returncode, "strict_json": strict,
            "per_layer": {m: metrics[m]["value"] for m in per_layer
                          if m in metrics},
            "missing_per_layer": [m for m in per_layer if m not in metrics],
            "absent_targets": next(
                (line for line in lines
                 if line.startswith("absent span targets:")), None)}


def run_one_thread(checkout, script, *args) -> dict:
    """The JSON line that ``script`` prints, run with ``args`` in a fresh
    process on ``checkout``'s package with BLAS pinned to one thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update({name: "1" for name in ONE_THREAD})
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(checkout, script, fields, config, *args) -> dict:
    """REPEATS fresh runs of ``script``: their wall times and median,
    the distinct values of each of ``fields``, and any errors."""
    reps = [run_one_thread(checkout, script, json.dumps(config),
                           *map(repr, args))
            for _ in range(REPEATS)]
    ok = [r for r in reps if "error" not in r]
    seconds = [r["seconds"] for r in ok]
    return {"seconds": seconds,
            "median_s": statistics.median(seconds) if ok else None,
            **{field: sorted({r[field] for r in ok}) for field in fields},
            "errors": [r["error"] for r in reps if "error" in r]}


def spread(values) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0] if values else None
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def verdict(parent, change, pairs, better, bound) -> dict:
    """Whether the change would carry a claim on a metric (better in at
    least ``CLAIM_SHARE`` of the pairs, and a median gap larger than the
    parent's interquartile range), and whether its median is worse than the
    parent's by more than ``bound`` of it.  ``parent`` and ``change`` are
    ``spread`` results, ``pairs`` the (parent, change) values of each pair
    and ``better`` "lower" or "higher"."""
    if parent["median"] is None or change["median"] is None:
        return {"claim": False, "regressed": change["median"] is None}
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    won = sum(sign * (p - c) > 0 for p, c in pairs)
    wins, of = CLAIM_SHARE
    return {"claim": bool(pairs) and won * of >= wins * len(pairs)
            and gain > iqr,
            "regressed": -gain > bound * abs(parent["median"]),
            "change_better": won, "pairs": len(pairs),
            "median_gain": gain, "parent_iqr": iqr}


def summarize(runs, metrics) -> dict:
    """runs[side] is the list of run results, in pair order; ``metrics``
    are BENCHMARK.json's end-to-end entries (name, better, bound)."""
    out = {}
    for side, results in runs.items():
        out[side] = {
            m["name"]: spread([r["metrics"][m["name"]]["value"]
                               for r in results
                               if m["name"] in r.get("metrics", {})])
            for m in metrics}
        out[side]["attempted"] = [r.get("attempted") for r in results]
        out[side]["failed"] = [r.get("failed") for r in results]
    wins, verdicts = {}, {}
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        wins[name] = {"change_lower": sum(c < p for p, c in pairs),
                      "pairs": len(pairs)}
        verdicts[name] = verdict(out["parent"][name], out["change"][name],
                                 pairs, m["better"], m["bound"])
    out["wins"] = wins
    out["verdicts"] = verdicts
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workdir", default=None,
                    help="where the exports go; default a new temp directory")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = float(bench["run_seconds"])
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs-")
    os.makedirs(workdir, exist_ok=True)
    checkouts = {side: os.path.join(workdir, side)
                 for side in ("parent", "change")}
    shas = {side: export(rev, checkouts[side])
            for side, rev in (("parent", args.parent),
                              ("change", CHANGE))}

    runs = {w: {"parent": [], "change": []} for w in workloads}
    order = []
    started = time.time()
    for k in range(args.pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        order.append(sides[0])
        for workload in workloads:
            for side in sides:
                result = run_workload(checkouts[side], workload, k + 1, seconds)
                runs[workload][side].append(result)
                print(f"pair {k + 1} {workload} {side}: "
                      f"{json.dumps(result.get('metrics'))} "
                      f"failed {result.get('failed')}", flush=True)

    designs = {name: {side: repeat(checkouts[side], DESIGN_SCRIPT,
                                   ("iterations", "sigma2_h"), config)
                      for side in ("parent", "change")}
               for name, config in DESIGNS.items()}
    print(f"designs: {json.dumps(designs)}", flush=True)
    simulations = {
        name: {side: repeat(checkouts[side], SIMULATE_SCRIPT,
                            ("max_abs_e", "output_sha256"), config, amplitude)
               for side in ("parent", "change")}
        for name, (config, amplitude) in SIMULATIONS.items()}
    print(f"simulations: {json.dumps(simulations)}", flush=True)
    per_layer = [m["name"] for m in bench["per_layer"]]
    traced = {w: {side: traced_run(checkouts[side], w, seconds, per_layer)
                  for side in ("parent", "change")}
              for w in workloads}
    print(f"traced: {json.dumps(traced)}", flush=True)

    report = {
        "label": args.label,
        "parent": shas["parent"],
        "change": shas["change"],
        "pairs": args.pairs,
        "seconds": seconds,
        "first_in_pair": order,
        "host": {"nproc": os.cpu_count(), "platform": sys.platform,
                 "python": sys.version.split()[0]},
        "wall_s": time.time() - started,
        "workloads": {w: summarize(runs[w], metrics) for w in workloads},
        "designs": designs,
        "simulations": simulations,
        "traced": traced,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for w in workloads:
        for name, v in report["workloads"][w]["verdicts"].items():
            print(f"{w} {name}: claim {v['claim']}, "
                  f"regressed {v['regressed']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
