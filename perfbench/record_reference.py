#!/usr/bin/env python3
"""Record the seed-0 reference: sigma2_h, iteration counts and simulated SNR.

    python3 perfbench/record_reference.py

Runs each workload's operation on the paper's exact cases (seed 0), checks
every output, and writes ``perfbench/reference_seed0.json``.  Benchmark runs
compare sigma2_h against it to REFERENCE_RTOL at every seed (the seed does
not reach the design problem), and every run's warm-up for the lowpass P=12
design.  Re-record only when a change is meant to move sigma2_h, and say so
with the change.
"""

import json
import os
import shutil
import sys
import tempfile

import worker  # pins BLAS threads and puts src/ on sys.path before numpy

import workloads  # noqa: E402


def record(workdir):
    reference = {"recorded_with": "python3 perfbench/record_reference.py",
                 "env": worker.environment()}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, workdir, None)
        out, _ = wl.run(0)
        problems = wl.check(out)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        reference[name] = wl.facts(out)
        print(f"{name}: {json.dumps(reference[name])[:200]}...")
    return reference


def main():
    workdir = tempfile.mkdtemp(prefix="reference-", dir=worker.ROOT)
    try:
        reference = record(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(worker.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(worker.REFERENCE, worker.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
