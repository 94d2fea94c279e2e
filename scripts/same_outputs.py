#!/usr/bin/env python3
"""Same CLI outputs: a parent revision against HEAD.

    python3 scripts/same_outputs.py --parent REV

REV and HEAD are exported with ``bench_pairs.export`` (``git archive``, so
only committed files count), and each side runs the command list of
``commands()`` through ``ntfforge.cli.main`` in one fresh process with BLAS
pinned to one thread, in a directory of its own that holds the same input
files (``inputs()``).  The cases are the lowpass P=12, the 800-1200 Hz
bandpass P=49 and the two-band P=50.  Each is designed; verified with its
stored gamma and with ``--gamma 1.6``; evaluated with the default signal,
with ``dc``, with an explicit sine (one band) or multitone (two bands) and
as a rational NTF; and exported as the filter, NTF and integrand curves.
Each case also runs the evaluate arguments of ``REJECTED``, which must
exit 2 and write nothing.

Compares the exit codes and every file that either side wrote, byte for
byte, after dropping the ``runtime_seconds`` line of the evaluate reports.
Prints each difference and a summary line; exits 1 on any difference,
else 0.
"""

import argparse
import json
import os
import re
import sys
import tempfile

from bench_pairs import CHANGE, DESIGNS, SIMULATIONS, export, run_one_thread

# (config, amplitude, explicit --signal) per case
CASES = {
    "lowpass-p12": (SIMULATIONS["lowpass-p12"][0], 0.4, "sine:1000"),
    "bandpass-p49": (DESIGNS["bandpass-p49"], 0.75, "sine:1000"),
    "twoband-p50": (DESIGNS["twoband-p50"], 0.3, "multitone:900,11000"),
}
RATIONAL_NTF = {"num": [1.0, -1.0], "den": [1.0, -0.5]}
# evaluate arguments that exit 2: a dc with a tone, an unknown signal kind
# and a negative amplitude; their reports are named ``*-rejected.json``
REJECTED = (["--signal", "dc:900"], ["--signal", "square:1000"],
            ["--amplitude", "-0.4"])
RUNTIME_LINE = re.compile(rb'^ *"runtime_seconds": .*\n', re.M)

RUN_SCRIPT = """
import json, os, sys
from ntfforge.cli import main
os.chdir(sys.argv[1])
print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))
"""


def inputs() -> dict:
    """The input files of the command list, by name: one spec per case and
    the rational NTF."""
    files = {f"{name}.json": config for name, (config, _, _) in CASES.items()}
    files["rational.json"] = RATIONAL_NTF
    return {path: json.dumps(value) for path, value in files.items()}


def commands() -> list:
    """The ``ntfforge`` argument lists, in run order, with paths relative to
    the side's directory."""
    out = []
    for name, (_, amplitude, signal) in CASES.items():
        spec, ntf = f"{name}.json", f"{name}-ntf.json"
        out.append(["design", "--config", spec, "--out", ntf])
        out.append(["verify", "--ntf", ntf, "--out", f"{name}-cert.json"])
        out.append(["verify", "--ntf", ntf, "--gamma", "1.6",
                    "--out", f"{name}-cert-g1.6.json"])
        evaluate = ["evaluate", "--config", spec, "--amplitude",
                    repr(amplitude)]
        out.append([*evaluate, "--ntf", ntf, "--out", f"{name}-default.json"])
        out.append([*evaluate, "--ntf", ntf, "--signal", "dc",
                    "--out", f"{name}-dc.json"])
        out.append([*evaluate, "--ntf", ntf, "--signal", signal,
                    "--out", f"{name}-{signal.split(':')[0]}.json"])
        out.append([*evaluate, "--ntf", "rational.json",
                    "--out", f"{name}-rational.json"])
        out += [[*evaluate, "--ntf", ntf, *args,
                 "--out", f"{name}-rejected.json"] for args in REJECTED]
        for what in ("filter", "ntf", "integrand"):
            ntf_arg = [] if what == "filter" else ["--ntf", ntf]
            out.append(["curves", "--what", what, "--config", spec, *ntf_arg,
                        "--out", f"{name}-{what}.csv"])
    return out


def outputs(directory: str) -> dict:
    """Every file in ``directory`` but the inputs, by name, with the
    ``runtime_seconds`` lines dropped."""
    found = {}
    for path in sorted(os.listdir(directory)):
        if path not in inputs():
            with open(os.path.join(directory, path), "rb") as fh:
                found[path] = RUNTIME_LINE.sub(b"", fh.read())
    return found


def compare(parent: dict, change: dict) -> list:
    """The differences between two sides' ``{"codes", "files"}``."""
    lines = [f"exit code of {' '.join(argv)}: parent {old}, change {new}"
             for argv, old, new in zip(commands(), parent["codes"],
                                       change["codes"]) if old != new]
    for path in sorted(set(parent["files"]) | set(change["files"])):
        old, new = parent["files"].get(path), change["files"].get(path)
        if old is None or new is None:
            lines.append(f"{path}: written by the "
                         f"{'change' if old is None else 'parent'} only")
        elif old != new:
            lines.append(f"{path}: bytes differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    args = ap.parse_args(argv)
    sides = {}
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as workdir:
        for side, rev in (("parent", args.parent), ("change", CHANGE)):
            checkout = os.path.join(workdir, side)
            print(f"{side}: {export(rev, checkout)}", flush=True)
            rundir = os.path.join(workdir, f"{side}-run")
            os.makedirs(rundir)
            for path, text in inputs().items():
                with open(os.path.join(rundir, path), "w") as fh:
                    fh.write(text)
            codes = run_one_thread(checkout, RUN_SCRIPT, rundir,
                                   json.dumps(commands()))
            if "error" in codes:
                print(f"{side} failed: {codes['error']}")
                return 1
            sides[side] = {"codes": codes, "files": outputs(rundir)}
    lines = compare(sides["parent"], sides["change"])
    print("\n".join(lines))
    print(f"{len(commands())} commands, {len(sides['change']['files'])} "
          f"files: {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
