#!/usr/bin/env python3
"""Same answers on 38 designs: a parent revision against HEAD.

    python3 scripts/same_answers.py --parent REV

REV and HEAD are exported with ``bench_pairs.export`` (``git archive``, so
only committed files count), and each side designs every case of
``designs()`` in one fresh process with BLAS pinned to one thread.  The
cases are the lowpass sweep P=5..25 at gamma 1.5, lowpass P=64 at
gamma 1.001, the 800-1200 Hz bandpass at P=49 (gamma 1.5 and 4) and P=64
(gamma 1.5 and 1.02), the two-band P=50, that bandpass at the tight
tolerances over P in {25, 49, 64} and gamma in {1.02, 1.5, 4}, and the
rank-deficient P=35 at default and tight tolerances.

Prints one line per design: the iterations of both sides, the corrector's
refinement solves of both sides ("-" where a revision does not count them),
the change's status, the relative change in sigma2_h, the largest change of a
coefficient, and whether the change's design is certified by its own
witness and verified without one; then the iteration and refinement
totals.  Exits 1 when
an iteration count differs or a design of the change is not optimal,
certified and verified, else 0.
"""

import argparse
import json
import os
import sys
import tempfile

from bench_pairs import BANDPASS, CHANGE, DESIGNS, SIMULATIONS, export, run_one_thread

TIGHT = {"gap_tol": 1e-10, "feas_tol": 1e-9}
RANK_DEFICIENT = {"fs_hz": 51200.0,
                  "filter": {"kind": "bandpass_butterworth", "order": 8,
                             "bands_hz": [[821.7393286631443,
                                           1260.6557032989808]]},
                  "fir_order": 35, "gamma": 1.9358801284298226}

DESIGN_SCRIPT = """
import json, sys
from ntfforge.design import DesignSpec, run_design
from ntfforge.errors import NtfForgeError
from ntfforge.kyp import verify_bounded_real
out = {}
for name, config in json.loads(sys.argv[1]):
    spec = DesignSpec.from_json_dict(config)
    try:
        result = run_design(spec)
    except NtfForgeError as exc:
        out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        continue
    try:
        verified = verify_bounded_real(result.ntf.coeffs, spec.gamma).feasible
    except NtfForgeError:
        verified = False
    out[name] = {"iterations": result.solution.iterations,
                 "refinements": getattr(result.solution, "refinement_solves",
                                        None),
                 "status": result.solution.status,
                 "sigma2_h": result.sigma2_h,
                 "coeffs": [float(v) for v in result.ntf.coeffs],
                 "certified": result.certificate.feasible,
                 "verified": verified}
print(json.dumps(out))
"""


def designs() -> dict:
    """The 38 design configs by name, as ``DesignSpec.from_json_dict``
    reads them."""
    lowpass = SIMULATIONS["lowpass-p12"][0]
    cases = {f"lowpass-p{p}": {**lowpass, "fir_order": p}
             for p in range(5, 26)}
    cases["lowpass-p64-g1.001"] = {**lowpass, "fir_order": 64,
                                   "gamma": 1.001}
    cases["bandpass-p49"] = DESIGNS["bandpass-p49"]
    cases["bandpass-p49-g4"] = {**DESIGNS["bandpass-p49"], "gamma": 4.0}
    cases["bandpass-p64"] = DESIGNS["bandpass-p64"]
    cases["bandpass-p64-g1.02"] = DESIGNS["bandpass-p64-g1.02"]
    cases["twoband-p50"] = DESIGNS["twoband-p50"]
    for p in (25, 49, 64):
        for gamma in (1.02, 1.5, 4.0):
            cases[f"tight-bandpass-p{p}-g{gamma:g}"] = {
                **BANDPASS, "fir_order": p, "gamma": gamma, "solver": TIGHT}
    cases["rankdef-p35"] = RANK_DEFICIENT
    cases["rankdef-p35-tight"] = {**RANK_DEFICIENT, "solver": TIGHT}
    return cases


def counted(side: dict) -> str:
    """A design's refinement solves, or "-" where they are not counted."""
    return "-" if side.get("refinements") is None else str(side["refinements"])


def compare(parent: dict, change: dict) -> tuple:
    """The printed lines and whether the change gives the same answers."""
    lines = [f"{'design':26} {'iterations':>10} {'refinements':>11} "
             f"{'status':>8} "
             f"{'d sigma2_h':>10} {'d coeff':>9} certified verified"]
    same = True
    for name in designs():
        old, new = parent[name], change[name]
        if "error" in old or "error" in new:
            lines.append(f"{name:26} parent {old.get('error', 'ok')}; "
                         f"change {new.get('error', 'ok')}")
            same = False
            continue
        d_sigma = abs(new["sigma2_h"] - old["sigma2_h"]) / old["sigma2_h"]
        d_coeff = max(abs(a - b) for a, b in zip(new["coeffs"], old["coeffs"]))
        ok = (new["iterations"] == old["iterations"]
              and new["status"] == "optimal" and new["certified"]
              and new["verified"])
        same = same and ok
        lines.append(
            f"{name:26} {old['iterations']:>4} / {new['iterations']:<3} "
            f"{counted(old):>4} / {counted(new):<4} {new['status']:>8} {d_sigma:10.2e} {d_coeff:9.2e} "
            f"{'yes' if new['certified'] else 'NO':>9} "
            f"{'yes' if new['verified'] else 'NO':>8}")
    totals = [sum(side[name].get("iterations", 0) for name in designs())
              for side in (parent, change)]
    lines.append(f"iterations in all: parent {totals[0]}, change {totals[1]}")
    solves = [sum(side[name].get("refinements") or 0 for name in designs())
              for side in (parent, change)]
    lines.append(f"refinement solves in all: parent {solves[0]}, "
                 f"change {solves[1]}")
    return lines, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    args = ap.parse_args(argv)
    cases = json.dumps(list(designs().items()))
    results = {}
    with tempfile.TemporaryDirectory(prefix="same_answers-") as workdir:
        for side, rev in (("parent", args.parent), ("change", CHANGE)):
            checkout = os.path.join(workdir, side)
            print(f"{side}: {export(rev, checkout)}", flush=True)
            results[side] = run_one_thread(checkout, DESIGN_SCRIPT, cases)
            if "error" in results[side]:
                print(f"{side} failed: {results[side]['error']}")
                return 1
    lines, same = compare(results["parent"], results["change"])
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
