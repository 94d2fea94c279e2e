#!/usr/bin/env python3
"""Bandpass study: 8th-order Butterworth around 1 kHz, 400 Hz wide, OSR 64.

Sweeps the FIR order up to 49 and measures SNR at A = 0.75.  The order-49
design is the heavy one (about 0.25 s on a 2-vCPU host with one BLAS
thread); pass --quick to stop at 21.
"""

import argparse
import pathlib

from ntfforge.cli import atomic_write, dump_json, sweep_csv
from ntfforge.design import DesignSpec, evaluate_ntf, run_design, sweep_orders
from ntfforge.filters import FilterSpec

FS = 2 * 64 * 400.0


def spec(order=49):
    return DesignSpec(
        filter_spec=FilterSpec(kind="bandpass_butterworth", fs_hz=FS, order=8,
                               bands_hz=((800.0, 1200.0),)),
        fir_order=order,
        gamma=1.5,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results/bandpass")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    orders = (5, 8, 11, 15, 21) if args.quick else (5, 8, 11, 15, 21, 28, 37, 49)
    rows = sweep_orders(spec(), orders)
    atomic_write(str(out / "order_sweep.csv"), sweep_csv(rows))
    for r in rows:
        print(f"order {r['order']:2d}: sigma_h={r['sigma_h']:.4e} "
              f"({r['runtime_seconds']:.1f}s)")

    top = orders[-1]
    result = run_design(spec(order=top))
    atomic_write(str(out / f"ntf_p{top}.json"), dump_json(result.to_json_dict()))
    report = evaluate_ntf(result.ntf, result.spec, 0.75, freqs_hz=(1000.0,))
    print(f"order {top} at A=0.75: simulated {report.simulated_snr_db:.2f} dB "
          f"(expected {report.expected_snr_db:.2f} dB, "
          f"overloaded={report.overloaded})")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
