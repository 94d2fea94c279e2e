#!/usr/bin/env python3
"""Lowpass study: first-order 2 kHz reconstruction filter at fs = 2.048 MHz.

Designs the order-12 NTF at gamma 1.5 and 2.0, sweeps the FIR order to show
the noise figure leveling off, and measures SNR over an amplitude sweep.
Artifacts (NTF JSON, sweep CSV, curves) land in --outdir.
"""

import argparse
import pathlib

import numpy as np

from ntfforge.cli import atomic_write, dump_json, sweep_csv
from ntfforge.design import DesignSpec, evaluate_ntf, run_design, sweep_orders
from ntfforge.filters import (
    FilterSpec,
    FrequencyGrid,
    design_filter,
    frequency_response,
)
from ntfforge.objective import merit_integrand

FS = 2.048e6


def spec(order=12, gamma=1.5):
    return DesignSpec(
        filter_spec=FilterSpec(kind="lowpass_butterworth", fs_hz=FS, order=1,
                               bands_hz=((0.0, 2000.0),)),
        fir_order=order,
        gamma=gamma,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results/lowpass")
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    for gamma in (1.5, 2.0):
        result = run_design(spec(gamma=gamma))
        name = f"ntf_p12_gamma{gamma:g}.json"
        atomic_write(str(out / name), dump_json(result.to_json_dict()))
        report = evaluate_ntf(result.ntf, result.spec, 0.4, freqs_hz=(900.0,))
        print(f"gamma={gamma}: sigma_h={result.sigma_h:.4e} "
              f"expected={report.expected_snr_db:.2f} dB "
              f"simulated={report.simulated_snr_db:.2f} dB")

    rows = sweep_orders(spec(), (5, 6, 9, 13, 18, 25))
    atomic_write(str(out / "order_sweep.csv"), sweep_csv(rows))
    print("order sweep:", {r["order"]: round(r["sigma_h"], 8) for r in rows})

    # amplitude robustness: the design keeps working up to full scale
    result = run_design(spec())
    amp_lines = ["amplitude,simulated_snr_db,overloaded"]
    for amp in (0.2, 0.4, 0.6, 0.8, 1.0, 1.1):
        report = evaluate_ntf(result.ntf, result.spec, amp, freqs_hz=(900.0,))
        amp_lines.append(f"{amp},{report.simulated_snr_db:.3f},"
                         f"{report.overloaded}")
        print(f"A={amp}: {report.simulated_snr_db:.2f} dB "
              f"overloaded={report.overloaded}")
    atomic_write(str(out / "amplitude_sweep.csv"), "\n".join(amp_lines) + "\n")

    # curves for plotting: filter magnitude, NTF magnitude, merit integrand
    grid = FrequencyGrid.uniform(4096)
    filt = design_filter(result.spec.filter_spec)
    freq_hz = grid.omegas * FS / (2 * np.pi)
    mag_f = 20 * np.log10(np.maximum(np.abs(filt.response(grid)), 1e-300))
    mag_n = 20 * np.log10(np.maximum(
        np.abs(frequency_response(result.ntf.coeffs, (1.0,), grid)), 1e-300))
    integ = merit_integrand(result.ntf.coeffs, (1.0,), filt, grid)
    lines = ["freq_hz,filter_db,ntf_db,integrand_linear"]
    lines += [f"{f:.8g},{a:.6f},{b:.6f},{c:.10e}"
              for f, a, b, c in zip(freq_hz, mag_f, mag_n, integ)]
    atomic_write(str(out / "curves.csv"), "\n".join(lines) + "\n")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
