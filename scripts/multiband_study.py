#!/usr/bin/env python3
"""Two-band study: passbands at 1 kHz (400 Hz wide) and 10 kHz (4 kHz wide),
OSR 64 over the combined width, binary quantizer.

Designs an order-50 NTF against the two-band filter and measures two-tone
SNR at A = 0.40 and 0.45 per tone.  The counterintuitive outcome: the
optimizer spends its degrees of freedom above the upper band and barely
attenuates inside the narrow first band, because that band is too thin to
hold meaningful noise power.
"""

import argparse
import pathlib

import numpy as np

from ntfforge.cli import atomic_write, dump_json
from ntfforge.design import DesignSpec, evaluate_ntf, run_design
from ntfforge.filters import FilterSpec, FrequencyGrid, design_filter
from ntfforge.objective import merit_integrand

FS = 2 * 64 * (4000.0 + 400.0)


def spec(order=50, order_per_band=4):
    return DesignSpec(
        filter_spec=FilterSpec(kind="multiband_butterworth", fs_hz=FS,
                               order=order_per_band,
                               bands_hz=((800.0, 1200.0),
                                         (8000.0, 12000.0))),
        fir_order=order,
        gamma=1.5,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results/multiband")
    ap.add_argument("--order-per-band", type=int, default=4,
                    help="Butterworth order of each passband branch")
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    result = run_design(spec(order_per_band=args.order_per_band))
    atomic_write(str(out / "ntf_p50.json"), dump_json(result.to_json_dict()))
    print(f"sigma_h={result.sigma_h:.4e} "
          f"grid max={result.certificate.grid_max:.6f}")

    for amp in (0.40, 0.45):
        report = evaluate_ntf(result.ntf, result.spec, amp,
                              signal_kind="multitone",
                              freqs_hz=(1000.0, 10000.0))
        print(f"two tones A={amp}: simulated {report.simulated_snr_db:.2f} dB "
              f"(overloaded={report.overloaded})")

    grid = FrequencyGrid.uniform(8192)
    filt = design_filter(result.spec.filter_spec)
    freq_hz = grid.omegas * FS / (2 * np.pi)
    integ = merit_integrand(result.ntf.coeffs, (1.0,), filt, grid)
    lines = ["freq_hz,integrand_linear"]
    lines += [f"{f:.8g},{v:.10e}" for f, v in zip(freq_hz, integ)]
    atomic_write(str(out / "integrand.csv"), "\n".join(lines) + "\n")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
