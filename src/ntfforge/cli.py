"""Batch frontend: design, sweep, evaluate, curves, verify.

Exit codes: 0 success, 2 validation error, 3 solver failure, 4 verification
failure.  All file writes are whole-file atomic (write to a temp file in the
target directory, then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import tempfile

import numpy as np

from .design import DesignSpec, evaluate_ntf, run_design, sweep_orders
from .errors import BoundViolationError, InvalidSpecError, NtfForgeError, SolverError
from .filters import FrequencyGrid, design_filter, frequency_response
from .kyp import verify_bounded_real
from .objective import merit_integrand

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFICATION = 4

log = logging.getLogger("ntfforge.cli")


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ntfforge-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sweep_csv(rows) -> str:
    """The CSV text of ``sweep_orders`` rows."""
    lines = ["order,sigma_h,runtime_seconds,status"]
    lines += [f"{r['order']},{r['sigma_h']:.12e},{r['runtime_seconds']:.3f},"
              f"{r['status']}" for r in rows]
    return "\n".join(lines) + "\n"


def load_design_spec(path: str) -> DesignSpec:
    with open(path) as fh:
        return DesignSpec.from_json_dict(json.load(fh))


def load_ntf(path: str):
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or not ("a" in d or "num" in d and "den" in d):
        raise InvalidSpecError(
            "NTF artifact must be an object with 'a' (FIR) or 'num'/'den' "
            "(rational) lists"
        )
    return d


def _finite(value, name: str, ndim: int) -> np.ndarray:
    """An artifact field as a non-empty float array of ``ndim`` dimensions
    with finite entries, else InvalidSpecError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"'{name}' is not numeric: {exc}") from None
    if arr.ndim != ndim or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InvalidSpecError(f"'{name}' must be a non-empty array of "
                               f"{ndim} dimension(s) with finite entries")
    return arr


def ntf_from_artifact(d: dict):
    """The artifact's NTF as a (num, den) pair of finite vectors; FIR
    coefficients 'a' get den = (1.0,)."""
    if "a" in d:
        return _finite(d["a"], "a", 1), (1.0,)
    return _finite(d["num"], "num", 1), _finite(d["den"], "den", 1)


def write_curve(path: str, header: str, grid: FrequencyGrid, fs_hz: float,
                values):
    """CSV of one value per grid point, against frequency in Hz."""
    freq_hz = grid.omegas * fs_hz / (2.0 * np.pi)
    rows = np.column_stack((freq_hz, values)).ravel().tolist()
    atomic_write(path, f"freq_hz,{header}\n"
                 + "%.10g,%.12e\n" * freq_hz.size % tuple(rows))


def magnitude_db(response) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))


def cmd_design(args) -> int:
    spec = load_design_spec(args.config)
    if args.gamma is not None:
        spec = dataclasses.replace(spec, gamma=args.gamma)
    result = run_design(spec)
    atomic_write(args.out, dump_json(result.to_json_dict()))
    print(f"order {result.ntf.order}: sigma_h={result.sigma_h:.6e} "
          f"grid_max={result.certificate.grid_max:.6f} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_design_spec(args.config)
    if args.gamma is not None:
        spec = dataclasses.replace(spec, gamma=args.gamma)
    orders = [_parse_number(int, tok, "order")
              for tok in args.orders.split(",") if tok.strip()]
    rows = sweep_orders(spec, orders)
    atomic_write(args.out, sweep_csv(rows))
    for row in rows:
        print(f"order {row['order']:3d}: sigma_h={row['sigma_h']:.6e} "
              f"({row['status']})")
    return EXIT_OK


def _parse_number(kind, text: str, name: str):
    """A command-line number as ``kind`` (int or float), else
    InvalidSpecError."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidSpecError(f"{name} {text.strip()!r} is not a number") from None


def _parse_signal(text: str):
    kind, _, freqs = text.partition(":")
    return kind, tuple(_parse_number(float, tok, "frequency")
                       for tok in freqs.split(",") if tok.strip())


def cmd_evaluate(args) -> int:
    spec = load_design_spec(args.config)
    artifact = load_ntf(args.ntf)
    num, den = ntf_from_artifact(artifact)
    kind, freqs = ("multitone", ()) if args.signal is None \
        else _parse_signal(args.signal)
    filt = design_filter(spec.filter_spec)
    report = evaluate_ntf((num, den), spec, args.amplitude, signal_kind=kind,
                          freqs_hz=freqs,
                          certificate=artifact.get("certificate"))
    atomic_write(args.out, dump_json(report.to_json_dict()))
    base, _ = os.path.splitext(args.out)
    write_curve(base + "_integrand.csv", "integrand_linear", spec.grid,
                spec.fs_hz, merit_integrand(num, den, filt, spec.grid))
    print(f"expected {report.expected_snr_db:.2f} dB, "
          f"simulated {report.simulated_snr_db:.2f} dB, "
          f"grid max {report.grid_max_ntf:.6f}"
          + (" [overloaded]" if report.overloaded else ""))
    if args.strict and not report.passed:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_curves(args) -> int:
    spec = load_design_spec(args.config)
    grid = spec.grid
    filt = design_filter(spec.filter_spec)
    if args.what == "filter":
        header, values = "magnitude_db", magnitude_db(filt.response(grid))
    else:
        if args.ntf is None:
            raise InvalidSpecError(f"curves --what {args.what} needs --ntf")
        num, den = ntf_from_artifact(load_ntf(args.ntf))
        if args.what == "ntf":
            header = "magnitude_db"
            values = magnitude_db(frequency_response(num, den, grid))
        else:
            header, values = "integrand_linear", merit_integrand(num, den, filt, grid)
    write_curve(args.out, header, grid, spec.fs_hz, values)
    print(f"{args.what} curve ({grid.count} points) -> {args.out}")
    return EXIT_OK


def stored_certificate(artifact: dict, order_p: int, gamma: float):
    """The artifact's own certificate matrix P when it is finite and made for
    this order and gamma, else None (external NTFs, a ``--gamma`` other than
    the stored one).  Only ``p_matrix`` and ``gamma`` are read; verify
    recomputes the eigenvalue extremes and the grid maximum."""
    stored = artifact.get("certificate")
    if not isinstance(stored, dict) or stored.get("gamma") != gamma:
        return None
    try:
        p_matrix = _finite(stored.get("p_matrix"), "p_matrix", 2)
    except InvalidSpecError:
        return None
    return p_matrix if p_matrix.shape == (order_p, order_p) else None


def cmd_verify(args) -> int:
    artifact = load_ntf(args.ntf)
    coeffs, den = ntf_from_artifact(artifact)
    if len(den) != 1 or den[0] != 1.0:
        raise InvalidSpecError("verify takes an FIR 'a' (or a 'den' of [1])")
    gamma = args.gamma if args.gamma is not None else artifact.get("gamma")
    if gamma is None:
        raise InvalidSpecError("no gamma given and none stored in the artifact")
    gamma = float(_finite(gamma, "gamma", 0))
    stored = stored_certificate(artifact, coeffs.size - 1, gamma)
    cert = None
    if stored is not None:
        try:
            cert = verify_bounded_real(coeffs, gamma, stored)
        except BoundViolationError:
            # the design sits on the LMI boundary, so coefficients edited
            # after the design (rounded, say) can leave the stored witness
            # behind while still meeting the bound: build another
            log.info("stored certificate rejected; building another")
    if cert is None:
        cert = verify_bounded_real(coeffs, gamma)
    if args.out:
        atomic_write(args.out, dump_json(cert.to_json_dict()))
    print(f"gain bound holds: grid max {cert.grid_max:.6f} <= gamma {gamma}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntfforge",
        description="FIR noise-transfer-function design driven by the "
                    "output filter, with verification and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="solve one design spec")
    p_design.add_argument("--config", required=True)
    p_design.add_argument("--out", required=True)
    p_design.add_argument("--gamma", type=float, default=None)
    p_design.set_defaults(func=cmd_design)

    p_sweep = sub.add_parser("sweep", help="design across FIR orders")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--orders", required=True,
                         help="comma-separated ascending list")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--gamma", type=float, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("evaluate", help="score an NTF artifact")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--ntf", required=True)
    p_eval.add_argument("--amplitude", type=float, required=True)
    p_eval.add_argument("--signal", default=None,
                        help="dc | sine:FREQ_HZ | multitone:F1,F2,...; "
                             "default one tone per filter band")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--strict", action="store_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_curves = sub.add_parser("curves", help="export magnitude/integrand CSV")
    p_curves.add_argument("--what", required=True,
                          choices=("filter", "ntf", "integrand"))
    p_curves.add_argument("--config", required=True)
    p_curves.add_argument("--ntf", default=None)
    p_curves.add_argument("--out", required=True)
    p_curves.set_defaults(func=cmd_curves)

    p_verify = sub.add_parser("verify", help="check the gain bound of an NTF")
    p_verify.add_argument("--ntf", required=True)
    p_verify.add_argument("--gamma", type=float, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("NTFFORGE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (InvalidSpecError, FileNotFoundError, json.JSONDecodeError,
            KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NtfForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
