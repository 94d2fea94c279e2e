"""Spans around the calls into each ntfforge module, for the traced run.

Wrappers are installed at the names the callers look up at call time
(``ntfforge.design.solve`` is what ``run_design`` calls, not
``ntfforge.sdp.solve``).  Targets are resolved by name when tracing starts;
one that no longer exists is listed in ``Tracer.absent`` and skipped, so a
commit that renames or deletes a function does not crash the traced run.

Spans are kept in memory and written out by the caller at the end.  A span
records its name, layer, start, end, parent span and operation id, plus the
counts its boundary exposes (solver iterations, bytes written, samples
simulated).  Calls made outside an operation (output checks) are not traced.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

LAYERS = ("filters", "objective", "kyp", "sdp", "modsim", "design", "cli")
ROOT_LAYER = "bench"

# (layer, module whose global the caller looks up, function name)
TARGETS = (
    ("cli", "ntfforge.cli", "main"),
    ("cli", "ntfforge.cli", "cmd_evaluate"),
    ("cli", "ntfforge.cli", "cmd_verify"),
    ("cli", "ntfforge.cli", "atomic_write"),
    ("design", "ntfforge.design", "run_design"),
    ("design", "ntfforge.design", "evaluate_ntf"),
    ("design", "ntfforge.cli", "evaluate_ntf"),
    ("kyp", "ntfforge.design", "certificate_from_solution"),
    ("kyp", "ntfforge.design", "assemble_lmi"),
    ("kyp", "ntfforge.sdp", "assemble_lmi"),
    ("kyp", "ntfforge.design", "grid_gain_max"),
    ("kyp", "ntfforge.kyp", "grid_gain_max"),
    ("kyp", "ntfforge.cli", "verify_bounded_real"),
    ("sdp", "ntfforge.design", "solve"),
    ("sdp", "ntfforge.sdp", "solve_gain_feasibility"),
    ("sdp", "ntfforge.sdp", "solve_conic"),
    ("filters", "ntfforge.design", "design_filter"),
    ("filters", "ntfforge.cli", "design_filter"),
    ("filters", "ntfforge.design", "impulse_response"),
    ("filters", "ntfforge.design", "frequency_response"),
    ("filters", "ntfforge.design", "polynomial_roots"),
    ("objective", "ntfforge.design", "build_q_matrix"),
    ("objective", "ntfforge.design", "reduce_objective"),
    ("objective", "ntfforge.cli", "merit_integrand"),
    ("modsim", "ntfforge.design", "simulate"),
    ("modsim", "ntfforge.design", "measure_snr"),
    ("modsim", "ntfforge.design", "make_test_signal"),
    ("modsim", "ntfforge.design", "expected_snr"),
)


def _note_solve_conic(args, kwargs, result):
    _, status, info = result
    return {"status": status, "iterations": int(info.get("iterations", 0)),
            "rel_gap": float(info.get("rel_gap", float("inf"))),
            "primal_residual": float(info.get("primal_residual", float("inf"))),
            "dual_residual": float(info.get("dual_residual", float("inf")))}


def _note_simulate(args, kwargs, result):
    return {"samples": int(result.input_w.size),
            "overloaded": bool(result.overloaded)}


def _note_atomic_write(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


# Counts recorded at a boundary, keyed by function name.
NOTES = {
    "solve_conic": _note_solve_conic,
    "solve_gain_feasibility": lambda a, k, r: {"feasible": bool(r[1])},
    "impulse_response": lambda a, k, r: {"samples": int(r.samples.size)},
    "simulate": _note_simulate,
    "atomic_write": _note_atomic_write,
}


class Tracer:
    """Installs span wrappers and keeps the spans of traced operations."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._op = None
        self._installed = []

    def install(self, targets=TARGETS):
        for layer, module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(layer, attr, fn))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _open(self, name, layer):
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "op": self._op, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        note = NOTES.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                # a later signature change loses the counts, not the operation
                try:
                    span.update(note(args, kwargs, result))
                except (TypeError, ValueError, AttributeError, KeyError,
                        IndexError):
                    span["note_error"] = True
            return result

        return traced

    @contextmanager
    def operation(self, op_id, name):
        """Root span of one benchmark operation; layer calls become its
        descendants."""
        self._op = op_id
        span = self._open(name, ROOT_LAYER)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None


def _self_times(spans):
    child_total = {}
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] = (child_total.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - child_total.get(s["id"], 0.0)
            for s in spans}


def op_metrics(spans):
    """Per-layer metrics of one operation from its spans.

    Layer self times plus ``trace.unaccounted_s`` (the root span's own time)
    add up to the operation's wall time.  A metric whose spans did not occur
    in the operation is left out.
    """
    by_id = {s["id"]: s for s in spans}
    self_t = _self_times(spans)
    root = next(s for s in spans if s["layer"] == ROOT_LAYER)
    out = {"trace.op_wall_s": root["end"] - root["start"],
           "trace.unaccounted_s": self_t[root["id"]]}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_t[s["id"]] for s in spans
                                     if s["layer"] == layer)

    def duration(hit):
        return sum(s["end"] - s["start"] for s in hit)

    def own(hit):
        return sum(self_t[s["id"]] for s in hit)

    def share(field):
        return lambda hit: sum(s.get(field, False) for s in hit) / len(hit)

    def total(field):
        return lambda hit: sum(s.get(field, 0) for s in hit)

    entry = [s for s in spans if s["layer"] == "sdp"
             and (s["parent"] is None or by_id[s["parent"]]["layer"] != "sdp")]
    if entry:
        out["sdp.solve_s"] = duration(entry)
    conic = [s for s in spans if s["name"] == "sdp.solve_conic" and "iterations" in s]
    if conic:
        iters = sum(s["iterations"] for s in conic)
        out["sdp.iterations"] = iters
        out["sdp.s_per_iter"] = duration(conic) / max(iters, 1)
        out["sdp.optimal_ratio"] = (sum(s["status"] == "optimal" for s in conic)
                                    / len(conic))
        for key in ("rel_gap", "primal_residual", "dual_residual"):
            out[f"sdp.{key}"] = max(s[key] for s in conic)
    # (metric, function name, value from the spans of that function)
    derived = (
        ("sdp.feas_solve_s", "solve_gain_feasibility", duration),
        ("sdp.feas_ok_ratio", "solve_gain_feasibility", share("feasible")),
        ("kyp.assemble_lmi_s", "assemble_lmi", duration),
        ("kyp.certificate_s", "certificate_from_solution", duration),
        ("kyp.grid_gain_max_s", "grid_gain_max", duration),
        ("kyp.verify_s", "verify_bounded_real", duration),
        ("modsim.simulate_s", "simulate", duration),
        ("modsim.msamples_per_s", "simulate",
         lambda hit: total("samples")(hit) / 1e6 / duration(hit)),
        ("modsim.overload_ratio", "simulate", share("overloaded")),
        ("modsim.measure_snr_s", "measure_snr", duration),
        ("filters.design_filter_s", "design_filter", duration),
        ("filters.impulse_response_s", "impulse_response", duration),
        ("filters.impulse_response_calls", "impulse_response", len),
        ("filters.impulse_len", "impulse_response",
         lambda hit: max(s.get("samples", 0) for s in hit)),
        ("objective.build_q_s", "build_q_matrix", duration),
        ("objective.build_q_calls", "build_q_matrix", len),
        ("design.run_design_self_s", "run_design", own),
        ("design.evaluate_self_s", "evaluate_ntf", own),
        ("cli.evaluate_self_s", "cmd_evaluate", own),
        ("cli.verify_self_s", "cmd_verify", own),
        ("cli.write_s", "atomic_write", duration),
        ("cli.bytes_written", "atomic_write", total("bytes")),
    )
    for key, function, value in derived:
        hit = [s for s in spans if s["name"].endswith("." + function)]
        if hit:
            out[key] = value(hit)
    return out


def run_metrics(spans):
    """Metrics of the fastest traced operation, the one least disturbed by
    other load on the host; its layer self times add up to its wall time."""
    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    per_op = [op_metrics(op_spans) for op_spans in by_op.values()]
    return min(per_op, key=lambda m: m["trace.op_wall_s"]) if per_op else {}
