"""Tests of the benchmark itself: failures are counted, spans add up,
inputs follow the seed, and a checkout without the program gives no result.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import copy
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import worker  # noqa: E402  (pins BLAS threads, puts src/ on sys.path)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import ntfforge.cli as cli  # noqa: E402
import ntfforge.design as design  # noqa: E402
from ntfforge.filters import FrequencyGrid  # noqa: E402
from ntfforge.objective import sigma2_h  # noqa: E402


def summarize_one(record):
    setup = {"setup_s": 1.0, "setup_slowdown": 1.0}
    main = dict(setup, ops=[record], warmup_problems=[], counted_ops=1,
                scale_steps=True, peak_rss_mb=100.0, env={})
    return run.summarize(argparse.Namespace(trace=0), [setup, setup, main], main)


def test_gain_violation_is_a_failed_operation(tmp_path, monkeypatch):
    load_ntf = cli.load_ntf

    def inflated(path):  # the stored P=12 NTF with its tail doubled
        artifact = load_ntf(path)
        a = np.asarray(artifact["a"], dtype=float)
        artifact["a"] = np.concatenate(([a[0]], 2.0 * a[1:])).tolist()
        assert workloads.fft_gain_max(artifact["a"]) > 1.1 * artifact["gamma"]
        return artifact

    monkeypatch.setattr(cli, "load_ntf", inflated)
    wl = workloads.LowpassSweep(1, str(tmp_path), None)

    record = worker.run_op(wl, 0, tracing.Tracer(), traced=False)

    assert any("cli verify exit 4" in p for p in record["problems"])
    attempted, failed, metrics = summarize_one(record)
    assert (attempted, failed) == (2, 1)  # the operation and the warm-up
    assert metrics["fail_rate"][0] == pytest.approx(0.5)


def test_sigma2_h_off_reference_fails_at_any_seed(tmp_path):
    reference = worker.load_reference()
    wl = workloads.LowpassSweep(5, str(tmp_path), reference)
    out, _ = wl.run(0)
    assert wl.check(out) == []

    wl.reference = copy.deepcopy(reference)
    wl.reference["lowpass-sweep"]["sigma2_h"]["P=25"] *= 1.0 + 1e-5

    assert any(p.startswith("sigma2_h[P=25]") for p in wl.check(out))


def test_steps_are_restated_at_the_reference_speed():
    # the host runs at full speed for the first op and twice as slow for
    # the second, and the slowdowns recorded with each step show it
    ops = [{"times": {"sweep": [[1.0, 1.0], [0.5, 1.0]]}},
           {"times": {"sweep": [[2.0, 2.0], [1.0, 2.0]]}},
           {"times": {"sweep": [[1.1, 1.1], [0.6, 1.0]]}}]

    assert run.step_times(ops, "sweep", True) == pytest.approx([1.0, 0.5])
    assert run.step_times(ops, "sweep", False) == [1.0, 0.5]  # the fastest


def test_raising_operation_is_counted(tmp_path):
    wl = workloads.BandpassP49(1, str(tmp_path), None)
    wl.spec = None  # run_design(None) raises inside the operation

    record = worker.run_op(wl, 0, tracing.Tracer(), traced=False)

    assert record["problems"] and "wall" not in record
    with pytest.raises(run.BenchError):
        summarize_one(record)  # no untraced operation completed: no result


def test_self_times_add_up_and_absent_targets_are_listed():
    original = design.run_design
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + (("sdp", "ntfforge.sdp", "renamed_away"),
                                      ("kyp", "ntfforge.deleted_module", "f")))
    try:
        spec = design.DesignSpec.from_json_dict(workloads.lowpass_config(6, 1.5, 2000.0))
        with tracer.operation(0, "probe"):
            design.run_design(spec)
        design.run_design(spec)  # outside an operation: not traced
    finally:
        tracer.uninstall()

    assert design.run_design is original
    assert tracer.absent == ["ntfforge.sdp.renamed_away", "ntfforge.deleted_module.f"]
    assert {s["op"] for s in tracer.spans} == {0}
    m = tracing.op_metrics(tracer.spans)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.unaccounted_s"] == pytest.approx(m["trace.op_wall_s"],
                                                              rel=1e-9)
    assert m["sdp.iterations"] > 0 and m["sdp.optimal_ratio"] == 1.0
    assert 0 < m["sdp.solve_s"] < m["trace.op_wall_s"]
    assert m["objective.build_q_calls"] == 1


def test_inputs_follow_the_seed():
    assert workloads.case_params(0) == {"gamma": 1.5, "cutoff": 2000.0,
                                        "lp_tone": 900.0, "lo": 800.0,
                                        "hi": 1200.0, "bp_tone": 1000.0}
    p = workloads.case_params(7)
    assert p == workloads.case_params(7) != workloads.case_params(8)
    assert (p["gamma"], p["cutoff"], p["lo"], p["hi"]) == (1.5, 2000.0, 800.0, 1200.0)
    assert 0 < p["lp_tone"] < p["cutoff"] and p["lo"] < p["bp_tone"] < p["hi"]


@pytest.mark.parametrize("config", [
    workloads.lowpass_config(12, 1.5, 2000.0),
    workloads.bandpass_config(25, 1.5, 800.0, 1200.0),
])
def test_check_quadrature_grid_is_fine_enough(config):
    spec = design.DesignSpec.from_json_dict(config)
    checker = workloads.Checker()
    coeffs = np.array([1.0, -1.2, 0.5])
    finer = sigma2_h(coeffs, (1.0,), design.design_filter(spec.filter_spec),
                     spec.budget,
                     FrequencyGrid.uniform(4 * workloads.QUADRATURE_POINTS - 3))
    assert checker.quadrature(spec, coeffs) == pytest.approx(finer, rel=1e-10)


def test_checkout_without_program_gives_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lowpass-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

