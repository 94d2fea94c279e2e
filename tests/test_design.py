import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ntfforge.design as design
import ntfforge.kyp as kyp
from ntfforge.cli import main
from ntfforge.design import (
    MAX_FIR_ORDER,
    DesignSpec,
    evaluate_ntf,
    run_design,
    sweep_orders,
)
from ntfforge.errors import BoundViolationError, InvalidSpecError, SolverError
from ntfforge.filters import FilterSpec, impulse_response
from ntfforge.kyp import verify_bounded_real
from ntfforge.modsim import NtfFir
from ntfforge.sdp import SolverSettings

FS = 256000.0


def lowpass_spec(fir_order=4, gamma=1.5):
    return DesignSpec(
        filter_spec=FilterSpec(kind="lowpass_butterworth", fs_hz=FS, order=1,
                               bands_hz=((0.0, 2000.0),)),
        fir_order=fir_order,
        gamma=gamma,
    )


class TestCertificateWithoutCone:
    # the SDP carries no P >= 0 cone of its own; the KYP block implies it,
    # and the certificate's min-eigenvalue check confirms it on every design
    @pytest.mark.parametrize("gamma", [1.02, 4.0])
    @pytest.mark.parametrize("fir_order", [5, 25])
    def test_design_certificate_feasible(self, fir_order, gamma):
        result = run_design(lowpass_spec(fir_order, gamma))
        cert = result.certificate
        assert cert.feasible
        assert cert.grid_max <= gamma * (1.0 + 1e-4)
        # the design sits on its bound, the hard case for the spectral factor
        assert verify_bounded_real(result.ntf.coeffs, gamma).feasible


def forge_certificate(monkeypatch, name, value):
    genuine = kyp.bounded_real_certificate

    def forged(*args):
        return dataclasses.replace(genuine(*args), **{name: value})

    monkeypatch.setattr(kyp, "bounded_real_certificate", forged)


# one broken field per case; lowpass_spec() designs at gamma = 1.5
FORGERIES = {
    "min_eigenvalue_p": -1.0,
    "max_eigenvalue_big": 1e-3,
    "grid_max": 1.5 * (1.0 + 1e-3),
}


class TestCertificateGate:
    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_run_design_rejects_uncertified(self, monkeypatch, name):
        forge_certificate(monkeypatch, name, FORGERIES[name])
        with pytest.raises(BoundViolationError):
            run_design(lowpass_spec())

    def test_cli_design_exits_with_verification_failure(self, monkeypatch,
                                                         tmp_path):
        spec = {
            "fs_hz": FS,
            "filter": {"kind": "lowpass_butterworth", "order": 1,
                       "bands_hz": [[0.0, 2000.0]]},
            "fir_order": 4,
            "gamma": 1.5,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "ntf.json"
        forge_certificate(monkeypatch, "min_eigenvalue_p", -1.0)
        code = main(["design", "--config", str(path), "--out", str(out)])
        assert code == 4
        assert not out.exists()


class TestExpectedSnrPerSignalKind:
    def report(self, kind, freqs):
        spec = lowpass_spec()
        ntf = NtfFir(coeffs=np.array([1.0, -1.0]))
        return evaluate_ntf(ntf, spec, 0.3, signal_kind=kind, freqs_hz=freqs)

    def test_two_tones_read_two_tone_powers_above_one_sine(self):
        sine = self.report("sine", (900.0,))
        two = self.report("multitone", (600.0, 1200.0))
        assert two.expected_snr_db - sine.expected_snr_db == pytest.approx(
            10.0 * np.log10(2.0), abs=1e-12)

    def test_dc_reads_twice_the_sine_power(self):
        sine = self.report("sine", (900.0,))
        dc = self.report("dc", ())
        assert dc.expected_snr_db - sine.expected_snr_db == pytest.approx(
            10.0 * np.log10(2.0), abs=1e-12)

    def two_band_spec(self):
        return DesignSpec(
            filter_spec=FilterSpec(kind="multiband_butterworth",
                                   fs_hz=2 * 64 * 4400.0, order=4,
                                   bands_hz=((800.0, 1200.0),
                                             (8000.0, 12000.0))),
            fir_order=4,
        )

    def test_dc_on_two_band_spec_uses_one_amplitude(self):
        # the default tones are one per band; dc must still get one level
        ntf = NtfFir(coeffs=np.array([1.0, -1.0]))
        rep = evaluate_ntf(ntf, self.two_band_spec(), 0.3, signal_kind="dc")
        assert rep.expected_snr_db == pytest.approx(
            10.0 * np.log10(0.3**2 / rep.sigma2_h), abs=1e-12)
        assert np.isfinite(rep.simulated_snr_db)

    def test_default_signal_on_two_band_spec_plays_a_tone_per_band(self):
        ntf = NtfFir(coeffs=np.array([1.0, -1.0]))
        rep = evaluate_ntf(ntf, self.two_band_spec(), 0.3)
        assert rep.expected_snr_db == pytest.approx(
            10.0 * np.log10(2 * 0.3**2 / 2 / rep.sigma2_h), abs=1e-12)

    # signals whose power is not the power rule's: a dc with a tone (the
    # tone was dropped), two tones on one whole-cycle bin (one tone of twice
    # the amplitude, 3 dB above the prediction) and a tone on n/2 cycles
    # (sin(pi t) is zero at every sample); FIR and rational NTFs alike
    @pytest.mark.parametrize("ntf", [NtfFir(coeffs=np.array([1.0, -1.0])),
                                     ((1.0, -1.0), (1.0, -0.5))],
                             ids=("fir", "rational"))
    @pytest.mark.parametrize("kind, freqs, match", [
        ("dc", (900.0,), "dc takes no frequency"),
        ("multitone", (900.0, 900.0), "another tone's"),
        ("sine", (FS / 2.0 - 1.0,), "snaps to n/2"),
    ], ids=("dc-with-tone", "same-bin", "half-rate"))
    def test_signal_off_the_power_rule_is_rejected(self, ntf, kind, freqs,
                                                   match):
        with pytest.raises(InvalidSpecError, match=match):
            evaluate_ntf(ntf, lowpass_spec(), 0.3, signal_kind=kind,
                         freqs_hz=freqs)


NARROWBAND_P49 = {
    "fs_hz": 2 * 64 * 400.0,
    "filter": {"kind": "bandpass_butterworth", "order": 8,
               "bands_hz": [[828.3988402281964, 1164.6618392077046]]},
    "fir_order": 49,
    "gamma": 1.5,
}

DESIGN_IN_CHILD = """
import json, sys
from ntfforge.design import DesignSpec, run_design
result = run_design(DesignSpec.from_json_dict(json.loads(sys.argv[1])))
print(json.dumps({"status": result.solution.status,
                  "feasible": result.certificate.feasible,
                  "grid_max": result.certificate.grid_max}))
"""


class TestNarrowbandP49:
    # 8th-order Butterworth on 828.4-1164.7 Hz at fs = 2*64*400 Hz, P = 49,
    # gamma = 1.5: this design used to end in numerical_failure, with one
    # BLAS thread but not with two, because the epigraph slack near the
    # optimum was a difference of O(1) terms below double precision.  Each
    # thread count runs in its own process, since BLAS reads it at start.
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_narrowed_band_solves_and_certifies(self, threads):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            design.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", DESIGN_IN_CHILD,
             json.dumps(NARROWBAND_P49)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["status"] == "optimal"
        assert out["feasible"]
        assert out["grid_max"] <= 1.5 * (1.0 + 1e-4)


RANK_DEFICIENT_P35 = {
    "fs_hz": 51200.0,
    "filter": {"kind": "bandpass_butterworth", "order": 8,
               "bands_hz": [[821.7393286631443, 1260.6557032989808]]},
    "fir_order": 35,
    "gamma": 1.9358801284298226,
}


class TestRankDeficientObjective:
    # On this band the objective's quadratic block keeps only 19 of its 35
    # eigenvalues above 1e-12 of the largest.  Truncating it there, as an
    # epigraph cone over its factor did, returned "optimal" 1.2e-4 above the
    # optimum and failed numerically at the tight tolerances.
    def test_default_settings_reach_the_tight_optimum(self):
        spec = DesignSpec.from_json_dict(RANK_DEFICIENT_P35)
        tight = SolverSettings(gap_tol=1e-10, feas_tol=1e-9)
        loose = run_design(spec)
        exact = run_design(dataclasses.replace(spec, solver=tight))
        assert loose.certificate.feasible and exact.certificate.feasible
        assert loose.sigma2_h == pytest.approx(exact.sigma2_h, rel=1e-6)
        for result in (loose, exact):
            assert verify_bounded_real(result.ntf.coeffs, spec.gamma).feasible


ORDER_LIMIT_NEAR_UNIT_GAMMA = {
    "bandpass": {"fs_hz": 51200.0,
                 "filter": {"kind": "bandpass_butterworth", "order": 8,
                            "bands_hz": [[800.0, 1200.0]]},
                 "fir_order": MAX_FIR_ORDER, "gamma": 1.02},
    "lowpass": {"fs_hz": 2.048e6,
                "filter": {"kind": "lowpass_butterworth", "order": 1,
                           "bands_hz": [[0.0, 2000.0]]},
                "fir_order": MAX_FIR_ORDER, "gamma": 1.001},
}


VERIFIED_DESIGN_IN_CHILD = """
import json, sys
from ntfforge.design import DesignSpec, run_design
from ntfforge.kyp import verify_bounded_real
spec = DesignSpec.from_json_dict(json.loads(sys.argv[1]))
result = run_design(spec)
print(json.dumps({"status": result.solution.status,
                  "feasible": result.certificate.feasible,
                  "verified": verify_bounded_real(result.ntf.coeffs,
                                                  spec.gamma).feasible}))
"""


class TestOrderLimitNearUnitGamma:
    # The largest order with gamma close to 1: the design sits on a bound
    # the interior start clears by only (gamma^2 - 1) / 2, and the witness
    # built from the coefficients alone must still certify it.  That witness
    # is sensitive to the last primal residual, whose rounding differs
    # between one and two BLAS threads, so each runs in its own process.
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(ORDER_LIMIT_NEAR_UNIT_GAMMA))
    def test_optimal_and_certified(self, name, threads):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            design.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", VERIFIED_DESIGN_IN_CHILD,
             json.dumps(ORDER_LIMIT_NEAR_UNIT_GAMMA[name])],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out == {"status": "optimal", "feasible": True,
                       "verified": True}


class TestNonInteriorStart:
    # At gamma = 1 + 1e-10 the start's margin is floored at 5e-7, far above
    # gamma^2 - 1, so the start's slack -M is indefinite (least eigenvalue
    # -2.3e-7) and solve_conic shifts it before the first step.
    def test_shifted_start_ends_optimal_and_certified(self, monkeypatch):
        import ntfforge.sdp as sdp

        spec = DesignSpec.from_json_dict({
            **ORDER_LIMIT_NEAR_UNIT_GAMMA["lowpass"], "fir_order": 12,
            "gamma": 1.0000000001})
        start_lam_min = []
        genuine = sdp.solve_conic

        def spy(cone, c, x0, *args, **kwargs):
            slack = -cone.lmi.evaluate(*x0)
            start_lam_min.append(float(np.linalg.eigvalsh(slack)[0]))
            return genuine(cone, c, x0, *args, **kwargs)

        monkeypatch.setattr(sdp, "solve_conic", spy)
        result = run_design(spec)
        assert start_lam_min[0] < 1e-8  # the threshold of the shift
        assert result.solution.status == "optimal"
        assert result.certificate.feasible
        assert verify_bounded_real(result.ntf.coeffs, spec.gamma).feasible


def bandpass_spec(fir_order, gamma):
    """The paper's 800-1200 Hz bandpass case at order P and gamma."""
    return DesignSpec.from_json_dict({
        "fs_hz": 2 * 64 * 400.0,
        "filter": {"kind": "bandpass_butterworth", "order": 8,
                   "bands_hz": [[800.0, 1200.0]]},
        "fir_order": fir_order, "gamma": gamma})


class TestTightBandpassGrid:
    # The last iterations' Cholesky factor of the Newton matrix turns on
    # last-bit differences at the tight tolerances, so each order and gamma
    # must still reach "optimal" with its own witness certifying it.  The
    # witness-less check must accept them too: these designs touch their
    # bound, where gamma^2 - |A|^2 has near-double roots on the circle, and
    # a spectral factor built at gamma itself left the big matrix's top
    # eigenvalue above FEAS_EIG_TOL * gamma^2 on three to five of the nine;
    # built at gamma (1 + 1e-9) it leaves about 2% of that threshold
    @pytest.mark.parametrize("gamma", [1.02, 1.5, 4.0])
    @pytest.mark.parametrize("fir_order", [25, 49, 64])
    def test_optimal_and_certified_by_its_witness(self, fir_order, gamma):
        tight = SolverSettings(gap_tol=1e-10, feas_tol=1e-9)
        result = run_design(dataclasses.replace(
            bandpass_spec(fir_order, gamma), solver=tight))
        assert result.solution.status == "optimal"
        assert result.certificate.feasible
        assert result.certificate.grid_max <= gamma * (1.0 + 1e-4)
        assert verify_bounded_real(result.ntf.coeffs, gamma).feasible


class TestRefinementGate:
    # The corrector's refinement stops once its Newton residual is
    # REFINED_RESIDUAL of feas_tol in the stopping norms.  At default
    # settings the unrefined step mostly meets that already; the TIGHT
    # designs near gamma = 1 need refinement to stay within their bound.
    def test_default_lowpass_refines_fewer_steps_than_it_takes(self):
        solution = run_design(lowpass_spec(12)).solution
        assert solution.status == "optimal"
        # the last iteration only converges
        assert solution.refinement_solves < solution.iterations - 1

    def test_tight_bandpass_near_unit_gamma_refines(self):
        tight = SolverSettings(gap_tol=1e-10, feas_tol=1e-9)
        solution = run_design(dataclasses.replace(
            bandpass_spec(64, 1.02), solver=tight)).solution
        assert solution.status == "optimal"
        assert solution.refinement_solves >= 1


def exact_noise_gain(h, a):
    """a^T Q a for Q = build_q_matrix(h, P), in exact integer arithmetic:
    every float is an integer over a power of two, and int / int rounds
    correctly.  At gamma = 4 even np.longdouble keeps only ~1e-9 of the
    quadratic form, whose terms cancel to 1e-10 of their size."""
    def scaled(x):
        num, den = zip(*(float(v).as_integer_ratio() for v in x))
        common = max(den)
        return [n * (common // d) for n, d in zip(num, den)], common

    hs, h_den = scaled(h)
    a_s, a_den = scaled(a)
    q = [sum(hs[i] * hs[i - k] for i in range(k, len(hs)))
         for k in range(len(a_s))]
    total = sum(a_s[j] * a_s[k] * q[abs(j - k)]
                for j in range(len(a_s)) for k in range(len(a_s)))
    return total / (h_den * h_den * a_den * a_den)


class TestNoisePowerWithoutCancellation:
    # constant + linear.a + a^T Q a cancels to ~1e-10 of its terms here, and
    # float64 left 7e-7 and 9e-7 relative error in the reported sigma^2_h
    @pytest.mark.parametrize("fir_order", [49, 64])
    def test_design_and_evaluation_match_exact_arithmetic(self, fir_order):
        spec = bandpass_spec(fir_order, 4.0)
        result = run_design(spec)
        h = impulse_response(result.filt)
        want = spec.budget.sigma2_eps * exact_noise_gain(h.samples,
                                                         result.ntf.coeffs)
        report = evaluate_ntf(result.ntf, spec, 0.3)
        for got in (result.sigma2_h, report.sigma2_h):
            assert abs(got - want) <= 1e-9 * want


class TestSolverErrorMessage:
    def test_names_status_iterations_and_last_residuals(self):
        spec = dataclasses.replace(lowpass_spec(),
                                   solver=SolverSettings(max_iter=2))
        with pytest.raises(SolverError) as err:
            run_design(spec)
        msg = str(err.value)
        assert "status 'max_iterations' after 2 iterations" in msg
        for name in ("relative gap", "primal residual", "dual residual"):
            value = msg.split(name + " ")[1].split(",")[0]
            assert np.isfinite(float(value))


    def test_carries_the_failed_solve_iterations_and_runtime(self):
        spec = dataclasses.replace(lowpass_spec(),
                                   solver=SolverSettings(max_iter=2))
        t0 = time.perf_counter()
        with pytest.raises(SolverError) as err:
            run_design(spec)
        assert err.value.iterations == 2
        assert 0.0 < err.value.runtime_seconds < time.perf_counter() - t0


class TestSweepOrders:
    def test_failed_order_records_its_solve_runtime(self):
        # the solver ran for each order before it stopped at max_iter
        spec = dataclasses.replace(lowpass_spec(),
                                   solver=SolverSettings(max_iter=1))
        t0 = time.perf_counter()
        rows = sweep_orders(spec, [3, 5])
        wall = time.perf_counter() - t0
        assert [row["order"] for row in rows] == [3, 5]
        for row in rows:
            assert row["status"].startswith(
                "failed: design solve ended with status 'max_iterations' "
                "after 1 iterations")
            assert 0.0 < row["runtime_seconds"] < wall
        assert sum(row["runtime_seconds"] for row in rows) < wall


def load_bench_module(name):
    """A module of perfbench/, loaded by path: importing the perfbench
    package would pin every BLAS to one thread for the run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracingTargets:
    # the benchmark's tracer wraps pipeline functions by name and reads
    # solve_conic's (x, status, info); a rename or a changed return shape
    # would silently drop its spans
    def test_every_target_resolves_and_solve_conic_is_noted(self):
        tracing = load_bench_module("tracing")
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert tracer.absent == []
            with tracer.operation(0, "probe"):
                design.run_design(lowpass_spec(fir_order=6))
        finally:
            tracer.uninstall()
        conic = [s for s in tracer.spans if s["name"] == "sdp.solve_conic"]
        assert len(conic) == 1
        assert conic[0]["status"] == "optimal"
        assert conic[0]["iterations"] > 0
        assert not any(s.get("note_error") for s in tracer.spans)
        # the benchmark prints its result line with json.dumps, which writes
        # a non-finite metric as Infinity or NaN, and those are not JSON
        for key in ("rel_gap", "primal_residual", "dual_residual"):
            assert np.isfinite(conic[0][key])
        json.dumps(tracing.op_metrics(tracer.spans), allow_nan=False)

    def test_each_workload_reports_every_per_layer_metric(self, tmp_path):
        # one traced operation of each workload, as the traced benchmark run
        # makes it: the result line must carry every per-layer metric of
        # BENCHMARK.json (a metric whose function was not called is left
        # out) and stay strict JSON.  run.py adds trace.overhead_s itself
        tracing = load_bench_module("tracing")
        workloads = load_bench_module("workloads")
        bench = json.loads((Path(__file__).resolve().parents[1]
                            / "BENCHMARK.json").read_text())
        wanted = [m["name"] for m in bench["per_layer"]
                  if m["name"] != "trace.overhead_s"]
        for name, workload in workloads.WORKLOADS.items():
            workdir = tmp_path / name
            workdir.mkdir()
            wl = workload(1, str(workdir), None)
            tracer = tracing.Tracer()
            try:
                tracer.install()
                with tracer.operation(0, name):
                    out, _ = wl.run(0)
            finally:
                tracer.uninstall()
            assert tracer.absent == [], name
            assert wl.check(out) == [], name
            metrics = tracing.run_metrics(tracer.spans)
            assert [m for m in wanted if m not in metrics] == [], name
            assert all(np.isfinite(v) for v in metrics.values()), name
            json.dumps(metrics, allow_nan=False)


class TestStudyScripts:
    # the study scripts build their specs through the DesignSpec and
    # FilterSpec constructors; each is loaded by path and nothing is solved
    @pytest.mark.parametrize("name", ["lowpass_study", "bandpass_study",
                                      "multiband_study"])
    def test_spec_builds(self, name):
        path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
        module_spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        spec = module.spec()
        assert isinstance(spec, DesignSpec)
        assert spec.fs_hz == module.FS
        # no test runs a script's evaluate step, so check its keywords here
        accepted = inspect.signature(evaluate_ntf).parameters
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "evaluate_ntf"]
        assert calls
        for call in calls:
            assert {kw.arg for kw in call.keywords} <= set(accepted)

    def test_bench_pairs_verdicts(self, monkeypatch):
        # synthetic pairs: op_s lower on 9 of 10 by more than the parent's
        # IQR carries a claim; rss 30% higher exceeds its 0.25 bound; a
        # higher-better metric won on 8 of 10 pairs carries none
        module = self.load_check(monkeypatch, "bench_pairs")
        metrics = [{"name": "op_s", "better": "lower", "bound": 0.25},
                   {"name": "rss", "better": "lower", "bound": 0.25},
                   {"name": "rate", "better": "higher", "bound": 0.25}]
        parent = [{"op_s": 1.0 + 0.01 * k, "rss": 50.0, "rate": 10.0}
                  for k in range(10)]
        change = [{"op_s": 0.9 + 0.01 * k, "rss": 65.0,
                   "rate": 9.0 if k < 2 else 11.0} for k in range(10)]
        change[3]["op_s"] = 1.5

        def result(values):
            return {"attempted": 5, "failed": 0,
                    "metrics": {k: {"value": v} for k, v in values.items()}}

        out = module.summarize({"parent": [result(v) for v in parent],
                                "change": [result(v) for v in change]},
                               metrics)
        verdicts = out["verdicts"]
        assert verdicts["op_s"]["change_better"] == 9
        assert verdicts["op_s"]["claim"] and not verdicts["op_s"]["regressed"]
        assert not verdicts["rss"]["claim"] and verdicts["rss"]["regressed"]
        assert verdicts["rate"]["change_better"] == 8
        assert not verdicts["rate"]["claim"]
        assert not verdicts["rate"]["regressed"]
        assert out["wins"]["op_s"] == {"change_lower": 9, "pairs": 10}
        # a median gap inside the parent's IQR carries no claim
        for values in change:
            values["op_s"] = 1.0 + 0.01 * 4.5 - 0.001
        narrow = module.summarize({"parent": [result(v) for v in parent],
                                   "change": [result(v) for v in change]},
                                  metrics)["verdicts"]["op_s"]
        assert not narrow["claim"]
        # a side with no values carries no claim, and a change without
        # them counts as regressed
        empty = module.summarize({"parent": [result(v) for v in parent],
                                  "change": [{"failed": 1}] * 10},
                                 metrics)["verdicts"]["op_s"]
        assert empty == {"claim": False, "regressed": True}

    @staticmethod
    def load_check(monkeypatch, name):
        # the check scripts import bench_pairs from their own directory
        scripts = Path(__file__).resolve().parents[1] / "scripts"
        monkeypatch.syspath_prepend(str(scripts))
        module_spec = importlib.util.spec_from_file_location(
            name, scripts / f"{name}.py")
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module

    def test_same_answer_designs_build(self, monkeypatch):
        # the same-answer check's 38 designs, built without solving
        module = self.load_check(monkeypatch, "same_answers")
        specs = {name: DesignSpec.from_json_dict(config)
                 for name, config in module.designs().items()}
        assert len(specs) == 38
        assert sorted(spec.fir_order for spec in specs.values()) == sorted(
            [*range(5, 26), 64, 49, 49, 64, 64, 50, 25, 25, 25, 49, 49, 49,
             64, 64, 64, 35, 35])
        tight = [spec for spec in specs.values()
                 if spec.solver == SolverSettings(gap_tol=1e-10, feas_tol=1e-9)]
        assert len(tight) == 10

    def test_same_output_commands_parse(self, monkeypatch):
        # the same-output check's 39 commands, parsed and their specs built
        # without running one; each reads inputs or earlier outputs, and the
        # 9 rejected evaluations write nothing
        from collections import Counter

        from ntfforge.cli import build_parser

        module = self.load_check(monkeypatch, "same_outputs")
        parsed = [build_parser().parse_args(argv)
                  for argv in module.commands()]
        assert Counter(args.command for args in parsed) == {
            "design": 3, "verify": 6, "evaluate": 21, "curves": 9}
        inputs = module.inputs()
        written = []
        rejected = 0
        for args in parsed:
            if args.command != "verify":
                DesignSpec.from_json_dict(json.loads(inputs[args.config]))
            if args.command != "design":
                assert args.ntf in [*inputs, *written, None]
            if args.out.endswith("-rejected.json"):
                rejected += 1
                continue
            written.append(args.out)
            if args.command == "evaluate":
                written.append(args.out[:-len(".json")] + "_integrand.csv")
        assert len(set(written) - set(inputs)) == len(written) == 42
        assert rejected == 9
