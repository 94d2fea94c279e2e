import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ntfforge
from ntfforge.cli import main, write_curve
from ntfforge.filters import FrequencyGrid
from oracles import polyval_zinv

FS = 256000.0


@pytest.fixture
def spec_path(tmp_path):
    spec = {
        "fs_hz": FS,
        "filter": {"kind": "lowpass_butterworth", "order": 1,
                   "bands_hz": [[0.0, 2000.0]]},
        "fir_order": 4,
        "gamma": 1.5,
        "quantizer_levels": [-1.0, 1.0],
        "solver": {"gap_tol": 1e-8, "feas_tol": 1e-8, "max_iter": 100},
        "grid_points": 2048,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def identity_spec_path(tmp_path):
    spec = {
        "fs_hz": FS,
        "filter": {"kind": "explicit_rational", "num": [1.0], "den": [1.0]},
        "fir_order": 5,
        "gamma": 1.5,
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(spec))
    return path


# the paper's lowpass case: a first-order 2 kHz Butterworth at 2.048 MHz
PAPER_LOWPASS = {
    "fs_hz": 2.048e6,
    "filter": {"kind": "lowpass_butterworth", "order": 1,
               "bands_hz": [[0.0, 2000.0]]},
    "fir_order": 12,
    "gamma": 1.5,
}


def set_grid_points(spec_path, points):
    """Rewrite the spec file with ``grid_points`` = points; returns its path."""
    spec = json.loads(spec_path.read_text())
    spec["grid_points"] = points
    spec_path.write_text(json.dumps(spec))
    return spec_path


def run_design(spec_path, tmp_path, name="ntf.json"):
    out = tmp_path / name
    code = main(["design", "--config", str(spec_path), "--out", str(out)])
    assert code == 0
    return out


class TestDesign:
    def test_writes_artifact_with_required_keys(self, spec_path, tmp_path):
        out = run_design(spec_path, tmp_path)
        artifact = json.loads(out.read_text())
        assert artifact["a"][0] == 1.0
        assert len(artifact["a"]) == 5
        assert artifact["gamma"] == 1.5
        assert artifact["sigma2_h"] > 0
        assert "p_matrix" in artifact["certificate"]
        assert artifact["certificate"]["grid_max"] <= 1.5 * 1.0001

    def test_identity_filter_gives_flat_ntf(self, identity_spec_path,
                                            tmp_path):
        out = run_design(identity_spec_path, tmp_path)
        artifact = json.loads(out.read_text())
        assert np.max(np.abs(artifact["a"][1:])) < 1e-6

    def test_byte_identical_reruns(self, spec_path, tmp_path):
        first = run_design(spec_path, tmp_path, "a.json").read_bytes()
        second = run_design(spec_path, tmp_path, "b.json").read_bytes()
        assert first == second

    def test_gamma_override(self, spec_path, tmp_path):
        out = tmp_path / "g2.json"
        code = main(["design", "--config", str(spec_path), "--out", str(out),
                     "--gamma", "2.0"])
        assert code == 0
        assert json.loads(out.read_text())["gamma"] == 2.0

    def test_missing_config_is_validation_error(self, tmp_path):
        code = main(["design", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_invalid_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["design", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_single_quantizer_level_is_validation_error(self, tmp_path):
        spec = {
            "fs_hz": FS,
            "filter": {"kind": "lowpass_butterworth", "order": 1,
                       "bands_hz": [[0.0, 2000.0]]},
            "fir_order": 4,
            "quantizer_levels": [1.0],
        }
        path = tmp_path / "one_level.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.json"
        code = main(["design", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("quantizer_levels", 1.0),
        ("filter", {"kind": "lowpass_butterworth", "order": "x",
                    "bands_hz": [[0.0, 2000.0]]}),
        # fractional integer fields are rejected, not truncated
        ("fir_order", 12.7),
        ("filter", {"kind": "lowpass_butterworth", "order": 1.9,
                    "bands_hz": [[0.0, 2000.0]]}),
        ("grid_points", 2048.5),
        ("grid_points", 1),
        ("solver", {"max_iter": 10.5}),
        ("fir_order", float("inf")),
        # non-finite numbers are rejected by the constructor that owns them
        ("gamma", float("nan")),
        ("fs_hz", float("inf")),
        ("quantizer_levels", [-1.0, float("nan"), 1.0]),
        ("quantizer_levels", [-1.0, float("inf")]),
        ("solver", {"gap_tol": float("nan")}),
        ("solver", {"feas_tol": float("inf")}),
    ])
    def test_malformed_value_is_validation_error(self, tmp_path, field, value):
        spec = {
            "fs_hz": FS,
            "filter": {"kind": "lowpass_butterworth", "order": 1,
                       "bands_hz": [[0.0, 2000.0]]},
            "fir_order": 4,
            field: value,
        }
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.json"
        code = main(["design", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["design", "sweep"])
    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_override_is_validation_error(
            self, spec_path, tmp_path, command, gamma):
        out = tmp_path / "x.out"
        orders = ["--orders", "2,3"] if command == "sweep" else []
        code = main([command, "--config", str(spec_path), "--out", str(out),
                     "--gamma", gamma, *orders])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_gamma_with_overflowing_square_is_validation_error(
            self, spec_path, tmp_path, command):
        # 1e200 is finite, but its square is not
        out = tmp_path / "x.out"
        orders = ["--orders", "2,3"] if command == "sweep" else []
        code = main([command, "--config", str(spec_path), "--out", str(out),
                     "--gamma", "1e200", *orders])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_gamma_where_eigenvalues_fail_is_solver_failure(
            self, tmp_path, capsys, command):
        # on the paper's lowpass P=12, gamma = 1e150 overflows the Newton
        # matrix; the solve ends as a numerical failure, design exits 3 and
        # sweep records it for every order
        path = tmp_path / "paper-lowpass.json"
        path.write_text(json.dumps(PAPER_LOWPASS))
        out = tmp_path / "x.out"
        orders = ["--orders", "5,12"] if command == "sweep" else []
        with np.errstate(all="ignore"):
            code = main([command, "--config", str(path), "--out", str(out),
                         "--gamma", "1e150", *orders])
        failure = "design solve ended with status 'numerical_failure' after "
        if command == "design":
            assert code == 3
            assert not out.exists()
            err = capsys.readouterr().err
            assert failure in err and "primal residual" in err
        else:
            assert code == 0
            rows = [line.split(",", 3)
                    for line in out.read_text().splitlines()[1:]]
            assert [row[0] for row in rows] == ["5", "12"]
            assert all(row[3].startswith(f"failed: {failure}")
                       for row in rows)

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_gamma_where_the_newton_matrix_overflows_stops_at_once(
            self, tmp_path, capsys, command):
        # at gamma = 1e150 the Newton matrix overflows within a few
        # iterations; the solve ends there, without a numpy warning, where
        # it used to run 138 iterations on overflowed data
        path = tmp_path / "paper-lowpass.json"
        path.write_text(json.dumps(PAPER_LOWPASS))
        out = tmp_path / "x.out"
        orders = ["--orders", "5,12"] if command == "sweep" else []
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out),
                         "--gamma", "1e150", *orders])
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        if command == "design":
            assert code == 3
            text = capsys.readouterr().err
        else:
            assert code == 0
            text = out.read_text()
        counts = re.findall(r"'numerical_failure' after (\d+) iterations",
                            text)
        assert len(counts) == (1 if command == "design" else 2)
        assert all(int(n) <= 10 for n in counts)

    def test_integral_float_fields_are_accepted(self, tmp_path):
        spec = {
            "fs_hz": FS,
            "filter": {"kind": "lowpass_butterworth", "order": 1.0,
                       "bands_hz": [[0.0, 2000.0]]},
            "fir_order": 4.0,
            "solver": {"max_iter": 100.0},
        }
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.json"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["a"]) == 5

    def test_filter_rate_mismatch_exits_2_before_any_solve(self, tmp_path,
                                                           monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("design solved a spec with two sample rates")

        monkeypatch.setattr("ntfforge.design.solve", no_solve)
        spec = {
            "fs_hz": 51200.0,
            "filter": {"kind": "bandpass_butterworth", "order": 8,
                       "bands_hz": [[800.0, 1200.0]], "fs_hz": 102400.0},
            "fir_order": 4,
        }
        path = tmp_path / "two_rates.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.json"
        code = main(["design", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_solver_cap_is_solver_failure(self, tmp_path):
        spec = {
            "fs_hz": FS,
            "filter": {"kind": "lowpass_butterworth", "order": 1,
                       "bands_hz": [[0.0, 2000.0]]},
            "fir_order": 4,
            "gamma": 1.5,
            "solver": {"max_iter": 1},
        }
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(spec))
        code = main(["design", "--config", str(path),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3


class TestSweep:
    def test_csv_columns_and_monotone_sigma(self, spec_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(spec_path),
                     "--orders", "2,3,5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "order,sigma_h,runtime_seconds,status"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [2, 3, 5]
        sigmas = [float(r[1]) for r in rows]
        assert all(s2 <= s1 * (1 + 2e-7) for s1, s2 in zip(sigmas, sigmas[1:]))
        assert all(r[3] == "optimal" for r in rows)

    def test_single_order(self, spec_path, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["sweep", "--config", str(spec_path), "--orders", "3",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_descending_orders_rejected(self, spec_path, tmp_path):
        code = main(["sweep", "--config", str(spec_path), "--orders", "5,3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("orders", ["5,x", "2.5", "3, 4e"])
    def test_malformed_order_is_validation_error(self, spec_path, tmp_path,
                                                 orders):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--config", str(spec_path), "--orders", orders,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestEvaluate:
    def test_roundtrip_reproduces_design_sigma2(self, spec_path, tmp_path):
        ntf_path = run_design(spec_path, tmp_path)
        designed = json.loads(ntf_path.read_text())
        out = tmp_path / "report.json"
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ntf_path), "--amplitude", "0.4",
                     "--signal", "sine:1000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sigma2_h"] == pytest.approx(designed["sigma2_h"],
                                                   rel=1e-9)
        assert report["pass"] is True
        assert np.isfinite(report["simulated_snr_db"])
        assert (tmp_path / "report_integrand.csv").exists()
        first_line = (tmp_path / "report_integrand.csv").read_text() \
            .splitlines()[0]
        assert first_line == "freq_hz,integrand_linear"

    @pytest.mark.parametrize("text", [
        '{"num": [1, 0.5], "den": [1, NaN]}',
        '{"a": "x"}',
        '{"a": [1, "x"]}',
    ])
    def test_malformed_artifact_is_validation_error(self, spec_path,
                                                    tmp_path, text):
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(text)
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ntf_path), "--amplitude", "0.4",
                     "--out", str(tmp_path / "report.json")])
        assert code == 2

    @pytest.mark.parametrize("signal", ["sine:abc", "multitone:1000,x"])
    def test_malformed_signal_frequency_is_validation_error(
            self, spec_path, tmp_path, signal):
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -0.5]}))
        out = tmp_path / "report.json"
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ntf_path), "--amplitude", "0.4",
                     "--signal", signal, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_external_rational_ntf_scored_by_quadrature(self, spec_path,
                                                        tmp_path):
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"num": [1.0, -1.0], "den": [1.0, -0.5]}))
        out = tmp_path / "ext_report.json"
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ext), "--amplitude", "0.4",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sigma2_h"] > 0
        assert report["simulated_snr_db"] is None

    @pytest.mark.parametrize("ntf", [{"a": [1.0, -0.5]},
                                     {"num": [1.0, -1.0], "den": [1.0, -0.5]}])
    def test_sine_with_two_tones_is_validation_error(self, spec_path,
                                                     tmp_path, ntf):
        # a sine is one tone, for FIR and rational NTFs alike
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps(ntf))
        code = main(["evaluate", "--config", str(spec_path), "--ntf",
                     str(ntf_path), "--amplitude", "0.4",
                     "--signal", "sine:900,1300",
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert sorted(tmp_path.iterdir()) == sorted([spec_path, ntf_path])

    # signals whose power is not the expected SNR's N A^2/2 (A^2 for dc):
    # two tones on one whole-cycle bin play one tone of twice the amplitude,
    # a tone on n/2 = 32768 cycles plays sin(pi t) = 0, a dc with a tone
    # drops the tone, and a non-finite amplitude has no power
    @pytest.mark.parametrize("ntf", [{"a": [1.0, -0.5]},
                                     {"num": [1.0, -1.0], "den": [1.0, -0.5]}],
                             ids=("fir", "rational"))
    @pytest.mark.parametrize("args", [
        ["--signal", "multitone:900,900"],
        ["--signal", f"sine:{FS / 2.0 - 1.0}"],
        ["--signal", "dc:900"],
        ["--amplitude", "nan"],
        ["--amplitude", "inf"],
    ], ids=("same-bin", "half-rate", "dc-with-tone", "nan", "inf"))
    def test_signal_off_the_power_rule_is_validation_error(
            self, spec_path, tmp_path, ntf, args):
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps(ntf))
        code = main(["evaluate", "--config", str(spec_path), "--ntf",
                     str(ntf_path), "--amplitude", "0.4", *args,
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert sorted(tmp_path.iterdir()) == sorted([spec_path, ntf_path])

    def test_dc_with_empty_tone_list_plays_dc(self, spec_path, tmp_path):
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -0.5]}))
        reports = []
        for name, signal in (("dc", "dc"), ("dc-colon", "dc:")):
            out = tmp_path / f"{name}.json"
            code = main(["evaluate", "--config", str(spec_path), "--ntf",
                         str(ntf_path), "--amplitude", "0.4",
                         "--signal", signal, "--out", str(out)])
            assert code == 0
            report = json.loads(out.read_text())
            del report["runtime_seconds"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["expected_snr_db"] == pytest.approx(
            10.0 * np.log10(0.4**2 / reports[0]["sigma2_h"]), abs=1e-12)

    def test_rational_ntf_quadrature_and_curve_share_the_spec_grid(
            self, spec_path, tmp_path):
        from ntfforge.design import DesignSpec
        from ntfforge.filters import design_filter
        from ntfforge.objective import sigma2_h

        set_grid_points(spec_path, 513)
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"num": [1.0, -1.0], "den": [1.0, -0.5]}))
        out = tmp_path / "report.json"
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ext), "--amplitude", "0.4",
                     "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "report_integrand.csv").read_text().splitlines()
        assert len(lines) == 1 + 513
        spec = DesignSpec.from_json_dict(json.loads(spec_path.read_text()))
        quad = sigma2_h((1.0, -1.0), (1.0, -0.5),
                        design_filter(spec.filter_spec), spec.budget,
                        FrequencyGrid.uniform(513))
        assert json.loads(out.read_text())["sigma2_h"] == quad

    def test_external_fir_quadrature_matches_autocorrelation_path(
            self, spec_path, tmp_path):
        coeffs = [1.0, -0.8, 0.3]
        ext = tmp_path / "fir.json"
        ext.write_text(json.dumps({"a": coeffs}))
        out = tmp_path / "fir_report.json"
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ext), "--amplitude", "0.4",
                     "--signal", "sine:1000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        # this NTF exceeds the spec's gamma, so the report must say so
        assert report["pass"] is False
        from ntfforge.design import DesignSpec
        from ntfforge.filters import FrequencyGrid, design_filter
        from ntfforge.objective import sigma2_h

        spec = DesignSpec.from_json_dict(json.loads(spec_path.read_text()))
        quad = sigma2_h(coeffs, (1.0,), design_filter(spec.filter_spec),
                        spec.budget, FrequencyGrid.uniform(4096))
        assert report["sigma2_h"] == pytest.approx(quad, rel=1e-6)

    def test_non_finite_quantizer_level_is_validation_error(self, tmp_path):
        # a spec that the design step rejects is rejected by evaluate too
        spec = {"fs_hz": FS,
                "filter": {"kind": "lowpass_butterworth", "order": 1,
                           "bands_hz": [[0.0, 2000.0]]},
                "fir_order": 1, "quantizer_levels": [-1.0, float("nan"), 1.0]}
        spec_file = tmp_path / "levels.json"
        spec_file.write_text(json.dumps(spec))
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -1.0]}))
        out = tmp_path / "report.json"
        code = main(["evaluate", "--config", str(spec_file), "--ntf",
                     str(ntf_path), "--amplitude", "0.4", "--out", str(out)])
        assert code == 2
        assert sorted(tmp_path.iterdir()) == sorted([spec_file, ntf_path])

    @pytest.mark.parametrize("grid", [0, 1, -5])
    def test_grid_below_two_is_validation_error(self, spec_path, tmp_path,
                                                grid):
        set_grid_points(spec_path, grid)
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -1.0]}))
        out = tmp_path / "report.json"
        code = main(["evaluate", "--config", str(spec_path), "--ntf",
                     str(ntf_path), "--amplitude", "0.4", "--out", str(out)])
        assert code == 2
        assert sorted(tmp_path.iterdir()) == sorted([spec_path, ntf_path])

    def test_strict_mode_fails_on_gain_violation(self, spec_path, tmp_path):
        ext = tmp_path / "hot.json"
        ext.write_text(json.dumps({"a": [1.0, -0.8, 0.3]}))
        code = main(["evaluate", "--config", str(spec_path),
                     "--ntf", str(ext), "--amplitude", "0.4",
                     "--signal", "sine:1000", "--strict",
                     "--out", str(tmp_path / "r.json")])
        assert code == 4


class TestCurves:
    def test_identity_filter_curve_is_zero_db(self, identity_spec_path,
                                              tmp_path):
        out = tmp_path / "filter.csv"
        code = main(["curves", "--what", "filter",
                     "--config", str(identity_spec_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "freq_hz,magnitude_db"
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.allclose(values, 0.0, atol=1e-9)

    def test_differentiator_ntf_curve_value_at_nyquist(self, spec_path,
                                                       tmp_path):
        ntf_path = tmp_path / "diff.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -1.0]}))
        out = tmp_path / "ntf.csv"
        code = main(["curves", "--what", "ntf",
                     "--config", str(set_grid_points(spec_path, 513)),
                     "--ntf", str(ntf_path), "--out", str(out)])
        assert code == 0
        last = out.read_text().strip().split("\n")[-1]
        freq, value = last.split(",")
        assert float(freq) == pytest.approx(FS / 2.0, rel=1e-9)
        assert float(value) == pytest.approx(20 * np.log10(2.0), abs=1e-9)

    @pytest.mark.parametrize("what", ["ntf", "integrand"])
    def test_ntf_curve_without_ntf_is_validation_error(self, spec_path,
                                                       tmp_path, what):
        out = tmp_path / "x.csv"
        code = main(["curves", "--what", what, "--config", str(spec_path),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_ntf_curve_keeps_the_bits_of_a_fresh_grid(self, spec_path,
                                                      tmp_path):
        # the CSV of a response evaluated on a grid built for this call and
        # written line by line
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -1.2, 0.5, 0.1]}))
        out = tmp_path / "ntf.csv"
        code = main(["curves", "--what", "ntf",
                     "--config", str(set_grid_points(spec_path, 1025)),
                     "--ntf", str(ntf_path), "--out", str(out)])
        assert code == 0
        omegas = np.linspace(0.0, np.pi, 1025)
        response = polyval_zinv([1.0, -1.2, 0.5, 0.1], np.exp(-1j * omegas))
        values = 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))
        want = "freq_hz,magnitude_db\n" + "".join(
            f"{f:.10g},{v:.12e}\n"
            for f, v in zip(omegas * FS / (2.0 * np.pi), values))
        assert out.read_text() == want

    def test_curve_bytes_match_the_per_line_form(self, tmp_path):
        values = np.array([0.0, -0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf,
                           -2.5e-7, 1.0 / 3.0])
        grid = FrequencyGrid.uniform(values.size)
        out = tmp_path / "curve.csv"
        write_curve(str(out), "value", grid, FS, values)
        freq_hz = grid.omegas * FS / (2.0 * np.pi)
        want = "freq_hz,value\n" + "".join(
            f"{f:.10g},{v:.12e}\n" for f, v in zip(freq_hz, values))
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("grid", [0, 1, -5])
    def test_grid_below_two_is_validation_error(self, spec_path, tmp_path,
                                                grid):
        out = tmp_path / "filter.csv"
        code = main(["curves", "--what", "filter",
                     "--config", str(set_grid_points(spec_path, grid)),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_kind_rejected(self, spec_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["curves", "--what", "bogus", "--config", str(spec_path),
                  "--out", str(tmp_path / "x.csv")])


class TestVerify:
    def test_designed_ntf_verifies(self, spec_path, tmp_path):
        ntf_path = run_design(spec_path, tmp_path)
        cert_out = tmp_path / "cert.json"
        code = main(["verify", "--ntf", str(ntf_path),
                     "--out", str(cert_out)])
        assert code == 0
        cert = json.loads(cert_out.read_text())
        assert cert["grid_max"] <= 1.5 * 1.0001

    def test_design_artifact_verifies_from_stored_certificate(
            self, spec_path, tmp_path, monkeypatch):
        import ntfforge.sdp as sdp

        ntf_path = run_design(spec_path, tmp_path)

        def no_gramian_witness(*args, **kwargs):
            raise AssertionError("verify built the lossless-extension Gramian witness")

        monkeypatch.setattr(sdp, "solve_gain_feasibility", no_gramian_witness)
        cert_out = tmp_path / "cert.json"
        code = main(["verify", "--ntf", str(ntf_path),
                     "--out", str(cert_out)])
        assert code == 0
        stored = json.loads(ntf_path.read_text())["certificate"]
        assert json.loads(cert_out.read_text())["p_matrix"] \
            == stored["p_matrix"]

    def test_doubled_tail_with_stored_certificate_exits_4(self, spec_path,
                                                           tmp_path):
        from ntfforge.kyp import grid_gain_max

        ntf_path = run_design(spec_path, tmp_path)
        artifact = json.loads(ntf_path.read_text())
        a = np.asarray(artifact["a"])
        artifact["a"] = [a[0]] + (2.0 * a[1:]).tolist()
        assert grid_gain_max(artifact["a"]) > 1.5 * 1.0001
        ntf_path.write_text(json.dumps(artifact))
        code = main(["verify", "--ntf", str(ntf_path)])
        assert code == 4

    def test_shrunk_tail_falls_back_to_gramian_witness(
            self, spec_path, tmp_path, monkeypatch):
        # (1 - e) H + e has gain <= (1 - e) gamma + e <= gamma, so the edited
        # NTF meets the bound, but the design sits on the LMI boundary and
        # the stored certificate no longer fits it
        import ntfforge.sdp as sdp
        from ntfforge.kyp import FEAS_EIG_TOL
        from oracles import bounded_real_matrix, canonical_realization

        ntf_path = run_design(spec_path, tmp_path)
        artifact = json.loads(ntf_path.read_text())
        a = np.asarray(artifact["a"])
        artifact["a"] = [a[0]] + (0.999 * a[1:]).tolist()
        big = bounded_real_matrix(
            canonical_realization(artifact["a"]),
            np.asarray(artifact["certificate"]["p_matrix"]), 1.5)
        assert np.linalg.eigvalsh(big)[-1] > FEAS_EIG_TOL * 1.5**2
        ntf_path.write_text(json.dumps(artifact))
        calls = []
        genuine = sdp.solve_gain_feasibility

        def counted(*args, **kwargs):
            calls.append(args)
            return genuine(*args, **kwargs)

        monkeypatch.setattr(sdp, "solve_gain_feasibility", counted)
        code = main(["verify", "--ntf", str(ntf_path)])
        assert code == 0
        assert len(calls) == 1

    def test_certificate_needs_only_p_matrix_and_gamma(
            self, spec_path, tmp_path, monkeypatch):
        import ntfforge.sdp as sdp

        ntf_path = run_design(spec_path, tmp_path)
        artifact = json.loads(ntf_path.read_text())
        stored = artifact["certificate"]
        artifact["certificate"] = {"p_matrix": stored["p_matrix"],
                                   "gamma": stored["gamma"]}
        ntf_path.write_text(json.dumps(artifact))

        def no_gramian_witness(*args, **kwargs):
            raise AssertionError("verify built the lossless-extension Gramian witness")

        monkeypatch.setattr(sdp, "solve_gain_feasibility", no_gramian_witness)
        code = main(["verify", "--ntf", str(ntf_path)])
        assert code == 0

    def test_gamma_override_builds_gramian_witness(
            self, spec_path, tmp_path, monkeypatch):
        import ntfforge.sdp as sdp

        ntf_path = run_design(spec_path, tmp_path)
        calls = []
        genuine = sdp.solve_gain_feasibility

        def counted(*args, **kwargs):
            calls.append(args)
            return genuine(*args, **kwargs)

        monkeypatch.setattr(sdp, "solve_gain_feasibility", counted)
        code = main(["verify", "--ntf", str(ntf_path), "--gamma", "2.0"])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("override", [True, False])
    def test_gamma_with_overflowing_square_is_validation_error(
            self, tmp_path, override):
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps(
            {"a": [1.0, 0.25], "gamma": 1.5 if override else 1e200}))
        out = tmp_path / "cert.json"
        gamma = ["--gamma", "1e200"] if override else []
        code = main(["verify", "--ntf", str(ntf_path), *gamma,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("override", [True, False])
    def test_gamma_whose_witness_overflows_is_validation_error(
            self, tmp_path, override):
        # 1.3e154 has a finite square, but the witness polynomial
        # g^2 - |A|^2 over its leading coefficient 0.25 has not
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps(
            {"a": [1.0, 0.25], "gamma": 1.5 if override else 1.3e154}))
        out = tmp_path / "cert.json"
        gamma = ["--gamma", "1.3e154"] if override else []
        code = main(["verify", "--ntf", str(ntf_path), *gamma,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("den, code", [([1.0, -0.5], 2), ([1.0], 0)])
    def test_artifact_read_as_evaluate_reads_it(self, tmp_path, capsys, den,
                                                code):
        # a num/den artifact is an FIR NTF when den is [1], as in evaluate
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"num": [1.0, 0.25], "den": den}))
        out = tmp_path / "cert.json"
        assert main(["verify", "--ntf", str(ntf_path), "--gamma", "1.5",
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "verify takes an FIR 'a'" in capsys.readouterr().err

    def test_bound_violation_exit_code(self, tmp_path):
        ntf_path = tmp_path / "diff.json"
        ntf_path.write_text(json.dumps({"a": [1.0, -1.0], "gamma": 1.5}))
        code = main(["verify", "--ntf", str(ntf_path)])
        assert code == 4

    @pytest.mark.parametrize("coeffs", [[1.0], [1.0, 0.0]])
    def test_flat_ntf_below_unit_gamma_exits_4(self, tmp_path, coeffs):
        # [1.0] and [1.0, 0.0] are the same NTF, of gain 1 > gamma
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": coeffs, "gamma": 0.99995}))
        assert main(["verify", "--ntf", str(ntf_path)]) == 4

    @pytest.mark.parametrize("coeffs, code", [
        ([0.5], 2), ([0.5, 0.0], 2), ([1.0], 0),
    ])
    def test_leading_coefficient_checked_at_every_order(self, tmp_path,
                                                        coeffs, code):
        # [0.5] and [0.5, 0.0] are the same NTF
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({"a": coeffs, "gamma": 1.5}))
        assert main(["verify", "--ntf", str(ntf_path)]) == code

    @pytest.mark.parametrize("text, code", [
        ('{"a": [1, NaN], "gamma": 1.5}', 2),
        ('{"a": [1, Infinity], "gamma": 1.5}', 2),
        ('{"a": "x", "gamma": 1.5}', 2),
        ('{"a": [1, "x"], "gamma": 1.5}', 2),
        ('{"a": [[1, 0.5]], "gamma": 1.5}', 2),
        ('{"a": 1.0, "gamma": 1.5}', 2),
        ('{"a": [1, 0.25], "gamma": "x"}', 2),
        ('{"a": [1, 0.25], "gamma": [1.5]}', 2),
        ('"abc"', 2),
        ('5', 2),
        # a stored certificate that is not finite is set aside, and verify
        # builds its own witness
        ('{"a": [1, 0.25], "gamma": 1.5, "certificate": '
         '{"gamma": 1.5, "p_matrix": [[NaN]]}}', 0),
        ('{"a": [1, 0.25], "gamma": 1.5, "certificate": '
         '{"gamma": 1.5, "p_matrix": [[Infinity]]}}', 0),
    ])
    def test_malformed_artifact_exit_code(self, tmp_path, text, code):
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(text)
        assert main(["verify", "--ntf", str(ntf_path)]) == code

    def test_non_unit_leading_with_stored_certificate_exits_2(
            self, tmp_path, monkeypatch):
        import ntfforge.sdp as sdp

        def no_gramian_witness(*args, **kwargs):
            raise AssertionError("verify fell back to another witness")

        monkeypatch.setattr(sdp, "solve_gain_feasibility", no_gramian_witness)
        ntf_path = tmp_path / "ntf.json"
        ntf_path.write_text(json.dumps({
            "a": [0.5, 0.1, 0.0], "gamma": 1.5,
            "certificate": {"gamma": 1.5,
                            "p_matrix": [[1.0, 0.0], [0.0, 1.0]]},
        }))
        assert main(["verify", "--ntf", str(ntf_path)]) == 2

    def test_osr_spec_resolves_sample_rate(self, tmp_path):
        spec = {
            "osr": 64,
            "filter": {"kind": "bandpass_butterworth", "order": 8,
                       "bands_hz": [[800.0, 1200.0]]},
            "fir_order": 2,
            "gamma": 1.5,
        }
        path = tmp_path / "osr.json"
        path.write_text(json.dumps(spec))
        from ntfforge.cli import load_design_spec

        loaded = load_design_spec(str(path))
        assert loaded.fs_hz == pytest.approx(2 * 64 * 400.0)


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # the package runs on numpy alone; scipy is a test-only oracle
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            ntfforge.__file__)))
        code = ("import ntfforge.cli, sys; print(sorted(m for m in sys.modules"
                " if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"
