import dataclasses
import json

import numpy as np
import pytest

import ntfforge.design as design
from ntfforge.cli import main
from ntfforge.design import DesignSpec, evaluate_ntf, run_design
from ntfforge.errors import BoundViolationError
from ntfforge.filters import FilterSpec
from ntfforge.modsim import NtfFir

FS = 256000.0


def lowpass_spec(fir_order=4, gamma=1.5):
    return DesignSpec(
        fs_hz=FS,
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


def forge_certificate(monkeypatch, name, value):
    genuine = design.certificate_from_solution

    def forged(*args):
        return dataclasses.replace(genuine(*args), **{name: value})

    monkeypatch.setattr(design, "certificate_from_solution", forged)


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
        return evaluate_ntf(ntf, spec, 0.3, signal_kind=kind, freqs_hz=freqs,
                            n_samples=2**14, sigma2_h_value=1e-5)

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

    def test_dc_on_two_band_spec_uses_one_amplitude(self):
        # the default tones are one per band; dc must still get one level
        fs = 2 * 64 * 4400.0
        spec = DesignSpec(
            fs_hz=fs,
            filter_spec=FilterSpec(kind="multiband_butterworth", fs_hz=fs,
                                   order=4, bands_hz=((800.0, 1200.0),
                                                      (8000.0, 12000.0))),
            fir_order=4,
        )
        ntf = NtfFir(coeffs=np.array([1.0, -1.0]))
        rep = evaluate_ntf(ntf, spec, 0.3, signal_kind="dc", n_samples=2**14,
                           sigma2_h_value=1e-5)
        assert rep.expected_snr_db == pytest.approx(
            10.0 * np.log10(0.3**2 / 1e-5), abs=1e-12)
        assert np.isfinite(rep.simulated_snr_db)
