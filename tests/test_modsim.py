import math

import numpy as np
import pytest
import scipy.signal as spsig
from hypothesis import given, settings
from hypothesis import strategies as st

from ntfforge.errors import InvalidSpecError, NtfForgeError
from ntfforge.filters import RationalFilter
from ntfforge.modsim import (
    ModTrace,
    NtfFir,
    Quantizer,
    expected_snr,
    make_test_signal,
    measure_snr,
    simulate,
)


class TestNtfFir:
    def test_rejects_non_unit_leading(self):
        with pytest.raises(InvalidSpecError):
            NtfFir(coeffs=np.array([0.9, 0.1]))

    def test_order(self):
        assert NtfFir(coeffs=np.array([1.0, -1.0])).order == 1


class TestQuantizer:
    def test_binary_default(self):
        q = Quantizer()
        assert q.quantize(0.3) == 1.0
        assert q.quantize(-0.3) == -1.0

    def test_midpoint_rounds_up(self):
        q = Quantizer()
        assert q.quantize(0.0) == 1.0
        q4 = Quantizer(levels=(-3.0, -1.0, 1.0, 3.0))
        assert q4.delta == 2.0
        assert q4.quantize(-2.0) == -1.0
        assert q4.quantize(2.0) == 3.0
        assert q4.quantize(-2.1) == -3.0
        assert q4.quantize(100.0) == 3.0

    def test_rejects_bad_levels(self):
        with pytest.raises(InvalidSpecError):
            Quantizer(levels=(1.0,))
        with pytest.raises(InvalidSpecError):
            Quantizer(levels=(1.0, 1.0))


class TestSimulate:
    def test_flat_ntf_is_memoryless_quantization(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(-1, 1, 256)
        trace = simulate(NtfFir(coeffs=np.array([1.0])), w)
        assert np.array_equal(trace.output_x, np.where(w >= 0, 1.0, -1.0))

    def test_first_order_tracks_dc(self):
        n = 2**16
        trace = simulate(NtfFir(coeffs=np.array([1.0, -1.0])),
                         np.full(n, 0.5))
        post = trace.output_x[64:]
        assert abs(np.mean(post) - 0.5) <= 2.0 / post.size * 4
        assert not trace.overloaded

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_error_feedback_identity(self, order_p, seed):
        # x - w equals the NTF applied to the stored error, bit-level; the
        # check needs a bounded run (a diverging loop loses the identity to
        # floating-point cancellation at huge error magnitudes)
        rng = np.random.default_rng(seed)
        coeffs = np.concatenate(([1.0], rng.normal(size=order_p) * 0.3
                                 / order_p))
        ntf = NtfFir(coeffs=coeffs)
        w = rng.uniform(-0.5, 0.5, 512)
        trace = simulate(ntf, w)
        assert np.max(np.abs(trace.quant_error_e)) < 4.0
        shaped = spsig.lfilter(coeffs, [1.0], trace.quant_error_e)
        assert np.max(np.abs((trace.output_x - w) - shaped)) < 1e-12

    def test_overload_flag_matches_error_magnitude(self):
        ntf = NtfFir(coeffs=np.array([1.0, -1.0]))
        quiet = simulate(ntf, np.full(512, 0.3))
        assert not quiet.overloaded
        assert np.max(np.abs(quiet.quant_error_e[quiet.transient_discard:])) \
            <= 1.0 + 1e-12
        loud = simulate(ntf, np.full(512, 5.0))
        assert loud.overloaded

    def test_rejects_non_finite_input(self):
        with pytest.raises(InvalidSpecError):
            simulate(NtfFir(coeffs=np.array([1.0])), np.array([1.0, np.nan]))

    def test_open_loop_dither_spectrum_follows_ntf(self):
        # linear-model consistency: injecting white error open loop, the
        # output PSD over the error PSD tracks |NTF|^2
        rng = np.random.default_rng(8)
        coeffs = np.array([1.0, 0.5, 0.25])
        err = rng.uniform(-0.5, 0.5, 2**16)
        out = spsig.lfilter(coeffs, [1.0], err)
        nper = 2**10
        freqs, p_err = spsig.welch(err, nperseg=nper)
        _, p_out = spsig.welch(out, nperseg=nper)
        ratio_db = 10 * np.log10(p_out / p_err)
        om = 2 * np.pi * freqs
        ntf_mag2 = np.abs(sum(c * np.exp(-1j * om * k)
                              for k, c in enumerate(coeffs))) ** 2
        assert np.max(np.abs(ratio_db - 10 * np.log10(ntf_mag2))) < 1.0


class TestMeasureSnr:
    def test_perfect_tracking_caps_snr(self):
        w = np.where(np.sin(np.arange(4096) * 0.01) >= 0, 1.0, -1.0)
        trace = ModTrace(input_w=w, output_x=w.copy(),
                         quant_error_e=np.zeros_like(w), overloaded=False,
                         transient_discard=16)
        filt = RationalFilter.identity()
        report = measure_snr(trace, filt)
        assert report.noise_power == 0.0
        assert report.snr_db == 300.0

    def test_zero_signal_rejected(self):
        trace = ModTrace(input_w=np.zeros(4096), output_x=np.ones(4096),
                         quant_error_e=np.zeros(4096), overloaded=False,
                         transient_discard=16)
        with pytest.raises(NtfForgeError):
            measure_snr(trace, RationalFilter.identity())

    def test_too_short_trace_rejected(self):
        filt = RationalFilter.from_polynomials(num=(1.0,), den=(1.0, -0.999))
        trace = ModTrace(input_w=np.ones(64), output_x=np.ones(64),
                         quant_error_e=np.zeros(64), overloaded=False,
                         transient_discard=4)
        with pytest.raises(InvalidSpecError):
            measure_snr(trace, filt)

    def test_white_noise_level_through_identity(self):
        rng = np.random.default_rng(5)
        w = np.sin(2 * np.pi * 37 * np.arange(2**14) / 2**14) * 0.5
        noise = rng.uniform(-0.05, 0.05, w.size)
        trace = ModTrace(input_w=w, output_x=w + noise,
                         quant_error_e=noise, overloaded=False,
                         transient_discard=8)
        report = measure_snr(trace, RationalFilter.identity())
        expected = 10 * math.log10(np.mean(w[8:]**2) / np.mean(noise[8:]**2))
        assert report.snr_db == pytest.approx(expected, abs=0.2)


class TestExpectedSnr:
    def test_ratio_of_two_is_three_db(self):
        sigma2 = 0.04
        amplitude = math.sqrt(4 * sigma2)  # A^2 / (2 sigma2) = 2
        report = expected_snr(amplitude, sigma2)
        assert report.snr_db == pytest.approx(10 * math.log10(2.0), abs=1e-9)
        assert report.method == "expected"

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpecError):
            expected_snr(0.0, 1.0)
        with pytest.raises(InvalidSpecError):
            expected_snr(1.0, 0.0)


class TestMakeTestSignal:
    def test_sine_peak_is_exact_for_coherent_tone(self):
        w = make_test_signal("sine", (1000.0,), (0.4,), 2.048e6, 2**16)
        assert np.max(np.abs(w)) == pytest.approx(0.4, abs=1e-12)

    def test_coherence_no_leakage(self):
        n = 2**12
        w = make_test_signal("sine", (997.0,), (1.0,), 48000.0, n)
        spectrum = np.abs(np.fft.rfft(w))
        peak_bin = int(np.argmax(spectrum))
        others = np.delete(spectrum, peak_bin)
        assert np.max(others) < 1e-9 * spectrum[peak_bin]

    def test_multitone_peak_bounded(self):
        w = make_test_signal("multitone", (1000.0, 10000.0), (0.45, 0.45),
                             563200.0, 2**16)
        assert np.max(np.abs(w)) <= 0.9 + 1e-12

    def test_dc(self):
        w = make_test_signal("dc", (), (0.5,), 1000.0, 64)
        assert np.array_equal(w, np.full(64, 0.5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_test_signal("multitone", (100.0, 200.0), (0.1,), 1000.0, 64)

    def test_frequency_above_nyquist_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_test_signal("sine", (600.0,), (1.0,), 1000.0, 64)
