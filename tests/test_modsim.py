import math
import warnings

import numpy as np
import pytest
import scipy.signal as spsig
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ntfforge.design import DesignSpec, default_tone_freqs, run_design
from ntfforge.errors import InvalidSpecError, NtfForgeError
from ntfforge.filters import RationalFilter
from ntfforge.modsim import (
    OVERLOAD_EPS,
    ModTrace,
    NtfFir,
    Quantizer,
    _inverse_taps,
    expected_snr,
    make_test_signal,
    measure_snr,
    simulate,
)
from oracles import quantize, replayed_loop

IDENTITY = RationalFilter.from_polynomials((1.0,), (1.0,))


def reference_simulate(ntf: NtfFir, input_w, quantizer: Quantizer | None = None) -> ModTrace:
    """Run the error-feedback loop over the input sequence.

    Recursion: y(n) = w(n) + sum_k a_k e(n-k), x(n) = quantize(y(n)),
    e(n) = x(n) - y(n).  The stored error satisfies x - w = conv(a, e)
    exactly, so the injected error is shaped by the designed NTF with a
    unity signal path.  The first 4P samples are the loop's transient; the
    overload check starts after them: it flags a sum past an outer level by
    more than half the outer step.
    """
    w = np.asarray(input_w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidSpecError("input contains non-finite samples")
    quantizer = quantizer or Quantizer()
    p = ntf.order
    n_discard = 4 * p
    tail = ntf.coeffs[1:]
    n = w.size
    x = np.empty(n)
    e = np.empty(n)
    sums = np.empty(n)
    buf = [0.0] * p  # buf[k] = e(n-1-k)
    levels = quantizer.levels
    nlev = len(levels)
    binary = nlev == 2
    lo_lv, hi_lv = levels[0], levels[-1]
    mid0 = 0.5 * (lo_lv + hi_lv)
    tail_list = tail.tolist()
    w_list = w.tolist()
    for i in range(n):
        acc = w_list[i]
        for k in range(p):
            acc += tail_list[k] * buf[k]
        if binary:
            xi = hi_lv if acc >= mid0 else lo_lv
        else:
            xi = quantize(quantizer, acc)
        ei = xi - acc
        x[i] = xi
        e[i] = ei
        sums[i] = acc
        if p:
            buf.pop()
            buf.insert(0, ei)
    post = sums[min(n_discard, n):]
    lo_edge = lo_lv - (levels[1] - levels[0]) / 2 - OVERLOAD_EPS
    hi_edge = hi_lv + (levels[-1] - levels[-2]) / 2 + OVERLOAD_EPS
    overloaded = bool(np.any((post < lo_edge) | (post > hi_edge)))
    return ModTrace(input_w=w, output_x=x, quant_error_e=e,
                    overloaded=overloaded, transient_discard=n_discard)


def assert_matches_reference(trace, ref):
    # decisions equal; errors equal to rounding, which scales with them
    assert np.array_equal(trace.output_x, ref.output_x)
    scale = max(1.0, float(np.max(np.abs(ref.quant_error_e), initial=0.0)))
    assert np.max(np.abs(trace.quant_error_e - ref.quant_error_e),
                  initial=0.0) <= 1e-12 * scale
    assert trace.overloaded == ref.overloaded
    assert trace.transient_discard == ref.transient_discard


class TestNtfFir:
    def test_rejects_non_unit_leading(self):
        with pytest.raises(InvalidSpecError):
            NtfFir(coeffs=np.array([0.9, 0.1]))

    def test_order(self):
        assert NtfFir(coeffs=np.array([1.0, -1.0])).order == 1


class TestQuantizer:
    def test_binary_default(self):
        q = Quantizer()
        assert quantize(q, 0.3) == 1.0
        assert quantize(q, -0.3) == -1.0

    def test_midpoint_rounds_up(self):
        q = Quantizer()
        assert quantize(q, 0.0) == 1.0
        q4 = Quantizer(levels=(-3.0, -1.0, 1.0, 3.0))
        assert q4.delta == 2.0
        assert quantize(q4, -2.0) == -1.0
        assert quantize(q4, 2.0) == 3.0
        assert quantize(q4, -2.1) == -3.0
        assert quantize(q4, 100.0) == 3.0

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

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_error_feedback_identity(self, order_p, seed):
        # x - w equals the NTF applied to the stored error up to rounding,
        # which scales with the sum of the terms, sum |a_k| max |e|; the
        # check needs a bounded run (a diverging loop loses the identity to
        # floating-point cancellation at huge error magnitudes)
        rng = np.random.default_rng(seed)
        coeffs = np.concatenate(([1.0], rng.normal(size=order_p) * 0.3
                                 / order_p))
        ntf = NtfFir(coeffs=coeffs)
        w = rng.uniform(-0.5, 0.5, 512)
        trace = simulate(ntf, w)
        max_e = np.max(np.abs(trace.quant_error_e))
        assert max_e < 4.0
        shaped = spsig.lfilter(coeffs, [1.0], trace.quant_error_e)
        tol = 1e-12 * np.sum(np.abs(coeffs)) * max_e
        assert np.max(np.abs((trace.output_x - w) - shaped)) <= tol

    def test_overload_flag_matches_error_magnitude(self):
        ntf = NtfFir(coeffs=np.array([1.0, -1.0]))
        quiet = simulate(ntf, np.full(512, 0.3))
        assert not quiet.overloaded
        assert np.max(np.abs(quiet.quant_error_e[quiet.transient_discard:])) \
            <= 1.0 + 1e-12
        loud = simulate(ntf, np.full(512, 5.0))
        assert loud.overloaded

    # unevenly spaced levels: the outer edges are -1.4 and 1.25, while the
    # mean step is 2/3 and the widest in-range error 0.4 (half the 0.8 gap)
    UNEVEN = Quantizer(levels=(-1.0, -0.2, 0.5, 1.0))
    FLAT = NtfFir(coeffs=np.array([1.0]))

    def test_uneven_levels_in_range_not_overloaded(self):
        w = np.random.default_rng(6).uniform(-0.9, 0.9, 4096)
        trace = simulate(self.FLAT, w, self.UNEVEN)
        assert np.max(np.abs(trace.quant_error_e)) > self.UNEVEN.delta / 2
        assert not trace.overloaded
        assert not reference_simulate(self.FLAT, w, self.UNEVEN).overloaded

    @pytest.mark.parametrize("level, overloaded", [(1.3, True), (1.2, False)])
    def test_uneven_levels_overload_past_outer_edge(self, level, overloaded):
        w = np.full(64, level)
        assert simulate(self.FLAT, w, self.UNEVEN).overloaded is overloaded
        assert reference_simulate(self.FLAT, w,
                                  self.UNEVEN).overloaded is overloaded

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


@st.composite
def quantizers(draw):
    """2 to 5 levels, evenly or unevenly spaced."""
    nlev = draw(st.integers(2, 5))
    low = draw(st.floats(-1.5, -0.5))
    if draw(st.booleans()):
        steps = [2.0 * -low / (nlev - 1)] * (nlev - 1)
    else:
        steps = draw(st.lists(st.floats(0.2, 1.5), min_size=nlev - 1,
                              max_size=nlev - 1))
    return Quantizer(levels=tuple(low + np.concatenate(([0.0],
                                                        np.cumsum(steps)))))


class TestBlockLoop:
    """``simulate`` runs by blocks; the per-sample loop is its oracle."""

    @given(st.integers(0, 64), quantizers(),
           st.sampled_from(("0", "1", "L-1", "L", "L+1", "517")),
           st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sample_loop(self, order_p, quantizer, length, gain,
                                     seed):
        # sum |a_k| = gain < 1 keeps the loop bounded for any input in range
        rng = np.random.default_rng(seed)
        tail = rng.normal(size=order_p)
        tail *= gain / max(np.sum(np.abs(tail)), 1e-300)
        ntf = NtfFir(coeffs=np.concatenate(([1.0], tail)))
        block = _inverse_taps(ntf.coeffs, len(quantizer.levels)).size
        n = {"0": 0, "1": 1, "L-1": block - 1, "L": block, "L+1": block + 1,
             "517": 517}[length]
        lo, hi = quantizer.levels[0], quantizer.levels[-1]
        w = rng.uniform(lo, hi, n)
        assert_matches_reference(simulate(ntf, w, quantizer),
                                 reference_simulate(ntf, w, quantizer))

    def test_ties_go_up(self):
        # inputs on the thresholds, and a first-order loop whose sums hit 0
        q4 = Quantizer(levels=(-3.0, -1.0, 1.0, 3.0))
        flat = NtfFir(coeffs=np.array([1.0]))
        trace = simulate(flat, np.array(q4.midpoints), q4)
        assert np.array_equal(trace.output_x, q4.levels[1:])
        first = NtfFir(coeffs=np.array([1.0, -1.0]))
        w = np.full(64, 0.5)
        ref = reference_simulate(first, w)
        assert np.any(ref.output_x - ref.quant_error_e == 0.0)
        assert_matches_reference(simulate(first, w), ref)

    def test_block_length_rule(self):
        # the largest L with nlev^(L-1) <= 2^11 ...
        small = np.array([1.0, 0.1])
        assert [_inverse_taps(small, nlev).size for nlev in (2, 3, 4, 5)] \
            == [12, 7, 6, 5]
        assert _inverse_taps(small, 2**11 + 1).size == 1
        # ... cut before the first tap of 1/A(z) above 1e3: 1/(1 - 3 z^-1)
        # has taps 3^m, and 3^7 = 2187
        assert np.array_equal(_inverse_taps(np.array([1.0, -3.0]), 2),
                              3.0 ** np.arange(7))
        assert _inverse_taps(np.array([1.0, 2e3]), 2).size == 1

    @pytest.mark.parametrize("coeffs", ([1.0, -3.0], [1.0, 2e3, 0.5]))
    def test_shortened_blocks_match_per_sample_loop(self, coeffs):
        # diverging loops whose taps cut L to 7 and to 1
        ntf = NtfFir(coeffs=np.array(coeffs))
        w = np.random.default_rng(4).uniform(-0.5, 0.5, 40)
        assert_matches_reference(simulate(ntf, w), reference_simulate(ntf, w))


BANDPASS = {"fs_hz": 2 * 64 * 400.0,
            "filter": {"kind": "bandpass_butterworth", "order": 8,
                       "bands_hz": [[800.0, 1200.0]]}}
LOWPASS = {"fs_hz": 2.048e6,
           "filter": {"kind": "lowpass_butterworth", "order": 1,
                      "bands_hz": [[0.0, 2000.0]]}}


class TestBlockLoopOnDesigns:
    # 2^16 samples of the paper's lowpass P=12 case, the bandpass P=49 case,
    # whose loop overloads at A = 0.75 (max |e| 1.7), and bandpass P=64,
    # whose loop diverges to |e| ~ 1.7e3: the block's two terms cancel most
    # on the last two
    @pytest.mark.parametrize("config, amplitude, max_e", (
        ({**LOWPASS, "fir_order": 12, "gamma": 1.5}, 0.4, 1.0),
        ({**BANDPASS, "fir_order": 49, "gamma": 1.5}, 0.75, 1.5),
        ({**BANDPASS, "fir_order": 64, "gamma": 1.5}, 0.75, 1e3),
    ), ids=("lowpass-p12", "bandpass-p49", "bandpass-p64"))
    def test_output_equals_per_sample_loop(self, config, amplitude, max_e):
        spec = DesignSpec.from_json_dict(config)
        result = run_design(spec)
        w = make_test_signal("sine", default_tone_freqs(spec)[:1],
                             amplitude, spec.fs_hz, 2**16)
        trace = simulate(result.ntf, w, spec.quantizer)
        ref = reference_simulate(result.ntf, w, spec.quantizer)
        assert np.max(np.abs(ref.quant_error_e)) >= max_e
        assert trace.output_x.tobytes() == ref.output_x.tobytes()
        assert_matches_reference(trace, ref)
        assert measure_snr(trace, result.filt) == measure_snr(ref, result.filt)


class TestDivergingLoop:
    """A loop that diverges until its errors are no longer finite is
    overloaded: the per-sample loop flags its last finite sums, and the block
    loop its non-finite ones."""

    def test_doubled_lowpass_tail_is_overloaded(self):
        # the lowpass P=12 design with its tail doubled (grid max 2.26)
        spec = DesignSpec.from_json_dict({**LOWPASS, "fir_order": 12,
                                          "gamma": 1.5})
        coeffs = run_design(spec).ntf.coeffs.copy()
        coeffs[1:] *= 2.0
        ntf = NtfFir(coeffs=coeffs)
        w = make_test_signal("sine", default_tone_freqs(spec)[:1], 0.4,
                             spec.fs_hz, 2**16)
        with np.errstate(invalid="ignore", over="ignore"):
            trace = simulate(ntf, w, spec.quantizer)
        assert not np.all(np.isfinite(trace.quant_error_e))
        assert trace.overloaded
        assert reference_simulate(ntf, w, spec.quantizer).overloaded

    @given(st.integers(0, 63), st.floats(2.0, 4.0), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flag_matches_per_sample_loop(self, order_p, root, negative,
                                          seed):
        # A(z) = (1 - r z^-1) B(z) with sum |b_k| <= 0.5 has one zero, r,
        # outside the circle, so e grows like |r|^n and overflows within
        # 1,200 samples, after the transient
        rng = np.random.default_rng(seed)
        tail = rng.normal(size=order_p)
        tail *= 0.5 / max(np.sum(np.abs(tail)), 1e-300)
        r = -root if negative else root
        ntf = NtfFir(coeffs=np.convolve([1.0, -r],
                                        np.concatenate(([1.0], tail))))
        w = rng.uniform(-1.0, 1.0, 1200)
        with np.errstate(invalid="ignore", over="ignore"):
            trace = simulate(ntf, w)
            ref = reference_simulate(ntf, w)
        assert not np.all(np.isfinite(trace.quant_error_e))
        assert trace.overloaded and ref.overloaded

    @staticmethod
    def stops_at_its_first_nan_block(ntf, w, quantizer):
        # no numpy warning escapes simulate, and from the first block whose
        # P past errors hold a NaN the trace is what the per-sample
        # recursion gives over its own errors: NaN errors, top decisions;
        # False when no block reads a NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate(ntf, w, quantizer)
        e, p = trace.quant_error_e, ntf.order
        block = _inverse_taps(ntf.coeffs, len(quantizer.levels)).size
        start = next((n0 for n0 in range(block, e.size, block)
                      if np.isnan(e[max(0, n0 - p):n0]).any()), None)
        if start is None:
            return False
        x_ref, e_ref = replayed_loop(ntf.coeffs, w, e, quantizer, start)
        np.testing.assert_array_equal(e[start:], e_ref)
        np.testing.assert_array_equal(trace.output_x[start:], x_ref)
        assert np.all(np.isnan(e[start:]))
        assert np.all(x_ref == quantizer.levels[-1])
        assert trace.overloaded
        return True

    def test_doubled_lowpass_tail_stops_at_its_first_nan_block(self):
        spec = DesignSpec.from_json_dict({**LOWPASS, "fir_order": 12,
                                          "gamma": 1.5})
        coeffs = run_design(spec).ntf.coeffs.copy()
        coeffs[1:] *= 2.0
        w = make_test_signal("sine", default_tone_freqs(spec)[:1], 0.4,
                             spec.fs_hz, 2**16)
        assert self.stops_at_its_first_nan_block(NtfFir(coeffs=coeffs), w,
                                                 spec.quantizer)

    @given(st.integers(0, 63), st.floats(2.0, 4.0), st.booleans(),
           st.sampled_from([(-1.0, 1.0), (-1.0, 0.0, 1.0)]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_diverging_loop_stops_at_its_first_nan_block(
            self, order_p, root, negative, levels, seed):
        # A(z) = (1 - r z^-1) B(z) as above.  Over 2,400 samples most
        # such loops reach a NaN; one that stays infinite, as one real
        # zero outside the circle can make it, reads none
        rng = np.random.default_rng(seed)
        tail = rng.normal(size=order_p)
        tail *= 0.5 / max(np.sum(np.abs(tail)), 1e-300)
        r = -root if negative else root
        ntf = NtfFir(coeffs=np.convolve([1.0, -r],
                                        np.concatenate(([1.0], tail))))
        w = rng.uniform(-1.0, 1.0, 2400)
        assume(self.stops_at_its_first_nan_block(ntf, w,
                                                 Quantizer(levels=levels)))


class TestMeasureSnr:
    def test_perfect_tracking_caps_snr(self):
        w = np.where(np.sin(np.arange(4096) * 0.01) >= 0, 1.0, -1.0)
        trace = ModTrace(input_w=w, output_x=w.copy(),
                         quant_error_e=np.zeros_like(w), overloaded=False,
                         transient_discard=16)
        assert measure_snr(trace, IDENTITY) == 300.0

    def test_zero_signal_rejected(self):
        trace = ModTrace(input_w=np.zeros(4096), output_x=np.ones(4096),
                         quant_error_e=np.zeros(4096), overloaded=False,
                         transient_discard=16)
        with pytest.raises(NtfForgeError):
            measure_snr(trace, IDENTITY)

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
        expected = 10 * math.log10(np.mean(w[8:]**2) / np.mean(noise[8:]**2))
        assert measure_snr(trace, IDENTITY) == pytest.approx(expected, abs=0.2)


class TestExpectedSnr:
    def test_ratio_of_two_is_three_db(self):
        sigma2 = 0.04
        assert expected_snr(2.0 * sigma2, sigma2) == pytest.approx(
            10 * math.log10(2.0), abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpecError):
            expected_snr(0.0, 1.0)
        with pytest.raises(InvalidSpecError):
            expected_snr(1.0, 0.0)


class TestMakeTestSignal:
    def test_sine_peak_is_exact_for_coherent_tone(self):
        w = make_test_signal("sine", (1000.0,), 0.4, 2.048e6, 2**16)
        assert np.max(np.abs(w)) == pytest.approx(0.4, abs=1e-12)

    def test_coherence_no_leakage(self):
        n = 2**12
        w = make_test_signal("sine", (997.0,), 1.0, 48000.0, n)
        spectrum = np.abs(np.fft.rfft(w))
        peak_bin = int(np.argmax(spectrum))
        others = np.delete(spectrum, peak_bin)
        assert np.max(others) < 1e-9 * spectrum[peak_bin]

    def test_multitone_peak_bounded(self):
        w = make_test_signal("multitone", (1000.0, 10000.0), 0.45,
                             563200.0, 2**16)
        assert np.max(np.abs(w)) <= 0.9 + 1e-12

    def test_dc(self):
        w = make_test_signal("dc", (), 0.5, 1000.0, 64)
        assert np.array_equal(w, np.full(64, 0.5))

    @pytest.mark.parametrize("freqs", [(100.0,), (100.0, 200.0, 300.0),
                                       (15.625,), (484.375,)])
    def test_mean_square_is_one_half_per_tone(self, freqs):
        # distinct whole-cycle counts below n/2 (1 and 31 of 64 included)
        # make the tones orthogonal, so each adds A^2/2 exactly
        w = make_test_signal("multitone", freqs, 0.3, 1000.0, 64)
        assert np.mean(w**2) == pytest.approx(len(freqs) * 0.3**2 / 2.0,
                                              rel=1e-12)

    @pytest.mark.parametrize("kind, freqs, amplitude, match", [
        ("square", (100.0,), 0.5, "unknown signal kind"),
        ("dc", (100.0,), 0.5, "dc takes no frequency"),
        ("sine", (), 0.5, "sine takes exactly one frequency"),
        ("sine", (100.0, 200.0), 0.5, "sine takes exactly one frequency"),
        ("multitone", (), 0.5, "multitone takes at least one frequency"),
        ("sine", (100.0,), 0.0, "amplitude must be finite and positive"),
        ("dc", (), -0.5, "amplitude must be finite and positive"),
        ("sine", (100.0,), math.inf, "amplitude must be finite and positive"),
        ("dc", (), math.nan, "amplitude must be finite and positive"),
        ("sine", (600.0,), 1.0, "outside"),
        ("sine", (0.0,), 1.0, "outside"),
        # 495 Hz is 31.68 cycles of 64 samples at 1 kHz: it snaps to
        # n/2 = 32, where sin(pi t) vanishes at every sample
        ("sine", (495.0,), 1.0, "snaps to n/2"),
        # 100 and 101 Hz both snap to 6 cycles: one tone of twice the
        # amplitude, whose mean square is 2 A^2 and not 2 A^2/2
        ("multitone", (100.0, 101.0), 1.0, "another tone's 6 cycles"),
    ])
    def test_rejected(self, kind, freqs, amplitude, match):
        with pytest.raises(InvalidSpecError, match=match):
            make_test_signal(kind, freqs, amplitude, 1000.0, 64)
