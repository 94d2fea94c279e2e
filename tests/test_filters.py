import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntfforge.errors import (
    ConditioningError,
    EvaluationError,
    InvalidSpecError,
)
from ntfforge.filters import (
    CACHE_SIZE,
    ENERGY_TOL,
    FilterSpec,
    FrequencyGrid,
    ImpulseResponse,
    RationalFilter,
    _polyval_zinv,
    design_filter,
    frequency_response,
    impulse_response,
    polynomial_roots,
)
from oracles import polyval_zinv

FS_LP = 2.048e6


def lp1_spec():
    return FilterSpec(kind="lowpass_butterworth", fs_hz=FS_LP, order=1,
                      bands_hz=((0.0, 2000.0),))


class TestDesignFilter:
    def test_first_order_lowpass_matches_bilinear_hand_computation(self):
        # prewarped bilinear: W = tan(pi fc / fs), pole (1-W)/(1+W), zero -1
        filt = design_filter(lp1_spec())
        warped = math.tan(math.pi * 2000.0 / FS_LP)
        pole_expected = (1.0 - warped) / (1.0 + warped)
        (b, a), = filt.branches[0]
        poles = np.roots(np.trim_zeros(a, "b"))
        assert poles.size == 1
        assert poles[0].real == pytest.approx(pole_expected, abs=1e-12)
        assert pole_expected == pytest.approx(0.99388, abs=5e-6)
        assert filt.pole_radius == abs(poles[0])
        zeros = np.roots(np.trim_zeros(b, "b"))
        assert zeros.size == 1
        assert zeros[0].real == pytest.approx(-1.0, abs=1e-9)

    def test_identity_filter_is_flat(self):
        spec = FilterSpec(kind="explicit_rational", fs_hz=1.0, num=(1.0,),
                          den=(1.0,))
        filt = design_filter(spec)
        grid = FrequencyGrid.uniform(64)
        assert np.allclose(np.abs(filt.response(grid)), 1.0)

    def test_bandpass_magnitude_matches_analog_prototype(self):
        # independent oracle: |H|^2 = 1/(1 + Q(w)^(2N)) with the prewarped
        # lowpass-to-bandpass variable Q(w) = (W^2 - Wl Wh) / (W (Wh - Wl))
        fs = 2 * 64 * 400.0
        spec = FilterSpec(kind="bandpass_butterworth", fs_hz=fs, order=8,
                          bands_hz=((800.0, 1200.0),))
        filt = design_filter(spec)
        grid = FrequencyGrid.uniform(4096)
        mag = np.abs(filt.response(grid))
        w_lo = math.tan(math.pi * 800.0 / fs)
        w_hi = math.tan(math.pi * 1200.0 / fs)
        with np.errstate(divide="ignore", invalid="ignore"):
            wvar = np.tan(grid.omegas / 2.0)
            qvar = (wvar**2 - w_lo * w_hi) / (wvar * (w_hi - w_lo))
            expected = 1.0 / np.sqrt(1.0 + qvar ** (2 * 4))
        inner = slice(1, -1)
        assert np.allclose(mag[inner], expected[inner], atol=1e-8)

    def test_bandpass_passband_is_within_3db(self):
        fs = 2 * 64 * 400.0
        spec = FilterSpec(kind="bandpass_butterworth", fs_hz=fs, order=8,
                          bands_hz=((800.0, 1200.0),))
        filt = design_filter(spec)
        freqs = np.linspace(800.0, 1200.0, 101)
        om = 2.0 * np.pi * freqs / fs
        grid_om = np.concatenate(([0.0], om, [np.pi]))
        mag = np.abs(filt.response(FrequencyGrid(grid_om)))[1:-1]
        assert np.all(mag >= 1.0 / math.sqrt(2.0) - 1e-9)
        assert np.all(mag <= 1.0 + 1e-9)

    def test_multiband_has_unity_gain_in_each_band(self):
        fs = 563200.0
        spec = FilterSpec(kind="multiband_butterworth", fs_hz=fs, order=4,
                          bands_hz=((800.0, 1200.0), (8000.0, 12000.0)))
        filt = design_filter(spec)
        for f_c in (1000.0, 10000.0):
            om = np.array([0.0, 2 * np.pi * f_c / fs, np.pi])
            mag = abs(filt.response(FrequencyGrid(om))[1])
            # band-center gain (peak sits at the geometric center)
            assert 1.0 / math.sqrt(2.0) < mag <= 1.0 + 1e-9
            assert mag == pytest.approx(1.0, abs=5e-3)
        assert filt.pole_radius < 1.0

    def test_band_edge_at_nyquist_rejected(self):
        with pytest.raises(InvalidSpecError):
            FilterSpec(kind="lowpass_butterworth", fs_hz=4000.0, order=1,
                       bands_hz=((0.0, 2000.0),))

    def test_overlapping_multiband_rejected(self):
        with pytest.raises(InvalidSpecError):
            FilterSpec(kind="multiband_butterworth", fs_hz=100000.0, order=4,
                       bands_hz=((800.0, 1200.0), (1100.0, 2000.0)))

    @pytest.mark.parametrize("kind, order, bands", [
        ("lowpass_butterworth", 1, ((500.0, 2000.0),)),
        ("lowpass_butterworth", 1, ((0.0, 1000.0), (3000.0, 4000.0))),
        ("bandpass_butterworth", 8, ((800.0, 1200.0), (3000.0, 4000.0))),
        ("bandpass_butterworth", 8, ((0.0, 1200.0),)),
        ("bandpass_butterworth", 7, ((800.0, 1200.0),)),
        ("multiband_butterworth", 4, ((800.0, 1200.0),)),
        ("multiband_butterworth", 3, ((800.0, 1200.0), (3000.0, 4000.0))),
    ])
    def test_per_kind_band_rules_rejected_at_spec(self, kind, order, bands):
        # lowpass: one band at dc; bandpass: one band off dc; multiband: two
        # or more; a band off dc needs an even order
        with pytest.raises(InvalidSpecError):
            FilterSpec(kind=kind, fs_hz=51200.0, order=order, bands_hz=bands)

    def test_empty_filter_rejected(self):
        with pytest.raises(InvalidSpecError):
            RationalFilter(branches=())

    def test_unstable_explicit_rational_rejected(self):
        with pytest.raises(ConditioningError):
            RationalFilter.from_polynomials(num=(1.0,), den=(1.0, -1.0))

    def test_zero_leading_denominator_in_branch_section_rejected(self):
        sections = ((((1.0,), (1.0, -0.5)),), (((1.0,), (0.0, 1.0, -0.5)),))
        with pytest.raises(InvalidSpecError):
            RationalFilter(branches=sections)

    def test_multiband_response_is_sum_of_branch_sosfreqz(self):
        from scipy.signal import sosfreqz

        fs = 2 * 64 * 4400.0
        spec = FilterSpec(kind="multiband_butterworth", fs_hz=fs, order=4,
                          bands_hz=((800.0, 1200.0), (8000.0, 12000.0)))
        filt = design_filter(spec)
        grid = FrequencyGrid.uniform(4096)
        expected = np.zeros(grid.count, dtype=complex)
        for branch in filt.branches:
            sos = np.array([b + a for b, a in branch])
            expected += sosfreqz(sos, worN=grid.omegas)[1]
        assert len(filt.branches) == 2
        np.testing.assert_allclose(filt.response(grid), expected, rtol=1e-12)


# The Butterworth filters of the tests and scripts: (order, band, rate)
BUTTERWORTH_CASES = {
    "lowpass-1": (1, ((0.0, 2000.0),), FS_LP),
    "lowpass-3": (3, ((0.0, 1000.0),), 48000.0),
    "bandpass-8": (8, ((800.0, 1200.0),), 2 * 64 * 400.0),
    "two-band-4": (4, ((800.0, 1200.0), (8000.0, 12000.0)), 2 * 64 * 4400.0),
}


def butterworth_case(name):
    order, bands, fs = BUTTERWORTH_CASES[name]
    kind = ("multiband_butterworth" if len(bands) > 1 else
            "lowpass_butterworth" if bands[0][0] == 0.0 else
            "bandpass_butterworth")
    return design_filter(FilterSpec(kind=kind, fs_hz=fs, order=order,
                                    bands_hz=bands))


def lfilter_cascade(filt, x):
    from scipy.signal import lfilter

    out = np.zeros_like(x)
    for branch in filt.branches:
        y = x
        for b, a in branch:
            y = lfilter(b, a, y, axis=0)
        out += y
    return out


class TestScipyOracle:
    """The closed-form sections and the block filter against scipy.signal,
    which the package itself no longer imports."""

    @pytest.mark.parametrize("name", BUTTERWORTH_CASES)
    def test_sections_match_butter(self, name):
        from scipy.signal import butter

        order, bands, fs = BUTTERWORTH_CASES[name]
        filt = butterworth_case(name)
        for (lo, hi), branch in zip(bands, filt.branches):
            expected = (butter(order, hi, fs=fs, output="sos") if lo == 0.0
                        else butter(order // 2, (lo, hi), btype="bandpass",
                                    fs=fs, output="sos"))
            sos = np.array([b + a for b, a in branch])
            assert sos.shape == expected.shape
            scale = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.max(np.abs(sos - expected) / scale) <= 1e-14

    @pytest.mark.parametrize("name", ["lowpass-1", "lowpass-3", "bandpass-8"])
    def test_response_matches_sosfreqz(self, name):
        from scipy.signal import sosfreqz

        filt = butterworth_case(name)
        grid = FrequencyGrid.uniform(4096)
        sos = np.array([b + a for b, a in filt.branches[0]])
        np.testing.assert_allclose(filt.response(grid),
                                   sosfreqz(sos, worN=grid.omegas)[1],
                                   rtol=1e-12)

    @pytest.mark.parametrize("name", BUTTERWORTH_CASES)
    def test_impulse_response_matches_lfilter(self, name):
        filt = butterworth_case(name)
        h = impulse_response(filt).samples
        impulse = np.zeros(h.size)
        impulse[0] = 1.0
        expected = lfilter_cascade(filt, impulse)
        assert np.max(np.abs(h - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", BUTTERWORTH_CASES)
    def test_two_columns_match_lfilter_and_each_column(self, name):
        filt = butterworth_case(name)
        rng = np.random.default_rng(3)
        x = np.stack((np.sign(rng.uniform(-1.0, 1.0, 2**13)),
                      rng.uniform(-1.0, 1.0, 2**13)), axis=1)
        y = filt.filter_signal(x)
        expected = lfilter_cascade(filt, x)
        peak = np.max(np.abs(expected))
        assert y.shape == x.shape
        assert np.max(np.abs(y - expected)) <= 1e-13 * peak
        for j in range(2):
            alone = filt.filter_signal(x[:, j])
            assert np.max(np.abs(alone - y[:, j])) <= 1e-15 * peak


class TestImpulseResponse:
    def test_identity(self):
        filt = RationalFilter.from_polynomials((1.0,), (1.0,))
        resp = impulse_response(filt)
        assert resp.samples.size == 1
        assert resp.samples.tolist() == [1.0]

    def test_geometric_series_truncation(self):
        # H = 1/(1 - 0.5 z^-1): h_i = 0.5^i, tail(M)/E = 0.25^(M+1), so the
        # smallest M with tail <= 1e-12 E is 19
        filt = RationalFilter.from_polynomials(num=(1.0,), den=(1.0, -0.5))
        resp = impulse_response(filt)
        assert resp.samples.size == 20
        expected = 0.5 ** np.arange(20)
        assert np.allclose(resp.samples, expected, rtol=1e-12)
        assert resp.tail_energy_fraction <= 1e-12

    def test_poles_are_found_once_per_filter(self, monkeypatch):
        # the stability check at construction finds the section roots; the
        # truncation's tail bound reads the same pole_radius, and an equal
        # spec built again is answered from the cache
        design_filter.cache_clear()
        impulse_response.cache_clear()
        calls = []
        genuine = np.roots

        def counted(p):
            calls.append(p)
            return genuine(p)

        def bandpass(lo, hi):
            return FilterSpec(kind="bandpass_butterworth", fs_hz=51200.0,
                              order=8, bands_hz=((lo, hi),))

        monkeypatch.setattr(np, "roots", counted)
        filt = design_filter(bandpass(800.0, 1200.0))
        assert len(calls) == 4  # one per biquad
        impulse_response(filt)
        assert len(calls) == 4
        assert filt.pole_radius == max(
            float(np.max(np.abs(genuine(a)))) for b, a in filt.branches[0])
        assert design_filter(bandpass(800.0, 1200.0)) is filt
        assert len(calls) == 4
        other = design_filter(bandpass(900.0, 1100.0))
        assert other != filt
        assert len(calls) == 8

    def test_shared_samples_are_read_only(self):
        resp = impulse_response(design_filter(lp1_spec()))
        with pytest.raises(ValueError):
            resp.samples[0] = 0.0
        own = np.array([1.0, 0.5, 0.25])
        held = ImpulseResponse(samples=own, tail_energy_fraction=0.0)
        own[0] = 2.0
        assert own.flags.writeable
        assert held.samples[0] == 1.0

    def test_caches_stay_within_their_bound(self):
        for k in range(CACHE_SIZE + 3):
            filt = design_filter(FilterSpec(kind="explicit_rational",
                                            fs_hz=1.0, num=(1.0,),
                                            den=(1.0, -0.1 * (k + 1))))
            impulse_response(filt)
            assert design_filter.cache_info().currsize <= CACHE_SIZE
            assert impulse_response.cache_info().currsize <= CACHE_SIZE
        assert design_filter.cache_info().currsize == CACHE_SIZE

    def test_first_order_output_filter_truncation_matches_direct_tail_scan(self):
        filt = design_filter(lp1_spec())
        resp = impulse_response(filt)
        # independent oracle: long direct recursion, empirical tail energies
        n = 4 * resp.samples.size
        impulse = np.zeros(n)
        impulse[0] = 1.0
        h = filt.filter_signal(impulse)
        total = np.dot(h, h)
        tails = np.concatenate((np.cumsum(h[::-1] ** 2)[::-1][1:], [0.0]))
        m_direct = int(np.nonzero(tails <= 1e-12 * total)[0][0])
        m = resp.samples.size - 1  # the truncation index
        assert 1000 < m < 10000
        assert abs(m - m_direct) <= 1
        assert np.allclose(resp.samples, h[: resp.samples.size])

    def test_energy_reconstruction(self):
        filt = design_filter(lp1_spec())
        resp = impulse_response(filt)
        n = 8 * resp.samples.size
        impulse = np.zeros(n)
        impulse[0] = 1.0
        full = filt.filter_signal(impulse)
        energy = np.dot(resp.samples, resp.samples)
        assert energy == pytest.approx(np.dot(full, full),
                                       rel=10.0 * ENERGY_TOL)

    def test_fir_taps_beyond_first_window_are_kept(self):
        taps = np.zeros(3000)
        taps[0] = taps[2000] = 1.0
        spec = FilterSpec(kind="explicit_impulse", fs_hz=1.0,
                          impulse=tuple(taps))
        resp = impulse_response(design_filter(spec))
        assert resp.samples.size == 2001
        assert np.dot(resp.samples, resp.samples) == 2.0

    def test_numerator_tap_beyond_first_window_is_kept(self):
        # h_i = 0.5^i + 0.5^(i - 1100) for i >= 1100; tail(M) falls below
        # 1e-12 of the energy first at M = 1119, as for the i = 0 copy at 19
        num = np.zeros(1101)
        num[0] = num[1100] = 1.0
        filt = RationalFilter.from_polynomials(num=tuple(num), den=(1.0, -0.5))
        resp = impulse_response(filt)
        impulse = np.zeros(4096)
        impulse[0] = 1.0
        h = filt.filter_signal(impulse)
        assert resp.samples.size == 1120
        assert np.array_equal(resp.samples, h[:1120])
        energy = np.dot(resp.samples, resp.samples)
        assert energy == pytest.approx(np.dot(h, h), rel=1e-12)


class TestFrequencyResponse:
    def test_differentiator_at_pi(self):
        grid = FrequencyGrid(np.array([0.0, np.pi]))
        resp = frequency_response((1.0, -1.0), (1.0,), grid)
        assert abs(resp[-1]) == pytest.approx(2.0, abs=1e-12)

    def test_identity_everywhere(self):
        grid = FrequencyGrid.uniform(33)
        resp = frequency_response((1.0,), (1.0,), grid)
        assert np.allclose(resp, 1.0)

    def test_differentiator_exact_trig_value(self):
        grid = FrequencyGrid(np.array([0.0, np.pi / 3.0, np.pi]))
        resp = frequency_response((1.0, -1.0), (1.0,), grid)
        assert abs(resp[1]) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_denominator_reports_omega(self):
        grid = FrequencyGrid(np.array([0.0, np.pi]))
        with pytest.raises(EvaluationError):
            frequency_response((1.0,), (1.0, -1.0), grid)

    def test_truncated_response_matches_rational(self):
        # frequency/time consistency on the truncated impulse response
        filt = design_filter(lp1_spec())
        resp = impulse_response(filt)
        grid = FrequencyGrid.uniform(257)
        via_fir = frequency_response(resp.samples, (1.0,), grid)
        via_rational = filt.response(grid)
        assert np.max(np.abs(via_fir - via_rational)) \
            <= 10.0 * math.sqrt(ENERGY_TOL)


    @given(st.integers(1, 70), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_in_place_horner_matches_the_new_array_form(self, n_num, n_den,
                                                        seed):
        # acc *= zinv; acc += c rounds as acc * zinv + c does, so FIR and
        # rational responses keep their bits
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid.uniform(8192)
        zinv = np.exp(-1j * grid.omegas)
        num = rng.normal(size=n_num)
        den = np.concatenate(([1.0], rng.uniform(-0.9, 0.9, n_den) / n_den))
        for coeffs in (num, den):
            assert (_polyval_zinv(coeffs, zinv).tobytes()
                    == polyval_zinv(coeffs, zinv).tobytes())
        for d in ((1.0,), den):
            want = polyval_zinv(num, zinv) / polyval_zinv(d, zinv)
            assert (frequency_response(num, d, grid).tobytes()
                    == want.tobytes())


class TestPolynomialRoots:
    def test_linear_factor(self):
        roots = polynomial_roots((1.0, -1.0))
        assert roots.size == 1
        assert roots[0] == pytest.approx(1.0)

    def test_double_root(self):
        roots = polynomial_roots((1.0, -2.0, 1.0))
        assert np.allclose(sorted(roots.real), [1.0, 1.0], atol=1e-6)
        assert np.allclose(roots.imag, 0.0, atol=1e-6)

    def test_degree_six_from_known_roots(self):
        rng = np.random.default_rng(7)
        true_roots = rng.uniform(-1.5, 1.5, 3).tolist()
        pair = complex(0.4, 0.9)
        all_roots = np.array(true_roots + [pair, pair.conjugate(), -0.25])
        coeffs = np.real(np.poly(all_roots))
        found = polynomial_roots(coeffs)
        assert np.allclose(np.sort_complex(found), np.sort_complex(all_roots),
                           atol=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidSpecError):
            polynomial_roots((0.0, 0.0))

    def test_first_root_off_its_polynomial_is_named(self, monkeypatch):
        # (z - 1)(z - 2) with the second and third roots wrong
        monkeypatch.setattr(np, "roots",
                            lambda c: np.array([1.0, 2.5, 3.0], dtype=complex))
        with pytest.raises(ConditioningError, match=r"root 2\.5\+0j has"):
            polynomial_roots((1.0, -3.0, 2.0))

    @pytest.mark.parametrize("shift, passes", [(5e-8, True), (2e-7, False)])
    def test_residual_threshold_is_1e_8_of_the_scale(self, monkeypatch,
                                                     shift, passes):
        # at z = 1 + d, (z - 1)(z - 2) has residual about d against the
        # scale |z|^2 + 3|z| + 2, about 6
        roots = np.array([1.0 + shift, 2.0], dtype=complex)
        monkeypatch.setattr(np, "roots", lambda c: roots)
        resid = abs(np.polyval((1.0, -3.0, 2.0), roots[0]))
        assert (resid <= 6e-8) == passes
        if passes:
            assert polynomial_roots((1.0, -3.0, 2.0)) is roots
        else:
            with pytest.raises(ConditioningError):
                polynomial_roots((1.0, -3.0, 2.0))

    @given(st.lists(st.complex_numbers(max_magnitude=2.0,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_from_roots(self, half_roots):
        # real polynomial with well-separated roots (clustered roots are
        # intrinsically ill-conditioned beyond the 1e-5 oracle tolerance)
        roots = []
        for r in half_roots:
            if any(abs(r - q) < 0.05 or abs(r - q.conjugate()) < 0.05
                   for q in roots):
                continue
            roots.append(r)
            if abs(r.imag) > 0.025:
                roots.append(r.conjugate())
            else:
                roots[-1] = complex(r.real, 0.0)
        if not roots:
            roots = [complex(1.0, 0.0)]
        expected = np.asarray(roots, dtype=complex)
        coeffs = np.real(np.poly(expected))
        found = polynomial_roots(coeffs)
        assert found.size == expected.size
        for r in expected:
            assert np.min(np.abs(found - r)) < 1e-5
        for r in found:
            assert np.min(np.abs(expected - r)) < 1e-5


class TestFrequencyGrid:
    def test_uniform_includes_endpoints(self):
        grid = FrequencyGrid.uniform(128)
        assert grid.omegas[0] == 0.0
        assert grid.omegas[-1] == pytest.approx(np.pi)
        assert grid.count == 128

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidSpecError):
            FrequencyGrid(np.array([0.0, 2.0, 1.0, np.pi]))

    def test_rejects_missing_endpoints(self):
        with pytest.raises(InvalidSpecError):
            FrequencyGrid(np.array([0.1, np.pi]))

    def test_points_are_computed_once_and_read_only(self):
        omegas = np.linspace(0.0, np.pi, 65)
        grid = FrequencyGrid(omegas)
        omegas[1] = 0.5  # the grid keeps its own copy
        assert grid.omegas[1] == np.pi / 64
        assert grid.zinv is grid.zinv
        assert grid.zinv.tobytes() == np.exp(-1j * grid.omegas).tobytes()
        for arr in (grid.omegas, grid.zinv):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestSerialization:
    def test_filter_spec_json_roundtrip(self):
        spec = FilterSpec(kind="multiband_butterworth", fs_hz=563200.0,
                          order=4, bands_hz=((800.0, 1200.0),
                                             (8000.0, 12000.0)))
        again = FilterSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec

    def test_explicit_rational_json_roundtrip(self):
        spec = FilterSpec(kind="explicit_rational", fs_hz=48000.0,
                          num=(0.5, 0.5), den=(1.0, -0.25))
        again = FilterSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec

    def test_explicit_impulse_roundtrip(self):
        spec = FilterSpec(kind="explicit_impulse", fs_hz=8000.0,
                          impulse=(1.0, 0.5, 0.25))
        again = FilterSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec
        filt = design_filter(spec)
        assert filt.branches == ((((1.0, 0.5, 0.25), (1.0,)),),)


def test_stability_invariant_for_random_designed_filters():
    rng = np.random.default_rng(3)
    for _ in range(25):
        fs = float(rng.uniform(10000.0, 1e6))
        lo = float(rng.uniform(0.01, 0.2)) * fs / 2
        hi = lo + float(rng.uniform(0.05, 0.2)) * fs / 2
        spec = FilterSpec(kind="bandpass_butterworth", fs_hz=fs,
                          order=2 * int(rng.integers(1, 5)),
                          bands_hz=((lo, hi),))
        filt = design_filter(spec)
        assert filt.pole_radius < 1.0
