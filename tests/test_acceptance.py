"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one `ACCEPTANCE <id>: PASS|FAIL` line (run with -s to see
them live).  The heavyweight designs are session fixtures shared across
criteria.  Run: pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from ntfforge.design import DesignSpec, run_design
from ntfforge.filters import (
    FilterSpec,
    FrequencyGrid,
    RationalFilter,
    design_filter,
    impulse_response,
)
from ntfforge.kyp import grid_gain_max
from ntfforge.modsim import (
    OVERLOAD_EPS,
    expected_snr,
    make_test_signal,
    measure_snr,
    simulate,
)
from ntfforge.objective import (
    NoiseBudget,
    build_q_matrix,
    merit_integrand,
    sigma2_h,
)
from ntfforge.sdp import solve_gain_feasibility
from oracles import canonical_realization, schur_equivalence_check, sigma2_inband

BINARY = NoiseBudget(delta=2.0)
GAP_TOL = 1e-7
SIM_SAMPLES = 2**16

# The paper's predicted SNR for the order-12 lowpass design, A = 0.4.  It is
# quoted with the noise density Delta^2/(24 pi) on [0, pi], half of
# NoiseBudget.pds_constant = Delta^2/(12 pi): white error of variance
# Delta^2/12 spread over [0, pi].  Half the noise power reads 10 log10(2) dB
# higher, so in this package's density the same prediction is 42.9 - 3.01 dB.
PAPER_LOWPASS_SNR_DB = 42.9
LOWPASS_EXPECTED_SNR_DB = PAPER_LOWPASS_SNR_DB - 10.0 * np.log10(2.0)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    return passed


def va_spec(gamma=1.5, fir_order=12):
    return DesignSpec(
        filter_spec=FilterSpec(kind="lowpass_butterworth", fs_hz=2.048e6,
                               order=1, bands_hz=((0.0, 2000.0),)),
        fir_order=fir_order,
        gamma=gamma,
    )


def vb_spec():
    fs = 2 * 64 * 400.0
    return DesignSpec(
        filter_spec=FilterSpec(kind="bandpass_butterworth", fs_hz=fs,
                               order=8, bands_hz=((800.0, 1200.0),)),
        fir_order=49,
        gamma=1.5,
    )


def vc_spec():
    # two-band filter of total order 8 (4th-order branch per band); the
    # alternative 8th-order-per-band reading yields a design whose two-tone
    # SNR (62 dB) and A=0.45 divergence are far outside every target below
    fs = 2 * 64 * (4000.0 + 400.0)
    return DesignSpec(
        filter_spec=FilterSpec(kind="multiband_butterworth", fs_hz=fs,
                               order=4, bands_hz=((800.0, 1200.0),
                                                  (8000.0, 12000.0))),
        fir_order=50,
        gamma=1.5,
    )


def simulate_snr(result, freqs, amplitude, kind="sine"):
    spec = result.spec
    w = make_test_signal(kind, freqs, amplitude, spec.fs_hz, SIM_SAMPLES)
    trace = simulate(result.ntf, w, spec.quantizer)
    return measure_snr(trace, result.filt), trace.overloaded, trace


@pytest.fixture(scope="session")
def va_design():
    return run_design(va_spec())


@pytest.fixture(scope="session")
def va_design_gamma2():
    return run_design(va_spec(gamma=2.0))


@pytest.fixture(scope="session")
def vb_design():
    return run_design(vb_spec())


@pytest.fixture(scope="session")
def vc_design():
    return run_design(vc_spec())


class TestCriterion1LowpassReproduction:
    def test_expected_snr(self, va_design):
        # The reference is the paper's 42.9 dB restated in the package's
        # density (see LOWPASS_EXPECTED_SNR_DB), which is the physical one:
        # criteria 7 (Parseval) and 8 (the textbook differentiator formula)
        # pin it, and white U(-1, 1) error through the NTF and the filter
        # gives sigma2_h to 0.1% over 2^20 samples.  The time-domain check
        # ties sigma2_h to sigma_eps^2 ||a * h||^2 with sigma_eps^2 =
        # Delta^2/12 and no frequency-domain convention, so a density
        # changed in one place only fails this check, the window or
        # criterion 8.
        h = impulse_response(va_design.filt)
        shaped = np.convolve(va_design.ntf.coeffs, h.samples)
        sigma2_eps = va_design.spec.quantizer.delta ** 2 / 12.0
        time_domain = sigma2_eps * float(shaped @ shaped)
        deviation = abs(va_design.sigma2_h - time_domain) / time_domain
        expected_db = expected_snr(0.4**2 / 2.0, va_design.sigma2_h)
        ok = report(
            f"1a (expected SNR {PAPER_LOWPASS_SNR_DB} - 10 log10 2 = "
            f"{LOWPASS_EXPECTED_SNR_DB:.2f} +- 0.5 dB; sigma2_h = "
            f"sigma_eps^2 ||a*h||^2 within 1e-9)",
            abs(expected_db - LOWPASS_EXPECTED_SNR_DB) <= 0.5
            and deviation <= 1e-9,
            f"expected SNR = {expected_db:.2f} dB, sigma2_h relative "
            f"deviation from the time domain = {deviation:.2e}")
        assert ok

    def test_simulated_snr(self, va_design):
        snr, overloaded, _ = simulate_snr(va_design, (900.0,), 0.4)
        ok = report("1b (simulated SNR 42.4 +- 1.5 dB)",
                    abs(snr - 42.4) <= 1.5 and not overloaded,
                    f"simulated SNR = {snr:.2f} dB, overloaded={overloaded}")
        assert ok

    def test_solve_time(self, va_design):
        runtime = va_design.solution.runtime_seconds
        ok = report("1c (design solve <= 10 s)", runtime <= 10.0,
                    f"solve took {runtime:.2f} s")
        assert ok


class TestCriterion2Robustness:
    def test_no_overload_up_to_full_scale(self, va_design):
        snr, overloaded, _ = simulate_snr(va_design, (900.0,), 1.0)
        ok = report("2a (non-overloaded at A = 1.0)", not overloaded,
                    f"A=1.0 simulated SNR = {snr:.2f} dB, "
                    f"overloaded={overloaded}")
        assert ok

    def test_gamma_two_gains_about_one_db(self, va_design, va_design_gamma2):
        base, _, _ = simulate_snr(va_design, (900.0,), 0.4)
        raised, _, _ = simulate_snr(va_design_gamma2, (900.0,), 0.4)
        gain = raised - base
        ok = report("2b (gamma 2.0 gains 1 +- 0.7 dB)",
                    abs(gain - 1.0) <= 0.7,
                    f"gain = {gain:.2f} dB ({base:.2f} -> {raised:.2f})")
        assert ok


class TestCriterion3BandpassReproduction:
    def test_simulated_snr(self, vb_design):
        snr, overloaded, _ = simulate_snr(vb_design, (1000.0,), 0.75)
        ok = report("3a (simulated SNR 69.2 +- 2 dB)",
                    abs(snr - 69.2) <= 2.0,
                    f"simulated SNR = {snr:.2f} dB, overloaded={overloaded}")
        assert ok

    def test_solve_time(self, vb_design):
        runtime = vb_design.solution.runtime_seconds
        ok = report("3b (order-49 solve <= 5 min)", runtime <= 300.0,
                    f"solve took {runtime:.1f} s")
        assert ok


class TestCriterion4MultibandReproduction:
    def test_two_tone_snr(self, vc_design):
        # known-fail by ~0.4 dB, cause not settled: the paper's two-band
        # filter realization is underdetermined by what the repository
        # holds, and no fault was found in the program.  The P=50 solve is
        # optimal (SLSQP started from the SDP point, with |NTF|^2 <= gamma^2
        # at 3,000 frequencies, lowers the objective by 5.8e-7 relative);
        # the cross term between the two parallel branches moves the noise
        # integral by 0.06 dB; and 2^18 samples read 45.63 dB against 45.78
        # at 2^16, so estimation noise does not explain the shortfall
        snr, overloaded, _ = simulate_snr(vc_design, (1000.0, 10000.0), 0.40,
                                          kind="multitone")
        # linear model: two tones of power A^2/2 each over white shaped noise
        predicted = (expected_snr(0.40**2 / 2.0, vc_design.sigma2_h)
                     + 10.0 * np.log10(2.0))
        ok = report("4a (two-tone A=0.40 SNR 48.2 +- 2 dB)",
                    abs(snr - 48.2) <= 2.0,
                    f"simulated SNR = {snr:.2f} dB over {SIM_SAMPLES} "
                    f"samples, linear-model prediction = {predicted:.2f} dB, "
                    f"overloaded={overloaded}")
        assert ok

    def test_higher_amplitude_snr(self, vc_design):
        snr, overloaded, _ = simulate_snr(vc_design, (1000.0, 10000.0), 0.45,
                                          kind="multitone")
        ok = report("4b (two-tone A=0.45 SNR > 44 dB)", snr > 44.0,
                    f"simulated SNR = {snr:.2f} dB")
        assert ok

    def test_higher_amplitude_no_overload(self, vc_design):
        # known-fail, cause not settled (see 4a for the optimality and
        # cross-term checks): the overload is real and sustained, not a
        # start-up spike.  At A=0.45 the error leaves |e| <= Delta/2, the
        # standard no-overload bound of a binary quantizer (|y| <= 2), on
        # 239 samples after the transient at 2^16 samples (the first at
        # sample 3,812, the largest |e| 1.65) and on 838 at 2^18.  What the
        # paper counts as overload waits, like its filter realization, on
        # the paper's own definition of this example
        _, overloaded, trace = simulate_snr(vc_design, (1000.0, 10000.0),
                                            0.45, kind="multitone")
        start = trace.transient_discard
        post = np.abs(trace.quant_error_e[start:])
        limit = vc_design.spec.quantizer.delta / 2 + OVERLOAD_EPS
        over = np.nonzero(post > limit)[0]
        first = start + int(over[0]) if over.size else None
        ok = report("4c (two-tone A=0.45 without overload)", not overloaded,
                    f"overloaded={overloaded}: {over.size} samples after the "
                    f"{start}-sample transient have |e| > Delta/2, largest "
                    f"|e| = {post.max():.2f}, first at sample {first}")
        assert ok


class TestCriterion5Convergence:
    def test_sigma_h_levels_off(self):
        sigmas = {}
        for order in (5, 6, 9, 13, 18, 25):
            result = run_design(va_spec(fir_order=order))
            sigmas[order] = result.sigma_h
        values = [sigmas[p] for p in (5, 6, 9, 13, 18, 25)]
        monotone = all(b <= a * (1 + 2 * GAP_TOL)
                       for a, b in zip(values, values[1:]))
        drop = (sigmas[13] - sigmas[25]) / sigmas[13]
        ok = report("5 (order sweep levels off)",
                    monotone and drop < 0.02,
                    f"monotone={monotone}, relative drop 13->25 = {drop:.4%}")
        assert ok


class TestCriterion6LeeBound:
    def test_all_accepted_designs_respect_gamma(self, va_design,
                                                va_design_gamma2, vb_design,
                                                vc_design):
        worst = ""
        passed = True
        for result in (va_design, va_design_gamma2, vb_design, vc_design):
            gmax = grid_gain_max(result.ntf.coeffs)
            gamma = result.spec.gamma
            margin = gmax / (gamma * (1 + 1e-4))
            if gmax > gamma * (1 + 1e-4):
                passed = False
            worst += f" P{result.ntf.order}:{gmax:.6f}/{gamma}"
        ok = report("6 (Lee gain bound on 8192-point grid)", passed, worst)
        assert ok


class TestCriterion7ParsevalOracle:
    def test_fifty_random_pairs(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            pole = rng.uniform(-0.85, 0.85)
            zero = rng.uniform(-1.2, 1.2)
            gain = rng.uniform(0.2, 2.0)
            filt = RationalFilter.from_polynomials(
                num=(gain, -gain * zero), den=(1.0, -pole))
            h = impulse_response(filt)
            order_p = int(rng.integers(1, 9))
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
            q = build_q_matrix(h, order_p)
            lags = np.arange(order_p + 1)
            q_full = q[np.abs(lags[:, None] - lags[None, :])]
            algebraic = BINARY.sigma2_eps * float(coeffs @ q_full @ coeffs)
            fir = RationalFilter.from_polynomials(
                num=tuple(h.samples), den=(1.0,))
            quadrature = sigma2_h(coeffs, (1.0,), fir, BINARY,
                                  FrequencyGrid.uniform(4096))
            worst = max(worst, abs(quadrature - algebraic)
                        / max(abs(algebraic), 1e-12))
        ok = report("7 (Parseval oracle, 50 pairs)", worst <= 1e-6,
                    f"worst relative deviation = {worst:.2e}")
        assert ok


class TestCriterion8BaselineFormulas:
    def test_differentiator_family(self):
        osr = 1024
        worst = 0.0
        for order_p in (1, 2, 3):
            num = np.real(np.poly(np.ones(order_p)))
            val = sigma2_inband(num, (1.0,), [(0.0, np.pi / osr)], BINARY)
            ref = (4.0 / 12.0) * np.pi ** (2 * order_p) / (
                (2 * order_p + 1) * osr ** (2 * order_p + 1))
            worst = max(worst, abs(val - ref) / ref)
        ok = report("8 (differentiator in-band noise within 1%)",
                    worst <= 0.01, f"worst relative deviation = {worst:.2e}")
        assert ok


class TestCriterion9KypOracles:
    def test_schur_agreement(self):
        rng = np.random.default_rng(99)
        agree = 0
        for _ in range(200):
            order_p = int(rng.integers(1, 7))
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
            real = canonical_realization(coeffs)
            base = rng.normal(size=(order_p, order_p))
            pm = base @ base.T * rng.uniform(0.1, 2.0)
            gamma = float(rng.uniform(0.5, 4.0))
            big, red = schur_equivalence_check(real, pm, gamma)
            agree += big == red
        ok = report("9a (Schur agreement, 200 trials)", agree == 200,
                    f"{agree}/200 agreed")
        assert ok

    def test_feasibility_matches_grid_bound(self):
        rng = np.random.default_rng(123)
        good = 0
        trials = 50
        for _ in range(trials):
            order_p = int(rng.integers(1, 6))
            coeffs = np.concatenate(
                ([1.0], rng.normal(size=order_p) * rng.uniform(0.1, 0.6)))
            gmax = grid_gain_max(coeffs)
            _, feas_above = solve_gain_feasibility(coeffs, gmax / 0.9)
            _, feas_below = solve_gain_feasibility(coeffs, gmax * 0.9)
            good += feas_above and not feas_below
        ok = report("9b (LMI feasibility vs grid bound, 50 NTFs)",
                    good == trials, f"{good}/{trials} consistent")
        assert ok


def conventional_fourth_order_ntf():
    """Classic signal-band-only design for comparison: unit-circle zeros at
    the degree-4 Legendre nodes scaled into the band, maximally flat poles
    widened until the peak gain hits 1.5."""
    import scipy.signal as spsig

    osr = 1024
    nodes = np.array([-0.8611363116, -0.3399810436, 0.3399810436,
                      0.8611363116])
    num = np.real(np.poly(np.exp(1j * nodes * np.pi / osr)))
    omegas = np.linspace(0, np.pi, 32768)
    zgrid = np.exp(1j * omegas)

    def peak(cutoff):
        den = spsig.butter(4, cutoff)[1]
        return np.max(np.abs(np.polyval(num, zgrid)
                             / np.polyval(den, zgrid))), den

    lo, hi = 1e-5, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        value, _ = peak(mid)
        lo, hi = (lo, mid) if value > 1.5 else (mid, hi)
    den = peak(0.5 * (lo + hi))[1]
    return num[::-1], den[::-1]  # powers of z^-1


class TestSupplementaryReproduction:
    """Convention-free cross-checks against the classic design flow."""

    def test_design_advantage_over_conventional(self, va_design):
        # predicted-SNR difference between the two designs cancels every
        # density convention; the reference gap is a bit over 4.5 dB
        num, den = conventional_fourth_order_ntf()
        filt = design_filter(va_spec().filter_spec)
        conv_sigma2 = sigma2_h(num, den, filt, BINARY,
                               FrequencyGrid.uniform(8192))
        gap = (expected_snr(0.4**2 / 2.0, va_design.sigma2_h)
               - expected_snr(0.4**2 / 2.0, conv_sigma2))
        ok = report("supplementary (predicted advantage ~4.5 dB)",
                    abs(gap - 4.5) <= 1.0, f"advantage = {gap:.2f} dB")
        assert ok

    def test_designed_integrand_lower_out_of_band(self, va_design):
        # the conventional design wins inside the signal band but pays for
        # it above the band; the filter-aware design's noise-density weight
        # integrates lower over everything past the band edge
        num, den = conventional_fourth_order_ntf()
        spec = va_spec()
        filt = design_filter(spec.filter_spec)
        grid = FrequencyGrid.uniform(8192)
        mine = merit_integrand(va_design.ntf.coeffs, (1.0,), filt, grid)
        conv = merit_integrand(num, den, filt, grid)
        out = grid.omegas >= np.pi / 1024
        mine_out = float(np.trapezoid(mine[out], grid.omegas[out]))
        conv_out = float(np.trapezoid(conv[out], grid.omegas[out]))
        ok = report("supplementary (out-of-band noise weight lower)",
                    mine_out < conv_out,
                    f"out-of-band integral {mine_out:.3e} vs {conv_out:.3e}")
        assert ok

    def test_predicted_vs_simulated_within_three_db(self, va_design):
        snr, _, _ = simulate_snr(va_design, (900.0,), 0.4)
        predicted = expected_snr(0.4**2 / 2.0, va_design.sigma2_h)
        ok = report("supplementary (prediction within 3 dB of simulation)",
                    abs(snr - predicted) <= 3.0,
                    f"predicted {predicted:.2f} dB vs simulated {snr:.2f} dB")
        assert ok


class TestCriterion10IdentityFilter:
    def test_flat_ntf(self):
        spec = DesignSpec(
            filter_spec=FilterSpec(kind="explicit_rational", fs_hz=1.0e6,
                                   num=(1.0,), den=(1.0,)),
            fir_order=5,
            gamma=1.5,
        )
        result = run_design(spec)
        dev = float(np.max(np.abs(result.ntf.coeffs[1:])))
        ok = report("10 (identity filter gives flat NTF)", dev <= 1e-6,
                    f"max |a_i| = {dev:.2e}")
        assert ok
