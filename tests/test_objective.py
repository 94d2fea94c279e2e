import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from ntfforge.errors import DegenerateFilterError, InvalidSpecError
from ntfforge.filters import (
    FrequencyGrid,
    RationalFilter,
    impulse_response,
)
from ntfforge.objective import (
    NoiseBudget,
    build_q_matrix,
    merit_integrand,
    noise_gain,
    reduce_objective,
    sigma2_h,
)
from oracles import reduced_value, sigma2_inband

BINARY = NoiseBudget(delta=2.0)


def brute_force_q(h, order_p):
    """Direct triple-sum definition: q_jk = sum_i h_{i-j} h_{i-k}."""
    h = np.asarray(h, dtype=float)
    m = h.size - 1

    def hval(i):
        return h[i] if 0 <= i <= m else 0.0

    q = np.zeros((order_p + 1, order_p + 1))
    for j in range(order_p + 1):
        for k in range(order_p + 1):
            q[j, k] = sum(hval(i - j) * hval(i - k)
                          for i in range(m + order_p + 1))
    return q


class TestNoiseBudget:
    def test_binary_quantizer_values(self):
        assert BINARY.sigma2_eps == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert BINARY.pds_constant == pytest.approx(4.0 / (12.0 * math.pi),
                                                    rel=1e-15)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidSpecError):
            NoiseBudget(delta=0.0)


class TestQMatrix:
    # build_q_matrix gives Q's first row q_0..q_P; scipy's toeplitz builds
    # the full matrix from it
    def test_unit_impulse_gives_identity(self):
        q = build_q_matrix(np.array([1.0]), 2)
        assert np.array_equal(toeplitz(q), np.eye(3))

    def test_two_tap_example(self):
        q = build_q_matrix(np.array([1.0, 1.0]), 1)
        assert np.array_equal(toeplitz(q), np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_geometric_taps_first_row(self):
        q = build_q_matrix(np.array([1.0, 0.5, 0.25]), 2)
        assert np.allclose(q, [1.3125, 0.625, 0.25], rtol=1e-15)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=9)
        q = build_q_matrix(h, 4)
        assert np.allclose(toeplitz(q), brute_force_q(h, 4), rtol=1e-12)

    def test_order_beyond_support_pads_zero_lags(self):
        q = build_q_matrix(np.array([1.0, 0.5]), 4)
        assert q[2] == 0.0 and q[4] == 0.0
        assert np.allclose(toeplitz(q), brute_force_q([1.0, 0.5], 4))

    def test_zero_response_rejected(self):
        with pytest.raises(DegenerateFilterError):
            build_q_matrix(np.zeros(5), 2)
        with pytest.raises(DegenerateFilterError):
            noise_gain(np.zeros(5), [1.0, 0.5])

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_noise_gain_is_the_quadratic_form(self, order_p, length, seed):
        rng = np.random.default_rng(seed)
        h, a = rng.normal(size=length), rng.normal(size=order_p + 1)
        want = a @ brute_force_q(h, order_p) @ a
        assert noise_gain(h, a) == pytest.approx(want, rel=1e-10)

    def test_toeplitz_closure_bit_exact(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=30)
        q = build_q_matrix(h, 6)
        quadratic, _, _ = reduce_objective(q)
        for j in range(6):
            for k in range(6):
                assert quadratic[j, k] == q[abs(j - k)]

    def test_entries_equal_scipy_toeplitz_bit_for_bit(self):
        h = np.random.default_rng(7).normal(size=40)
        q = build_q_matrix(h, 12)
        full = toeplitz(q)
        quadratic, linear, constant = reduce_objective(q)
        assert np.array_equal(quadratic, full[1:, 1:])
        assert np.array_equal(linear, 2.0 * full[0, 1:])
        assert constant == full[0, 0]

    def test_psd_for_random_stable_filters(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            order_p = int(rng.integers(1, 21))
            pole = rng.uniform(-0.9, 0.9)
            zero = rng.uniform(-1.5, 1.5)
            filt = RationalFilter.from_polynomials(
                num=(1.0, -zero), den=(1.0, -pole))
            h = impulse_response(filt)
            full_q = toeplitz(build_q_matrix(h, order_p))
            assert np.linalg.eigvalsh(full_q)[0] \
                >= -1e-9 * np.trace(full_q)


class TestReducedObjective:
    def test_identity_partition(self):
        quadratic, linear, constant = reduce_objective(
            build_q_matrix(np.array([1.0]), 2))
        assert np.array_equal(quadratic, np.eye(2))
        assert np.array_equal(linear, np.zeros(2))
        assert constant == 1.0

    def test_hand_partition(self):
        quadratic, linear, constant = reduce_objective(
            build_q_matrix(np.array([1.0, 1.0]), 1))
        assert quadratic.tolist() == [[2.0]]
        assert linear.tolist() == [2.0]
        assert constant == 2.0

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reduction_matches_full_form(self, order_p, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=rng.integers(1, 12))
        if not np.any(h):
            h[0] = 1.0
        q = build_q_matrix(h, order_p)
        red = reduce_objective(q)
        tail = rng.normal(size=order_p)
        full = np.concatenate(([1.0], tail))
        assert reduced_value(red, tail) == pytest.approx(
            float(full @ toeplitz(q) @ full), rel=1e-12, abs=1e-12)

    def test_reduction_minimum_matches_grid_search(self):
        # brute force over a P=2 grid: attaching a_0 = 1 to the reduced
        # minimizer gives the same optimum as minimizing the full form
        q = build_q_matrix(np.array([1.0, 0.8, 0.3]), 2)
        red = reduce_objective(q)
        full_q = toeplitz(q)
        grid = np.linspace(-2.0, 2.0, 161)
        best_full, best_red = np.inf, np.inf
        for a1 in grid:
            for a2 in grid:
                a_vec = np.array([1.0, a1, a2])
                best_full = min(best_full, float(a_vec @ full_q @ a_vec))
                best_red = min(best_red,
                               reduced_value(red, np.array([a1, a2])))
        assert best_full == pytest.approx(best_red, rel=1e-12)


class TestSigma2H:
    def test_flat_ntf_flat_filter(self):
        filt = RationalFilter.from_polynomials((1.0,), (1.0,))
        val = sigma2_h((1.0,), (1.0,), filt, BINARY, FrequencyGrid.uniform(257))
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_one_pole_filter_closed_form(self):
        # H = 1/(1 - 0.5 z^-1): integral of |H|^2 over [0, pi] is
        # pi * sum h_i^2 = pi / (1 - 0.25)
        filt = RationalFilter.from_polynomials(num=(1.0,), den=(1.0, -0.5))
        val = sigma2_h((1.0,), (1.0,), filt, BINARY,
                       FrequencyGrid.uniform(4096))
        assert val == pytest.approx((1.0 / 3.0) * (4.0 / 3.0), rel=1e-9)

    def test_parseval_identity_on_truncated_response(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pole = rng.uniform(-0.85, 0.85)
            filt = RationalFilter.from_polynomials(
                num=(1.0, rng.normal()), den=(1.0, -pole))
            h = impulse_response(filt)
            order_p = int(rng.integers(1, 9))
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
            q = build_q_matrix(h, order_p)
            algebraic = BINARY.sigma2_eps * float(coeffs @ toeplitz(q) @ coeffs)
            fir = RationalFilter.from_polynomials(
                num=tuple(h.samples), den=(1.0,))
            quadrature = sigma2_h(coeffs, (1.0,), fir, BINARY,
                                  FrequencyGrid.uniform(4096))
            assert quadrature == pytest.approx(algebraic, rel=1e-6, abs=1e-12)

    def test_warns_when_grid_too_coarse(self):
        # a sharp resonance cannot be resolved by a handful of points
        filt = RationalFilter.from_polynomials(
            num=(1.0,), den=(1.0, -1.6, 0.9801))
        with pytest.warns(RuntimeWarning):
            sigma2_h((1.0,), (1.0,), filt, BINARY, FrequencyGrid.uniform(16))


class TestSigma2Inband:
    @pytest.mark.parametrize("order_p", [1, 2, 3])
    def test_differentiator_matches_asymptotic_formula(self, order_p):
        osr = 1024
        num = np.real(np.poly(np.ones(order_p)))  # (1 - z^-1)^P
        val = sigma2_inband(num, (1.0,), [(0.0, np.pi / osr)], BINARY)
        expected = (4.0 / 12.0) * np.pi ** (2 * order_p) / (
            (2 * order_p + 1) * osr ** (2 * order_p + 1))
        assert val == pytest.approx(expected, rel=0.01)

    def test_flat_ntf_full_band(self):
        val = sigma2_inband((1.0,), (1.0,), [(0.0, np.pi)], BINARY)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_first_order_full_band_closed_form(self):
        # integral of 4 sin^2(w/2) over [0, pi] is 2 pi
        val = sigma2_inband((1.0, -1.0), (1.0,), [(0.0, np.pi)], BINARY)
        assert val == pytest.approx(4.0 / 6.0, rel=1e-9)

    def test_empty_band_set_rejected(self):
        with pytest.raises(InvalidSpecError):
            sigma2_inband((1.0,), (1.0,), [], BINARY)

    def test_band_outside_range_rejected(self):
        with pytest.raises(InvalidSpecError):
            sigma2_inband((1.0,), (1.0,), [(0.0, 4.0)], BINARY)


class TestMeritIntegrand:
    def test_all_ones_for_flat_everything(self):
        filt = RationalFilter.from_polynomials((1.0,), (1.0,))
        vals = merit_integrand((1.0,), (1.0,), filt, FrequencyGrid.uniform(65))
        assert np.allclose(vals, 1.0)

    def test_differentiator_peak_at_pi(self):
        filt = RationalFilter.from_polynomials((1.0,), (1.0,))
        grid = FrequencyGrid(np.array([0.0, np.pi]))
        vals = merit_integrand((1.0, -1.0), (1.0,), filt, grid)
        assert vals[-1] == pytest.approx(4.0, rel=1e-12)
