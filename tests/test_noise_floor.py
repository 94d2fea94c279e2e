"""The noise floor f_inf that scales the design objective
(``objective.noise_floor``), against independent oracles on the designs it
scales, with the invariants of those designs that the bound rests on and
the solver iterations it saves, and the flat NTF's noise above them.

The designs are the paper's lowpass over P = 5..25, its bandpass P=49 and
two-band P=50 cases, and the bandpass at P=64 with gamma = 1.02.
"""

import numpy as np
import pytest

from ntfforge.design import DesignSpec, design_floor, run_design, sweep_orders
from ntfforge.filters import FilterSpec, impulse_response
from ntfforge.objective import noise_floor, noise_gain
from oracles import FINE_POINTS, mean_log_gain, noise_floor_bisection

SWEEP = range(5, 26)
# f_inf may differ from the optimum of the fine grid's bound only through
# the design's gain overshoot and its mean log gain there (see
# test_noise_power_is_at_least_the_floor)
GRID_ERROR = 1e-6


def lowpass_spec(fir_order):
    return DesignSpec(
        filter_spec=FilterSpec(kind="lowpass_butterworth", fs_hz=2.048e6,
                               order=1, bands_hz=((0.0, 2000.0),)),
        fir_order=fir_order, gamma=1.5)


def bandpass_spec(fir_order, gamma):
    return DesignSpec(
        filter_spec=FilterSpec(kind="bandpass_butterworth", fs_hz=51200.0,
                               order=8, bands_hz=((800.0, 1200.0),)),
        fir_order=fir_order, gamma=gamma)


SPECS = {
    **{f"lowpass-p{p}": lowpass_spec(p) for p in SWEEP},
    "bandpass-p49": bandpass_spec(49, 1.5),
    "twoband-p50": DesignSpec(
        filter_spec=FilterSpec(kind="multiband_butterworth",
                               fs_hz=2 * 64 * 4400.0, order=4,
                               bands_hz=((800.0, 1200.0), (8000.0, 12000.0))),
        fir_order=50, gamma=1.5),
    "bandpass-p64-g1.02": bandpass_spec(64, 1.02),
}


@pytest.fixture(scope="module")
def designs():
    """Each design with its truncated response and the oracle's (f_inf,
    c) at its gamma."""
    out = {}
    for name, spec in SPECS.items():
        result = run_design(spec)
        h = impulse_response(result.filt)
        out[name] = (result, h, noise_floor_bisection(h, spec.gamma))
    return out


class TestNoiseFloorClosedForms:
    @pytest.mark.parametrize("gamma", [1.001, 1.5, 1e150])
    def test_flat_filter_floor_is_one(self, gamma):
        # W = 1: R = 1 is the minimizer, the flat NTF's noise
        assert noise_floor(np.array([1.0]), gamma) == pytest.approx(
            1.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [2.0, 4.0, 1e150])
    def test_minimum_phase_first_order_floor_is_one(self, gamma):
        # H = 1 + z^-1 / 2 has mean ln W = 0, and from gamma = 2 on
        # R = 1 / W is under the cap everywhere, so f_inf = 1; the monic
        # a_k = (-1/2)^k reaches 1 + 4^-(P+1)
        h = np.array([1.0, 0.5])
        assert noise_floor(h, gamma) == pytest.approx(1.0, rel=1e-12)
        a = (-0.5) ** np.arange(13)
        assert noise_gain(h, a) == pytest.approx(1.0 + 0.25**13, rel=1e-12)

    def test_cap_raises_the_floor(self):
        # below gamma = 2 the cap binds where W is least, so the floor
        # rises above 1 and falls as gamma grows
        h = np.array([1.0, 0.5])
        values = [noise_floor(h, g) for g in (1.1, 1.5, 1.9)]
        assert values[0] > values[1] > values[2] > 1.0

    def test_scales_with_the_filter_energy(self):
        h = np.random.default_rng(3).normal(size=200)
        assert noise_floor(3.0 * h, 1.5) == pytest.approx(
            9.0 * noise_floor(h, 1.5), rel=1e-12)

    def test_levels_off_at_the_geometric_mean(self, designs):
        # as gamma grows every R = c / W and f_inf = c = exp(mean ln W),
        # with no underflow however large gamma is
        h = designs["bandpass-p49"][1]
        values = [noise_floor(h, g) for g in (1e10, 1e150)]
        assert values[0] == values[1]
        assert 0.0 < values[1] < noise_floor(h, 1.5)


class TestNoiseFloorOracles:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_agrees_with_bisection_on_the_fine_grid(self, designs, name):
        # the package folds h onto 4096 points; the oracle bisects on
        # 2^16 points of the unfolded response
        _, h, (want, _) = designs[name]
        assert noise_floor(h, SPECS[name].gamma) == pytest.approx(
            want, rel=1e-3)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_noise_power_is_at_least_the_floor(self, designs, name):
        # On the fine grid the mean of W |A|^2 is ||h * a||^2, |A|^2 is at
        # most gmax^2 and its mean log is m.  By weak duality with the
        # oracle's multiplier c, every such R has mean W R >= f_inf -
        # c (2 ln(gmax / gamma)_+ + (-m)_+), so that relative loss is the
        # grid error, which must stay below GRID_ERROR.
        result, h, (floor, level) = designs[name]
        gamma = SPECS[name].gamma
        gain = np.abs(np.fft.fft(result.ntf.coeffs, FINE_POINTS))
        grid_error = level / floor * (
            2.0 * max(0.0, float(np.log(gain.max() / gamma)))
            + max(0.0, -mean_log_gain(result.ntf.coeffs)))
        assert grid_error <= GRID_ERROR
        sigma2_eps = result.spec.budget.sigma2_eps
        assert result.sigma2_h >= sigma2_eps * floor * (1.0 - GRID_ERROR)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_noise_power_is_at_most_the_flat_ntfs(self, designs, name):
        # the flat NTF (a = 1, unit gain) is feasible at every gamma >= 1,
        # so the optimum is at most its noise sigma_eps^2 q_0, to the
        # solver's relative gap
        result, h, _ = designs[name]
        q0 = float(np.dot(h.samples, h.samples))
        assert result.sigma2_h <= result.spec.budget.sigma2_eps * q0 * (
            1.0 + result.spec.solver.gap_tol)

    def test_lowpass_sweep_approaches_the_floor(self, designs):
        # the lowpass optimum nears the infinite-order bound as P grows
        # (f*/f_inf measured 1.0126 at P=5, 1.0011 at P=12)
        for p in SWEEP:
            result, _, (floor, _) = designs[f"lowpass-p{p}"]
            ratio = result.sigma2_h / (result.spec.budget.sigma2_eps * floor)
            assert ratio <= (1.02 if p < 12 else 1.002), p


class TestGerzonCraven:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_optimum_is_minimum_phase_with_zero_mean_log_gain(self, designs,
                                                              name):
        # reflecting a zero from outside the unit disk inside shrinks |NTF|
        # uniformly, so the optimum has none; a monic minimum-phase NTF
        # then has mean ln |NTF|^2 = 0 by Jensen's formula
        coeffs = designs[name][0].ntf.coeffs
        assert np.max(np.abs(np.roots(coeffs))) < 1.0
        assert abs(mean_log_gain(coeffs)) <= 1e-10


class TestNoiseFloorCache:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_cached_floor_is_the_floor_of_the_truncated_response(
            self, designs, name):
        result, h, _ = designs[name]
        gamma = SPECS[name].gamma
        assert design_floor(result.filt, gamma) == noise_floor(h, gamma)
        assert design_floor(result.filt, gamma) == noise_floor(
            impulse_response(result.filt), gamma)

    def test_sweep_computes_the_floor_once(self):
        # the 21 orders share one filter and gamma, so the first design's
        # miss answers the other twenty
        design_floor.cache_clear()
        rows = sweep_orders(lowpass_spec(5), SWEEP)
        assert all(row["status"] == "optimal" for row in rows)
        info = design_floor.cache_info()
        assert (info.misses, info.hits) == (1, len(SWEEP) - 1)


class TestIterationBudget:
    # Solver iteration counts repeat exactly where wall times do not; the
    # noise-floor scale took the sweep from 312 to 244 iterations and
    # bandpass P=49 from 26 to 14 with one BLAS thread
    def test_lowpass_sweep_within_250_iterations(self, designs):
        total = sum(designs[f"lowpass-p{p}"][0].solution.iterations
                    for p in SWEEP)
        assert total <= 250

    def test_bandpass_p49_within_16_iterations(self, designs):
        assert designs["bandpass-p49"][0].solution.iterations <= 16
