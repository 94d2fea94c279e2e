"""Quadratic objective built from the output-filter impulse response.

The quantization-noise power after the output filter is a quadratic form in
the FIR NTF coefficients; the quadratic matrix is the Toeplitz autocorrelation
of the truncated impulse response, kept as its row q_0..q_P until
``reduce_objective`` gathers the solver's blocks.  Quadrature evaluators of
the same quantities cross-check the algebraic path independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFilterError, EvaluationError, InvalidSpecError
from .filters import FrequencyGrid, RationalFilter, frequency_response

GRID_DOUBLING_WARN = 1e-3
FLOOR_POINTS = 4096  # the DFT length of noise_floor's spectrum


@dataclass(frozen=True)
class NoiseBudget:
    """Quantization-noise bookkeeping for a uniform quantizer of step delta."""

    delta: float = 2.0

    def __post_init__(self):
        if self.delta <= 0:
            raise InvalidSpecError("quantizer step must be positive")

    @property
    def sigma2_eps(self) -> float:
        return self.delta**2 / 12.0

    @property
    def pds_constant(self) -> float:
        """Single-sided noise density over omega in [0, pi]."""
        return self.delta**2 / (12.0 * np.pi)


def build_q_matrix(h, order_p: int) -> np.ndarray:
    """First row q_0..q_P of the autocorrelation matrix Q of the impulse
    response.

    Accepts an ImpulseResponse or a plain sample vector.  q_k is the
    restricted correlation sum sum_{i=k}^{M} h_i h_{i-k}, and Q is the
    symmetric Toeplitz matrix Q[i, j] = q_|i-j|: the Gram matrix of h's
    zero-padded shifts, so PSD by construction (a^T Q a = ||h * a||^2,
    which ``noise_gain`` evaluates).
    """
    samples = np.asarray(getattr(h, "samples", h), dtype=float)
    if order_p < 1:
        raise InvalidSpecError("order must be >= 1")
    if samples.size == 0 or not np.any(samples):
        raise DegenerateFilterError("impulse response is identically zero")
    m1 = samples.size
    return np.array(
        [np.dot(samples[k:], samples[: m1 - k]) if k < m1 else 0.0
         for k in range(order_p + 1)]
    )


def noise_gain(h, coeffs) -> float:
    """a^T Q a for Q = ``build_q_matrix(h, P)``, as the energy of the
    filtered noise h * a.

    Q is exactly the autocorrelation of the truncated impulse response, so
    the quadratic form is a sum of squares here.  Summed over Q's entries it
    cancels: for the bandpass designs at gamma = 4 it is about 1e-10 of its
    largest terms, and float64 leaves ~1e-6 relative rounding.
    """
    samples = np.asarray(getattr(h, "samples", h), dtype=float)
    if samples.size == 0 or not np.any(samples):
        raise DegenerateFilterError("impulse response is identically zero")
    filtered = np.convolve(samples, np.asarray(coeffs, dtype=float))
    return float(filtered @ filtered)


def noise_floor(h, gamma: float) -> float:
    """f_inf, the least a^T Q a that a monic FIR NTF of any order with gain
    at most gamma could reach: the minimum of the mean of W R over the
    spectra 0 <= R <= gamma^2 with mean ln R >= 0, W = |H|^2.

    By Jensen's formula every monic A has mean ln |A|^2 >= 0 (Gerzon &
    Craven, AES Convention 1989), so R = |A|^2 lies in that set.  Its
    minimizer is water-filling, R = min(gamma^2, c / W), with c set by the
    mean of ln R being 0.  W is sampled on the ``FLOOR_POINTS``-point DFT of
    the truncated h folded modulo that length, so the grid mean of W |A|^2
    is a^T Q a while h is no longer than the grid less P (longer ones alias
    their lags).  The series q_0 + 2 sum q_k cos k omega cannot stand in for
    W: truncated at P it goes negative.  c is exact: with the W sorted in
    descending order, let the k largest take c / W and the rest gamma^2;
    then the condition is linear in ln c, and a cumulative sum gives it for
    every k at once.  ln W is clamped at the least normal float, since H
    may vanish (the bilinear lowpass has H(pi) = 0).
    """
    samples = np.asarray(getattr(h, "samples", h), dtype=float)
    n = FLOOR_POINTS
    padded = np.zeros(-(-samples.size // n) * n)
    padded[:samples.size] = samples
    spec = np.fft.rfft(padded.reshape(-1, n).sum(axis=0))
    w = spec.real**2 + spec.imag**2
    # weights of the half spectrum's points in the mean over the circle
    weight = np.full(w.size, 2.0 / n)
    weight[[0, -1]] = 1.0 / n
    order = np.argsort(w)[::-1]
    w, weight = w[order], weight[order]
    log_w = np.log(np.maximum(w, np.finfo(float).tiny))
    log_cap = 2.0 * np.log(gamma)
    free = np.cumsum(weight)
    # ln c when the k largest W take c / W: sum_{i<k} weight_i (ln c -
    # ln W_i) + (1 - free_k) ln gamma^2 = 0
    log_c = (np.cumsum(weight * log_w) - (1.0 - free) * log_cap) / free
    # the first k whose next W would take more than gamma^2 under its c
    k = int(np.argmax(np.append(log_w[1:], -np.inf) <= log_c - log_cap))
    capped = float(weight[k + 1:] @ w[k + 1:])
    return float(free[k] * np.exp(log_c[k]) + gamma * gamma * capped)


def reduce_objective(q: np.ndarray):
    """Split a^T Q a with a_0 = 1, for Q the Toeplitz matrix of the row
    q = q_0..q_P, into (quadratic, linear, constant) blocks: over the free
    coefficients v = (a_1 .. a_P) it reads
    constant + linear . v + v . quadratic . v, with quadratic[i, j] =
    q_|i-j|, linear = 2 q_1..q_P and constant = q_0."""
    lags = np.arange(1, q.size)
    return (q[np.abs(lags[:, None] - lags[None, :])], 2.0 * q[1:],
            float(q[0]))


def merit_integrand(ntf_num, ntf_den, filt: RationalFilter,
                    grid: FrequencyGrid) -> np.ndarray:
    """|H|^2 |NTF|^2 per grid point (the linear-scale noise-density weight)."""
    hmag2 = np.abs(filt.response(grid)) ** 2
    return hmag2 * np.abs(frequency_response(ntf_num, ntf_den, grid)) ** 2


def sigma2_h(ntf_num, ntf_den, filt: RationalFilter, budget: NoiseBudget,
             grid: FrequencyGrid) -> float:
    """Quantization-noise power at the filter output by trapezoid quadrature
    on ``grid``.

    Accepts arbitrary rational NTFs so externally supplied designs can be
    scored.  Emits a warning when doubling the grid moves the result by more
    than 0.1% (the grid is then too coarse for this integrand).
    """
    integrand = merit_integrand(ntf_num, ntf_den, filt, grid)
    if not np.all(np.isfinite(integrand)):
        w_bad = grid.omegas[int(np.argmax(~np.isfinite(integrand)))]
        raise EvaluationError(f"non-finite integrand at omega={w_bad:.6g}")
    value = budget.pds_constant * np.trapezoid(integrand, grid.omegas)
    fine = FrequencyGrid.uniform(2 * grid.count - 1)
    value_fine = budget.pds_constant * np.trapezoid(
        merit_integrand(ntf_num, ntf_den, filt, fine), fine.omegas
    )
    if value_fine != 0.0 and abs(value - value_fine) > GRID_DOUBLING_WARN * abs(value_fine):
        warnings.warn(
            f"noise-power quadrature changed by "
            f"{abs(value - value_fine) / abs(value_fine):.2%} on grid doubling; "
            "increase grid_points",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(value)
