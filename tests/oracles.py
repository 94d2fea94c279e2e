"""Test oracles: dense forms of what the package computes in structured
form, kept beside the tests that check the package against them.

The delay-chain realization and the bounded-real matrix built from it by the
block formula (``ntfforge.kyp.LmiSystem`` states the same layout once and
places its entries directly), its Schur-reduced dissipation form, the
in-band noise power of an NTF alone by quadrature, the reduced objective's
value, the interior-point step length measured through an inverse Cholesky
factor, the solver cone's dense constant and coefficient map built through
``LmiSystem.evaluate``, Horner's rule with a new array per step, the
per-sample simulation loop's quantizer and its recursion replayed over given
errors, and the objective's noise floor and an NTF's mean log gain on a fine
grid of the whole circle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ntfforge.errors import EvaluationError, InvalidSpecError
from ntfforge.filters import _polyval_zinv
from ntfforge.modsim import NtfFir, Quantizer
from ntfforge.objective import NoiseBudget


@dataclass(frozen=True)
class CanonicalRealization:
    """Delay-chain state space of an FIR filter: the state remembers the last
    P inputs and the output row carries the coefficients."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    c_vector: np.ndarray
    d_scalar: float

    @property
    def order(self) -> int:
        return self.b_vector.size

    def transfer(self, z: np.ndarray) -> np.ndarray:
        """C (zI - A)^-1 B + D, evaluated per point (test oracle)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        p = self.order
        out = np.empty(z.shape, dtype=complex)
        eye = np.eye(p)
        for i, zi in enumerate(z):
            out[i] = self.c_vector @ np.linalg.solve(
                zi * eye - self.a_matrix, self.b_vector
            ) + self.d_scalar
        return out


def canonical_realization(coeffs) -> CanonicalRealization:
    """Delay-chain realization of an FIR filter with coefficients a_0..a_P."""
    a = NtfFir(coeffs).coeffs
    if a.size < 2:
        raise InvalidSpecError("FIR order must be >= 1")
    p = a.size - 1
    amat = np.zeros((p, p))
    amat[np.arange(p - 1), np.arange(1, p)] = 1.0
    bvec = np.zeros(p)
    bvec[-1] = 1.0
    cvec = a[1:][::-1].copy()  # (a_P, ..., a_1)
    return CanonicalRealization(a_matrix=amat, b_vector=bvec, c_vector=cvec,
                                d_scalar=float(a[0]))


def bounded_real_matrix(realization: CanonicalRealization, p_matrix,
                        gamma: float) -> np.ndarray:
    """The (P+2)x(P+2) block matrix whose negative semidefiniteness certifies
    the gain bound."""
    a = realization.a_matrix
    b = realization.b_vector.reshape(-1, 1)
    c = realization.c_vector.reshape(1, -1)
    d = realization.d_scalar
    pm = np.asarray(p_matrix, dtype=float)
    n = realization.order
    big = np.zeros((n + 2, n + 2))
    big[:n, :n] = a.T @ pm @ a - pm
    apb = (a.T @ pm @ b).ravel()
    big[:n, n] = apb
    big[n, :n] = apb
    big[:n, n + 1] = c.ravel()
    big[n + 1, :n] = c.ravel()
    big[n, n] = float((b.T @ pm @ b).item() if n else 0.0) - gamma**2
    big[n, n + 1] = d
    big[n + 1, n] = d
    big[n + 1, n + 1] = -1.0
    return big


def schur_reduced_matrix(realization: CanonicalRealization, p_matrix,
                         gamma: float) -> np.ndarray:
    """(P+1)x(P+1) dissipation form: the big matrix with its output row/column
    folded in through the Schur complement of the -1 corner."""
    a = realization.a_matrix
    b = realization.b_vector.reshape(-1, 1)
    c = realization.c_vector.reshape(1, -1)
    d = realization.d_scalar
    pm = np.asarray(p_matrix, dtype=float)
    n = realization.order
    red = np.zeros((n + 1, n + 1))
    red[:n, :n] = a.T @ pm @ a - pm + c.T @ c
    cross = (a.T @ pm @ b).ravel() + c.ravel() * d
    red[:n, n] = cross
    red[n, :n] = cross
    red[n, n] = float((b.T @ pm @ b).item() if n else 0.0) - gamma**2 + d * d
    return red


def schur_equivalence_check(realization: CanonicalRealization, p_matrix,
                            gamma: float, tol: float = 1e-9):
    """NSD verdicts of the big matrix and of its Schur-reduced form.

    Returns a (bool, bool) pair; the two must agree whenever the corner block
    is negative definite, which is the property tests exercise.
    """
    big = bounded_real_matrix(realization, p_matrix, gamma)
    red = schur_reduced_matrix(realization, p_matrix, gamma)
    scale_big = max(1.0, float(np.max(np.abs(big))))
    scale_red = max(1.0, float(np.max(np.abs(red))))
    nsd_big = bool(np.linalg.eigvalsh(big)[-1] <= tol * scale_big)
    nsd_red = bool(np.linalg.eigvalsh(red)[-1] <= tol * scale_red)
    return nsd_big, nsd_red


def sigma2_inband(ntf_num, ntf_den, bands, budget: NoiseBudget) -> float:
    """Noise power of the NTF alone over omega-intervals, 8193 points each."""
    bands = [(float(lo), float(hi)) for lo, hi in bands]
    if not bands:
        raise InvalidSpecError("band set must be nonempty")
    for lo, hi in bands:
        if not (0.0 <= lo < hi <= np.pi):
            raise InvalidSpecError("bands must be within [0, pi] and increasing")
    total = 0.0
    for lo, hi in bands:
        om = np.linspace(lo, hi, 8193)
        zinv = np.exp(-1j * om)
        numv = _polyval_zinv(ntf_num, zinv)
        denv = _polyval_zinv(ntf_den, zinv)
        if np.any(np.abs(denv) < 1e-14):
            raise EvaluationError("NTF denominator vanished inside a band")
        mag2 = np.abs(numv / denv) ** 2
        total += np.trapezoid(mag2, om)
    return float(budget.pds_constant * total)


def reduced_value(blocks, free_coeffs) -> float:
    """constant + linear . v + v . quadratic . v for the (quadratic, linear,
    constant) blocks of ``reduce_objective`` and v = (a_1 .. a_P), in
    float64."""
    quadratic, linear, constant = blocks
    v = np.asarray(free_coeffs, dtype=float)
    return float(constant + linear @ v + v @ quadratic @ v)


def max_step(inv_lower, direction):
    """Largest alpha with X + alpha*D > 0, given L^-1 for X = L L^T."""
    w = inv_lower @ direction @ inv_lower.T
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


def cone_placements(cone):
    """The dense constant F0 = -M(0; 0) of an ``ntfforge.sdp._KypCone`` (the
    cone keeps only its projection) and its coefficient map, the
    projections of F_a(e_k) = M(0; 0) - M(e_k; 0), built through
    ``LmiSystem.evaluate``."""
    lmi = cone.lmi
    p = lmi.order
    no_cert = np.zeros((p, p))
    flat = lmi.evaluate(np.zeros(p), no_cert)
    # a_k's entries never meet the constant corner, so M(e_k; 0) - M(0; 0)
    # is exactly its placement
    coeff_map = np.array(
        [cone.project(flat - lmi.evaluate(e, no_cert)) for e in np.eye(p)]
    ).T
    return -flat, coeff_map


def polyval_zinv(coeffs, zinv):
    """sum_k c_k * zinv^k by Horner's rule, a new array per step."""
    acc = np.zeros_like(zinv)
    for c in reversed(tuple(coeffs)):
        acc = acc * zinv + c
    return acc


def quantize(quantizer: Quantizer, value: float) -> float:
    """The nearest of the quantizer's levels; midpoints round toward the
    higher level."""
    return quantizer.levels[bisect_right(quantizer.midpoints, value)]


def replayed_loop(coeffs, w, e, quantizer: Quantizer, start: int):
    """The per-sample loop's decision and error at every sample from
    ``start`` on, each from the given errors before it: y(n) = w(n) +
    sum_k a_k e(n-k) in Python floats, x(n) = quantize(y(n)) and
    e(n) = x(n) - y(n).  Returns (x, e) over samples start..end."""
    tail = [float(c) for c in coeffs[1:]]
    past = [float(v) for v in e]
    xs, es = [], []
    for n in range(start, len(past)):
        acc = float(w[n])
        for k, a_k in enumerate(tail, 1):
            if n - k >= 0:
                acc += a_k * past[n - k]
        xi = quantize(quantizer, acc)
        xs.append(xi)
        es.append(xi - acc)
    return np.array(xs), np.array(es)


FINE_POINTS = 2**16  # the grid of the noise-floor and mean-log oracles


def noise_floor_bisection(h, gamma: float, points: int = FINE_POINTS):
    """(f_inf, c): the least mean of W R over 0 <= R <= gamma^2 with
    mean ln R >= 0, W = |H|^2 of the truncated response h on the
    ``points``-point DFT grid of the whole circle, and the level c of its
    minimizer R = min(gamma^2, c / W).  ln c is found by bisection on the
    mean of ln R, which grows with it, until the bracket stops shrinking.
    h must be shorter than the grid, so that the grid mean of W |A|^2 is
    ||h * a||^2 for every a of order below points - len(h)."""
    samples = np.asarray(getattr(h, "samples", h), dtype=float)
    if samples.size >= points:
        raise ValueError("the response must be shorter than the grid")
    w = np.abs(np.fft.fft(samples, points)) ** 2
    log_w = np.log(np.maximum(w, np.finfo(float).tiny))
    log_cap = 2.0 * np.log(gamma)
    lo, hi = float(log_w.min()), float(log_w.max()) + log_cap
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.mean(np.minimum(log_cap, mid - log_w)) < 0.0:
            lo = mid
        else:
            hi = mid
    r = np.exp(np.minimum(log_cap, hi - log_w))
    return float(np.mean(w * r)), float(np.exp(hi))


def mean_log_gain(coeffs, points: int = FINE_POINTS) -> float:
    """The mean of ln |A|^2 over a ``points``-point grid of the whole
    circle; 0 for a monic minimum-phase A, by Jensen's formula."""
    return float(np.mean(np.log(np.abs(np.fft.fft(coeffs, points)) ** 2)))
