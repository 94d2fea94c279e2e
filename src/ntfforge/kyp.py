"""Bounded-real LMI machinery for FIR noise transfer functions.

The gain bound max |NTF(e^{i omega})| <= gamma over the whole axis is encoded
as negative semidefiniteness of an affine symmetric matrix M(a; P) built on
the delay-chain state-space realization of the FIR filter, in the
coefficients a and a certificate matrix P.  ``LmiSystem`` is the one place
that states M's layout: ``evaluate`` builds the matrix from it,
``certificate`` reads P back off it, and the design solver
(``sdp._KypCone``) derives its placements from the same facts.  The dense
realization, the block formula it reproduces and the Schur-complement
equivalence are test oracles (``tests/oracles.py``).  A fixed filter's
witness needs no SDP: it is the observability Gramian of the filter's
lossless extension (``sdp.solve_gain_feasibility``, built on
``_observability``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, InvalidSpecError
from .filters import FrequencyGrid, frequency_response
from .modsim import NtfFir

CERT_EIG_TOL = 1e-9
FEAS_EIG_TOL = 1e-7
GRID_SLACK = 1e-4
VERIFY_GRID = 8192


@dataclass(frozen=True)
class LmiSystem:
    """The bounded-real matrix M(a; P) of order P and gain bound gamma, affine
    in the coefficients a = (a_1..a_P) and the P x P certificate P.

    No basis matrices are stored: from the delay-chain identity
    [A B] = [0 I], the top-left (P+1)x(P+1) part of the block matrix is
    [A B]^T P [A B] - [I 0]^T P [I 0], so P enters one step down the diagonal
    (rows 1..P) and is subtracted in place (rows 0..P-1).  The output row
    C = (a_P, .., a_1) puts a_k in the last column at ``coeff_rows`` (and
    mirrors it), and ``corner`` is the constant block at rows and columns
    P, P+1.  The tests check this layout against the dense block formula
    (``tests/oracles.py``).
    """

    order: int
    gamma: float

    @property
    def coeff_rows(self) -> np.ndarray:
        """Row of a_1..a_P in the last column: P - k for a_k."""
        return self.order - np.arange(1, self.order + 1)

    @property
    def corner(self) -> np.ndarray:
        """The constant block at rows and columns P, P+1: -gamma^2, the
        feedthrough D = 1 and the output's -1.  No a_k meets it."""
        return np.array([[-self.gamma**2, 1.0], [1.0, -1.0]])

    def evaluate(self, a, p_matrix) -> np.ndarray:
        p = self.order
        a = np.asarray(a, dtype=float)
        pm = np.asarray(p_matrix, dtype=float)
        if a.shape != (p,) or pm.shape != (p, p):
            raise InvalidSpecError(
                f"expected {p} coefficients and a {p}x{p} certificate, got "
                f"shapes {a.shape} and {pm.shape}"
            )
        out = np.zeros((p + 2, p + 2))
        out[self.coeff_rows, p + 1] = out[p + 1, self.coeff_rows] = a
        out[1:p + 1, 1:p + 1] += pm
        out[:p, :p] -= pm
        out[p:, p:] += self.corner
        return out

    def certificate(self, slack) -> np.ndarray:
        """The P x P certificate of a slack S = -M(a; P).  Only the shifts
        of P reach M's top-left P x P block, so P[i, j] = P[i-1, j-1] + S[i, j]
        along its diagonals; the result is symmetrized, and whatever of S
        lies off the LMI's range is left out."""
        p = self.order
        pm = slack[:p, :p].copy()
        for i in range(1, p):
            pm[i, 1:] += pm[i - 1, :-1]
        return 0.5 * (pm + pm.T)


def _observability(x):
    """Rows C A^k, k < P, of the delay chain with output row
    C = (x_P, .., x_1): the upper-triangular Toeplitz matrix on that row."""
    row = x[:0:-1]
    lag = np.arange(row.size)[None, :] - np.arange(row.size)[:, None]
    return np.where(lag >= 0, row[np.maximum(lag, 0)], 0.0)


@dataclass(frozen=True)
class BoundedRealCertificate:
    """Witness for the gain bound, plus the eigenvalue extremes that prove it."""

    p_matrix: np.ndarray
    gamma: float
    max_eigenvalue_big: float
    min_eigenvalue_p: float
    grid_max: float

    @property
    def feasible(self) -> bool:
        scale = max(1.0, float(np.trace(self.p_matrix)))
        return (
            self.min_eigenvalue_p >= -CERT_EIG_TOL * scale
            and self.max_eigenvalue_big <= FEAS_EIG_TOL * max(1.0, self.gamma**2)
        )

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "grid_max": self.grid_max,
            "max_eig_big": self.max_eigenvalue_big,
            "min_eig_p": self.min_eigenvalue_p,
            "p_matrix": [list(map(float, row)) for row in self.p_matrix],
        }


def assemble_lmi(order_p: int, gamma: float) -> LmiSystem:
    """The affine map (a, P) -> bounded-real block matrix for order P and
    gamma.

    The map is kept in the delay-chain structure ``LmiSystem`` describes.
    """
    if order_p < 1:
        raise InvalidSpecError("order must be >= 1")
    if gamma <= 0:
        raise InvalidSpecError("gamma must be positive")
    return LmiSystem(order=order_p, gamma=gamma)


_VERIFY_GRID = FrequencyGrid.uniform(VERIFY_GRID)  # shared, read-only


def grid_gain_max(coeffs, den=(1.0,)) -> float:
    """Maximum of |NTF| over [0, pi] on the ``VERIFY_GRID`` points, built
    once per process; FIR unless a denominator ``den`` is given."""
    a = np.asarray(coeffs, dtype=float)
    return float(np.max(np.abs(frequency_response(a, den, _VERIFY_GRID))))


def bounded_real_certificate(a: np.ndarray, p_matrix,
                             gamma: float) -> BoundedRealCertificate:
    """The gain-bound certificate of the FIR filter a_0..a_P (a float vector
    with a_0 = 1, as ``verify_bounded_real`` checks it) with witness P: the
    top eigenvalue of the bounded-real block matrix, the bottom one of P (0
    for the empty P of order 0) and the dense-grid gain maximum.
    ``verify_bounded_real`` judges it."""
    pm = np.asarray(p_matrix, dtype=float)
    big = LmiSystem(order=a.size - 1, gamma=gamma).evaluate(a[1:], pm)
    return BoundedRealCertificate(
        p_matrix=pm,
        gamma=float(gamma),
        max_eigenvalue_big=float(np.linalg.eigvalsh(big)[-1]),
        min_eigenvalue_p=float(np.linalg.eigvalsh(pm)[0]) if pm.size else 0.0,
        grid_max=grid_gain_max(a),
    )


def verify_bounded_real(coeffs, gamma: float,
                        p_matrix=None) -> BoundedRealCertificate:
    """Check (or construct) a gain-bound certificate for an FIR filter.

    With a witness ``p_matrix`` supplied, the certificate is rebuilt from it
    and judged.  Without one, the witness is the Gramian of the filter's
    lossless extension at gamma (1 + ``sdp.WITNESS_MARGIN``)
    (``sdp.solve_gain_feasibility``), judged the same way at gamma.
    Both the algebra (``feasible``) and the dense grid (slack
    ``GRID_SLACK``) must hold the gain within gamma, else this raises.
    A zero-order NTF (a_0 = 1 alone) is judged the same way: its P is empty
    and its block matrix is ``LmiSystem.corner``, which is negative
    semidefinite exactly when gamma >= 1.
    The coefficients must be a finite vector with a_0 = 1 (``NtfFir``), and
    gamma positive with a finite square.
    """
    a = NtfFir(coeffs).coeffs
    # gamma * gamma is inf where gamma**2 raises OverflowError
    if not (gamma > 0 and gamma * gamma < np.inf):
        raise InvalidSpecError("gamma must be positive with a finite square")
    if p_matrix is None:
        from .sdp import solve_gain_feasibility

        p_matrix, _ = solve_gain_feasibility(a, gamma)
    cert = bounded_real_certificate(a, p_matrix, gamma)
    gmax = cert.grid_max
    if not cert.feasible:
        raise BoundViolationError(
            f"certificate rejected: max big eig {cert.max_eigenvalue_big:.3e}, "
            f"min P eig {cert.min_eigenvalue_p:.3e} (grid max {gmax:.6f})",
            grid_max=gmax,
        )
    if gmax > cert.gamma * (1.0 + GRID_SLACK):
        raise BoundViolationError(
            f"grid max {gmax:.6f} exceeds gamma {cert.gamma} beyond slack",
            grid_max=gmax,
        )
    return cert
