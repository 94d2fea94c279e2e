"""Bounded-real LMI machinery for FIR noise transfer functions.

The gain bound max |NTF(e^{i omega})| <= gamma over the whole axis is encoded
as negative semidefiniteness of an affine symmetric matrix M(a; P) built on
the delay-chain state-space realization of the FIR filter, in the
coefficients a and a certificate matrix P.  ``LmiSystem.evaluate`` is the one
place that builds that matrix, and the judgement of a witness against the
LMI and a dense frequency grid rebuilds it the same way.  The design solver
places the same constant and coefficient entries directly
(``sdp._KypCone``), and the tests check them bit for bit against
``evaluate``.  The dense realization, the block formula it reproduces and
the Schur-complement equivalence are test oracles (``tests/oracles.py``).
The design solver never handles the certificate entries one by one: its dual
lives on the subspace they leave free (``sdp._KypCone``).  A fixed filter's
witness needs no SDP: it is the observability Gramian of the filter's
lossless extension (``sdp.solve_gain_feasibility``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, InvalidSpecError
from .filters import FrequencyGrid, frequency_response

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
    C = (a_P, .., a_1) puts a_k at (P-k, P+1); the tests check this map
    against the dense block formula (``tests/oracles.py``).  The top-left
    P x P block of M holds the shifts alone, so P[i, j] = P[i-1, j-1] -
    M[i, j] reads a certificate back off a block
    (``sdp._KypCone.certificate``).
    """

    order: int
    gamma: float

    @property
    def dimension(self) -> int:
        return self.order + 2

    def evaluate(self, a, p_matrix) -> np.ndarray:
        p = self.order
        a = np.asarray(a, dtype=float)
        pm = np.asarray(p_matrix, dtype=float)
        if a.shape != (p,) or pm.shape != (p, p):
            raise InvalidSpecError(
                f"expected {p} coefficients and a {p}x{p} certificate, got "
                f"shapes {a.shape} and {pm.shape}"
            )
        rows = p - np.arange(1, p + 1)  # a_1..a_P in the output column
        out = np.zeros((p + 2, p + 2))
        out[rows, p + 1] = out[p + 1, rows] = a
        out[1:p + 1, 1:p + 1] += pm
        out[:p, :p] -= pm
        out[p, p] -= self.gamma**2
        out[p, p + 1] += 1.0  # D
        out[p + 1, p] += 1.0
        out[p + 1, p + 1] -= 1.0
        return out


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


def _monic_coefficients(coeffs) -> np.ndarray:
    """The coefficients a_0..a_P of an FIR NTF as floats, checked for the
    unit leading coefficient every NTF here carries."""
    a = np.asarray(getattr(coeffs, "coeffs", coeffs), dtype=float)
    if a.size == 0 or a[0] != 1.0:
        raise InvalidSpecError("leading coefficient must be exactly 1")
    return a


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


def grid_gain_max(coeffs, points: int = VERIFY_GRID, den=(1.0,)) -> float:
    """Dense-grid maximum of |NTF| over [0, pi]; FIR unless a denominator
    ``den`` is given."""
    a = np.asarray(getattr(coeffs, "coeffs", coeffs), dtype=float)
    grid = FrequencyGrid.uniform(points)
    return float(np.max(np.abs(frequency_response(a, den, grid))))


def bounded_real_certificate(coeffs, p_matrix,
                             gamma: float) -> BoundedRealCertificate:
    """The gain-bound certificate of an FIR filter with witness P: the top
    eigenvalue of the bounded-real block matrix, the bottom one of P and the
    dense-grid gain maximum.  ``verify_bounded_real`` judges it."""
    a = _monic_coefficients(coeffs)
    pm = np.asarray(p_matrix, dtype=float)
    big = assemble_lmi(a.size - 1, gamma).evaluate(a[1:], pm)
    return BoundedRealCertificate(
        p_matrix=pm,
        gamma=float(gamma),
        max_eigenvalue_big=float(np.linalg.eigvalsh(big)[-1]),
        min_eigenvalue_p=float(np.linalg.eigvalsh(pm)[0]),
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
    """
    a = _monic_coefficients(coeffs)
    if gamma <= 0:
        raise InvalidSpecError("gamma must be positive")
    if a.size == 1:
        # zero-order NTF: unit gain, and the block matrix degenerates to the
        # corner [[-gamma^2, 1], [1, -1]]
        if 1.0 > gamma * (1.0 + GRID_SLACK):
            raise BoundViolationError(
                f"gain bound violated: |a_0| = 1 > gamma {gamma}",
                grid_max=1.0,
            )
        no_cert = np.zeros((0, 0))
        corner = LmiSystem(order=0, gamma=gamma).evaluate(a[1:], no_cert)
        return BoundedRealCertificate(
            p_matrix=no_cert, gamma=float(gamma),
            max_eigenvalue_big=float(np.linalg.eigvalsh(corner)[-1]),
            min_eigenvalue_p=0.0, grid_max=1.0,
        )
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
