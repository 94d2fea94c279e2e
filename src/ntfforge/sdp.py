"""Self-contained primal-dual interior-point solver over one PSD block.

Solves min c.x + x_G^T G x_G / 2 + constant subject to F0 + sum_i x_i F_i >= 0,
where x_G is the leading part of x the PSD matrix G acts on, with a Mehrotra
predictor-corrector iteration under Nesterov-Todd scaling.  The NTF design
problem is posed directly in this form: its objective, the Toeplitz noise
power, is the quadratic in the coefficients a, and the one PSD block is the
(negated) gain-bound LMI M(a; P) in the coefficients and the certificate.
As in cone QP solvers (CVXOPT's ``coneqp``), G enters the Newton system next
to the block's Schur complement, so the objective needs no epigraph variable
or cone of its own.
``solve`` divides the objective by the problem's one ``scale``; a design
passes its noise floor, the infinite-order lower bound, so the scaled
optimum is of order 1.
No separate certificate cone is needed either: the LMI gives
P - A^T P A >= C^T C >= 0 and the delay-chain A is nilpotent, so
P = sum_k (A^T)^k (P - A^T P A) A^k >= 0.

The certificate never enters the iteration.  The dual condition on its
entries confines Z to a (2P+3)-dimensional subspace (a Toeplitz top-left
block and a free last row; the dual KYP reduction of Vandenberghe et al.,
LNCIS 312, 2005, and the trace parameterization of Dumitrescu, Positive
Trigonometric Polynomials and Signal Processing Applications, 2007), so the
iteration carries the coefficients, the slack and Z's coordinates there.
Each Newton system has order 3P+3 and takes two small Cholesky factors,
each inverted once per iteration (``_inverse_factor``, by block recursion
from order ``BLOCK_INVERSE_MIN`` on; numpy is the only numerical
dependency); the certificate is read off the final slack
(``LmiSystem.certificate``).  The NT scaling takes one ``eigh`` of N^T N,
N = L_z^T L_s (``_nt_scaling``), not an SVD of N.
The cone derives every placement it needs from ``LmiSystem``'s layout, so
the matrix's entries are stated in ``kyp`` alone.
Steps are measured where the NT scaling makes S and Z both diag(lambda),
as in ``coneqp``, so no inverse factor of S or Z is formed.  The predictor
direction only sets the centering and the second-order term, so it takes
one unrefined solve and one eigendecomposition for both of its step
lengths; refinement and dS are kept for the step taken.  That step is
refined (at most ``REFINEMENT_PASSES`` = 2 times) only while its Newton
residual exceeds ``REFINED_RESIDUAL`` = 1e-3 of feas_tol in the stopping
test's norms, below which the test cannot see it.  The predictor's
right-hand side is -(F0 + C a), which never touches S.  The coefficient
map C is held once, as each a_k's slot and weight: C a scatters and C^T y
gathers.
The subspace's basis is sparse and Toeplitz, so the system's matrix comes
from the scaling W = R R^T alone, through one FFT autocorrelation and
Toeplitz and Hankel gathers (``_KypCone.gram``), and no basis matrix is ever
formed.

Fixed coefficients need no solve: ``solve_gain_feasibility`` builds their
witness in closed form from a spectral factor.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, spec_int
from .kyp import (
    LmiSystem,
    _observability,
    assemble_lmi,  # unused here; perfbench/tracing.py wraps it by name
    bounded_real_certificate,
)

log = logging.getLogger("ntfforge.sdp")

STEP_FRACTION = 0.98
STALL_STEP = 1e-10
WITNESS_MARGIN = 1e-9  # relative gain margin of solve_gain_feasibility
REFINEMENT_PASSES = 2
# refinement stops once the Newton residual is this fraction of feas_tol in
# the stopping test's norms
REFINED_RESIDUAL = 1e-3
BLOCK_INVERSE_MIN = 48  # smallest order _triangular_inverse splits


@dataclass(frozen=True)
class SolverSettings:
    """Interior-point stopping controls (JSON: gap_tol, feas_tol, max_iter)."""

    gap_tol: float = 1e-7
    feas_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not (0.0 < self.gap_tol < np.inf and 0.0 < self.feas_tol < np.inf):
            raise InvalidSpecError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise InvalidSpecError("max_iter must be >= 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "SolverSettings":
        return cls(gap_tol=float(d.get("gap_tol", cls.gap_tol)),
                   feas_tol=float(d.get("feas_tol", cls.feas_tol)),
                   max_iter=spec_int(d.get("max_iter", cls.max_iter),
                                     "max_iter"))


@dataclass(frozen=True)
class SdpProblem:
    """NTF design problem: reduced quadratic objective + gain-bound LMI.
    No NTF meets gamma < 1, and a = 0 meets every other gamma.  ``scale`` is
    the objective's size, which ``solve`` divides it by: a design passes its
    noise floor (``objective.noise_floor``), a lower bound within a small
    factor of the optimum."""

    quadratic: np.ndarray
    linear: np.ndarray
    lmi: LmiSystem
    scale: float
    constant: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.scale < np.inf:
            raise InvalidSpecError("objective scale must be positive and finite")
        quad = np.asarray(self.quadratic, dtype=float)
        lin = np.asarray(self.linear, dtype=float)
        p = self.lmi.order
        if quad.shape != (p, p) or lin.shape != (p,):
            raise InvalidSpecError("objective blocks must match the LMI order")
        if self.lmi.gamma < 1.0:
            raise InvalidSpecError(
                f"gamma {self.lmi.gamma} < 1: by Parseval a monic FIR NTF has "
                "mean |NTF|^2 = sum a_k^2 >= 1, so its peak is at least 1")
        trace = float(np.trace(quad))
        if np.linalg.eigvalsh(quad)[0] < -1e-9 * max(trace, 1e-300):
            raise InvalidSpecError("quadratic block must be PSD")
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "linear", lin)

    @property
    def order(self) -> int:
        return self.lmi.order


@dataclass(frozen=True)
class SdpSolution:
    """Solver output: the NTF coefficients a_0..a_P (a_0 = 1 exactly), the
    P x P certificate and convergence diagnostics."""

    ntf_coeffs: np.ndarray
    p_matrix: np.ndarray
    iterations: int
    refinement_solves: int
    status: str
    runtime_seconds: float
    kkt_residuals: dict


class _KypCone:
    """The KYP block's slack S = -M(a; P), with the dual restricted to the
    subspace the certificate leaves free.

    The certificate rows of the dual condition F*(Z) = c + G x read
    Z[1:P+1, 1:P+1] = Z[:P, :P]: Z has a Toeplitz top-left (P+1) block and a
    free last row, a (2P+3)-dimensional space (Vandenberghe, Balakrishnan,
    Wallin, Hansson & Roh, LNCIS 312, 2005).  Its orthonormal basis B_k is
    never stored: the diagonals +-k of the Toeplitz block come first, then
    the entries (j, P+1) with their mirrors, and each entry of a
    (P+2) x (P+2) matrix belongs to exactly one of them.  ``slot`` maps
    entries to basis elements and ``norm`` holds each element's norm before
    normalization, so ``project`` sums entries by slot and ``lift`` gathers
    them back.  The constant F0 = -M(0; 0) is kept as its coordinates
    ``f0`` and each F_a(e_k) as its one coordinate, ``coeff_weight`` at
    ``coeff_slot``; both are read off ``LmiSystem``'s layout.
    """

    def __init__(self, lmi: LmiSystem):
        p, n = lmi.order, lmi.order + 2
        self.lmi = lmi
        self.size = n
        row, col = np.indices((n, n))
        self.slot = np.where(np.maximum(row, col) <= p, np.abs(row - col),
                             p + 1 + np.minimum(row, col)).ravel()
        self.norm = np.sqrt(np.bincount(self.slot))
        # M(0; 0) is its corner alone
        f0 = np.zeros((n, n))
        f0[p:, p:] = -lmi.corner
        self.f0 = self.project(f0)
        # gram's D_0 and E_{P+1} count their entries twice
        half = np.ones(2 * p + 3)
        half[[0, -1]] = 0.5
        self._gram_scale = 2.0 * np.outer(half / self.norm, half / self.norm)
        # Toeplitz and Hankel matrices of a vector x_0..x_P, gathered from it
        # with a zero appended at index P+1
        lag = np.arange(p + 1)
        self._toeplitz = np.where(lag[None, :] >= lag[:, None],
                                  lag[None, :] - lag[:, None], p + 1)
        self._hankel = np.minimum(lag[None, :] + lag[:, None], p + 1)
        # gram's autocorrelation runs over the rows of V laid end to end,
        # each followed by P+1 zeros, so lag (j, k) sits at j (2P+2) + k and
        # no lag wraps in 2 (P+1) (2P+2) points
        self._fft_size = 2 * (p + 1) * (2 * p + 2)
        self._acf_lags = lag[:, None] * (2 * p + 2) + lag[None, :]
        self._acf_mirrors = (lag[:, None] * (2 * p + 2) - lag[None, :]) \
            % self._fft_size
        # F_a(e_k) = -M_k is -1 on a_k's entry and on its mirror, which share
        # one slot, so it has one coordinate
        slot = self.slot.reshape(n, n)[lmi.coeff_rows, -1]
        self.coeff_slot, self.coeff_weight = slot, -2.0 / self.norm[slot]

    def project(self, mat):
        """Coordinates <B_k, mat> of a matrix's part in the dual subspace."""
        return np.bincount(self.slot, weights=np.ravel(mat),
                           minlength=self.norm.size) / self.norm

    def lift(self, y):
        """The matrix sum_k y_k B_k."""
        return (y / self.norm)[self.slot].reshape(self.size, self.size)

    def place(self, a):
        """C a, the coordinates of F_a(a): each a_k scattered to its slot."""
        return np.bincount(self.coeff_slot, self.coeff_weight * a,
                           self.f0.size)

    def gram(self, w):
        """tr(B_j W B_k W) for every pair of basis elements, from a symmetric
        W alone (the structured Hessian of Alkire & Vandenberghe, Math.
        Program. 93 (2002) 331-359).

        Take D_k = S_k + S_k^T with S_k the 0/1 pattern of the k-th
        diagonal of the top-left block, E_j = e_j e_l^T + e_l e_j^T with
        l = P+1, V = W[:P+1, :P+1] and w = W[:, l].  Then
        tr(D_j W D_k W) = 2 (A(j, k) + A(j, -k)) with A the 2-D
        autocorrelation of V, taken by one 1-D FFT of V's zero-padded rows
        laid end to end, tr(E_i W E_j W) = 2 (w_i w_j + W[l, l] W_ij),
        and tr(D_j W E_i W) = 2 ((T_w + H_w) W[:P+1, :])_ji with T_w and H_w
        the Toeplitz and Hankel matrices of w_0..w_P.  D_0 and E_l count
        their entries twice, so they are halved, and each element is divided
        by its norm.
        """
        m = self.lmi.order + 1
        v, col = w[:m, :m], w[:, -1]
        rows = np.zeros((m, 2 * m))
        rows[:, :m] = v
        spec = np.fft.rfft(rows.ravel(), n=self._fft_size)
        acf = np.fft.irfft(spec.real**2 + spec.imag**2, n=self._fft_size)
        out = np.empty_like(self._gram_scale)
        out[:m, :m] = acf[self._acf_lags] + acf[self._acf_mirrors]
        out[m:, m:] = np.outer(col, col) + col[-1] * w
        padded = np.append(col[:m], 0.0)
        out[:m, m:] = (padded[self._toeplitz] + padded[self._hankel]) @ w[:m]
        out[m:, :m] = out[:m, m:].T
        return out * self._gram_scale


def _newton_system(cone: _KypCone, r, quadratic, resolution=None):
    """Newton step solvers at the NT scaling R (W = R R^T).

    With dZ = lift(dy), the scaled linearization R^-1 dS R^-T + R^T dZ R = K,
    projected onto the dual subspace, and the dual equation give

        [H    C ] [dy]   [project(R K R^T) - r_p]
        [C^T -G ] [da] = [          r_d         ],

    where H_jk = tr(B_j W B_k W) comes from W alone (``_KypCone.gram``) and
    H dy = project(W lift(dy) W).  It is solved by eliminating dy with
    Cholesky factors of H (plus 1e-14 of its mean diagonal) and of
    G + C^T H^-1 C.  Both factors are inverted once, so every solve below is
    matrix products.

    The predictor only sets sigma and the second-order term (Mehrotra, SIAM
    J. Optim. 2 (1992) 575-601), so it takes one solve with K = -diag(lam),
    whose right-hand side is -(F0 + C a) as R K R^T = -S, and returns
    dZ~ = R^T dZ R alone; dS~ = -diag(lam) - dZ~ follows from it.
    The step taken gets up to ``REFINEMENT_PASSES`` refinement passes
    against the unregularized system, which apply H through the matrices,
    as dS does, so they shrink the primal residual the step leaves: near
    gamma = 1 the coefficients sit above the bound by about that residual.
    Each pass forms that residual first and stops refinement once its
    primal part over ``cone.norm`` is at most ``resolution[0]`` and its dual
    part at most ``resolution[1]`` (``solve_conic`` passes
    ``REFINED_RESIDUAL`` times feas_tol in its stopping norms); with no
    resolution every pass is taken.  dS is formed in the scaled space,
    R (K - R^T dZ R) R^T.

    A Newton matrix H that is no longer finite (W overflowed at an extreme
    gamma) raises LinAlgError, as a failed factorization does.

    Returns ``(predictor, step)``: ``predictor(placed, res_d) -> dz_scaled``
    with ``placed`` = F0 + C a, and ``step(kmat, res_p, res_d) -> (da, dy,
    ds, dz_scaled, solves)``, with ``res_p`` = placed - project(S), both
    projected, and ``solves`` the refinement solves taken.
    """
    w = r @ r.T
    h = cone.gram(w)
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("the Newton matrix is not finite")
    h.flat[::h.shape[0] + 1] += 1e-14 * np.trace(h) / h.shape[0]
    inv_h = _inverse_factor(h)
    # each a_k has one coordinate, so inv_h @ C gathers
    u = inv_h[:, cone.coeff_slot] * cone.coeff_weight
    inv_schur = _inverse_factor(quadratic + u.T @ u)

    def solve(rhs_y, rhs_a):
        t = inv_h @ rhs_y
        da = inv_schur.T @ (inv_schur @ (u.T @ t - rhs_a))
        dy = inv_h.T @ (t - u @ da)
        return dy, da

    def predictor(placed, res_d):
        dy, _ = solve(-placed, res_d)
        return r.T @ cone.lift(dy) @ r

    def step(kmat, res_p, res_d):
        rhs_y = cone.project(r @ kmat @ r.T) - res_p
        dy, da = solve(rhs_y, res_d)
        solves = 0
        while solves < REFINEMENT_PASSES:
            ry = rhs_y - cone.project(w @ cone.lift(dy) @ w) - cone.place(da)
            ra = res_d - cone.coeff_weight * dy[cone.coeff_slot] \
                + quadratic @ da
            if resolution is not None \
                    and np.abs(ry / cone.norm).max() <= resolution[0] \
                    and np.abs(ra).max() <= resolution[1]:
                break
            ey, ea = solve(ry, ra)
            dy, da = dy + ey, da + ea
            solves += 1
        dz_scaled = r.T @ cone.lift(dy) @ r
        ds = r @ (kmat - dz_scaled) @ r.T
        return da, dy, 0.5 * (ds + ds.T), dz_scaled, solves

    return predictor, step


def _inverse_factor(mat):
    """L^-1 for the Cholesky factor L L^T = mat; raises LinAlgError when mat
    is not positive definite (``_triangular_inverse``)."""
    return _triangular_inverse(np.linalg.cholesky(mat))


def _triangular_inverse(lower):
    """The inverse of a lower-triangular matrix, lower triangular with exact
    zeros above the diagonal.

    numpy has no triangular solver.  Below order ``BLOCK_INVERSE_MIN`` the
    rows and columns are reversed, which makes L upper triangular: LU with
    partial pivoting then leaves it as it is and the inverse comes from back
    substitution alone (inverting L directly lets LU pivot its rows).
    Larger orders split L = [[A, 0], [C, B]] and recurse:
    L^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], two products per level.  Its
    residual ||X L - I|| stays within twice the LU inverse's up to cond 1e16
    (``tests/test_sdp.py``), and the designs near the gain bound keep their
    iteration counts."""
    n = lower.shape[0]
    if n < BLOCK_INVERSE_MIN:
        return np.linalg.inv(lower[::-1, ::-1])[::-1, ::-1]
    k = n // 2
    out = np.zeros_like(lower)
    head = out[:k, :k] = _triangular_inverse(lower[:k, :k])
    tail = out[k:, k:] = _triangular_inverse(lower[k:, k:])
    out[k:, :k] = -(tail @ (lower[k:, :k] @ head))
    return out


def _max_step(outer, direction):
    """Largest alpha with diag(lam) + alpha*D > 0, given outer = root root^T
    with root = lam^-1/2: 1 / -lambda_min(D o outer), or inf when D does not
    point out."""
    w = direction * outer
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


def _predictor_steps(outer, dz_scaled):
    """Largest steps from diag(lam) along dS~ = -diag(lam) - dZ~ and along
    dZ~, given outer = root root^T with root = lam^-1/2, from one
    eigendecomposition: with V = dZ~ o outer the scaled directions are
    -I - V and V, so the steps are 1 / (1 + lambda_max(V)) and
    1 / -lambda_min(V), each inf when its direction does not point out."""
    ends = np.linalg.eigvalsh(dz_scaled * outer)
    low, high = float(ends[0]), float(ends[-1])
    step_s = np.inf if high <= -1.0 else 1.0 / (1.0 + high)
    step_z = np.inf if low >= 0.0 else 1.0 / (-low)
    return step_s, step_z


def _nt_scaling(ls, lz):
    """NT scaling point from the Cholesky factors of s and z:
    (r, lam) with r^-1 s r^-T = r^T z r = diag(lam).

    With N = lz^T ls = U diag(lam) V^T, r = ls V diag(lam)^-1/2.  V and lam^2
    are taken from ``eigh`` of N^T N = ls^T z ls, which costs about half an
    SVD of N at the solver's sizes.  That squares cond(lam): lam_max / lam_min
    peaked at 361 on the designs measured (lowpass P=64 at gamma = 1.001), so
    cond(N^T N) stayed below 1.3e5.  A non-positive eigenvalue raises
    LinAlgError."""
    n = lz.T @ ls
    lam2, v = np.linalg.eigh(n.T @ n)
    if not lam2[0] > 0.0:
        raise np.linalg.LinAlgError("NT scaling of a singular pair")
    lam = np.sqrt(lam2)
    r = (ls @ v) * (1.0 / np.sqrt(lam))[None, :]
    return r, lam


@np.errstate(over="ignore", invalid="ignore")
def solve_conic(cone: _KypCone, c, x0, settings: SolverSettings,
                quadratic, constant: float):
    """Mehrotra predictor-corrector for min c.a + a^T G a / 2 + constant
    over x = (a, P) with the KYP slack S = -M(a; P) >= 0 (G = ``quadratic``).

    The dual is max -<F0, Z> - a^T G a / 2 + constant with F*(Z) = (c + Ga, 0).
    Its certificate part confines Z to the cone's (2P+3)-dimensional
    subspace, so the iteration carries (a, S, y) with Z = lift(y) and never
    the certificate: the primal residual is projected onto that subspace,
    the Newton system (``_newton_system``) has order 3P+3, and P is read off
    the final S (``LmiSystem.certificate``).  G couples a and Z, so both
    sides take one step length.  Step lengths and the predictor's gap are
    taken in scaled coordinates, diag(lambda) = R^-1 S R^-T = R^T Z R, along
    dZ~ = R^T dZ R and dS~ = K - dZ~.  The predictor (K = -diag(lambda)) is
    one unrefined solve whose two step lengths come from one
    eigendecomposition (``_predictor_steps``); the corrector is refined
    until its Newton residual is ``REFINED_RESIDUAL`` of feas_tol in the
    stopping norms, at most ``REFINEMENT_PASSES`` times, and measured on
    each side (``_max_step``).  ``SdpProblem`` rules out infeasible
    problems.  Returns ((a, P), status, info); ``info`` counts the
    refinement solves taken (``refinement_solves``).  The start x0 = (a, P)
    need not be strictly feasible; the slack is shifted onto the identity
    when -M(x0) is not PD and the residual is driven out by the iteration.
    The duality gap <S, Z> is judged relative to the whole objective
    (floored at 1e-12).
    """
    t_start = time.perf_counter()
    a = np.array(x0[0], dtype=float)

    s = -cone.lmi.evaluate(*x0)
    lam_min = float(np.linalg.eigvalsh(s)[0])
    if lam_min < 1e-8:
        s = s + (abs(lam_min) * 1.5 + 1.0) * np.eye(cone.size)
    y = cone.project(np.eye(cone.size))
    z = cone.lift(y)
    f0_scale = 1.0 + float(np.max(np.abs(cone.lmi.corner)))
    c_scale = 1.0 + float(np.max(np.abs(c)))
    resolution = (REFINED_RESIDUAL * settings.feas_tol * f0_scale,
                  REFINED_RESIDUAL * settings.feas_tol * c_scale)

    status = "max_iterations"
    refinements = 0
    for iters in range(1, settings.max_iter + 1):
        placed = cone.f0 + cone.place(a)
        res_primal = placed - cone.project(s)
        ga = quadratic @ a
        res_dual = c + ga - cone.coeff_weight * y[cone.coeff_slot]
        gap = float(np.vdot(s, z))
        mu = gap / cone.size
        half_aga = 0.5 * float(a @ ga)
        pobj = float(c @ a) + half_aga + constant
        dobj = -float(cone.f0 @ y) - half_aga + constant
        denom = max(1e-12, abs(pobj), abs(dobj))
        rel_gap = gap / denom
        rp_norm = float(np.abs(res_primal / cone.norm).max()) / f0_scale
        rd_norm = float(np.abs(res_dual).max()) / c_scale
        log.debug("iter %3d gap %.3e rp %.3e rd %.3e mu %.3e",
                  iters, rel_gap, rp_norm, rd_norm, mu)
        info = {"rel_gap": rel_gap, "primal_residual": rp_norm,
                "dual_residual": rd_norm, "mu": mu,
                "pobj": pobj, "dobj": dobj}
        if rel_gap <= settings.gap_tol and rp_norm <= settings.feas_tol \
                and rd_norm <= settings.feas_tol:
            status = "optimal"
            break

        # any factorization or eigenvalue routine that fails ends the solve,
        # as does a Newton matrix that overflowed (the FFT's overflow is
        # silenced for the whole solve)
        try:
            r, lam = _nt_scaling(np.linalg.cholesky(s), np.linalg.cholesky(z))
            predictor, newton_step = _newton_system(cone, r, quadratic,
                                                    resolution)
            root = 1.0 / np.sqrt(lam)
            outer = np.outer(root, root)

            # predictor (affine scaling) direction, in scaled coordinates
            lam_mat = np.diag(lam)
            dz_t = predictor(placed, res_dual)
            ds_t = -lam_mat - dz_t
            step_s, step_z = _predictor_steps(outer, dz_t)
            alpha = min(1.0, STEP_FRACTION * step_s, STEP_FRACTION * step_z)
            gap_aff = float(np.vdot(lam_mat + alpha * ds_t,
                                    lam_mat + alpha * dz_t))
            sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

            # corrector with Mehrotra second-order term
            second = dz_t @ ds_t
            theta = np.diag(sigma * mu - lam * lam) - 0.5 * (second + second.T)
            k_cor = 2.0 * theta / (lam[:, None] + lam[None, :])
            da, dy, ds, dz_c, solves = newton_step(k_cor, res_primal,
                                                   res_dual)
            refinements += solves
            alpha = min(1.0, STEP_FRACTION * _max_step(outer, k_cor - dz_c),
                        STEP_FRACTION * _max_step(outer, dz_c))
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        if alpha < STALL_STEP:
            status = "numerical_failure"
            break
        a += alpha * da
        s = s + alpha * ds
        y = y + alpha * dy
        z = cone.lift(y)
        log.debug("iter %3d step %.3f sigma %.3f", iters, alpha, sigma)

    info["runtime_seconds"] = time.perf_counter() - t_start
    info["iterations"] = iters
    info["refinement_solves"] = refinements
    return (a, cone.lmi.certificate(s)), status, info


def _interior_start(problem: SdpProblem):
    """Start (a, P): zero coefficients and a ramped diagonal certificate of
    margin max(gamma^2 - 1, 1e-6) / 2.  Within about 1e-6 of gamma = 1 the
    start's slack -M(a; P) has its least eigenvalue below 1e-8, or negative
    (-2.3e-7 on lowpass P=12 at gamma = 1 + 1e-10), and ``solve_conic``
    shifts the slack."""
    p = problem.order
    gamma = problem.lmi.gamma
    margin = max(gamma * gamma - 1.0, 1e-6) / 2.0
    return np.zeros(p), np.diag(margin * (np.arange(1, p + 1) / (p + 1.0)))


def solve(problem: SdpProblem, settings: SolverSettings | None = None) -> SdpSolution:
    """Design solve: the objective as the solver's quadratic and linear terms
    in the coefficients, on the KYP block alone (which already implies the
    certificate is PSD).

    The objective data is divided by the problem's ``scale``.  A scale near
    the optimum gives an O(1) objective there, so mu is not worked down
    through the decades between the flat NTF's noise q_0 and the optimum.
    The reported duality gap is relative to the whole objective, constant
    included, which is what the order sweep's monotonicity is judged
    against.
    """
    settings = settings or SolverSettings()
    p = problem.order
    scale = problem.scale
    (coeffs, p_matrix), status, info = solve_conic(
        _KypCone(problem.lmi), problem.linear / scale,
        _interior_start(problem), settings,
        quadratic=2.0 * problem.quadratic / scale,
        constant=problem.constant / scale)
    sol = SdpSolution(
        ntf_coeffs=np.concatenate(([1.0], coeffs)),
        p_matrix=p_matrix,
        iterations=info["iterations"],
        refinement_solves=info["refinement_solves"],
        status=status,
        runtime_seconds=info["runtime_seconds"],
        kkt_residuals={key: info[key] for key in (
            "rel_gap", "primal_residual", "dual_residual")},
    )
    log.info("solve order=%d status=%s iters=%d gap=%.2e (%.2fs)",
             p, status, sol.iterations, sol.kkt_residuals["rel_gap"],
             sol.runtime_seconds)
    return sol


# perfbench/tracing.py wraps this by name; it moves to kyp with the next
# benchmark change
def solve_gain_feasibility(coeffs, gamma: float):
    """Gain-bound witness for fixed coefficients, with no optimization: the
    observability Gramian of the lossless extension [A; B] (Vaidyanathan,
    IEEE Trans. Circuits Syst. 32 (1985) 918-924).

    B is the order-P spectral factor of g^2 - |A|^2 with
    g = gamma (1 + ``WITNESS_MARGIN``): the P smallest roots of
    z^P (g^2 - r_a(z)), multiplied out on an FFT grid (the serial product of
    ``np.poly`` loses the identity at P=64) and scaled by least squares on
    its autocorrelation.  Where |A|^2 + |B|^2 = g^2, P = O_a^T O_a + O_b^T O_b
    solves P - A^T P A = C_a^T C_a + C_b^T C_b and makes the bounded-real
    matrix at g -[C_b D_b]^T [C_b D_b] <= 0.  When the bound fails, no factor
    fits and the certificate is rejected.

    The margin moves the near-double roots of a design on its bound off the
    circle, where the factor would turn on last bits.  M(a; P) meets the
    bound only in ``LmiSystem.corner``, which moves by g^2 - gamma^2 in norm
    between g and gamma, so judging at gamma costs at most
    2 WITNESS_MARGIN gamma^2, 2% of ``FEAS_EIG_TOL`` gamma^2.

    Returns (p_matrix, feasible), feasible as ``bounded_real_certificate``
    judges it; InvalidSpecError where the polynomial leaves the float range.
    """
    a = np.asarray(coeffs, dtype=float)
    p = a.size - 1
    level = gamma * (1.0 + WITNESS_MARGIN)
    poly = -np.correlate(a, a, "full")
    # level**2 overflows past 1.34e154; np.roots divides by the leading
    # coefficient -a_Q (a_Q the last nonzero tap), where more can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        poly[p] += level**2 if level * level < np.inf else np.inf
        lead = poly[np.flatnonzero(poly)[:1]]
        if not np.all(np.isfinite(poly / lead if lead.size else poly)):
            raise InvalidSpecError(f"the witness polynomial at gamma "
                                   f"{gamma:g} leaves the float range")
    roots = np.roots(poly[::-1])
    roots = roots[np.argsort(np.abs(roots))[:p]]
    n = 1 << (2 * p + 1).bit_length()  # the power of two >= 2P + 2
    z_inv = np.exp(-2j * np.pi * np.arange(n) / n)
    b = np.fft.ifft(np.prod(1.0 - roots[:, None] * z_inv, axis=0)).real[:p + 1]
    r_b = np.correlate(b, b, "full")
    b *= np.sqrt(max(0.0, float(r_b @ poly) / float(r_b @ r_b)))
    o_a, o_b = _observability(a), _observability(b)
    pm = o_a.T @ o_a + o_b.T @ o_b
    return pm, bounded_real_certificate(a, pm, gamma).feasible
