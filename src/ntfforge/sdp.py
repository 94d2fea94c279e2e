"""Self-contained primal-dual interior-point solver over PSD cone products.

Solves min c.x subject to F0 + sum_i x_i F_i >= 0 (blockwise PSD) with a
Mehrotra predictor-corrector iteration under Nesterov-Todd scaling.  The NTF
design problem is posed in epigraph form: minimize t with a Schur-complement
block encoding quadratic + linear + constant <= t and the (negated) gain-bound
LMI block.
No separate certificate cone is needed: the LMI gives P - A^T P A >= C^T C >= 0
and the delay-chain A is nilpotent, so P = sum_k (A^T)^k (P - A^T P A) A^k >= 0.

The Newton system is formed from structure, not from stored basis matrices.
The epigraph block is dense over the P + 1 variables it touches, and is
written through a congruence that keeps its entries as small as the
objective's residual near the optimum (``_epigraph_block``).  The KYP
block is applied as shift-and-unpack operations (``kyp.LmiSystem``), and its
share of the Schur complement comes from inner products of the NT scaling's
columns: O(P^4) work for the ~P^2/2 certificate entries instead of a dense
Gram product over (P+2)^2-entry basis matrices.  The Schur complement is
factored once per iteration with a Cholesky factorization; both Newton steps
solve with that factor.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import InvalidSpecError, SolverError
from .kyp import LmiSystem, assemble_lmi, pack_certificate, unpack_certificate

log = logging.getLogger("ntfforge.sdp")

RANK_TRUNCATION = 1e-12
STEP_FRACTION = 0.98
STALL_STEP = 1e-10
INFEAS_RES_TOL = 1e-9
INFEAS_VAL_TOL = 1e-9


@dataclass(frozen=True)
class SolverSettings:
    """Interior-point stopping controls (JSON: gap_tol, feas_tol, max_iter)."""

    gap_tol: float = 1e-7
    feas_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.gap_tol <= 0 or self.feas_tol <= 0:
            raise InvalidSpecError("tolerances must be positive")
        if self.max_iter < 1:
            raise InvalidSpecError("max_iter must be >= 1")

    def to_json_dict(self) -> dict:
        return {"gap_tol": self.gap_tol, "feas_tol": self.feas_tol,
                "max_iter": self.max_iter}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SolverSettings":
        return cls(gap_tol=float(d.get("gap_tol", 1e-7)),
                   feas_tol=float(d.get("feas_tol", 1e-8)),
                   max_iter=int(d.get("max_iter", 200)))


@dataclass(frozen=True)
class SdpProblem:
    """NTF design problem: reduced quadratic objective + gain-bound LMI."""

    quadratic: np.ndarray
    linear: np.ndarray
    lmi: LmiSystem
    constant: float = 0.0

    def __post_init__(self):
        quad = np.asarray(self.quadratic, dtype=float)
        lin = np.asarray(self.linear, dtype=float)
        p = self.lmi.order
        if quad.shape != (p, p) or lin.shape != (p,):
            raise InvalidSpecError("objective blocks must match the LMI order")
        trace = float(np.trace(quad))
        if np.linalg.eigvalsh(quad)[0] < -1e-9 * max(trace, 1e-300):
            raise InvalidSpecError("quadratic block must be PSD")
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "linear", lin)

    @property
    def order(self) -> int:
        return self.lmi.order

    @property
    def variable_count(self) -> int:
        return self.lmi.variable_count


@dataclass(frozen=True)
class SdpSolution:
    """Solver output: design variables, objective and convergence diagnostics."""

    xi: np.ndarray
    objective_value: float
    duality_gap: float
    iterations: int
    status: str
    runtime_seconds: float = 0.0
    kkt_residuals: dict = field(default_factory=dict)


class _DenseCone:
    """A small PSD block stored as dense basis matrices over the few
    variables (``index``) it touches, with its dual start ``z0``."""

    def __init__(self, f0, fmat, index, z0):
        self.f0 = np.ascontiguousarray(f0, dtype=float)
        self.fmat = np.ascontiguousarray(fmat, dtype=float)
        self.index = np.asarray(index)
        self.size = self.f0.shape[0]
        self.z0 = z0

    def linear(self, x):
        return np.tensordot(x[self.index], self.fmat, axes=1)

    def adjoint(self, mat, out):
        out[self.index] += self.fmat.reshape(self.index.size, -1) @ mat.ravel()

    def add_schur(self, r, h):
        """h_ij += tr(G_i G_j), G_i = R F_i R^T, over this block's variables."""
        g = (r @ self.fmat @ r.T).reshape(self.index.size, -1)
        h[np.ix_(self.index, self.index)] += g @ g.T


class _KypCone:
    """The KYP block's slack -M(xi) in its delay-chain structure.

    Without ``coeffs`` the layout is the design's (a, certificate, t), with t
    outside this block.  With ``coeffs`` fixed it is the phase-1 layout
    (certificate, s), where the shift s enters as +sI.
    """

    def __init__(self, lmi: LmiSystem, coeffs=None):
        p = lmi.order
        self.lmi = lmi
        self.size = lmi.dimension
        self.shifted = coeffs is not None
        lead = np.zeros(lmi.variable_count)
        if self.shifted:
            lead[:p] = coeffs
        self.f0 = -lmi.evaluate(lead)
        self.z0 = np.eye(self.size)
        self.first = p if self.shifted else 0  # first LMI variable in x
        self.count = lmi.variable_count - self.first

    def linear(self, x):
        xi = x[:self.count]
        if self.shifted:
            xi = np.concatenate((np.zeros(self.first), xi))
        out = -self.lmi.linear(xi)
        if self.shifted:
            out[np.diag_indices(self.size)] += x[-1]
        return out

    def adjoint(self, mat, out):
        out[:self.count] -= self.lmi.adjoint(mat)[self.first:]
        if self.shifted:
            out[-1] += np.trace(mat)

    def add_schur(self, r, h):
        """h_ij += tr(G_i G_j), G_i = R F_i R^T, on the lower triangle, from
        inner products of R's columns (``LmiSystem.gram_*``).  The KYP basis
        matrices are -M_i, so the signs cancel between LMI variables; the
        shift's F = I gives tr(R R^T R R^T) and -tr(G_(ij) R R^T)."""
        n = self.count
        if self.shifted:
            self.lmi.gram_certificate(r, h[:n, :n])
            h[-1, :n] -= self.lmi.gram_identity(r)
            h[-1, -1] += float(np.sum((r @ r.T) ** 2))
            return
        p = self.lmi.order
        rows = self.lmi.gram_coefficients(r)
        h[:p, :p] += rows[:, :p]
        h[p:n, :p] += rows[:, p:].T
        self.lmi.gram_certificate(r, h[p:n, p:n])


def _affine(cones, x):
    return [cone.f0 + cone.linear(x) for cone in cones]


def _adjoint(cones, mats, nvar):
    out = np.zeros(nvar)
    for cone, mat in zip(cones, mats):
        cone.adjoint(mat, out)
    return out


def _schur_matrix(cones, scalings, nvar):
    """Newton-system matrix h_ij = sum over blocks of tr(G_i G_j), with
    G_i = R F_i R^T under the block's NT scaling R (``r_inv``).  Only the
    lower triangle is complete."""
    h = np.zeros((nvar, nvar))
    for cone, r in zip(cones, scalings):
        cone.add_schur(r, h)
    return h


def _max_step(chol_lower, direction):
    """Largest alpha with X + alpha*D > 0, given X = L L^T."""
    w = solve_triangular(chol_lower, direction, lower=True, check_finite=False)
    w = solve_triangular(chol_lower, w.T, lower=True, check_finite=False).T
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


def _nt_scaling(ls, lz):
    """NT scaling point from the Cholesky factors of s and z:
    (r, r_inv, lam) with r^-1 s r^-T = r^T z r = diag(lam)."""
    u, sing, vt = np.linalg.svd(lz.T @ ls)
    lam = sing
    d = 1.0 / np.sqrt(sing)
    r_inv = d[:, None] * (u.T @ lz.T)
    r = (ls @ vt.T) * d[None, :]
    return r, r_inv, lam


def solve_conic(cones, c, x0, settings: SolverSettings,
                gap_scale_floor: float = 1.0):
    """Mehrotra predictor-corrector over the product of PSD blocks.

    Each cone supplies its constant ``f0``, ``size``, its dual start ``z0``,
    the linear map ``linear(x)``, its ``adjoint(mat, out)`` and
    ``add_schur(r, h)``, which adds its share of the Newton-system matrix
    under the NT scaling R.
    Returns (x, status, info).  The start x0 need not be strictly feasible;
    the slack is shifted onto the identity when F(x0) is not PD and the
    residual is driven out by the iteration.  The duality gap is judged
    relative to the objective c.x (floored by gap_scale_floor).
    """
    t_start = time.perf_counter()
    c = np.asarray(c, dtype=float)
    n = c.size
    x = np.asarray(x0, dtype=float).copy()
    f0_list = [cone.f0 for cone in cones]

    s_mats = _affine(cones, x)
    for k, s in enumerate(s_mats):
        lam_min = float(np.linalg.eigvalsh(s)[0])
        if lam_min < 1e-8:
            s_mats[k] = s + (abs(lam_min) * 1.5 + 1.0) * np.eye(s.shape[0])
    z_mats = [cone.z0 for cone in cones]
    total_dim = float(sum(cone.size for cone in cones))
    f0_scale = 1.0 + max(float(np.max(np.abs(f))) for f in f0_list)
    c_scale = 1.0 + float(np.max(np.abs(c)))

    status = "max_iterations"
    iters = 0
    info = {}
    for iters in range(1, settings.max_iter + 1):
        f_of_x = _affine(cones, x)
        res_primal = [f - s for f, s in zip(f_of_x, s_mats)]
        res_dual = c - _adjoint(cones, z_mats, n)
        gap = sum(float(np.tensordot(s, z)) for s, z in zip(s_mats, z_mats))
        mu = gap / total_dim
        pobj = float(c @ x)
        dobj = -sum(float(np.tensordot(f0, z))
                    for f0, z in zip(f0_list, z_mats))
        denom = max(gap_scale_floor, abs(pobj), abs(dobj))
        rel_gap = gap / denom
        rp_norm = max(float(np.max(np.abs(r))) for r in res_primal) / f0_scale
        rd_norm = float(np.max(np.abs(res_dual))) / c_scale
        log.debug("iter %3d gap %.3e rp %.3e rd %.3e mu %.3e",
                  iters, rel_gap, rp_norm, rd_norm, mu)
        info = {"rel_gap": rel_gap, "primal_residual": rp_norm,
                "dual_residual": rd_norm, "mu": mu,
                "pobj": pobj, "dobj": dobj}
        if rel_gap <= settings.gap_tol and rp_norm <= settings.feas_tol \
                and rd_norm <= settings.feas_tol:
            status = "optimal"
            break

        # primal infeasibility certificate: adjoint(Z) ~ 0 with <F0, Z> < 0
        z_norm = max(
            1e-300,
            max(float(np.max(np.abs(z))) for z in z_mats),
        )
        adj_hat = _adjoint(cones, [z / z_norm for z in z_mats], n)
        val_hat = sum(float(np.tensordot(f0, z / z_norm))
                      for f0, z in zip(f0_list, z_mats))
        if float(np.max(np.abs(adj_hat))) <= INFEAS_RES_TOL \
                and val_hat < -INFEAS_VAL_TOL:
            status = "infeasible"
            break

        try:
            chol_s = [np.linalg.cholesky(s) for s in s_mats]
            chol_z = [np.linalg.cholesky(z) for z in z_mats]
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        scal = [_nt_scaling(ls, lz) for ls, lz in zip(chol_s, chol_z)]

        h = _schur_matrix(cones, [r_inv for _, r_inv, _ in scal], n)
        h[np.diag_indices(n)] += 1e-14 * np.trace(h) / n
        try:
            # h.T is Fortran-ordered and its upper triangle is h's lower one,
            # so LAPACK factors it in place instead of copying h
            h_factor = cho_factor(h.T, lower=False, overwrite_a=True,
                                  check_finite=False)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        def newton_step(k_list):
            mats = [r_inv.T @ (kmat - r_inv @ rp @ r_inv.T) @ r_inv
                    for (_, r_inv, _), kmat, rp in zip(scal, k_list, res_primal)]
            rhs = _adjoint(cones, mats, n) - res_dual
            dx = cho_solve(h_factor, rhs, check_finite=False)
            ds_list, dz_list = [], []
            for cone, (_, r_inv, _), kmat, rp in zip(
                    cones, scal, k_list, res_primal):
                ds = cone.linear(dx) + rp
                ds_scaled = r_inv @ ds @ r_inv.T
                dz = r_inv.T @ (kmat - ds_scaled) @ r_inv
                ds_list.append(ds)
                dz_list.append(0.5 * (dz + dz.T))
            return dx, ds_list, dz_list

        # predictor (affine scaling) direction
        k_aff = [np.diag(-lam) for (_, _, lam) in scal]
        dx_a, ds_a, dz_a = newton_step(k_aff)
        alpha_p = min(1.0, min(
            STEP_FRACTION * _max_step(cs, ds)
            for cs, ds in zip(chol_s, ds_a)))
        alpha_d = min(1.0, min(
            STEP_FRACTION * _max_step(cz, dz)
            for cz, dz in zip(chol_z, dz_a)))
        gap_aff = sum(
            float(np.tensordot(s + alpha_p * ds, z + alpha_d * dz))
            for s, ds, z, dz in zip(s_mats, ds_a, z_mats, dz_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

        # corrector with Mehrotra second-order term
        k_cor = []
        for (r, r_inv, lam), ds, dz in zip(scal, ds_a, dz_a):
            ds_t = r_inv @ ds @ r_inv.T
            dz_t = r.T @ dz @ r
            theta = sigma * mu * np.eye(lam.size) - np.diag(lam * lam) \
                - 0.5 * (ds_t @ dz_t + dz_t @ ds_t)
            k_cor.append(2.0 * theta / (lam[:, None] + lam[None, :]))
        dx, ds_list, dz_list = newton_step(k_cor)
        alpha_p = min(1.0, min(
            STEP_FRACTION * _max_step(cs, ds)
            for cs, ds in zip(chol_s, ds_list)))
        alpha_d = min(1.0, min(
            STEP_FRACTION * _max_step(cz, dz)
            for cz, dz in zip(chol_z, dz_list)))
        if alpha_p < STALL_STEP and alpha_d < STALL_STEP:
            status = "numerical_failure"
            break
        x += alpha_p * dx
        s_mats = [s + alpha_p * ds for s, ds in zip(s_mats, ds_list)]
        z_mats = [z + alpha_d * dz for z, dz in zip(z_mats, dz_list)]
        log.debug("iter %3d steps %.3f/%.3f sigma %.3f",
                  iters, alpha_p, alpha_d, sigma)

    info["runtime_seconds"] = time.perf_counter() - t_start
    info["iterations"] = iters
    return x, status, info


def _epigraph_block(quadratic, linear, constant):
    """Epigraph block of quadratic + linear + constant <= t over its P + 1
    variables (a_1..a_P, t): (f0, fmat, z0).

    Mathematically it is the block E = [[I, L a], [(L a)^T, t - lin.a - c]]
    with L^T L = quadratic, seen through the congruence N E N^T,
    N = [[I, 0], [w^T, 1]], where L^T w = lin / 2 (the part lin_r of lin that
    L^T does not reach stays in the corner):

        N E N^T = [[I, L a + w], [(L a + w)^T, t - (c - |w|^2) - lin_r.a]].

    E's entries stay O(1) near the optimum while its Schur complement, the
    epigraph slack, shrinks to a remainder that their rounding error can
    swamp.  Here the entries are the residual L a + w and t less the
    objective's floor c - |w|^2, which shrink with the objective.  NT-scaled
    steps commute with the congruence when the dual starts at
    z0 = N^-T N^-1, the image of the identity start on E, so the iterates
    are E's, computed without the cancellation.
    """
    lam, vec = np.linalg.eigh(np.asarray(quadratic, dtype=float))
    lam_max = float(lam[-1]) if lam.size else 0.0
    keep = lam > RANK_TRUNCATION * max(lam_max, 0.0)
    root = np.sqrt(lam[keep])
    factor = root[:, None] * vec[:, keep].T
    w = (vec[:, keep].T @ (0.5 * linear)) / root
    rank = factor.shape[0]
    p = len(linear)
    f0 = np.eye(rank + 1)
    f0[:rank, rank] = f0[rank, :rank] = w
    f0[rank, rank] = float(w @ w) - constant
    fmat = np.zeros((p + 1, rank + 1, rank + 1))
    fmat[:p, :rank, rank] = factor.T
    fmat[:p, rank, :rank] = factor.T
    fmat[:p, rank, rank] = 2.0 * factor.T @ w - linear
    fmat[p, rank, rank] = 1.0  # epigraph variable t
    z0 = np.eye(rank + 1)
    z0[:rank, :rank] += np.outer(w, w)
    z0[:rank, rank] = z0[rank, :rank] = -w
    return f0, fmat, z0


def _interior_start(problem: SdpProblem, obj_scale: float):
    """Strictly interior start: zero coefficients, a ramped diagonal
    certificate (strict feasibility needs gamma > 1) and a unit epigraph gap
    above the objective's value constant / obj_scale at a = 0."""
    p = problem.order
    gamma = problem.lmi.gamma
    margin = max(gamma * gamma - 1.0, 1e-6) / 2.0
    diag = margin * (np.arange(1, p + 1) / (p + 1.0))
    cert = pack_certificate(np.diag(diag))
    return np.concatenate((np.zeros(p), cert,
                           [1.0 + problem.constant / obj_scale]))


def _design_cones(problem: SdpProblem, obj_scale: float):
    """The design SDP's two blocks over x = (a, certificate, t): the
    epigraph of the objective (divided by ``obj_scale``) and the KYP block."""
    p = problem.order
    f0_epi, fm_epi, z0_epi = _epigraph_block(problem.quadratic / obj_scale,
                                             problem.linear / obj_scale,
                                             problem.constant / obj_scale)
    index = np.append(np.arange(p), problem.variable_count)
    return [_DenseCone(f0_epi, fm_epi, index, z0_epi), _KypCone(problem.lmi)]


def solve(problem: SdpProblem, settings: SolverSettings | None = None) -> SdpSolution:
    """Design solve: epigraph reformulation over two PSD blocks, the
    epigraph and the KYP block (which already implies the certificate is PSD).

    The objective data is normalized internally so the epigraph variable is
    O(1); the reported duality gap is relative to the physical quadratic-form
    value, which is what the order sweep's monotonicity is judged against.
    """
    settings = settings or SolverSettings()
    p = problem.order
    nvar = problem.variable_count + 1  # + epigraph variable t
    obj_scale = max(abs(problem.constant),
                    float(np.max(np.abs(problem.quadratic))),
                    float(np.max(np.abs(problem.linear))) if p else 0.0,
                    1e-300)
    cones = _design_cones(problem, obj_scale)
    c = np.zeros(nvar)
    c[-1] = 1.0
    x0 = _interior_start(problem, obj_scale)
    x, status, info = solve_conic(cones, c, x0, settings,
                                  gap_scale_floor=1e-12)

    xi = x[:-1]
    coeffs = xi[:p]
    objective = float(
        problem.constant + problem.linear @ coeffs
        + coeffs @ problem.quadratic @ coeffs
    )
    sol = SdpSolution(
        xi=xi,
        objective_value=objective,
        duality_gap=info.get("rel_gap", np.inf),
        iterations=info.get("iterations", 0),
        status=status,
        runtime_seconds=info.get("runtime_seconds", 0.0),
        kkt_residuals={
            "primal": info.get("primal_residual", np.inf),
            "dual": info.get("dual_residual", np.inf),
            "gap": info.get("rel_gap", np.inf),
        },
    )
    log.info("solve order=%d status=%s iters=%d gap=%.2e obj=%.6e (%.2fs)",
             p, status, sol.iterations, sol.duality_gap, objective,
             sol.runtime_seconds)
    return sol


def extract_ntf(solution: SdpSolution, order_p: int) -> np.ndarray:
    """Coefficient vector a_0..a_P of the designed NTF (a_0 = 1 exactly)."""
    if solution.status != "optimal":
        raise SolverError(f"cannot extract NTF from status {solution.status!r}")
    if solution.xi.size < order_p:
        raise SolverError("solution does not carry enough variables")
    return np.concatenate(([1.0], solution.xi[:order_p]))


def solve_gain_feasibility(coeffs, gamma: float,
                           settings: SolverSettings | None = None):
    """Phase-1 style check for fixed coefficients: minimize the uniform shift s
    with -M(a; P) + sI >= 0; feasible iff s* <= ~0.  As in ``solve``, the KYP
    block alone implies P >= 0 when s <= 0.

    Returns (p_matrix, feasible).
    """
    settings = settings or SolverSettings()
    a = np.asarray(getattr(coeffs, "coeffs", coeffs), dtype=float)
    p = a.size - 1
    lmi = assemble_lmi(p, gamma)
    ncert = p * (p + 1) // 2
    nvar = ncert + 1  # certificate entries + shift s
    kyp = _KypCone(lmi, a[1:])
    c = np.zeros(nvar)
    c[-1] = 1.0
    s0 = float(np.linalg.eigvalsh(-kyp.f0)[-1]) + 1.0
    x0 = np.concatenate((np.zeros(ncert), [max(s0, 1.0)]))
    x, status, info = solve_conic([kyp], c, x0, settings)
    if status not in ("optimal", "max_iterations"):
        return np.zeros((p, p)), False
    shift = float(x[-1])
    pm = unpack_certificate(x[:ncert], p)
    feasible = status == "optimal" and shift <= 1e-6 * max(1.0, gamma * gamma)
    return pm, feasible
