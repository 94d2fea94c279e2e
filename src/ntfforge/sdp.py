"""Self-contained primal-dual interior-point solver over PSD cone products.

Solves min c.x subject to F0 + sum_i x_i F_i >= 0 (blockwise PSD) with a
Mehrotra predictor-corrector iteration under Nesterov-Todd scaling.  The NTF
design problem is posed in epigraph form: minimize t with a Schur-complement
block encoding quadratic + linear <= t and the (negated) gain-bound LMI block.
No separate certificate cone is needed: the LMI gives P - A^T P A >= C^T C >= 0
and the delay-chain A is nilpotent, so P = sum_k (A^T)^k (P - A^T P A) A^k >= 0.
Problem sizes are desk-scale (a few thousand variables at most), so all blocks
are dense.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas as sblas

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


class _ConeBlocks:
    """Dense PSD blocks of one affine constraint map."""

    def __init__(self, f0_list, fmat_list):
        self.f0 = [np.ascontiguousarray(f, dtype=float) for f in f0_list]
        self.fmat = [np.ascontiguousarray(f, dtype=float) for f in fmat_list]
        self.sizes = [f.shape[0] for f in self.f0]
        self.nvar = self.fmat[0].shape[0]
        self.fflat = [f.reshape(self.nvar, -1) for f in self.fmat]

    def affine(self, x):
        return [f0 + np.tensordot(x, fm, axes=1)
                for f0, fm in zip(self.f0, self.fmat)]

    def adjoint(self, mats):
        out = np.zeros(self.nvar)
        for ff, m in zip(self.fflat, mats):
            out += ff @ m.ravel()
        return out


def _max_step(chol_lower, direction):
    """Largest alpha with X + alpha*D > 0, given X = L L^T."""
    w = np.linalg.solve(chol_lower, direction)
    w = np.linalg.solve(chol_lower, w.T).T
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


def _nt_scaling(s, z):
    """NT scaling point: (r, r_inv, lam) with r^-1 s r^-T = r^T z r = diag(lam)."""
    ls = np.linalg.cholesky(s)
    lz = np.linalg.cholesky(z)
    u, sing, vt = np.linalg.svd(lz.T @ ls)
    lam = sing
    d = 1.0 / np.sqrt(sing)
    r_inv = d[:, None] * (u.T @ lz.T)
    r = (ls @ vt.T) * d[None, :]
    return r, r_inv, lam


def solve_conic(blocks: _ConeBlocks, c, x0, settings: SolverSettings,
                objective_offset: float = 0.0, gap_scale_floor: float = 1.0):
    """Mehrotra predictor-corrector over the product of PSD blocks.

    Returns (x, status, info).  The start x0 need not be strictly feasible;
    the slack is shifted onto the identity when F(x0) is not PD and the
    residual is driven out by the iteration.  The duality gap is judged
    relative to the offset objective c.x + objective_offset (floored by
    gap_scale_floor), so callers can make the gap meaningful for objectives
    that are small differences of large terms.
    """
    t_start = time.perf_counter()
    n = blocks.nvar
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).copy()

    s_mats = blocks.affine(x)
    for k, s in enumerate(s_mats):
        lam_min = float(np.linalg.eigvalsh(s)[0])
        if lam_min < 1e-8:
            s_mats[k] = s + (abs(lam_min) * 1.5 + 1.0) * np.eye(s.shape[0])
    z_mats = [np.eye(m) for m in blocks.sizes]
    total_dim = float(sum(blocks.sizes))
    f0_scale = 1.0 + max(float(np.max(np.abs(f))) for f in blocks.f0)
    c_scale = 1.0 + float(np.max(np.abs(c)))

    status = "max_iterations"
    iters = 0
    info = {}
    for iters in range(1, settings.max_iter + 1):
        f_of_x = blocks.affine(x)
        res_primal = [f - s for f, s in zip(f_of_x, s_mats)]
        res_dual = c - blocks.adjoint(z_mats)
        gap = sum(float(np.tensordot(s, z)) for s, z in zip(s_mats, z_mats))
        mu = gap / total_dim
        pobj = float(c @ x)
        dobj = -sum(float(np.tensordot(f0, z))
                    for f0, z in zip(blocks.f0, z_mats))
        denom = max(gap_scale_floor, abs(pobj + objective_offset),
                    abs(dobj + objective_offset))
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
        adj_hat = blocks.adjoint([z / z_norm for z in z_mats])
        val_hat = sum(float(np.tensordot(f0, z / z_norm))
                      for f0, z in zip(blocks.f0, z_mats))
        if float(np.max(np.abs(adj_hat))) <= INFEAS_RES_TOL \
                and val_hat < -INFEAS_VAL_TOL:
            status = "infeasible"
            break

        try:
            chol_s = [np.linalg.cholesky(s) for s in s_mats]
            chol_z = [np.linalg.cholesky(z) for z in z_mats]
            scal = [_nt_scaling(s, z) for s, z in zip(s_mats, z_mats)]
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        # scaled basis tensors and the Schur complement matrix
        g_flat_parts = []
        for (_, r_inv, _), fm in zip(scal, blocks.fmat):
            g = np.einsum("ab,nbc,dc->nad", r_inv, fm, r_inv, optimize=True)
            g_flat_parts.append(g.reshape(n, -1))
        g_all = np.concatenate(g_flat_parts, axis=1)
        h = sblas.dsyrk(1.0, g_all, lower=0)
        h = np.triu(h) + np.triu(h, 1).T
        try:
            h_chol = np.linalg.cholesky(
                h + 1e-14 * np.trace(h) / n * np.eye(n)
            )
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        def newton_step(k_list):
            rhs = -res_dual.copy()
            for gf, (_, r_inv, _), kmat, rp in zip(
                    g_flat_parts, scal, k_list, res_primal):
                rd_scaled = r_inv @ rp @ r_inv.T
                rhs += gf @ (kmat - rd_scaled).ravel()
            dx = np.linalg.solve(h_chol.T, np.linalg.solve(h_chol, rhs))
            ds_list, dz_list = [], []
            for fm, (_, r_inv, _), kmat, rp in zip(
                    blocks.fmat, scal, k_list, res_primal):
                ds = np.tensordot(dx, fm, axes=1) + rp
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


def _epigraph_block(quadratic, linear, nvar_total, order):
    """Schur-complement epigraph block: [[I, L a], [(L a)^T, t - lin.a]] >= 0."""
    lam, vec = np.linalg.eigh(np.asarray(quadratic, dtype=float))
    lam_max = float(lam[-1]) if lam.size else 0.0
    keep = lam > RANK_TRUNCATION * max(lam_max, 0.0)
    factor = (np.sqrt(lam[keep])[:, None] * vec[:, keep].T) if np.any(keep) \
        else np.zeros((0, len(linear)))
    rank = factor.shape[0]
    dim = rank + 1
    p = len(linear)
    f0 = np.zeros((dim, dim))
    f0[:rank, :rank] = np.eye(rank)
    fmat = np.zeros((nvar_total, dim, dim))
    for k in range(p):
        fmat[k, :rank, rank] = factor[:, k]
        fmat[k, rank, :rank] = factor[:, k]
        fmat[k, rank, rank] = -linear[k]
    fmat[nvar_total - 1, rank, rank] = 1.0  # epigraph variable t
    return f0, fmat


def _interior_start(problem: SdpProblem):
    """Strictly interior start: zero coefficients, a ramped diagonal
    certificate (strict feasibility needs gamma > 1) and a unit epigraph gap."""
    p = problem.order
    gamma = problem.lmi.gamma
    margin = max(gamma * gamma - 1.0, 1e-6) / 2.0
    diag = margin * (np.arange(1, p + 1) / (p + 1.0))
    cert = pack_certificate(np.diag(diag))
    return np.concatenate((np.zeros(p), cert, [1.0]))


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
    f0_epi, fm_epi = _epigraph_block(problem.quadratic / obj_scale,
                                     problem.linear / obj_scale, nvar, p)
    f0_kyp = -problem.lmi.basis[0]
    fm_kyp = np.zeros((nvar, p + 2, p + 2))
    fm_kyp[: problem.variable_count] = -problem.lmi.basis[1:]
    blocks = _ConeBlocks([f0_epi, f0_kyp], [fm_epi, fm_kyp])
    c = np.zeros(nvar)
    c[-1] = 1.0
    x0 = _interior_start(problem)
    x, status, info = solve_conic(blocks, c, x0, settings,
                                  objective_offset=problem.constant / obj_scale,
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
    m0 = lmi.basis[0] + np.tensordot(a[1:], lmi.basis[1 : p + 1], axes=1)

    f0_kyp = -m0
    fm_kyp = np.zeros((nvar, p + 2, p + 2))
    fm_kyp[:ncert] = -lmi.basis[p + 1 :]
    fm_kyp[ncert] = np.eye(p + 2)

    blocks = _ConeBlocks([f0_kyp], [fm_kyp])
    c = np.zeros(nvar)
    c[-1] = 1.0
    s0 = float(np.linalg.eigvalsh(m0)[-1]) + 1.0
    x0 = np.concatenate((np.zeros(ncert), [max(s0, 1.0)]))
    x, status, info = solve_conic(blocks, c, x0, settings)
    if status not in ("optimal", "max_iterations"):
        return np.zeros((p, p)), False
    shift = float(x[-1])
    pm = unpack_certificate(x[:ncert], p)
    feasible = status == "optimal" and shift <= 1e-6 * max(1.0, gamma * gamma)
    return pm, feasible
