import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntfforge import sdp
from ntfforge.errors import InvalidSpecError
from ntfforge.kyp import (
    LmiSystem,
    _observability,
    assemble_lmi,
    bounded_real_certificate,
    grid_gain_max,
)
from ntfforge.sdp import (
    SdpProblem,
    SolverSettings,
    solve,
    solve_gain_feasibility,
)
from oracles import (
    bounded_real_matrix,
    canonical_realization,
    cone_placements,
    max_step,
    reduced_value,
)

TIGHT = SolverSettings(gap_tol=1e-10, feas_tol=1e-9)


def objective(prob, sol):
    """The problem's objective at the solver's coefficients."""
    return reduced_value((prob.quadratic, prob.linear, prob.constant),
                         sol.ntf_coeffs[1:])


def toy_problem(gamma=100.0):
    # unconstrained stationarity: 2 Q x + c = 0 at x = (-0.5, 0)
    return SdpProblem(quadratic=np.diag([2.0, 2.0]),
                      linear=np.array([2.0, 0.0]),
                      lmi=assemble_lmi(2, gamma), scale=2.0, constant=2.0)


class TestSolve:
    def test_unconstrained_stationary_point(self):
        sol = solve(toy_problem(), TIGHT)
        assert sol.status == "optimal"
        assert sol.ntf_coeffs[1] == pytest.approx(-0.5, abs=1e-6)
        assert sol.ntf_coeffs[2] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("gamma", [1.02, 1.5, 4.0])
    def test_identity_objective_gives_flat_ntf(self, gamma):
        prob = SdpProblem(quadratic=np.eye(4), linear=np.zeros(4),
                          lmi=assemble_lmi(4, gamma), scale=1.0,
                          constant=1.0)
        sol = solve(prob, TIGHT)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.ntf_coeffs[1:])) < 1e-6

    def test_kkt_residuals_small_at_optimal(self):
        sol = solve(toy_problem(), TIGHT)
        assert sol.kkt_residuals["primal_residual"] <= 1e-6
        assert sol.kkt_residuals["dual_residual"] <= 1e-6
        assert sol.kkt_residuals["rel_gap"] <= 1e-6

    def test_ntf_coeffs_lead_with_exact_one(self):
        sol = solve(toy_problem(), TIGHT)
        assert sol.ntf_coeffs[0] == 1.0
        assert sol.ntf_coeffs.size == 3

    def test_deterministic_iterates(self):
        s1 = solve(toy_problem(), TIGHT)
        s2 = solve(toy_problem(), TIGHT)
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.ntf_coeffs, s2.ntf_coeffs)
        assert np.array_equal(s1.p_matrix, s2.p_matrix)

    def test_active_gain_constraint_binds(self):
        # a first-order objective pulling toward a_1 = -1 (a differentiator
        # has peak gain 2) pinned by gamma = 1.5
        quadratic = np.array([[1.0]])
        linear = np.array([2.0])  # minimized unconstrained at a_1 = -1
        prob = SdpProblem(quadratic=quadratic, linear=linear,
                          lmi=assemble_lmi(1, 1.5), scale=1.0, constant=1.0)
        sol = solve(prob, TIGHT)
        assert sol.status == "optimal"
        gmax = grid_gain_max(sol.ntf_coeffs)
        assert gmax == pytest.approx(1.5, abs=1e-6)

    def test_objective_may_go_negative(self):
        # only the quadratic block must be PSD: constant 0 with a linear term
        # has its minimum -1 at a = (-1, 0)
        prob = SdpProblem(quadratic=np.eye(2), linear=np.array([2.0, 0.0]),
                          lmi=assemble_lmi(2, 100.0), scale=1.0)
        sol = solve(prob, TIGHT)
        assert sol.status == "optimal"
        assert sol.ntf_coeffs[1:] == pytest.approx([-1.0, 0.0], abs=1e-6)
        assert objective(prob, sol) == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible_gamma_below_unity_detected(self):
        # by Parseval a monic FIR NTF has mean |NTF|^2 = sum a_k^2 >= 1
        for gamma in (0.5, 0.9, 0.99):
            with pytest.raises(InvalidSpecError, match="Parseval"):
                SdpProblem(quadratic=np.eye(2), linear=np.zeros(2),
                           lmi=assemble_lmi(2, gamma), scale=1.0,
                           constant=1.0)

    def test_unit_gamma_leaves_only_the_flat_ntf(self):
        # the objective pulls toward a = (-1, 0), but gamma = 1 admits a = 0
        # alone
        prob = SdpProblem(quadratic=np.eye(2), linear=np.array([2.0, 0.0]),
                          lmi=assemble_lmi(2, 1.0), scale=1.0, constant=1.0)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.ntf_coeffs[1:])) < 1e-6

    def test_monotone_in_order_for_shared_filter(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=24)
        from ntfforge.objective import (
            build_q_matrix,
            noise_floor,
            reduce_objective,
        )

        values = []
        for order_p in (2, 4, 6):
            quadratic, linear, constant = reduce_objective(
                build_q_matrix(h, order_p))
            prob = SdpProblem(quadratic=quadratic, linear=linear,
                              lmi=assemble_lmi(order_p, 1.5),
                              scale=noise_floor(h, 1.5), constant=constant)
            sol = solve(prob)
            assert sol.status == "optimal"
            values.append(objective(prob, sol))
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi * (1.0 + 2e-7)


class TestFirstOrderClosedForm:
    # P=1: |1 + a_1 e^{-iw}| peaks at 1 + |a_1|, so the optimum of the convex
    # quadratic q0 (1 + a_1^2) + 2 q1 a_1 is its stationary point clipped to
    # |a_1| <= gamma - 1.  |q1| stops at 0.9 q0: as |q1| -> q0 the optimum
    # q0 (1 - a_1^2) tends to 0, so its float value loses the 1e-7 relative
    # accuracy asked of it, and where the stationary point also sits on the
    # bound the solver ends in numerical_failure at TIGHT from |q1| = 0.99 q0
    # (ROADMAP item 6)
    @given(st.floats(1e-3, 1e3), st.floats(-0.9, 0.9), st.floats(1.001, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_clipped_stationary_point(self, q0, ratio, gamma):
        q1 = ratio * q0
        prob = SdpProblem(quadratic=[[q0]], linear=[2.0 * q1],
                          lmi=assemble_lmi(1, gamma), scale=q0, constant=q0)
        sol = solve(prob, TIGHT)
        assert sol.status == "optimal"
        a1 = float(np.clip(-ratio, 1.0 - gamma, gamma - 1.0))
        want = q0 * (1.0 + a1 * a1) + 2.0 * q1 * a1
        assert abs(objective(prob, sol) - want) <= 1e-7 * want
        # where the stationary point sits on the bound, strict
        # complementarity fails and a_1 is fixed only through the objective:
        # q0 (a - a_1)^2 <= f(a) - f* <= gap_tol f*
        tol = 1e-7
        if abs(abs(ratio) - (gamma - 1.0)) < 1e-3:
            tol = max(tol, np.sqrt(TIGHT.gap_tol * want / q0))
        assert abs(sol.ntf_coeffs[1] - a1) <= tol
        assert bounded_real_certificate(sol.ntf_coeffs, sol.p_matrix,
                                        gamma).feasible


class TestGainFeasibility:
    def test_flat_ntf_feasible(self):
        pm, feasible = solve_gain_feasibility(np.array([1.0, 0.0]), 1.5)
        assert feasible
        assert np.linalg.eigvalsh(pm)[0] >= -1e-8

    def test_differentiator_boundary(self):
        _, feasible_low = solve_gain_feasibility(np.array([1.0, -1.0]), 1.9)
        assert not feasible_low
        _, feasible_high = solve_gain_feasibility(np.array([1.0, -1.0]), 2.1)
        assert feasible_high

    def test_observability_rows_are_output_row_times_powers_of_a(self):
        # the witness is O_a^T O_a + O_b^T O_b, the delay chain's
        # observability Gramian sum_k (A^T)^k C^T C A^k for each output row
        rng = np.random.default_rng(5)
        for order_p in range(1, 65):
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
            real = canonical_realization(coeffs)
            rows = [real.c_vector]
            for _ in range(order_p - 1):
                rows.append(rows[-1] @ real.a_matrix)
            assert np.array_equal(_observability(coeffs), np.array(rows))


class TestNonPositiveDefiniteSchurComplement:
    def test_ends_in_numerical_failure(self):
        # G + u^T u is not PD when G is strongly negative definite: its
        # Cholesky factor raises LinAlgError, which must end the solve with
        # a status instead of escaping
        order_p = 4
        lmi = assemble_lmi(order_p, 1.5)
        x0 = (np.zeros(order_p), 0.1 * np.eye(order_p))
        _, status, info = sdp.solve_conic(
            sdp._KypCone(lmi), np.zeros(order_p), x0, SolverSettings(),
            quadratic=-1e6 * np.eye(order_p), constant=0.0)
        assert status == "numerical_failure"
        assert info["iterations"] == 1


class TestSolverSettings:
    def test_json_roundtrip(self):
        settings = SolverSettings(gap_tol=1e-8, feas_tol=1e-9, max_iter=77)
        text = json.dumps({"gap_tol": 1e-8, "feas_tol": 1e-9, "max_iter": 77})
        again = SolverSettings.from_json_dict(json.loads(text))
        assert again == settings

    def test_rejects_bad_tolerances(self):
        with pytest.raises(InvalidSpecError):
            SolverSettings(gap_tol=0.0)
        with pytest.raises(InvalidSpecError):
            SolverSettings(max_iter=0)


class TestProblemValidation:
    def test_rejects_indefinite_quadratic(self):
        with pytest.raises(InvalidSpecError):
            SdpProblem(quadratic=np.diag([1.0, -1.0]), linear=np.zeros(2),
                       lmi=assemble_lmi(2, 1.5), scale=1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_scale_not_positive_and_finite(self, scale):
        with pytest.raises(InvalidSpecError, match="scale"):
            SdpProblem(quadratic=np.eye(2), linear=np.zeros(2),
                       lmi=assemble_lmi(2, 1.5), scale=scale)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidSpecError):
            SdpProblem(quadratic=np.eye(3), linear=np.zeros(3),
                       lmi=assemble_lmi(2, 1.5), scale=1.0)


def dense_kyp_basis(order_p, gamma):
    """M(0) and M_i = M(e_i) - M(0), rebuilt from the block formula, over
    x = (a_1..a_P, the upper triangle of P row by row)."""
    rows, cols = np.triu_indices(order_p)

    def formula(x):
        coeffs = np.concatenate(([1.0], x[:order_p]))
        pm = np.zeros((order_p, order_p))
        pm[rows, cols] = pm[cols, rows] = x[order_p:]
        return bounded_real_matrix(canonical_realization(coeffs), pm, gamma)

    m0 = formula(np.zeros(order_p + rows.size))
    return m0, np.array([formula(e) - m0 for e in np.eye(order_p + rows.size)])


def random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.1 * np.eye(n)


def random_scaling(rng, n):
    """The NT scaling R of a random pair of SPD matrices."""
    r, _ = sdp._nt_scaling(np.linalg.cholesky(random_spd(rng, n)),
                           np.linalg.cholesky(random_spd(rng, n)))
    return r


def dense_gram(fmat, r):
    """tr(G_k G_l) with G_k = R F_k R^T, from the dense basis."""
    g = (r @ fmat @ r.T).reshape(fmat.shape[0], -1)
    return g @ g.T


def assert_close(got, want, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def random_kyp_point(rng, order_p, gamma):
    """The cone, the dense block F0 + sum x_i F_i (F_i = -M_i) and a random
    x in ``dense_kyp_basis``'s layout."""
    cone = sdp._KypCone(assemble_lmi(order_p, gamma))
    m0, basis = dense_kyp_basis(order_p, gamma)
    return cone, -m0, -basis, rng.normal(size=basis.shape[0])


def symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


def indefinite(rng, n):
    """A symmetric matrix with a positive and a negative eigenvalue, which
    a scaling by a positive diagonal keeps (Sylvester's law of inertia), so
    both dZ~ and dS~ = -diag(lam) - dZ~ point out; a draw of ``symmetric``
    is PSD now and then at small n."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = rng.normal(size=n)
    d[0], d[1] = -abs(d[0]) - 0.1, abs(d[1]) + 0.1
    return (q * d) @ q.T


def dense_cone_basis(cone):
    """The cone's 2P+3 basis matrices, lifted from the unit vectors."""
    return np.array([cone.lift(e) for e in np.eye(cone.norm.size)])


class NewtonCase:
    """A random reduced Newton system at S = F0 + F(x) - E (E = 0 or a
    random primal residual times ``residual``), Z = lift(y) and the NT
    scaling R of a random pair, with the full Newton step over
    x = (a, certificate) from the dense basis: matrix tr(G_k G_l) + G,
    G_k = R^-1 F_k R^-T.  ``res_p`` is projected and ``res_d`` is the
    coefficients' part, as ``_newton_system``'s step takes them."""

    def __init__(self, rng, order_p, gamma, residual):
        self.order = order_p
        cone, f0, fmat, x = random_kyp_point(rng, order_p, gamma)
        n = order_p + 2
        half = rng.normal(size=(order_p, order_p))
        quad = half @ half.T
        c = rng.normal(size=order_p)
        s = f0 + np.tensordot(x, fmat, 1) - residual * symmetric(rng, n)
        z = cone.lift(rng.normal(size=2 * order_p + 3))
        kmat = symmetric(rng, n)
        r = random_scaling(rng, n)
        r_inv = np.linalg.inv(r)

        res_p = f0 + np.tensordot(x, fmat, 1) - s
        res_d = -np.einsum("nab,ab->n", fmat, z)
        res_d[:order_p] += c + quad @ x[:order_p]
        h = dense_gram(fmat, r_inv)
        h[:order_p, :order_p] += quad
        mat = r_inv.T @ (kmat - r_inv @ res_p @ r_inv.T) @ r_inv
        dx = np.linalg.solve(h, np.einsum("nab,ab->n", fmat, mat) - res_d)
        ds = np.tensordot(dx, fmat, 1) + res_p
        self.dense = (dx[:order_p], ds,
                      r_inv.T @ (kmat - r_inv @ ds @ r_inv.T) @ r_inv)
        self.cone, self.r, self.quad, self.kmat = cone, r, quad, kmat
        self.res_p, self.res_d = cone.project(res_p), res_d[:order_p]
        self.basis, self.coeff_basis = dense_cone_basis(cone), fmat[:order_p]

    def assert_matches_dense(self, da, dy, ds):
        assert_close(da, self.dense[0], rtol=1e-10)
        assert_close(ds, self.dense[1], rtol=1e-10)
        assert_close(self.cone.lift(dy), self.dense[2], rtol=1e-10)

    def _project(self, mat):
        return np.einsum("kab,ab->k", self.basis, mat)

    def rhs_scales(self):
        """1 + the largest entry of each right-hand side, the primal one
        over the basis norms."""
        rhs_y = self._project(self.r @ self.kmat @ self.r.T) - self.res_p
        return (1.0 + np.max(np.abs(rhs_y / self.cone.norm)),
                1.0 + np.max(np.abs(self.res_d)))

    def newton_residual(self, da, dy):
        """Right-hand side minus [H C; C^T -G] (dy, da), with H, C and C^T
        applied through the dense basis."""
        w = self.r @ self.r.T
        lifted = np.tensordot(dy, self.basis, 1)
        res_y = self._project(self.r @ self.kmat @ self.r.T
                              - w @ lifted @ w
                              - np.tensordot(da, self.coeff_basis, 1)) \
            - self.res_p
        res_a = self.res_d \
            - np.einsum("kab,ab->k", self.coeff_basis, lifted) \
            + self.quad @ da
        return res_y, res_a


def assert_gram_matches_dense(order_p, seed):
    # tr(B_j W B_k W) from W alone against g g^T with g_k = R^T B_k R
    rng = np.random.default_rng(seed)
    cone = sdp._KypCone(assemble_lmi(order_p, 1.5))
    r = random_scaling(rng, order_p + 2)
    want = dense_gram(dense_cone_basis(cone), r.T)
    got = cone.gram(r @ r.T)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestStepLength:
    @given(st.integers(3, 66), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scaled_step_matches_the_inverse_factor_rule(self, n, inward,
                                                         seed):
        # at the NT scaling R, R^-1 S R^-T = R^T Z R = diag(lam), so the step
        # from lam along the scaled direction is the step from S (or Z) along
        # D, measured through the inverse Cholesky factor of S (or Z); a PD
        # direction never reaches the boundary
        rng = np.random.default_rng(seed)
        s, z = random_spd(rng, n), random_spd(rng, n)
        d = random_spd(rng, n) if inward else symmetric(rng, n)
        r, lam = sdp._nt_scaling(np.linalg.cholesky(s), np.linalg.cholesky(z))
        r_inv = np.linalg.inv(r)
        outer = np.outer(1.0 / np.sqrt(lam), 1.0 / np.sqrt(lam))
        for x, scaled in ((s, r_inv @ d @ r_inv.T), (z, r.T @ d @ r)):
            want = max_step(np.linalg.inv(np.linalg.cholesky(x)), d)
            got = sdp._max_step(outer, scaled)
            if inward:
                assert got == want == np.inf
            else:
                assert got == pytest.approx(want, rel=1e-9)


    @given(st.integers(3, 66), st.sampled_from(["out", "z_in", "s_in"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_predictor_steps_match_the_step_on_each_side(self, n, kind, seed):
        # dS~ = -diag(lam) - dZ~, so one eigendecomposition of dZ~ scaled
        # by lam^-1/2 gives both steps; a side whose direction points in
        # (dZ~ PD, or dS~ PD) never reaches the boundary
        rng = np.random.default_rng(seed)
        lam = np.exp(rng.uniform(-2.0, 2.0, size=n))
        outer = np.outer(1.0 / np.sqrt(lam), 1.0 / np.sqrt(lam))
        dz = {"out": lambda: indefinite(rng, n),
              "z_in": lambda: random_spd(rng, n),
              "s_in": lambda: -np.diag(lam) - random_spd(rng, n)}[kind]()
        got = sdp._predictor_steps(outer, dz)
        want = (sdp._max_step(outer, -np.diag(lam) - dz),
                sdp._max_step(outer, dz))
        assert np.isinf(got[0]) == (kind == "s_in")
        assert np.isinf(got[1]) == (kind == "z_in")
        for g, w in zip(got, want):
            assert np.isinf(g) == np.isinf(w)
            if np.isfinite(w):
                assert g == pytest.approx(w, rel=1e-9)

    def test_three_eigendecompositions_per_iteration(self, monkeypatch):
        # one gives both predictor steps and one per side the corrector's;
        # one more checks the start, and the last iteration only converges
        prob = toy_problem(1.2)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(mat):
            calls.append(mat.shape)
            return eigvalsh(mat)

        cone = sdp._KypCone(prob.lmi)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        _, status, info = sdp.solve_conic(
            cone, prob.linear, sdp._interior_start(prob), SolverSettings(),
            quadratic=2.0 * prob.quadratic, constant=prob.constant)
        assert status == "optimal"
        assert len(calls) == 1 + 3 * (info["iterations"] - 1)


class TestDualSubspace:
    def test_placements_in_closed_form_match_evaluate(self, monkeypatch):
        # the cone places F0's and each a_k's coordinates from LmiSystem's
        # layout, with the bits the projections of LmiSystem.evaluate give:
        # each a_k has one coordinate, coeff_weight at coeff_slot, and the
        # scatter C a gives the dense map's bits
        def refuse(*args):
            raise AssertionError("the cone called LmiSystem.evaluate")

        rng = np.random.default_rng(0)
        for order_p in range(1, 65):
            lmi = assemble_lmi(order_p, (1.0, 1.02, 1.5, 4.0)[order_p % 4])
            with monkeypatch.context() as patch:
                patch.setattr(LmiSystem, "evaluate", refuse)
                cone = sdp._KypCone(lmi)
            f0, coeff_map = cone_placements(cone)
            assert np.array_equal(cone.f0, cone.project(f0))
            held = np.zeros_like(coeff_map)
            held[cone.coeff_slot, np.arange(order_p)] = cone.coeff_weight
            assert held.tobytes() == coeff_map.tobytes()
            a = rng.normal(size=order_p)
            assert cone.place(a).tobytes() == (coeff_map @ a).tobytes()

    @given(st.integers(1, 8), st.floats(1.01, 4.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_basis_spans_the_certificate_null_space(self, order_p, gamma,
                                                    seed):
        # Z with <F_v, Z> = 0 for every certificate direction F_v is exactly
        # the span of the cone's 2P+3 orthonormal basis matrices
        rng = np.random.default_rng(seed)
        cone, f0, fmat, x = random_kyp_point(rng, order_p, gamma)
        n = order_p + 2
        cert = fmat[order_p:]
        v_only = np.concatenate((np.zeros(order_p), x[order_p:]))
        assert_close(cone.project(np.tensordot(v_only, fmat, 1)),
                     np.zeros(2 * order_p + 3))
        flat = dense_cone_basis(cone).reshape(-1, n * n)
        assert_close(flat @ flat.T, np.eye(2 * order_p + 3))
        assert_close(cert.reshape(-1, n * n) @ flat.T,
                     np.zeros((cert.shape[0], flat.shape[0])))
        rows, cols = np.triu_indices(n)
        sym = np.zeros((rows.size, n, n))
        sym[np.arange(rows.size), rows, cols] = 1.0
        sym[np.arange(rows.size), cols, rows] = 1.0
        adjoint = np.einsum("vab,sab->vs", cert, sym)
        rank = np.linalg.matrix_rank(adjoint)
        assert rows.size - rank == 2 * order_p + 3

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_project_is_the_adjoint_of_lift(self, order_p, seed):
        rng = np.random.default_rng(seed)
        cone = sdp._KypCone(assemble_lmi(order_p, 1.5))
        n = order_p + 2
        y = rng.normal(size=2 * order_p + 3)
        mat = rng.normal(size=(n, n))
        assert np.vdot(cone.lift(y), mat) == pytest.approx(
            y @ cone.project(mat), rel=1e-12, abs=1e-12)

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gram_matches_the_dense_basis(self, order_p, seed):
        assert_gram_matches_dense(order_p, seed)

    @pytest.mark.parametrize("order_p", [49, 64])
    def test_gram_matches_the_dense_basis_at_high_order(self, order_p):
        assert_gram_matches_dense(order_p, order_p)

    @given(st.integers(1, 8), st.floats(1.01, 4.0), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_newton_step_matches_dense_full_step(self, order_p, gamma, seed,
                                                 residual):
        # at S = F0 + F(x) - E (E = 0 or a random primal residual) and
        # Z = lift(y), the reduced step equals the full Newton step over
        # x = (a, certificate) with matrix tr(G_k G_l) + G, G_k = R^-1 F_k R^-T
        case = NewtonCase(np.random.default_rng(seed), order_p, gamma,
                          residual)
        _, step = sdp._newton_system(case.cone, case.r, case.quad)
        da, dy, ds_got, _, _ = step(case.kmat, case.res_p, case.res_d)
        case.assert_matches_dense(da, dy, ds_got)

    @given(st.integers(1, 8), st.floats(1.01, 4.0), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1.0]), st.floats(-16.0, -4.0))
    @settings(max_examples=60, deadline=None)
    def test_refinement_stops_at_the_resolution(self, order_p, gamma, seed,
                                                residual, log_tol):
        # a step built with a resolution stops refining once its Newton
        # residual, formed here from the dense basis, is within it (the
        # primal part over the basis norms, as the stopping test measures
        # it) or after every pass; built without one it takes every pass
        # and matches the dense system
        case = NewtonCase(np.random.default_rng(seed), order_p, gamma,
                          residual)
        scale_p, scale_d = case.rhs_scales()
        resolution = (10.0**log_tol * scale_p, 10.0**log_tol * scale_d)
        _, step = sdp._newton_system(case.cone, case.r, case.quad, resolution)
        da, dy, _, _, solves = step(case.kmat, case.res_p, case.res_d)
        assert 0 <= solves <= sdp.REFINEMENT_PASSES
        if solves < sdp.REFINEMENT_PASSES:
            res_y, res_a = case.newton_residual(da, dy)
            assert np.max(np.abs(res_y / case.cone.norm)) \
                <= resolution[0] + 1e-12 * scale_p
            assert np.max(np.abs(res_a)) <= resolution[1] + 1e-12 * scale_d

        _, step = sdp._newton_system(case.cone, case.r, case.quad)
        da, dy, ds, dz, solves = step(case.kmat, case.res_p, case.res_d)
        assert solves == sdp.REFINEMENT_PASSES
        case.assert_matches_dense(da, dy, ds)
        # a resolution nothing meets (a negative one) takes every pass, with
        # the same bits, and so does one that only the primal or only the
        # dual part meets; one everything meets takes none
        for part in ((-1.0, -1.0), (np.inf, -1.0), (-1.0, np.inf)):
            _, strict = sdp._newton_system(case.cone, case.r, case.quad,
                                           part)
            for got, want in zip(strict(case.kmat, case.res_p, case.res_d),
                                 (da, dy, ds, dz, solves)):
                np.testing.assert_array_equal(got, want)
        _, loose = sdp._newton_system(case.cone, case.r, case.quad,
                                      (np.inf, np.inf))
        assert loose(case.kmat, case.res_p, case.res_d)[4] == 0

    @given(st.integers(1, 8), st.floats(1.01, 4.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_predictor_matches_the_refined_step(self, order_p, gamma, seed):
        # the predictor's one unrefined solve on F0 + C a gives the dZ~ of
        # the refined step with K = -diag(lam) at the slack S = R diag(lam) R^T
        rng = np.random.default_rng(seed)
        cone = sdp._KypCone(assemble_lmi(order_p, gamma))
        n = order_p + 2
        half = rng.normal(size=(order_p, order_p))
        quad = half @ half.T
        s = random_spd(rng, n)
        r, lam = sdp._nt_scaling(np.linalg.cholesky(s),
                                 np.linalg.cholesky(random_spd(rng, n)))
        placed = cone.f0 + cone.place(rng.normal(size=order_p))
        res_d = rng.normal(size=order_p)

        predictor, step = sdp._newton_system(cone, r, quad)
        want = step(np.diag(-lam), placed - cone.project(s), res_d)[3]
        got = predictor(placed, res_d)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @given(st.integers(1, 8), st.floats(1.01, 4.0), st.integers(0, 2**32 - 1),
           st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_predictor_right_hand_side_in_closed_form(self, order_p, gamma,
                                                      seed, log_cond):
        # R diag(lam) R^T = S at an NT pair, so the predictor's right-hand
        # side project(R (-diag(lam)) R^T) - r_p, r_p = F0 + C a - project(S),
        # is -(F0 + C a) up to the rounding of the terms it cancels
        rng = np.random.default_rng(seed)
        cone = sdp._KypCone(assemble_lmi(order_p, gamma))
        n = order_p + 2
        s = spd_with_spectrum(rng, n, log_cond)
        r, lam = sdp._nt_scaling(np.linalg.cholesky(s), np.linalg.cholesky(
            spd_with_spectrum(rng, n, log_cond)))
        placed = cone.f0 + cone.place(rng.normal(size=order_p))
        res_p = placed - cone.project(s)
        scaled = cone.project(-(r * lam) @ r.T) - res_p
        scale = max(np.max(np.abs(placed)), np.max(np.abs(cone.project(s))))
        assert np.max(np.abs(scaled + placed)) <= 1e-12 * scale

    @given(st.integers(1, 8), st.floats(1.01, 4.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_certificate_reproduces_the_slack(self, order_p, gamma, seed):
        rng = np.random.default_rng(seed)
        cone, f0, fmat, x = random_kyp_point(rng, order_p, gamma)
        s = f0 + np.tensordot(x, fmat, 1)
        a = x[:order_p]
        got = bounded_real_matrix(
            canonical_realization(np.concatenate(([1.0], a))),
            cone.lmi.certificate(s), gamma)
        assert_close(got, -s)


def spd_with_spectrum(rng, n, log_cond):
    """A random symmetric matrix with eigenvalues spread evenly in log scale
    over [10^-log_cond, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mat = (q * np.logspace(0, -log_cond, n)) @ q.T
    return 0.5 * (mat + mat.T)


def graded_spd(rng, n, log_cond):
    """D A D with A well conditioned and D graded over 10^-log_cond/2..1, a
    badly scaled matrix of condition about 10^log_cond."""
    m = rng.normal(size=(n, n))
    d = np.logspace(0, -log_cond / 2, n)
    return (m @ m.T / n + np.eye(n)) * np.outer(d, d)


class TestDenseKernels:
    @given(st.integers(1, 66), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nt_scaling_makes_both_sides_diag_lam(self, n, seed):
        # S and Z with spectra in [1, 1e3] keep lam_max / lam_min <= 1e3
        rng = np.random.default_rng(seed)
        s = 1e3 * spd_with_spectrum(rng, n, 3)
        z = 1e3 * spd_with_spectrum(rng, n, 3)
        r, lam = sdp._nt_scaling(np.linalg.cholesky(s), np.linalg.cholesky(z))
        assert np.all(lam > 0.0) and lam.max() / lam.min() <= 1e3 * (1 + 1e-9)
        # R^-1 S R^-T, by two solves since S is symmetric
        scaled_s = np.linalg.solve(r, np.linalg.solve(r, s).T)
        for got in (scaled_s, r.T @ z @ r):
            assert np.max(np.abs(got - np.diag(lam))) <= 1e-10 * lam.max()

    @pytest.mark.parametrize("n", [23, 24, 25, 47, 48, 49, 101, 131])
    @pytest.mark.parametrize("log_cond", [0, 8, 16])
    @pytest.mark.parametrize("family", [spd_with_spectrum, graded_spd])
    def test_inverse_factor_is_triangular_and_as_accurate_as_lu(
            self, n, log_cond, family):
        # the block-recursive inverse against the flipped LU inverse of the
        # same Cholesky factor, which is what orders below
        # BLOCK_INVERSE_MIN use
        eye = np.eye(n)
        for seed in range(3):
            mat = family(np.random.default_rng(seed), n, log_cond)
            lower = np.linalg.cholesky(mat)
            got = sdp._inverse_factor(mat)
            assert not np.triu(got, 1).any()
            lu = np.linalg.inv(lower[::-1, ::-1])[::-1, ::-1]
            assert (np.linalg.norm(got @ lower - eye)
                    <= 2.0 * np.linalg.norm(lu @ lower - eye))
