import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntfforge.design import MAX_FIR_ORDER
from ntfforge.errors import BoundViolationError, InvalidSpecError
from ntfforge.kyp import (
    VERIFY_GRID,
    _VERIFY_GRID,
    assemble_lmi,
    grid_gain_max,
    verify_bounded_real,
)
from oracles import (
    bounded_real_matrix,
    canonical_realization,
    polyval_zinv,
    schur_equivalence_check,
)


def random_psd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T


class TestCanonicalRealization:
    def test_first_order_structure(self):
        real = canonical_realization(np.array([1.0, -1.0]))
        assert real.a_matrix.tolist() == [[0.0]]
        assert real.b_vector.tolist() == [1.0]
        assert real.c_vector.tolist() == [-1.0]
        assert real.d_scalar == 1.0

    def test_zero_tail_gives_unity_transfer(self):
        real = canonical_realization(np.array([1.0, 0.0, 0.0]))
        rng = np.random.default_rng(2)
        z = np.exp(1j * rng.uniform(0, np.pi, 16))
        assert np.allclose(real.transfer(z), 1.0, atol=1e-14)

    def test_transfer_matches_direct_fir_evaluation(self):
        rng = np.random.default_rng(4)
        coeffs = np.concatenate(([1.0], rng.normal(size=5)))
        real = canonical_realization(coeffs)
        z = np.exp(1j * rng.uniform(0, np.pi, 64))
        direct = sum(c * z ** (-k) for k, c in enumerate(coeffs))
        assert np.max(np.abs(real.transfer(z) - direct)) < 1e-12

    def test_transfer_matches_for_many_random_orders(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            order_p = int(rng.integers(1, 21))
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
            real = canonical_realization(coeffs)
            z = np.exp(1j * rng.uniform(0, np.pi, 64))
            direct = sum(c * z ** (-k) for k, c in enumerate(coeffs))
            assert np.max(np.abs(real.transfer(z) - direct)) < 1e-10

    def test_nilpotency_bit_exact(self):
        real = canonical_realization(np.concatenate(([1.0], np.ones(7))))
        power = np.linalg.matrix_power(real.a_matrix, 7)
        assert np.array_equal(power, np.zeros((7, 7)))

    def test_controllability_rank(self):
        real = canonical_realization(np.concatenate(([1.0], np.ones(6))))
        blocks = [real.b_vector]
        for _ in range(5):
            blocks.append(real.a_matrix @ blocks[-1])
        ctrb = np.column_stack(blocks)
        assert np.linalg.matrix_rank(ctrb) == 6

    def test_rejects_degenerate_order(self):
        with pytest.raises(InvalidSpecError):
            canonical_realization(np.array([1.0]))

    def test_rejects_non_unit_leading(self):
        with pytest.raises(InvalidSpecError):
            canonical_realization(np.array([0.5, 1.0]))


class TestAssembleLmi:
    def test_first_order_hand_expansion(self):
        lmi = assemble_lmi(1, 1.5)
        a1, p11 = 0.7, 0.3
        got = lmi.evaluate(np.array([a1]), np.array([[p11]]))
        expected = np.array([
            [-p11, 0.0, a1],
            [0.0, p11 - 2.25, 1.0],
            [a1, 1.0, -1.0],
        ])
        assert np.allclose(got, expected, rtol=1e-15)

    def test_shape(self):
        for order_p in (1, 2, 5, 12):
            lmi = assemble_lmi(order_p, 1.5)
            mat = lmi.evaluate(np.zeros(order_p), np.zeros((order_p, order_p)))
            assert mat.shape == (order_p + 2, order_p + 2)

    @pytest.mark.parametrize("a_shape, p_shape", [
        ((3,), (2, 2)), ((2,), (2, 3)), ((2,), (3, 3)), ((2, 1), (2, 2)),
        ((5,), (5,)),
    ])
    def test_rejects_wrong_shapes(self, a_shape, p_shape):
        with pytest.raises(InvalidSpecError):
            assemble_lmi(2, 1.5).evaluate(np.zeros(a_shape), np.zeros(p_shape))

    def test_basis_matrices_symmetric(self):
        # M_0 = M(0; 0) and the unit directions of a and of symmetric P
        order_p = 4
        lmi = assemble_lmi(order_p, 2.0)
        zero_a, zero_p = np.zeros(order_p), np.zeros((order_p, order_p))
        points = [(zero_a, zero_p)] + [(e, zero_p) for e in np.eye(order_p)]
        for i, j in zip(*np.triu_indices(order_p)):
            pm = zero_p.copy()
            pm[i, j] = pm[j, i] = 1.0
            points.append((zero_a, pm))
        for a, pm in points:
            mat = lmi.evaluate(a, pm)
            assert np.array_equal(mat, mat.T)

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_affinity_identity(self, order_p, seed):
        # dyadic inputs keep every product and sum exact, so the affine-map
        # identity holds bit for bit
        rng = np.random.default_rng(seed)
        lmi = assemble_lmi(order_p, 1.5)

        def dyadic(shape):
            return rng.integers(-1024, 1025, shape) / 64.0

        a, b = dyadic(order_p), dyadic(order_p)
        pm, qm = (m + m.T for m in (dyadic((order_p, order_p)),
                                     dyadic((order_p, order_p))))
        lhs = lmi.evaluate(a + b, pm + qm) - lmi.evaluate(a, pm) \
            - lmi.evaluate(b, qm) \
            + lmi.evaluate(np.zeros(order_p), np.zeros((order_p, order_p)))
        assert np.max(np.abs(lhs)) == 0.0

    def test_flat_ntf_feasible_point(self):
        lmi = assemble_lmi(1, 1.5)
        eigs = np.linalg.eigvalsh(lmi.evaluate(np.array([0.0]),
                                               np.array([[1.0]])))
        assert np.all(eigs <= 1e-12)

    def test_evaluate_matches_block_formula(self):
        rng = np.random.default_rng(9)
        order_p = 4
        lmi = assemble_lmi(order_p, 1.7)
        coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
        pm = random_psd(rng, order_p)
        direct = bounded_real_matrix(canonical_realization(coeffs), pm, 1.7)
        assert np.allclose(lmi.evaluate(coeffs[1:], pm), direct, rtol=1e-14)

    @given(st.integers(1, 8), st.floats(0.5, 8.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_basis_reproduces_block_formula_bit_for_bit(self, order_p,
                                                         gamma, seed):
        # dyadic coefficients and certificate entries keep the formula's
        # matrix products exact, so the shift-built map must agree exactly
        rng = np.random.default_rng(seed)
        coeffs = np.concatenate(
            ([1.0], rng.integers(-1024, 1025, order_p) / 64.0))
        half = rng.integers(-1024, 1025, (order_p, order_p)) / 64.0
        pm = half + half.T
        lmi = assemble_lmi(order_p, gamma)
        direct = bounded_real_matrix(canonical_realization(coeffs), pm, gamma)
        assert np.array_equal(lmi.evaluate(coeffs[1:], pm), direct)

    @given(st.integers(1, 64), st.floats(1.0, 4.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_certificate_reads_back_what_evaluate_wrote(self, order_p, gamma,
                                                        seed):
        # the writer and the reader of M's layout in one class: on dyadic
        # data every sum is exact, so the certificate comes back bit for bit
        rng = np.random.default_rng(seed)
        a = rng.integers(-1024, 1025, order_p) / 64.0
        half = rng.integers(-1024, 1025, (order_p, order_p)) / 64.0
        pm = half + half.T
        lmi = assemble_lmi(order_p, gamma)
        assert np.array_equal(lmi.certificate(-lmi.evaluate(a, pm)), pm)


class TestVerifyBoundedReal:
    @pytest.mark.parametrize("coeffs", [
        [1.0, np.nan], [1.0, np.inf], [[1.0, 0.5]], 1.0, [2.0, 0.5], [],
    ])
    def test_rejects_coefficients_that_are_not_a_finite_vector(self, coeffs):
        with pytest.raises(InvalidSpecError):
            verify_bounded_real(np.array(coeffs), 1.5)

    def test_unit_ntf_feasible_at_gamma_one(self):
        cert = verify_bounded_real(np.array([1.0]), 1.0)
        assert cert.grid_max == pytest.approx(1.0, abs=1e-12)
        assert cert.feasible

    @pytest.mark.parametrize("coeffs", [[1.0], [1.0, 0.0]])
    def test_flat_ntf_rejected_below_unit_gamma(self, coeffs):
        # [1.0] and [1.0, 0.0] are the same NTF, of gain 1 at every order
        with pytest.raises(BoundViolationError):
            verify_bounded_real(np.array(coeffs), 0.99995)

    def test_differentiator_infeasible_below_peak(self):
        with pytest.raises(BoundViolationError) as err:
            verify_bounded_real(np.array([1.0, -1.0]), 1.9)
        assert err.value.grid_max == pytest.approx(2.0, abs=1e-6)

    def test_differentiator_feasible_just_above_peak(self):
        cert = verify_bounded_real(np.array([1.0, -1.0]), 2.0 + 1e-6)
        assert cert.grid_max == pytest.approx(2.0, abs=1e-6)
        assert cert.min_eigenvalue_p >= -1e-9 * max(
            1.0, np.trace(cert.p_matrix))

    def test_supplied_certificate_is_rechecked(self):
        cert = verify_bounded_real(np.array([1.0, -0.5]), 1.6)
        again = verify_bounded_real(np.array([1.0, -0.5]), 1.6,
                                    p_matrix=cert.p_matrix)
        assert again.feasible
        with pytest.raises(BoundViolationError):
            verify_bounded_real(np.array([1.0, -1.0]), 1.5,
                                p_matrix=cert.p_matrix)

    def test_gain_bound_implies_grid_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            order_p = int(rng.integers(1, 6))
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p) * 0.3))
            gamma = grid_gain_max(coeffs) / 0.9
            cert = verify_bounded_real(coeffs, gamma)
            assert cert.grid_max <= gamma * (1.0 + 1e-4)


class TestGridGainMax:
    @pytest.mark.parametrize("order_p", [1, 12, 49, 64])
    def test_shared_grid_keeps_the_bits_of_a_fresh_grid(self, order_p):
        # the verify grid is built once per process; its maxima are those
        # of a grid built from scratch for every call, FIR and rational
        rng = np.random.default_rng(order_p)
        coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
        den = np.array([1.0, -0.5, 0.25])
        zinv = np.exp(-1j * np.linspace(0.0, np.pi, VERIFY_GRID))
        fir = float(np.max(np.abs(polyval_zinv(coeffs, zinv))))
        rational = float(np.max(np.abs(
            polyval_zinv(coeffs, zinv) / polyval_zinv(den, zinv))))
        for _ in range(2):
            assert grid_gain_max(coeffs) == fir
            assert grid_gain_max(coeffs, den=den) == rational

    def test_shared_grid_is_read_only(self):
        for arr in (_VERIFY_GRID.omegas, _VERIFY_GRID.zinv):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestWitnessAroundGridMax:
    # without a stored witness verify builds the Gramian of the lossless
    # extension; tails ending in zeros make np.roots drop degree
    @given(st.integers(1, MAX_FIR_ORDER), st.integers(0, 3),
           st.floats(0.01, 1.0), st.floats(1.01, 2.0), st.floats(0.5, 0.99),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_accepts_above_and_rejects_below(self, order_p, zeros, scale,
                                             above, below, seed):
        rng = np.random.default_rng(seed)
        coeffs = np.concatenate(([1.0], scale * rng.normal(size=order_p)))
        coeffs[coeffs.size - min(zeros, order_p):] = 0.0
        gmax = grid_gain_max(coeffs)
        assert verify_bounded_real(coeffs, above * gmax).feasible
        with pytest.raises(BoundViolationError):
            verify_bounded_real(coeffs, below * gmax)

class TestSchurEquivalence:
    def test_random_trials_agree(self):
        rng = np.random.default_rng(77)
        agreements = 0
        for _ in range(200):
            order_p = int(rng.integers(1, 7))
            coeffs = np.concatenate(([1.0], rng.normal(size=order_p)))
            real = canonical_realization(coeffs)
            pm = random_psd(rng, order_p) * rng.uniform(0.1, 3.0)
            gamma = float(rng.uniform(0.5, 4.0))
            nsd_big, nsd_red = schur_equivalence_check(real, pm, gamma)
            agreements += nsd_big == nsd_red
        assert agreements == 200

    def test_zero_certificate_large_gamma(self):
        real = canonical_realization(np.array([1.0, 0.0, 0.0]))
        nsd_big, nsd_red = schur_equivalence_check(real, np.zeros((2, 2)), 2.0)
        assert nsd_big and nsd_red

    def test_first_order_hand_case(self):
        real = canonical_realization(np.array([1.0, 0.0]))
        nsd_big, nsd_red = schur_equivalence_check(real, np.array([[1.0]]),
                                                   1.5)
        assert nsd_big and nsd_red
