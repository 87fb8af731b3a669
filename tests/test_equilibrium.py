import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from sparselv import (
    DivergenceError,
    Permutation,
    assemble,
    block_permutation_pattern,
    extreme_value_stat,
    general_regular_pattern,
    gumbel_constants,
    neumann_summand,
    saturated_equilibrium,
    solve_feasibility,
)
from _helpers import (
    forced, off_diagonal_2x2, ones_full, rotation_2x2, upper_2x2, zero_matrix,
)


class TestSolveFeasibility:
    def test_zero_matrix(self):
        rep = solve_feasibility(zero_matrix(6))
        np.testing.assert_array_equal(rep.x, np.ones(6))
        np.testing.assert_array_equal(rep.Z, np.zeros(6))
        np.testing.assert_array_equal(rep.R, np.zeros(6))
        assert rep.feasible and rep.residual_inf == 0.0

    def test_analytic_2x2(self):
        rep = solve_feasibility(off_diagonal_2x2(0.3))
        np.testing.assert_allclose(rep.x, [1.0 / 0.7, 1.0 / 0.7], rtol=1e-12)
        assert rep.feasible and rep.min_x == pytest.approx(1.428571428571, rel=1e-9)

    def test_decomposition_identity(self):
        for seed in range(5):
            p = general_regular_pattern(64, 6, rng_seed=seed)
            M = assemble(p, alpha=4.0, seed=seed)
            rep = solve_feasibility(M)
            recon = 1.0 + rep.Z / M.alpha + rep.R / M.alpha**2
            np.testing.assert_allclose(rep.x, recon, atol=1e-9)

    def test_z_matches_unscaled_row_sums(self):
        p = general_regular_pattern(30, 5, rng_seed=1)
        M = assemble(p, alpha=3.0, seed=2)
        rep = solve_feasibility(M)
        np.testing.assert_allclose(
            rep.Z, M.weights.sum(axis=1) / math.sqrt(5), rtol=1e-15
        )

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            solve_feasibility(off_diagonal_2x2(1.5))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.05, 3.0), st.floats(-math.pi, math.pi), st.floats(0.5, 5.0))
    def test_rotation_divergence_detected(self, r, theta, alpha):
        # The leading eigenvalues r e^{+-i theta} are complex for theta != 0, pi,
        # so the residual oscillates instead of growing every step.
        with pytest.raises(DivergenceError):
            solve_feasibility(rotation_2x2(r, theta, alpha), max_iter=100)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 0.95), st.floats(-math.pi, math.pi), st.floats(0.5, 5.0))
    def test_rotation_convergence_not_flagged(self, r, theta, alpha):
        M = rotation_2x2(r, theta, alpha)
        tol = 1e-12
        rep = solve_feasibility(M, tol=tol)
        assert rep.converged
        # One more step can grow the sup-norm residual by at most ||M||_inf < 2.
        assert rep.residual_inf <= 2 * tol
        # |x - x*| <= ||(I - M)^-1||_2 * 2-norm of the residual <= 20 * 2 sqrt(2) tol.
        exact = np.linalg.solve(np.eye(2) - M.dense(), np.ones(2))
        np.testing.assert_allclose(rep.x, exact, rtol=0, atol=1e-10)

    def test_oscillating_divergence_returns_no_report(self):
        # 1.06 R(1.4): the old growth-streak rule ran into x ~ 1e255.
        with pytest.raises(DivergenceError):
            solve_feasibility(rotation_2x2(1.06, 1.4))

    def test_partial_report_flagged(self):
        rep = solve_feasibility(off_diagonal_2x2(0.999), tol=1e-14, max_iter=30)
        assert not rep.converged

    def test_sandwich_inequality(self):
        for seed in range(10):
            p = general_regular_pattern(128, 8, rng_seed=seed)
            M = assemble(p, alpha=5.0, seed=100 + seed)
            rep = solve_feasibility(M)
            a = M.alpha
            lo = 1.0 + rep.min_Z / a + rep.R.min() / a**2
            hi = 1.0 + rep.min_Z / a + rep.R.max() / a**2
            assert lo - 1e-12 <= rep.min_x <= hi + 1e-12

    def test_json_export(self):
        rep = solve_feasibility(zero_matrix(3))
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "feasible", "min_x", "argmin", "min_Z", "residual_inf",
            "alpha", "n", "d", "seed",
        }
        full = json.loads(rep.to_json(full_state=True))
        assert full["x"] == [1.0, 1.0, 1.0]


class TestNeumannSummand:
    def test_zero_matrix(self):
        M = zero_matrix(4)
        assert neumann_summand(M, 0, 2) == 0.0
        assert neumann_summand(M, 3, 5) == 0.0

    def test_all_ones_full_order_two(self):
        # e_k (J_n / sqrt(n))^2 1 = e_k J_n 1 = n, independent of alpha.
        M = ones_full(4, alpha=2.0)
        for k in range(4):
            assert neumann_summand(M, k, 2) == pytest.approx(4.0)

    def test_dense_brute_force_oracle(self):
        p = general_regular_pattern(12, 4, rng_seed=3)
        M = assemble(p, alpha=3.0, seed=5)
        B = M.dense(unscaled=True)
        for k, l in [(0, 2), (5, 3), (11, 6)]:
            expected = (np.linalg.matrix_power(B, l) @ np.ones(12))[k] / M.alpha ** (l - 2)
            assert neumann_summand(M, k, l) == pytest.approx(expected, rel=1e-12)

    def test_partial_sums_converge_to_remainder(self):
        p = general_regular_pattern(24, 5, rng_seed=8)
        M = assemble(p, alpha=6.0, seed=9)
        norm = np.linalg.svd(M.dense(), compute_uv=False)[0]
        assert norm < 1.0
        rep = solve_feasibility(M)
        for k in [0, 7, 23]:
            partial = 0.0
            for L in range(2, 30):
                partial += neumann_summand(M, k, L)
                tail = (
                    M.alpha**2 * math.sqrt(24) * norm ** (L + 1) / (1.0 - norm)
                )
                assert abs(rep.R[k] - partial) <= tail + 1e-9

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            neumann_summand(zero_matrix(2), 0, 1)


class TestGumbelConstants:
    def test_large_n_constants(self):
        g = gumbel_constants(15000)
        assert math.log(15000) == pytest.approx(9.6158, abs=5e-4)
        assert g.alpha_star == pytest.approx(math.sqrt(2 * math.log(15000)), rel=1e-14)
        assert g.alpha_star == pytest.approx(4.38539, abs=1e-4)

    def test_hand_check_n8(self):
        g = gumbel_constants(8)
        assert g.alpha_star == pytest.approx(2.03934, abs=1e-4)
        expected_beta = g.alpha_star - math.log(4 * math.pi * math.log(8)) / (
            2 * g.alpha_star
        )
        assert g.beta_star == pytest.approx(expected_beta, rel=1e-14)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            gumbel_constants(1)


class TestExtremeValueStat:
    def test_zero_vector(self):
        g = gumbel_constants(10)
        assert extreme_value_stat(np.zeros(10), g) == pytest.approx(
            g.alpha_star * g.beta_star
        )

    def test_centered_minimum(self):
        g = gumbel_constants(50)
        Z = np.full(50, 1.0)
        Z[17] = -g.beta_star
        assert extreme_value_stat(Z, g) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            extreme_value_stat(np.zeros(5), gumbel_constants(10))


class TestSaturatedEquilibrium:
    def test_zero_matrix_all_survive(self):
        sat = saturated_equilibrium(zero_matrix(5))
        np.testing.assert_allclose(sat.x, np.ones(5))
        assert len(sat.survivors) == 5
        assert sat.complementarity_residual == pytest.approx(0.0, abs=1e-12)
        assert sat.kkt_violation == 0.0

    def test_hand_lcp_2x2(self):
        # Full solve gives x1 = 1 - 2 x2 = -1 < 0, so species 0 vanishes
        # and the invasion rate check gives 1 + (Mx)_0 = -1 <= 0.
        sat = saturated_equilibrium(upper_2x2(-2.0))
        np.testing.assert_allclose(sat.x, [0.0, 1.0])
        np.testing.assert_array_equal(sat.survivors, [1])

    def test_methods_agree_subcritical(self):
        # alpha below the feasibility threshold: some species vanish, but
        # the saturated equilibrium is unique and both routes must find it.
        n, d = 100, 10
        alpha = math.sqrt(math.log(n))
        agreements = 0
        for seed in range(5):
            sigma = Permutation.random(n // d, np.random.default_rng(seed))
            p = block_permutation_pattern(n // d, d, sigma)
            M = assemble(p, alpha, seed=1000 + seed)
            tol = 1e-8
            piv = saturated_equilibrium(M, tol=tol, method="pivoting")
            ode = saturated_equilibrium(M, tol=tol, method="ode_limit")
            if np.array_equal(piv.survivors, ode.survivors):
                np.testing.assert_allclose(piv.x, ode.x, atol=10 * tol)
                agreements += 1
        assert agreements >= 4

    def test_extinctions_occur_subcritical(self):
        p = general_regular_pattern(200, 8, rng_seed=2)
        M = assemble(p, alpha=math.sqrt(math.log(200)), seed=3)
        sat = saturated_equilibrium(M, tol=1e-8)
        assert 0 < len(sat.survivors) < 200

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            saturated_equilibrium(zero_matrix(2), method="lemke")


class TestStatisticalProperties:
    def test_z_gaussianity_small(self):
        # Z entries are exact N(0,1) by construction; pooled KS sanity check.
        p = general_regular_pattern(200, 6, rng_seed=0)
        zs = []
        for seed in range(50):
            M = assemble(p, alpha=4.0, seed=seed)
            zs.append(M.row_sums_unscaled())
        pooled = np.concatenate(zs)
        assert stats.kstest(pooled, "norm").pvalue > 0.01

    def test_remainder_shrinks_with_n(self):
        # max|R| / (alpha sqrt(2 log n)) trends down as n doubles at fixed
        # alpha = 2 alpha*_n.
        means = []
        for n in [512, 1024, 2048, 4096]:
            d = 16
            sigma = Permutation.random(n // d, np.random.default_rng(n))
            p = block_permutation_pattern(n // d, d, sigma)
            alpha = 2.0 * math.sqrt(2.0 * math.log(n))
            vals = []
            for seed in range(12):
                rep = solve_feasibility(assemble(p, alpha, seed=seed))
                vals.append(
                    np.max(np.abs(rep.R)) / (alpha * math.sqrt(2.0 * math.log(n)))
                )
            means.append(np.mean(vals))
        assert means[-1] < means[0]
        for a, b in zip(means, means[1:]):
            assert b < a * 1.05
