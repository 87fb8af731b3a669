import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from sparselv import (
    DivergenceError,
    EquilibriumError,
    assemble,
    block_permutation_pattern,
    extreme_value_stat,
    full_pattern,
    general_regular_pattern,
    gumbel_constants,
    neumann_summand,
    saturated_equilibrium,
    solve_feasibility,
)
from sparselv.experiments import SweepConfig, build_pattern, pattern_seed, trial_seed
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

    @pytest.mark.parametrize(
        "bad", [{"tol": math.nan}, {"tol": math.inf}, {"max_iter": 0}, {"max_iter": -5}],
        ids=["tol_nan", "tol_inf", "max_iter_0", "max_iter_negative"],
    )
    def test_invalid_tol_or_max_iter_refused(self, bad):
        # Unchecked, tol=nan ran into a "divergence" once the residual hit
        # 0.0, tol=inf "converged" after one step, and max_iter < 1
        # returned x = 1 after no iteration.
        M = assemble(general_regular_pattern(200, 6, 3), alpha=4.0, seed=5)
        with pytest.raises(ValueError, match="tol|max_iter"):
            solve_feasibility(M, **bad)

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


def reference_neumann(M, tol=1e-12, max_iter=10_000):
    """The plain loop x <- 1 + M.matvec(x) with solve_feasibility's stall
    and tolerance rules: (x, iterations, converged, residual_inf), or the
    iteration at which it diverges."""
    ones = np.ones(M.n)
    x = ones.copy()
    best, stalled, converged = math.inf, 0, False
    for it in range(1, max_iter + 1):
        x_next = ones + M.matvec(x)
        residual = float(np.max(np.abs(x_next - x)))
        stalled = 0 if residual < best else stalled + 1
        best = min(best, residual)
        if not math.isfinite(residual) or stalled >= 20:
            return it
        x = x_next
        if residual <= tol:
            converged = True
            break
    return x, it, converged, float(np.max(np.abs(x - ones - M.matvec(x))))


@st.composite
def small_matrices(draw):
    """Block-permutation or general d-regular draws with n <= 200, from
    contracting to divergent."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        m, d = draw(st.integers(1, 20)), draw(st.integers(1, 10))
        sigma = np.random.default_rng(seed).permutation(m)
        pattern = block_permutation_pattern(m, d, sigma)
    else:
        n = draw(st.integers(1, 200))
        pattern = general_regular_pattern(n, draw(st.integers(1, n)), rng_seed=seed)
    return assemble(pattern, alpha=draw(st.floats(0.5, 6.0)), seed=seed)


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.sampled_from([1e-12, 1e-8]), st.sampled_from([10_000, 40, 3]))
def test_solve_matches_reference_loop(M, tol, max_iter):
    expected = reference_neumann(M, tol, max_iter)
    if isinstance(expected, int):
        with pytest.raises(DivergenceError, match=f"at iteration {expected} "):
            solve_feasibility(M, tol=tol, max_iter=max_iter)
        return
    x, iterations, converged, residual_inf = expected
    rep = solve_feasibility(M, tol=tol, max_iter=max_iter)
    assert rep.x.tobytes() == x.tobytes()
    assert (rep.solver_iterations, rep.converged) == (iterations, converged)
    assert rep.residual_inf == residual_inf


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
            sigma = np.random.default_rng(seed).permutation(n // d)
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

    def test_failures_raise_equilibrium_error(self):
        # One draw far below the threshold (n=100, d=10, block pattern) on
        # which pivoting from all species cycles without settling.
        cfg = SweepConfig(n=100, d=10, master_seed=1)
        pattern = build_pattern(cfg, pattern_seed(1, 2))

        def draw(kappa):
            return assemble(pattern, cfg.alpha(kappa), trial_seed(1, 0, 2))

        for kappa in (0.3, 0.5):
            with pytest.raises(EquilibriumError, match='method="ode_limit"'):
                saturated_equilibrium(draw(kappa))
        # At kappa=0.3 the dynamics blow up as well.
        with pytest.raises(EquilibriumError, match="dynamics from x0 = 1/2 failed"):
            saturated_equilibrium(draw(0.3), method="ode_limit")
        # At kappa=0.5 a species reaches 0 on the way, and the support read
        # there refines to the equilibrium.
        sat = saturated_equilibrium(draw(0.5), method="ode_limit")
        assert len(sat.survivors) == 90 and sat.method == "ode_limit"

    @pytest.mark.parametrize(
        "M, tol, match",
        [
            # A generic feasible draw; its residuals are not below 1e-300.
            (assemble(general_regular_pattern(20, 3, rng_seed=1), 4.0, seed=2), 1e-300,
             "checks failed"),
            # x = 1/(1 - 3) < 0 drops the one species, and the support empties.
            (forced(full_pattern(1), [[3.0]]), 1e-10, "did not settle"),
        ],
    )
    def test_check_failures_raise_equilibrium_error(self, M, tol, match):
        with pytest.raises(EquilibriumError, match=match):
            saturated_equilibrium(M, tol=tol)


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
            sigma = np.random.default_rng(n).permutation(n // d)
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
