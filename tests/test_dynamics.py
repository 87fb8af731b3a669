import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import sparselv
from sparselv import dynamics
from sparselv.experiments import SweepConfig, build_pattern, pattern_seed, trial_seed
from sparselv import (
    AdjacencyPattern,
    IntegrationError,
    PatternModel,
    assemble,
    block_permutation_pattern,
    convergence_rate,
    full_pattern,
    general_regular_pattern,
    integrate_lv,
    jacobian_spectrum,
    lv_field,
    solve_feasibility,
    stability_certificate,
)
from _helpers import (forced, off_diagonal_2x2, ones_full, split_cases, upper_2x2,
                      zero_matrix)


class TestLvField:
    def test_zero_at_equilibrium(self):
        np.testing.assert_array_equal(lv_field(zero_matrix(4), np.ones(4)), np.zeros(4))

    def test_logistic_value(self):
        M = zero_matrix(1)
        assert lv_field(M, np.array([0.25]))[0] == pytest.approx(0.25 * 0.75)


class TestIntegrateLv:
    def test_logistic_closed_form(self):
        # decoupled species follow x(t) = 1 / (1 + e^-t) from x0 = 1/2
        M = zero_matrix(3)
        tr = integrate_lv(M, np.full(3, 0.5), 5.0, rel_tol=1e-10, abs_tol=1e-12)
        expected = 1.0 / (1.0 + math.exp(-5.0))
        np.testing.assert_allclose(tr.final_state, expected, rtol=1e-8)
        assert expected == pytest.approx(0.993307149, abs=1e-9)

    def test_equilibrium_is_fixed(self):
        tr = integrate_lv(zero_matrix(4), np.ones(4), 10.0)
        np.testing.assert_allclose(tr.final_state, np.ones(4), atol=1e-8)

    def test_positivity_preserved(self):
        p = general_regular_pattern(60, 6, rng_seed=3)
        M = assemble(p, alpha=math.sqrt(math.log(60)), seed=4)
        tr = integrate_lv(M, np.full(60, 0.5), 40.0)
        assert tr.min_series.min() > -1e-9

    def test_matches_linear_solution(self):
        # feasible regime: trajectory settles on the solution of x = 1 + Mx
        p = general_regular_pattern(50, 5, rng_seed=7)
        M = assemble(p, alpha=6.0, seed=8)
        rep = solve_feasibility(M)
        assert rep.feasible
        tr = integrate_lv(M, np.full(50, 0.5), 60.0, rel_tol=1e-10, abs_tol=1e-12)
        np.testing.assert_allclose(tr.final_state, rep.x, atol=1e-7)

    def test_distance_series(self):
        M = zero_matrix(2)
        tr = integrate_lv(M, np.full(2, 0.5), 4.0, reference=np.ones(2))
        assert tr.distance_series.shape == tr.times.shape
        assert tr.distance_series[-1] < tr.distance_series[0]
        header, rows = tr.series_rows()
        assert header == ["t", "min", "max", "mean", "dist"]
        assert len(rows[0]) == 5

    def test_blowup_raises_with_partial_record(self):
        # strong mutualism: finite-time blowup must abort, not return junk
        M = off_diagonal_2x2(5.0)
        with pytest.raises(IntegrationError) as exc_info:
            integrate_lv(M, np.array([2.0, 2.0]), 50.0)
        assert exc_info.value.record is not None

    def test_abort_reports_where_the_stepper_stopped(self):
        # The dynamics of this draw far below the threshold blow up near
        # t = 3.28.  The message gives that time whatever the sampling, and
        # the partial record keeps the samples reached before it.
        cfg = SweepConfig(n=100, d=10, master_seed=1)
        M = assemble(build_pattern(cfg, pattern_seed(1, 2)), cfg.alpha(0.3), trial_seed(1, 0, 2))
        for samples, last in ((2, 0.0), (201, 3.25), (5001, 3.28)):
            with pytest.raises(IntegrationError, match=r"aborted at t=3\.2827: ") as exc_info:
                integrate_lv(M, np.full(100, 0.5), 50.0, sample_count=samples)
            record = exc_info.value.record
            assert record.times[-1] == pytest.approx(last, abs=1e-12)
            assert record.states.shape == (100, record.times.size)
            np.testing.assert_array_equal(record.states[:, 0], 0.5)

    def test_input_validation(self):
        M = zero_matrix(3)
        with pytest.raises(ValueError):
            integrate_lv(M, np.ones(4), 1.0)
        with pytest.raises(ValueError):
            integrate_lv(M, np.array([1.0, 0.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            integrate_lv(M, np.array([1.0, np.nan, 1.0]), 1.0)
        with pytest.raises(ValueError):
            integrate_lv(M, np.array([1.0, np.inf, 1.0]), 1.0)
        for t_end in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                integrate_lv(M, np.ones(3), t_end)

    @pytest.mark.parametrize("kwargs", [
        {"reference": np.ones(4)},
        {"reference": np.ones(2)},
        {"reference": np.array([1.0, np.nan, 1.0])},
        {"rows": [3]},
        {"rows": [-1]},
        {"rows": [[0, 1]]},
        # Unchecked, rel_tol=nan never tripped the step-size floor and ran
        # without end, and abs_tol=inf let the state run to -1e14 unflagged.
        {"rel_tol": np.nan},
        {"rel_tol": 0.0},
        {"abs_tol": np.inf},
        {"abs_tol": -1e-10},
        # Unchecked, a sample_count below 2 was silently raised to 2.
        {"sample_count": 1},
        {"sample_count": 0},
        {"sample_count": -5},
    ], ids=["reference_longer", "reference_shorter", "reference_nan",
            "rows_past_n", "rows_negative", "rows_2d",
            "rel_tol_nan", "rel_tol_zero", "abs_tol_inf", "abs_tol_negative",
            "sample_count_1", "sample_count_0", "sample_count_negative"])
    def test_rejects_before_stepping(self, kwargs, monkeypatch):
        monkeypatch.setattr(dynamics, "_dormand_prince", None)  # stepping would raise TypeError
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            integrate_lv(zero_matrix(3), np.ones(3), 1.0, **kwargs)


class TestDormandPrince:
    """The in-package stepper against scipy's RK45, the reference it follows."""

    def test_tables_are_rk45s(self):
        from scipy.integrate import RK45

        np.testing.assert_array_equal(dynamics._DP_A, RK45.A)
        np.testing.assert_array_equal(dynamics._DP_B, RK45.B)
        np.testing.assert_array_equal(dynamics._DP_E, RK45.E)
        np.testing.assert_array_equal(dynamics._DP_P, RK45.P)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        model=st.sampled_from(["block_permutation", "general_regular", "proportional"]),
        n=st.integers(2, 30),
        kappa=st.floats(0.2, 8.0),
        t_end=st.floats(0.5, 40.0),
        sample_count=st.one_of(st.just(2), st.integers(3, 300)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_solve_ivp(self, data, model, n, kappa, t_end, sample_count, seed):
        # Equal success flags and samples within the integration tolerance.
        # The method is scipy's, but the stepper sums in its own numpy order
        # and scipy's in BLAS, so the samples differ in the last bits.
        from scipy.integrate import solve_ivp

        if model == "block_permutation":
            kw = {"d": data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))}
        elif model == "general_regular":
            kw = {"d": data.draw(st.integers(1, n))}
        else:
            kw = {"beta": data.draw(st.floats(0.05, 1.0))}
        cfg = SweepConfig(n=n, model=model, master_seed=seed, **kw)
        M = assemble(build_pattern(cfg, pattern_seed(seed)), cfg.alpha(kappa), trial_seed(seed, 0, 0))
        x0 = np.full(n, 0.5)
        t_eval = np.linspace(0.0, t_end, sample_count)
        states = np.empty((n, sample_count))
        reached, t_stop = dynamics._dormand_prince(
            lambda x: lv_field(M, x), x0, t_end, 1e-8, 1e-10, t_eval,
            lambda j, w: states[:, j:j + w],
        )
        states = states[:, :reached]
        sol = solve_ivp(lambda t, x: lv_field(M, x), (0.0, t_end), x0, method="RK45",
                        rtol=1e-8, atol=1e-10, t_eval=t_eval)
        assert (t_stop == t_end) == sol.success
        ys = np.reshape(sol.y, (n, -1))  # a list when no sample was reached
        if sol.success:
            assert states.shape == ys.shape
        reached = min(states.shape[1], ys.shape[1])
        np.testing.assert_allclose(states[:, :reached], ys[:, :reached], rtol=1e-6, atol=1e-8)


class TestJacobianSpectrum:
    def test_zero_matrix_at_one(self):
        rep = jacobian_spectrum(zero_matrix(5), np.ones(5))
        np.testing.assert_allclose(np.sort(rep.eigenvalues.real), -np.ones(5))
        assert rep.max_real_part == pytest.approx(-1.0)
        assert rep.localization_error == pytest.approx(0.0, abs=1e-12)

    def test_analytic_2x2(self):
        M = off_diagonal_2x2(0.3)
        x = np.full(2, 1.0 / 0.7)
        rep = jacobian_spectrum(M, x)
        got = np.sort(rep.eigenvalues.real)
        np.testing.assert_allclose(got, [-1.3 / 0.7, -0.7 / 0.7], rtol=1e-12)
        assert rep.localization_error == pytest.approx(3.0 / 7.0, rel=1e-10)

    def test_matches_dense_oracle(self):
        p = general_regular_pattern(30, 4, rng_seed=5)
        M = assemble(p, alpha=5.0, seed=6)
        x = solve_feasibility(M).x
        rep = jacobian_spectrum(M, x)
        oracle = np.linalg.eigvals(np.diag(x) @ (-np.eye(30) + M.dense()))
        np.testing.assert_allclose(
            np.sort_complex(rep.eigenvalues), np.sort_complex(oracle), atol=1e-10
        )

    def test_spectrum_conjugate_symmetric(self):
        p = general_regular_pattern(20, 3, rng_seed=9)
        M = assemble(p, alpha=4.0, seed=10)
        rep = jacobian_spectrum(M, solve_feasibility(M).x)
        ev = rep.eigenvalues
        np.testing.assert_allclose(
            np.sort_complex(ev), np.sort_complex(ev.conj()), atol=1e-10
        )

    @pytest.mark.parametrize("M", [
        # zero-weight 5-cycle: the Jacobian is -diag(x)
        forced(block_permutation_pattern(5, 1, [1, 2, 3, 4, 0]), np.zeros((5, 1))),
        # one 3x3 block whose only nonzero weights are on its diagonal
        forced(full_pattern(3), np.diag([0.5, -1.0, 2.0])),
    ], ids=["zero_cycle", "diagonal_block"])
    def test_real_spectrum_is_still_complex(self, M):
        x = np.linspace(0.5, 1.5, M.n)
        rep = jacobian_spectrum(M, x)
        assert rep.components == 1
        assert rep.eigenvalues.dtype == np.complex128
        expected = x * (np.diag(M.dense()) - 1.0)
        np.testing.assert_allclose(np.sort(rep.eigenvalues.real), np.sort(expected), rtol=1e-12)
        np.testing.assert_array_equal(rep.eigenvalues.imag, 0.0)

    def test_validation(self, monkeypatch):
        M = zero_matrix(3)
        with pytest.raises(ValueError):
            jacobian_spectrum(M, np.array([1.0, -1.0, 1.0]))
        monkeypatch.setattr("sparselv.dynamics.DENSE_EIG_LIMIT", 2)
        with pytest.raises(ValueError, match="limit 2"):
            jacobian_spectrum(M, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_refused_before_lapack(self, bad, capfd):
        # With a NaN, LAPACK would print an illegal-value message and raise from geev.
        with pytest.raises(ValueError, match="finite, strictly positive"):
            jacobian_spectrum(ones_full(3, alpha=4.0), np.array([1.0, bad, 1.0]))
        assert capfd.readouterr().err == ""


def _dense_oracle(M, x):
    return np.linalg.eigvals(np.diag(x) @ (-np.eye(M.n) + M.dense()))


def _cycle_count(sigma):
    seen, cycles = set(), 0
    for start in range(len(sigma)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = sigma[i]
    return cycles


def _scc_count(pattern):
    """Strongly connected components by brute force: the distinct rows of
    the mutual-reachability relation."""
    reach = pattern.dense().astype(bool) | np.eye(pattern.n, dtype=bool)
    while True:
        step = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if (step == reach).all():
            break
        reach = step
    return len({row.tobytes() for row in reach & reach.T})


def _block_triangular():
    """Two 3-cycles on rows 0-2 and 3-5, with edges only from the first
    into the second: two strongly connected components."""
    row_cols = [[(i + 1) % 3, 3 + i] for i in range(3)]
    row_cols += [[3 + (i + 1) % 3, 3 + (i + 2) % 3] for i in range(3)]
    pattern = AdjacencyPattern(
        n=6, d=2, model=PatternModel.GENERAL_REGULAR, row_cols=np.sort(row_cols, axis=1)
    )
    weights = np.random.default_rng(3).standard_normal((6, 2))
    return forced(pattern, weights, alpha=1.5)


class TestJacobianSplit:
    """The split spectrum against one dense eigensolve of the whole Jacobian."""

    @staticmethod
    def check(M, x):
        rep = jacobian_spectrum(M, x)
        np.testing.assert_allclose(
            np.sort_complex(rep.eigenvalues), np.sort_complex(_dense_oracle(M, x)),
            rtol=0, atol=1e-10,
        )
        ev = rep.eigenvalues
        broadcast = float(np.max(np.min(np.abs(ev[:, None] + x[None, :]), axis=1)))
        assert abs(rep.localization_error - broadcast) <= 4 * np.spacing(broadcast)
        assert rep.max_real_part == float(ev.real.max())
        return rep

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 5), st.booleans(), st.integers(0, 10_000))
    def test_block_permutation(self, m, d, identity, seed):
        rng = np.random.default_rng(seed)
        sigma = np.arange(m) if identity else rng.permutation(m)
        M = assemble(block_permutation_pattern(m, d, sigma), alpha=2.0, seed=seed)
        rep = self.check(M, rng.uniform(0.5, 2.0, m * d))
        assert rep.components == _cycle_count(sigma)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_general_regular(self, n, data):
        d = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 10_000))
        p = general_regular_pattern(n, d, rng_seed=seed)
        rep = self.check(assemble(p, alpha=2.0, seed=seed),
                         np.random.default_rng(seed).uniform(0.5, 2.0, n))
        assert rep.components == _scc_count(p)

    @pytest.mark.parametrize("seed", range(5))
    def test_general_regular_is_one_block(self, seed):
        M = assemble(general_regular_pattern(300, 4, rng_seed=seed), alpha=3.0, seed=seed)
        assert jacobian_spectrum(M, np.ones(300)).components == 1

    def test_reducible_by_weights(self):
        # structurally one cycle; the zero weight makes it triangular
        rep = self.check(upper_2x2(0.7), np.array([1.3, 0.4]))
        assert rep.components == 1

    def test_block_triangular_pattern(self):
        rep = self.check(_block_triangular(), np.linspace(0.5, 1.5, 6))
        assert rep.components == 2

    def test_pattern_with_a_repeated_column(self):
        # Row 16 held column 7 twice. csgraph's strong connected_components
        # read the CSR of this pattern as 15 components, and blocks split
        # by those labels had spectra 0.43 away from the Jacobian's.  Such a
        # pattern is refused; with row 16 holding 7 once, the split holds.
        row_cols = [[14, 18], [0, 2], [15, 18], [4, 5], [8, 16], [5, 15], [4, 7], [10, 12],
                    [0, 1], [14, 16], [10, 15], [6, 15], [8, 14], [2, 5], [2, 8], [2, 18],
                    [7, 7], [3, 17], [4, 9]]
        with pytest.raises(ValueError, match="repeats a column"):
            AdjacencyPattern(19, 2, PatternModel.GENERAL_REGULAR, np.array(row_cols))
        row_cols[16] = [7, 11]
        pattern = AdjacencyPattern(19, 2, PatternModel.GENERAL_REGULAR, np.array(row_cols))
        M = forced(pattern, np.random.default_rng(1).standard_normal((19, 2)), alpha=2.0)
        rep = self.check(M, np.random.default_rng(2).uniform(0.5, 2.0, 19))
        assert rep.components == _scc_count(pattern) == 5

    def test_identity_sigma_one_block_per_row_block(self):
        M = assemble(block_permutation_pattern(5, 3, np.arange(5)), alpha=2.0, seed=1)
        rep = self.check(M, np.ones(15))
        assert rep.components == 5 and len(rep.eigenvalues) == 15


def _solved_blocks(M, x):
    """``jacobian_spectrum(M, x)`` and a copy of each block it handed to
    ``dgeev``, taken before ``dgeev`` overwrote it."""
    blocks, solve = [], dynamics._eigvals

    def capture(block):
        blocks.append(block.copy(order="F"))
        return solve(block)

    with mock.patch.object(dynamics, "_eigvals", capture):
        return jacobian_spectrum(M, x), blocks


class TestJacobianBlocks:
    """The blocks are filled from the pattern and solved by scipy's private
    ``_flapack.dgeev``, so both are checked bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(split_cases(), st.integers(0, 2**32 - 1))
    def test_blocks_are_the_dense_jacobians(self, case, seed):
        # Block k is the dense Jacobian's on component k's members, in
        # ascending order.
        pattern, _ = case
        M = assemble(pattern, alpha=2.0, seed=seed)
        x = np.random.default_rng(seed).uniform(0.5, 2.0, M.n)
        rep, blocks = _solved_blocks(M, x)
        count, labels = pattern.strong_components
        assert rep.components == count == len(blocks)
        J = x[:, None] * (M.dense() - np.eye(M.n))
        for k, block in enumerate(blocks):
            members = np.flatnonzero(labels == k)
            assert block.flags.f_contiguous
            assert block.tobytes() == J[np.ix_(members, members)].tobytes()

    def test_repeated_column_is_refused(self):
        # Row 0 held column 1 twice, and its block one position of weight
        # 0.5 + 0.25; such a pattern is refused before any matrix is drawn.
        with pytest.raises(ValueError, match="repeats a column"):
            AdjacencyPattern(3, 2, PatternModel.GENERAL_REGULAR, np.array([[1, 1], [0, 2], [0, 2]]))

    @settings(max_examples=40, deadline=None)
    @given(split_cases(max_n=300), st.integers(0, 2**32 - 1))
    def test_eigenvalues_match_scipy_eigvals_bytes(self, case, seed):
        # dgeev comes from scipy's private _flapack extension, called as
        # scipy.linalg.eigvals calls it; a scipy release that moves it or
        # changes the call fails here.
        M = assemble(case[0], alpha=2.0, seed=seed)
        rep, blocks = _solved_blocks(M, np.random.default_rng(seed).uniform(0.5, 2.0, M.n))
        start = 0
        for block in blocks:
            ref = scipy.linalg.eigvals(block, overwrite_a=True, check_finite=False)
            assert rep.eigenvalues[start:start + len(ref)].tobytes() == ref.tobytes()
            start += len(ref)
        assert start == M.n


# Run in a fresh interpreter with "sparselv" or "scipy.linalg" as argv[1],
# imported first; prints how LAPACK's extension resolved, and whether its
# file was mapped after the imports (null without /proc/self/maps).
FLAPACK_ORDER_SCRIPT = """
import json, os, sys
import numpy as np
if sys.argv[1] == "scipy.linalg":
    import scipy.linalg
from sparselv import assemble, full_pattern, interaction, jacobian_spectrum
mapped = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        mapped = any("_flapack" in line for line in f)
n = 40
M = assemble(full_pattern(n), alpha=3.0, seed=2)
x = np.random.default_rng(0).uniform(0.5, 2.0, n)
eigenvalues = jacobian_spectrum(M, x).eigenvalues
report = {"mapped_at_import": mapped, "linalg_after_spectrum": "scipy.linalg" in sys.modules}
import scipy.linalg
block = np.asfortranarray(x[:, None] * (M.dense() - np.eye(n)))
report["attribute"] = scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
report["same_module"] = interaction._load_extension("linalg", "_flapack") is scipy.linalg._flapack
report["eigvals"] = (scipy.linalg.eigvals(block, overwrite_a=True, check_finite=False).tobytes()
                     == eigenvalues.tobytes())
print(json.dumps(report))
"""


def _run_fresh(script, *args):
    src = str(Path(sparselv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, *args], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("first", ["sparselv", "scipy.linalg"])
def test_flapack_loads_in_either_import_order(first):
    # The first spectrum, not the import, loads the extension by file,
    # without scipy.linalg, unless scipy.linalg is already imported; then
    # it uses scipy's module.  A later import of scipy.linalg works and
    # solves with the same bits.
    report = json.loads(_run_fresh(FLAPACK_ORDER_SCRIPT, first))
    assert report["mapped_at_import"] in (None, first == "scipy.linalg")
    assert report["linalg_after_spectrum"] == (first == "scipy.linalg")
    assert report["attribute"] and report["eigvals"]
    if first == "scipy.linalg":
        assert report["same_module"]


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes that ``fn`` allocates, as tracemalloc counts them (numpy
    reports its array buffers to it)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Prints the component count of a one-block spectrum at n = 1200 and how
# far it raised the process's peak RSS, in blocks of n * n doubles.  The
# peak is VmHWM, not ru_maxrss: ru_maxrss keeps the peak of the process
# that forked the interpreter (a test run's, hundreds of MiB) across exec.
SPECTRUM_RSS_SCRIPT = """
import numpy as np
from sparselv import assemble, general_regular_pattern, jacobian_spectrum

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) * 1024

# A smaller spectrum first loads _flapack and touches OpenBLAS's buffers.
warm = assemble(general_regular_pattern(400, 4, rng_seed=2), alpha=3.0, seed=2)
jacobian_spectrum(warm, np.ones(400))
n = 1200
M = assemble(general_regular_pattern(n, 4, rng_seed=1), alpha=3.0, seed=1)
x = np.random.default_rng(0).uniform(0.5, 2.0, n)
M.pattern.strong_components
before = peak()
report = jacobian_spectrum(M, x)
print(report.components, (peak() - before) / (n * n * 8))
"""


class TestFootprint:
    """The stability path holds one full-size array: the Jacobian block, or
    the sampled states.  Chunking the dense output and the distance series
    over rows keeps every other temporary small, and changes no bit."""

    def test_spectrum_holds_one_block(self):
        """tracemalloc sees numpy's array buffers only: not the workspace
        or copies that numpy or LAPACK allocate inside a call, such as the
        copy np.linalg.eigvals makes.  test_spectrum_peak_rss_grows_by_one_block
        sees those."""
        n = 600
        M = assemble(general_regular_pattern(n, 4, rng_seed=1), alpha=3.0, seed=1)
        x = np.random.default_rng(0).uniform(0.5, 2.0, n)
        rep, peak = _traced_peak(jacobian_spectrum, M, x)
        assert rep.components == 1
        assert peak < 1.5 * n * n * 8

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
    def test_spectrum_peak_rss_grows_by_one_block(self):
        # Peak RSS of a fresh process, which counts LAPACK's buffers too.
        # dgeev overwrites the block in place; a solver that copied it
        # (np.linalg.eigvals does) would grow the peak by about two blocks.
        components, growth = _run_fresh(SPECTRUM_RSS_SCRIPT).split()
        assert components == "1"
        assert float(growth) < 1.5

    def test_trajectory_holds_one_states_array(self):
        n = 20_000
        sigma = np.random.default_rng(2).permutation(n // 8)
        M = assemble(block_permutation_pattern(n // 8, 8, sigma), alpha=3.0, seed=2)
        reference = solve_feasibility(M).x
        tr, peak = _traced_peak(
            integrate_lv, M, np.full(n, 0.5), 5.0, sample_count=201, reference=reference
        )
        assert tr.states.shape == (n, 201)
        assert peak < 1.25 * tr.states.nbytes

    def test_reported_rows_hold_no_states_array(self):
        n = 20_000
        sigma = np.random.default_rng(2).permutation(n // 8)
        M = assemble(block_permutation_pattern(n // 8, 8, sigma), alpha=3.0, seed=2)
        reference = solve_feasibility(M).x
        rows = np.random.default_rng(3).choice(n, size=10, replace=False)
        tr, peak = _traced_peak(
            integrate_lv, M, np.full(n, 0.5), 5.0, sample_count=201, reference=reference, rows=rows
        )
        assert tr.states.shape == (10, 201)
        assert peak < 0.4 * n * 201 * 8

    @pytest.mark.parametrize("n", [1000, 1025])
    def test_chunks_change_no_bit(self, n, monkeypatch):
        assert len(list(dynamics._row_chunks(n))) > 1
        M = assemble(general_regular_pattern(n, 6, rng_seed=n), alpha=3.0, seed=n)
        reference = solve_feasibility(M).x

        def run():
            return integrate_lv(M, np.full(n, 0.5), 20.0, sample_count=201, reference=reference)

        chunked = run()
        monkeypatch.setattr(dynamics, "_CHUNK_ROWS", n)
        assert len(list(dynamics._row_chunks(n))) == 1
        whole = run()
        np.testing.assert_array_equal(chunked.states, whole.states)
        np.testing.assert_array_equal(chunked.distance_series, whole.distance_series)
        np.testing.assert_array_equal(
            chunked.distance_series, np.linalg.norm(chunked.states - reference[:, None], axis=0)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 256, 257, 258, 512, 513, 1000])
    def test_row_chunks_cover_without_single_rows(self, n):
        chunks = list(dynamics._row_chunks(n))
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
        assert all(0 < b - a <= dynamics._CHUNK_ROWS for a, b in chunks)

    @pytest.mark.parametrize("M", [
        assemble(block_permutation_pattern(40, 8, np.random.default_rng(4).permutation(40)),
                 alpha=3.0, seed=4),
        assemble(general_regular_pattern(300, 4, rng_seed=5), alpha=3.0, seed=5),
    ], ids=["block_permutation", "general_regular"])
    def test_blocks_match_numpy(self, M):
        # One np.linalg.eigvals per strongly connected block, in the order
        # jacobian_spectrum lists them.  numpy and scipy may bundle different
        # LAPACK builds, so the eigenvalues agree to rounding only.
        x = np.random.default_rng(M.n).uniform(0.5, 2.0, M.n)
        rep = jacobian_spectrum(M, x)
        _, labels = connected_components(M.pattern.dense(), directed=True, connection="strong")
        order = np.argsort(labels, kind="stable")
        J = (np.diag(x) @ (M.dense() - np.eye(M.n)))[np.ix_(order, order)]
        start = 0
        for size in np.bincount(labels):
            block = slice(start, start + size)
            np.testing.assert_allclose(
                np.sort_complex(rep.eigenvalues[block]),
                np.sort_complex(np.linalg.eigvals(J[block, block])),
                rtol=1e-10, atol=1e-12,
            )
            start += size
        assert start == M.n


def _trial_matrix(model, n, d_index, kappa, seed):
    """Trial 0's matrix of a seeded config, d being the ``d_index``-th
    (cyclically) degree that the model admits at this n."""
    degrees = [d for d in range(1, n + 1) if model == "general_regular" or n % d == 0]
    cfg = SweepConfig(n=n, d=degrees[d_index % len(degrees)], model=model, master_seed=seed)
    return assemble(build_pattern(cfg, pattern_seed(seed)), cfg.alpha(kappa), trial_seed(seed, 0, 0))


def _assert_rows_change_no_bit(M, t_end, samples, reference, rows):
    """Integrates from x0 = 1/2 keeping all rows, keeping ``rows``, and
    folding all samples as one block, and checks that the records, or the
    aborted runs' partial records, agree bit for bit and have the series of
    the whole states array.  Returns the full record and the abort
    message, if any."""

    def run(rows):
        try:
            record = integrate_lv(M, np.full(M.n, 0.5), t_end, sample_count=samples,
                                  reference=reference, rows=rows)
            return record, None
        except IntegrationError as exc:
            return exc.record, str(exc)

    (full, error), (part, part_error) = run(None), run(rows)
    with mock.patch.object(dynamics, "_BLOCK", samples):
        whole, whole_error = run(None)
    assert part_error == error and whole_error == error
    if full is None:
        assert part is None and whole is None
        return full, error
    for name in ("times", "min_series", "max_series", "mean_series", "final_state",
                 "distance_series"):
        np.testing.assert_array_equal(getattr(part, name), getattr(full, name))
        np.testing.assert_array_equal(getattr(whole, name), getattr(full, name))
    states = full.states
    np.testing.assert_array_equal(whole.states, states)
    np.testing.assert_array_equal(part.states, states[rows])
    np.testing.assert_array_equal(full.min_series, states.min(axis=0))
    np.testing.assert_array_equal(full.max_series, states.max(axis=0))
    np.testing.assert_array_equal(full.final_state, states[:, -1])
    # The sums add the rows in order, which is what add.reduce along axis 0
    # does once there are two or more samples.
    np.testing.assert_array_equal(full.mean_series, np.cumsum(states, axis=0)[-1] / M.n)
    if states.shape[1] > 1:
        np.testing.assert_array_equal(full.mean_series, states.mean(axis=0))
    if reference is None:
        assert full.distance_series is None
    else:
        square = (states - reference[:, None]) ** 2
        np.testing.assert_array_equal(full.distance_series, np.sqrt(np.cumsum(square, axis=0)[-1]))
        if states.shape[1] > 1:
            np.testing.assert_array_equal(
                full.distance_series, np.linalg.norm(states - reference[:, None], axis=0)
            )
    return full, error


class TestSampleBlocks:
    """The dense output is folded into the record at most _BLOCK samples at
    a time; which rows ``states`` keeps changes no bit of the record."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        model=st.sampled_from(["block_permutation", "general_regular"]),
        n=st.integers(2, 600),
        d_index=st.integers(0, 40),
        kappa=st.sampled_from([0.3, 1.0, 4.0, 8.0]),
        t_end=st.sampled_from([0.001, 0.05, 1.0, 30.0]),
        samples=st.integers(2, 201),
        seed=st.integers(0, 2**16),
        with_reference=st.booleans(),
    )
    def test_rows_change_no_bit(self, data, model, n, d_index, kappa, t_end, samples, seed,
                                with_reference):
        M = _trial_matrix(model, n, d_index, kappa, seed)
        reference = np.random.default_rng(seed).uniform(0.0, 2.0, n) if with_reference else None
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
        _assert_rows_change_no_bit(M, t_end, samples, reference, rows)

    # Configs (model, n, d_index, kappa, t_end, samples, seed) whose runs
    # reach the edges of the folding, found by a search over the space above.
    EDGES = {
        "first_step_over_a_block": ("block_permutation", 584, 33, 0.3, 0.05, 193, 49887),
        "last_block_of_one_column": ("block_permutation", 578, 10, 0.2, 50.0, 65, 758),
        "aborted_after_a_block": ("block_permutation", 593, 0, 0.3, 5.0, 100, 231),
    }

    @pytest.mark.parametrize("with_reference", [True, False])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_edges_change_no_bit(self, edge, with_reference, monkeypatch):
        model, n, d_index, kappa, t_end, samples, seed = self.EDGES[edge]
        M = _trial_matrix(model, n, d_index, kappa, seed)
        reference = np.random.default_rng(seed).uniform(0.0, 2.0, n) if with_reference else None
        evaluations, runs = [0], []
        field = dynamics.lv_field

        def counted_field(M, x):
            evaluations[0] += 1
            return field(M, x)

        class Spy(dynamics._SampleBlocks):
            def __init__(self, *args):
                super().__init__(*args)
                self.pieces, self.folds = [], []
                runs.append(self)

            def columns(self, j, w):
                self.pieces.append((evaluations[0], w))
                return super().columns(j, w)

            def _fold(self):
                self.folds.append(self.stop - self.start)
                super()._fold()

        monkeypatch.setattr(dynamics, "lv_field", counted_field)
        monkeypatch.setattr(dynamics, "_SampleBlocks", Spy)
        rows = np.random.default_rng(seed).choice(n, size=10, replace=False)
        full, error = _assert_rows_change_no_bit(M, t_end, samples, reference, rows)
        pieces, folds = runs[0].pieces, runs[0].folds  # the run that keeps all rows
        assert 0 < max(folds) <= dynamics._BLOCK
        # The pieces written after the same number of field evaluations
        # belong to one step.
        first_step = sum(w for count, w in pieces if count == pieces[0][0])
        if edge == "first_step_over_a_block":
            assert error is None and first_step > dynamics._BLOCK
        elif edge == "last_block_of_one_column":
            assert error is None and folds[-1] == 1
        else:
            assert error.startswith("integration aborted")
            assert dynamics._BLOCK < full.times.size < samples


class TestStabilityCertificate:
    def test_zero_matrix(self):
        cert = stability_certificate(zero_matrix(4))
        assert cert.vl_stable_proxy and cert.sym_max_eig == 0.0

    def test_symmetric_2x2(self):
        # M + M^T = [[0, 0.6], [0.6, 0]] has top eigenvalue 0.6 < 2
        cert = stability_certificate(off_diagonal_2x2(0.3))
        assert cert.sym_max_eig == pytest.approx(0.6, rel=1e-8)
        assert cert.vl_stable_proxy

    def test_unstable_proxy(self):
        cert = stability_certificate(off_diagonal_2x2(1.5))
        assert cert.sym_max_eig == pytest.approx(3.0, rel=1e-8)
        assert not cert.vl_stable_proxy

    def test_matches_eigvalsh(self):
        for seed in range(4):
            p = general_regular_pattern(40, 5, rng_seed=seed)
            M = assemble(p, alpha=2.0, seed=20 + seed)
            cert = stability_certificate(M)
            S = M.dense() + M.dense().T
            exact = float(np.linalg.eigvalsh(S)[-1])
            assert cert.sym_max_eig == pytest.approx(exact, rel=1e-7, abs=1e-9)


class TestConvergenceRate:
    def test_logistic_rate_near_minus_one(self):
        M = zero_matrix(2)
        tr = integrate_lv(
            M, np.full(2, 1.5), 10.0, rel_tol=1e-12, abs_tol=1e-13,
            reference=np.ones(2),
        )
        rate = convergence_rate(tr)
        assert rate == pytest.approx(-1.0, abs=0.05)

    def test_sentinel_when_at_precision(self):
        M = zero_matrix(2)
        tr = integrate_lv(
            M, np.full(2, 1.0 + 1e-3), 100.0, reference=np.ones(2)
        )
        # floor raised to the integrator noise level for default tolerances
        assert convergence_rate(tr, floor=1e-7) is None

    @pytest.mark.parametrize("floor", [0.0, None])
    def test_sentinel_when_exactly_at_the_reference(self, floor):
        # Every distance is 0, so no log can be fitted, even at floor 0.
        tr = integrate_lv(zero_matrix(2), np.ones(2), 5.0, reference=np.ones(2))
        assert not tr.distance_series.any()
        assert convergence_rate(tr, floor=floor) is None

    def test_missing_inputs(self):
        tr = integrate_lv(zero_matrix(2), np.full(2, 0.5), 1.0)
        with pytest.raises(ValueError):
            convergence_rate(tr)
