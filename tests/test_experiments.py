import functools
import importlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import sparselv
from sparselv import (
    ConfigError, PatternModel, SweepConfig, assemble, block_permutation_pattern, cli,
    experiments, general_regular_pattern, interaction, saturated_equilibrium,
)
from sparselv.experiments import (
    MODELS,
    build_pattern,
    pattern_seed,
    run_abundance_histogram,
    run_dynamics_trace,
    run_feasibility_sweep,
    run_singular_gap_trials,
    run_spectrum_check,
    run_trials,
    trial_seed,
)
from _helpers import small_matrices


def capped_solver(monkeypatch, reports):
    """Make every driver's Neumann solve stop after 2 iterations, unconverged."""
    solve = experiments.solve_feasibility

    def capped(M, **kwargs):
        reports.append(solve(M, max_iter=2, **kwargs))
        return reports[-1]

    monkeypatch.setattr(experiments, "solve_feasibility", capped)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig(n=60, d=6)
        assert cfg.kappa_grid == [2.0] and cfg.trials_per_point == 1

    def test_alpha_parameterization(self):
        cfg = SweepConfig(n=100, d=10)
        assert cfg.alpha(3.0) == pytest.approx(math.sqrt(3.0 * math.log(100)))

    def test_full_model_forces_d(self):
        cfg = SweepConfig(n=12, model="full")
        assert cfg.d == 12

    def test_proportional_sets_d(self):
        cfg = SweepConfig(n=40, model="proportional", beta=0.25)
        assert cfg.d == 10
        assert SweepConfig(n=40, d=10, model="proportional", beta=0.25) == cfg

    def test_kappa_grid_sorted(self):
        cfg = SweepConfig(n=60, d=6, kappa_grid=[4.0, 1.0, 2.5])
        assert cfg.kappa_grid == [1.0, 2.5, 4.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "d": 1},
            {"n": 10, "d": 11},
            {"n": 10, "d": 3, "model": "block_permutation"},
            {"n": 10, "d": 2, "model": "erdos"},
            {"n": 10, "model": "proportional"},
            {"n": 10, "model": "proportional", "beta": 1.5},
            {"n": 12, "d": 3, "model": "general_regular", "beta": 0.5},
            {"n": 6, "d": 2, "model": "full"},
            {"n": 12, "d": 2, "model": "proportional", "beta": 0.5},
            {"n": 10, "d": 2, "kappa_grid": []},
            {"n": 10, "d": 2, "kappa_grid": [2.0, -1.0]},
            {"n": 10, "d": 2, "kappa_grid": [math.inf]},
            {"n": 10, "d": 2, "kappa_grid": [math.nan]},
            {"n": 10, "d": 2, "t_end": 0.0},
            {"n": 10, "d": 2, "t_end": -1},
            {"n": 10, "d": 2, "t_end": math.inf},
            {"n": 10, "d": 2, "trials_per_point": 0},
            {"n": 10, "d": 2, "master_seed": -1},
            {"n": 10, "d": 2, "kappa_grid": [2.0, 2.0]},
            {"n": 10, "d": 2, "kappa_grid": [2, 8.0, 2.0]},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 100.0),
            ("n", True),
            ("d", 6.0),
            ("trials_per_point", 2.5),
            ("master_seed", 1.5),
            ("fix_pattern", "no"),
            ("fix_pattern", 1),
            ("t_end", "50"),
            ("kappa_grid", [2.0, True]),
            ("kappa_grid", 2.0),
        ],
    )
    def test_rejects_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}"):
            SweepConfig(**{"n": 60, "d": 6, field: value})

    def test_numpy_scalars_accepted(self):
        cfg = SweepConfig(n=np.int64(60), d=np.int32(6), kappa_grid=[np.float64(2.0)],
                          trials_per_point=np.int64(2), master_seed=np.uint64(3))
        assert cfg.kappa_grid == [2.0] and cfg.n == 60
        assert SweepConfig(n=40, model="proportional", beta=np.float32(0.25)).d == 10

    def test_from_mapping_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            SweepConfig.from_mapping({"n": 10, "d": 2, "kapa_grid": [2.0]})

    def test_from_mapping_unknown_keys_of_mixed_types(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \[1, 'foo'\]"):
            SweepConfig.from_mapping({"n": 10, "d": 2, 1: 2, "foo": 3})

    def test_echo_round_trip(self):
        cfg = SweepConfig(n=60, d=6, kappa_grid=[1.0, 3.0], trials_per_point=4)
        assert SweepConfig.from_mapping(cfg.echo()) == cfg


class TestSeeds:
    def test_trial_seed_deterministic(self):
        assert trial_seed(7, 2, 5) == trial_seed(7, 2, 5)

    def test_trial_seed_distinct(self):
        seeds = {trial_seed(0, ki, t) for ki in range(5) for t in range(50)}
        assert len(seeds) == 250

    def test_pattern_seed_separate_stream(self):
        assert pattern_seed(0) != trial_seed(0, 0, 0)
        assert pattern_seed(0, 3) != pattern_seed(0, 4)

    # Bit-for-bit guard of the seed tables: a numpy release that changes
    # SeedSequence's hash fails here.  Masters below 2**32 are one entropy
    # word, those below 2**64 two, and larger ones fill the pool and run past it.
    @settings(max_examples=150, deadline=None)
    @given(master=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                            st.integers(2**64, 2**200)),
           kappa_indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
           trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_seed_table_matches_seed_sequence(self, master, kappa_indices, trials):
        table = experiments._seed_table(master, np.array(kappa_indices)[:, None], np.array(trials))
        assert table.tolist() == [[trial_seed(master, k, t) for t in trials] for k in kappa_indices]
        patterns = experiments._seed_table(master, 0x5EED, np.array(trials))
        assert patterns.tolist() == [pattern_seed(master, t) for t in trials]
        assert experiments._seed_table(master, 0x5EED).tolist() == [pattern_seed(master)]

    @pytest.mark.parametrize("fix_pattern", [True, False])
    def test_init_tables_every_seed_of_the_run(self, fix_pattern, monkeypatch):
        cfg = SweepConfig(n=60, d=6, kappa_grid=[1.0, 2.0, 4.0], trials_per_point=5,
                          master_seed=2**40 + 3, fix_pattern=fix_pattern)
        monkeypatch.setattr(experiments, "_CTX", {})  # run_trials empties its own
        experiments._init(cfg)
        ctx = experiments._CTX
        assert ctx["seeds"].tolist() == [[trial_seed(cfg.master_seed, k, t) for t in range(5)]
                                         for k in range(3)]
        assert ctx["pattern_seeds"].tolist() == [pattern_seed(cfg.master_seed, t) for t in range(5)]
        if fix_pattern:
            assert ctx["pattern"] == build_pattern(cfg, pattern_seed(cfg.master_seed))

    def test_sweep_and_histogram_hash_no_seed_per_trial(self, monkeypatch):
        cfg = SweepConfig(n=60, d=6, kappa_grid=[2.0, 4.0], trials_per_point=3, master_seed=7)
        per_trial = replace(cfg, model="general_regular", fix_pattern=False)
        sweep = run_feasibility_sweep(cfg).rows
        hist = run_abundance_histogram(per_trial, kappa=8.0)
        trace_cfg = replace(cfg, t_end=2.0)
        trace = run_dynamics_trace(trace_cfg, 4.0)

        def refuse(*args):
            raise AssertionError("a trial hashed its seed with SeedSequence")

        monkeypatch.setattr(experiments, "trial_seed", refuse)
        monkeypatch.setattr(experiments, "pattern_seed", refuse)
        assert repr(run_feasibility_sweep(cfg).rows) == repr(sweep)
        again = run_abundance_histogram(per_trial, kappa=8.0)
        assert again.counts.tobytes() == hist.counts.tobytes()
        assert repr((again.mean, again.variance)) == repr((hist.mean, hist.variance))
        # The trace's species come from the run's table too: trial_seed(seed, 0, 1).
        retraced = run_dynamics_trace(trace_cfg, 4.0)
        assert retraced.species_indices.tolist() == trace.species_indices.tolist()
        assert retraced.record.states.tobytes() == trace.record.states.tobytes()


class TestBuildPattern:
    def test_dispatch(self):
        for model, expected in [
            ("block_permutation", PatternModel.BLOCK_PERMUTATION),
            ("general_regular", PatternModel.GENERAL_REGULAR),
            ("full", PatternModel.FULL),
        ]:
            cfg = SweepConfig(n=12, d=0 if model == "full" else 4, model=model)
            p = build_pattern(cfg, seed=5)
            assert p.n == 12
            if model != "full":
                assert p.model is expected

    def test_deterministic(self):
        cfg = SweepConfig(n=24, d=4)
        assert build_pattern(cfg, 9) == build_pattern(cfg, 9)
        assert build_pattern(cfg, 9) != build_pattern(cfg, 10)


def test_perfbench_tracer_binds_every_name(monkeypatch):
    """The benchmark's tracer rebinds names in sparselv.cli and
    sparselv.experiments and reads each built pattern's method or model;
    a renamed function, a dropped import or a string model breaks it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    original = experiments.block_permutation_pattern
    with tracing.Tracer({"cli": cli, "experiments": experiments}) as tracer:
        for model in MODELS:
            beta = 0.5 if model == "proportional" else None
            d = 3 if model in ("block_permutation", "general_regular") else 0
            build_pattern(SweepConfig(n=12, d=d, model=model, beta=beta), seed=1)
    builds = [s for s in tracer.spans if s["name"] == "patterns.build"]
    assert len(builds) == len(MODELS)
    assert all(s.get("method") for s in builds)
    assert experiments.block_permutation_pattern is original


class TestFeasibilitySweep:
    CFG = dict(n=60, d=6, kappa_grid=[0.5, 8.0], trials_per_point=8, master_seed=1)

    def test_fraction_ordering_and_columns(self):
        result = run_feasibility_sweep(SweepConfig(**self.CFG))
        assert [r["kappa"] for r in result.rows] == [0.5, 8.0]
        for row in result.rows:
            assert set(row) >= set(cli.SWEEP_COLUMNS)
            assert row["trials"] == 8
            assert row["feasible_count"] + row["diverged"] <= 8
        low, high = result.rows
        assert high["feasible_fraction"] > low["feasible_fraction"]
        assert high["feasible_fraction"] >= 0.75

    def test_diverged_counted_not_dropped(self):
        cfg = SweepConfig(n=60, d=6, kappa_grid=[0.2], trials_per_point=6, master_seed=3)
        row = run_feasibility_sweep(cfg).rows[0]
        assert row["diverged"] > 0
        assert row["trials"] == 6
        assert row["feasible_fraction"] == row["feasible_count"] / 6

    def test_bitwise_reproducible(self):
        a = run_feasibility_sweep(SweepConfig(**self.CFG))
        b = run_feasibility_sweep(SweepConfig(**self.CFG))
        assert a.rows == b.rows

    def test_worker_count_invariant(self):
        serial = run_feasibility_sweep(SweepConfig(**self.CFG), workers=1)
        parallel = run_feasibility_sweep(SweepConfig(**self.CFG), workers=2)
        assert serial.rows == parallel.rows

    def test_provenance(self):
        result = run_feasibility_sweep(SweepConfig(**self.CFG))
        assert result.provenance["config"]["n"] == 60
        assert "version" in result.provenance
        assert result.provenance["workers"] == 1

    def test_unconverged_solve_counted_diverged(self, monkeypatch):
        reports = []
        capped_solver(monkeypatch, reports)
        cfg = SweepConfig(n=60, d=6, kappa_grid=[8.0], trials_per_point=4, master_seed=6)
        row = run_feasibility_sweep(cfg).rows[0]
        assert len(reports) == 4 and not any(r.converged for r in reports)
        assert any(r.feasible for r in reports)  # would have been counted
        assert row["feasible_count"] == 0 and row["diverged"] == 4
        assert math.isnan(row["mean_min_x"])


@pytest.mark.parametrize("run", [
    lambda cfg: run_abundance_histogram(cfg, kappa=4.0),
    lambda cfg: run_feasibility_sweep(replace(cfg, kappa_grid=[4.0])),
], ids=["histogram", "sweep"])
def test_one_product_per_iteration(monkeypatch, run):
    # Neither trial reads residual_inf, so neither pays its extra product.
    # Products are counted at the compiled kernel, keyed by block size; the
    # solve binds it once and unscaled_product binds it per call.
    reports, products = [], {}
    solve = experiments.solve_feasibility

    def recorded(M, **kwargs):
        reports.append(solve(M, **kwargs))
        return reports[-1]

    def counted(*args, kernel=interaction.bsr_matvec):
        products[args[2]] = products.get(args[2], 0) + 1
        return kernel(*args)

    monkeypatch.setattr(interaction, "bsr_matvec", counted)
    monkeypatch.setattr(experiments, "solve_feasibility", recorded)
    run(SweepConfig(n=100, d=5, model="general_regular", fix_pattern=False,
                    trials_per_point=3, master_seed=1))
    assert len(reports) == 3
    assert products == {1: sum(r.solver_iterations for r in reports)}


def _checked_max_R(M):
    """Run ``_sweep_trial`` on M and check its ``max_R_normalized`` against
    max|R| of M's report, bit for bit; returns the report, or None for a
    solve that diverged or did not converge."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_matrix", lambda task: M)
        record = experiments._sweep_trial((0, 0))
    report = experiments._solve(M)
    if report is None:
        assert record is None
        return None
    expected = float(np.max(np.abs(report.R))) / (M.alpha * math.sqrt(2.0 * math.log(M.n)))
    assert record["max_R_normalized"] == expected
    assert (record["feasible"], record["min_x"]) == (report.feasible, report.min_x)
    return report


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_sweep_max_R_matches_report_R(M):
    assume(M.n >= 2)  # the normalization sqrt(2 log n) is 0 at n = 1
    _checked_max_R(M)


@pytest.mark.parametrize("block", [True, False], ids=["bsr", "csr"])
@pytest.mark.parametrize("alpha, feasible", [(1.5, False), (5.0, True)])
def test_sweep_max_R_on_both_kernels_and_signs(block, alpha, feasible):
    if block:
        pattern = block_permutation_pattern(20, 8, np.random.default_rng(0).permutation(20))
    else:
        pattern = general_regular_pattern(150, 6, rng_seed=0)
    M = assemble(pattern, alpha=alpha, seed=0)
    assert (M.pattern.block_index[0] == 8) == block
    assert _checked_max_R(M).feasible == feasible


class TestAbundanceHistogram:
    def test_moments_match_theory(self):
        cfg = SweepConfig(n=200, d=10, trials_per_point=10, master_seed=2)
        result = run_abundance_histogram(cfg, kappa=6.0)
        alpha = cfg.alpha(6.0)
        assert result.pooled == 200 * 10 - 200 * result.diverged
        assert result.counts.sum() == result.pooled
        assert result.mean == pytest.approx(1.0, abs=0.02)
        assert result.variance * alpha**2 == pytest.approx(1.0, abs=0.25)

    def test_worker_count_invariant(self):
        cfg = SweepConfig(n=100, d=10, trials_per_point=6, master_seed=4)
        a = run_abundance_histogram(cfg, kappa=5.0, workers=1)
        b = run_abundance_histogram(cfg, kappa=5.0, workers=2)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.mean == b.mean and a.variance == b.variance

    def test_unconverged_solve_not_pooled(self, monkeypatch):
        reports = []
        capped_solver(monkeypatch, reports)
        cfg = SweepConfig(n=60, d=6, trials_per_point=4, master_seed=6)
        result = run_abundance_histogram(cfg, kappa=8.0)
        assert len(reports) == 4 and not any(r.converged for r in reports)
        assert result.pooled == 0 and result.diverged == 4
        assert result.counts.sum() == 0

    def test_outside_counted(self):
        # At d=1, kappa=0.2 some solved abundances fall beyond 1 +- 8/alpha:
        # they are pooled into the moments but binned nowhere.
        cfg = SweepConfig(n=500, d=1, trials_per_point=20, master_seed=3)
        with pytest.warns(RuntimeWarning):
            result = run_abundance_histogram(cfg, kappa=0.2)
        assert (result.pooled, result.outside) == (9000, 66)
        assert result.counts.sum() + result.outside == result.pooled

    def test_warns_below_threshold(self):
        cfg = SweepConfig(n=100, d=10, trials_per_point=1)
        with pytest.warns(RuntimeWarning):
            run_abundance_histogram(cfg, kappa=1.0)

    def test_rejects_bad_kappa(self):
        cfg = SweepConfig(n=100, d=10)
        with pytest.raises(ConfigError):
            run_abundance_histogram(cfg, kappa=0.0)


class TestDynamicsTrace:
    def test_trace_shapes_and_convergence(self):
        cfg = SweepConfig(n=60, d=6, master_seed=5, t_end=60.0)
        trace = run_dynamics_trace(cfg, kappa=8.0)
        assert trace.record.states.shape == (10, 201)
        assert len(trace.record.times) == 201
        assert len(set(trace.species_indices.tolist())) == 10
        # feasible regime: trajectory closes in on the linear equilibrium
        assert trace.record.distance_series is not None
        assert trace.record.distance_series[-1] < 1e-6

    def test_unconverged_solve_gives_no_reference(self, monkeypatch):
        reports = []
        capped_solver(monkeypatch, reports)
        cfg = SweepConfig(n=60, d=6, master_seed=6, t_end=5.0)
        trace = run_dynamics_trace(cfg, kappa=8.0)
        assert len(trace.record.times) == 201
        assert len(reports) == 1 and not reports[0].converged
        assert reports[0].feasible  # would have been the reference
        assert trace.record.distance_series is None


class TestSpectrumCheck:
    def test_stable_spectra_at_high_kappa(self):
        cfg = SweepConfig(n=60, d=6, trials_per_point=4, master_seed=6)
        result = run_spectrum_check(cfg, kappa=8.0)
        assert result.skipped + len(result.rows) == 4
        assert len(result.rows) >= 3
        for row in result.rows:
            assert row["max_real_part"] < 0.0
        assert result.mean_max_real_part < 0.0

    def test_unconverged_solve_skipped(self, monkeypatch):
        reports = []
        capped_solver(monkeypatch, reports)
        cfg = SweepConfig(n=60, d=6, trials_per_point=4, master_seed=6)
        result = run_spectrum_check(cfg, kappa=8.0)
        assert len(reports) == 4
        assert not any(r.converged for r in reports)
        assert any(r.feasible for r in reports)  # would have been kept
        assert result.rows == [] and result.skipped == 4

    def test_worker_count_invariant(self):
        # one general_regular block of 200: the eigensolve BLAS could thread
        cfg = SweepConfig(n=200, d=6, model="general_regular", trials_per_point=3,
                          master_seed=6)
        serial = run_spectrum_check(cfg, kappa=8.0, workers=1)
        pooled = run_spectrum_check(cfg, kappa=8.0, workers=2)
        assert len(serial.rows) == 3
        assert json.dumps(serial.rows) == json.dumps(pooled.rows)
        assert (serial.provenance["workers"], pooled.provenance["workers"]) == (1, 2)


class TestPerTrialPattern:
    """fix_pattern=False, the path of the hist_general benchmark: every
    trial draws its own general d-regular pattern."""

    CFG = dict(n=120, d=6, model="general_regular", fix_pattern=False,
               kappa_grid=[1.5, 8.0], trials_per_point=4, master_seed=7)

    def test_worker_count_invariant(self):
        cfg = SweepConfig(**self.CFG)
        sweeps = [run_feasibility_sweep(cfg, workers=w) for w in (1, 2)]
        assert repr(sweeps[0].rows) == repr(sweeps[1].rows)
        hists = [run_abundance_histogram(cfg, kappa=8.0, workers=w) for w in (1, 2)]
        assert hists[0].counts.tobytes() == hists[1].counts.tobytes()
        assert repr((hists[0].mean, hists[0].variance)) == repr((hists[1].mean, hists[1].variance))

    def test_trial_t_builds_from_its_pattern_seed(self, monkeypatch):
        built = []

        def recording(cfg, seed):
            built.append((seed, build_pattern(cfg, seed)))
            return built[-1][1]

        monkeypatch.setattr(experiments, "build_pattern", recording)
        result = run_abundance_histogram(SweepConfig(**self.CFG), kappa=8.0)
        assert result.pooled == 4 * 120
        assert [seed for seed, _ in built] == [pattern_seed(7, t) for t in range(4)]
        rows = {pattern.row_cols.tobytes() for _, pattern in built}
        assert len(rows) == 4


# Trial functions for run_trials; module level, so a pool can pickle them.
def _pid_and_threads(task):
    time.sleep(0.2)  # long enough that a second worker takes a task
    return os.getpid(), experiments.blas_threads()


def _raise(task):
    raise ValueError(f"trial {task} failed")


def _fixed_pattern_size(task):
    return experiments._pattern(task).n


@pytest.fixture
def forked_pids(tmp_path):
    """The file in which every process forked during the test writes its pid."""
    log, listening = tmp_path / "forked", [True]

    def note():
        if listening:
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")

    os.register_at_fork(after_in_child=note)  # a hook cannot be unregistered, only muted
    yield log
    listening.clear()


@pytest.fixture
def caller_threads():
    """Every loaded OpenBLAS set to 3 threads, restored afterwards."""
    libs = experiments._openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    saved = experiments.blas_threads()
    for _, set_, _ in libs.values():
        set_(3)
    yield {name: 3 for name in libs}
    for name, (_, set_, _) in libs.items():
        set_(saved[name])


class TestRunTrials:
    CFG = SweepConfig(n=4, d=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, workers, caller_threads):
        results, record = run_trials(self.CFG, range(3), _pid_and_threads, workers)
        ones = {name: 1 for name in caller_threads}
        assert [threads for _, threads in results] == [ones] * 3
        wall_time = record.pop("wall_time_s")
        assert isinstance(wall_time, float) and wall_time >= 0.0
        assert record == {
            "config": self.CFG.echo(), "workers": workers, "blas_threads": ones,
            "blas_cores": {name: core for name, (_, _, core) in experiments._openblas().items()},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "version": sparselv.__version__,
        }
        assert experiments.blas_threads() == caller_threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_restored_after_raise(self, workers, caller_threads):
        with pytest.raises(ValueError, match="trial 0 failed"):
            run_trials(self.CFG, range(3), _raise, workers)
        assert experiments.blas_threads() == caller_threads

    def test_dynamics_trace_runs_on_one_blas_thread(self, monkeypatch, caller_threads):
        seen = []
        integrate = experiments.integrate_lv

        def recording(*args, **kwargs):
            seen.append(experiments.blas_threads())
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiments, "integrate_lv", recording)
        trace = run_dynamics_trace(SweepConfig(n=60, d=6, t_end=5.0), kappa=8.0)
        ones = {name: 1 for name in caller_threads}
        assert seen == [ones]
        assert trace.provenance["blas_threads"] == ones
        assert experiments.blas_threads() == caller_threads

    def test_three_tasks_spread_over_two_workers(self):
        results, _ = run_trials(self.CFG, range(3), _pid_and_threads, workers=2)
        pids = {pid for pid, _ in results}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_pool_no_larger_than_its_tasks(self, forked_pids):
        # A fork pool starts every worker at once.
        results, record = run_trials(self.CFG, range(2), _pid_and_threads, workers=4)
        assert record["workers"] == 2
        assert len(set(forked_pids.read_text().split())) == 2
        assert len({pid for pid, _ in results}) <= 2

    def test_pooled_run_builds_its_set_up_once_in_the_caller(self, tmp_path, monkeypatch):
        # The workers inherit _CTX through fork and build nothing.  _init
        # makes two seed passes: the run's tables and the fixed pattern's seed.
        # Each call builds its own, as the last one's is gone when it returns.
        log = tmp_path / "calls"

        def logged(name, fn):
            def call(*args):
                with open(log, "a") as f:
                    f.write(f"{name} {os.getpid()}\n")
                return fn(*args)
            return call

        for name in ("build_pattern", "_seed_table"):
            monkeypatch.setattr(experiments, name, logged(name, getattr(experiments, name)))
        cfg = SweepConfig(n=60, d=6, kappa_grid=[2.0, 4.0], trials_per_point=3)
        for _ in range(2):
            log.unlink(missing_ok=True)
            result = run_feasibility_sweep(cfg, workers=2)
            assert result.provenance["workers"] == 2
            me = os.getpid()
            assert sorted(log.read_text().splitlines()) == [
                f"_seed_table {me}", f"_seed_table {me}", f"build_pattern {me}"]

    def test_pooled_set_up_failure_raises_its_own_error(self, monkeypatch):
        # The set-up is built in the caller, so its failure surfaces as
        # itself, not as a BrokenProcessPool of workers that failed to start.
        def failing(cfg, seed):
            raise MemoryError("no room for the pattern")

        monkeypatch.setattr(experiments, "build_pattern", failing)
        with pytest.raises(MemoryError, match="no room for the pattern"):
            run_feasibility_sweep(SweepConfig(n=60, d=6, trials_per_point=4), workers=2)
        assert experiments._CTX == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ctx_emptied_on_return_and_raise(self, workers):
        # The caller keeps no run's pattern or tables after the call.
        results, _ = run_trials(self.CFG, range(3), _fixed_pattern_size, workers)
        assert results == [self.CFG.n] * 3 and experiments._CTX == {}
        with pytest.raises(ValueError, match="trial 0 failed"):
            run_trials(self.CFG, range(3), _raise, workers)
        assert experiments._CTX == {}

    def test_one_task_runs_in_one_worker(self):
        # Pooled, so the trial's memory stays out of the caller.
        results, record = run_trials(self.CFG, [0], _pid_and_threads, workers=3)
        assert record["workers"] == 1
        assert results[0][0] != os.getpid()


# Run as a script: sets the global start method to spawn, gives the caller
# three BLAS threads, and prints what each pooled trial saw.
SPAWN_SCRIPT = """
import json, multiprocessing
from sparselv import experiments

def probe(task):
    return experiments.blas_threads()

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn", force=True)
    libs = experiments._openblas()
    for _, set_, _ in libs.values():
        set_(3)
    cfg = experiments.SweepConfig(n=4, d=2)
    results, _ = experiments.run_trials(cfg, range(4), probe, workers=2)
    print(json.dumps({"libs": sorted(libs), "results": results}))
"""


def _script_output(tmp_path, text, *args, blas_threads):
    """The JSON that ``text``, run as a script in a fresh interpreter with
    ``args`` and OPENBLAS_NUM_THREADS=``blas_threads``, prints."""
    script = tmp_path / "script.py"
    script.write_text(text)
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    out = subprocess.run([sys.executable, str(script), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_pool_forks_whatever_the_default_start_method(tmp_path):
    # A spawned or forkserver worker would not inherit the pin and would
    # start its OpenBLAS with OPENBLAS_NUM_THREADS threads.
    report = _script_output(tmp_path, SPAWN_SCRIPT, blas_threads=3)
    if not report["libs"]:
        pytest.skip("no OpenBLAS loaded")
    assert report["results"] == [{name: 1 for name in report["libs"]}] * 4


# Run as a script with the probe path as argv[1]: maps a copy of numpy's
# bundled OpenBLAS, deletes the file, then runs a sweep and prints the
# threads each library ran on (null without a bundled OpenBLAS).
DELETED_LIBRARY_SCRIPT = """
import ctypes, glob, json, os, shutil, sys
import numpy
from sparselv import experiments

bundled = sorted(glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"))
if not bundled:
    print(json.dumps(None))
    sys.exit()
shutil.copy(bundled[0], sys.argv[1])
ctypes.CDLL(sys.argv[1])
os.remove(sys.argv[1])
cfg = experiments.SweepConfig(n=12, d=3, kappa_grid=[4.0], trials_per_point=2)
print(json.dumps(experiments.run_feasibility_sweep(cfg).provenance["blas_threads"]))
"""


# Run as a script: a pooled run_trials on per-trial patterns, whose set-up
# builds no pattern, with each forked worker noting whether numpy.random was
# loaded when it started.
NUMPY_RANDOM_SCRIPT = """
import json, os, sys
from sparselv import experiments

loaded = {}

def noted():
    loaded["at_fork"] = "numpy.random" in sys.modules

def probe(task):
    return loaded["at_fork"]

if __name__ == "__main__":
    os.register_at_fork(after_in_child=noted)
    before = "numpy.random" in sys.modules
    cfg = experiments.SweepConfig(n=40, d=4, fix_pattern=False)
    results, _ = experiments.run_trials(cfg, range(3), probe, workers=2)
    print(json.dumps({"before": before, "after": "numpy.random" in sys.modules,
                      "workers": results}))
"""


def test_pooled_call_loads_numpy_random_before_the_fork(tmp_path):
    # numpy loads numpy.random on first use; each worker's seeds need it,
    # so the caller loads it once and the workers inherit it.
    report = _script_output(tmp_path, NUMPY_RANDOM_SCRIPT, blas_threads=1)
    assert report == {"before": False, "after": True, "workers": [True] * 3}


def test_pin_covers_a_deleted_library_file(tmp_path):
    # /proc/self/maps lists an unlinked file as "<path> (deleted)", as after
    # an upgrade under a running interpreter; the pin must still load it.
    threads = _script_output(tmp_path, DELETED_LIBRARY_SCRIPT,
                             str(tmp_path / "libopenblas_probe.so"), blas_threads=1)
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    assert threads["libopenblas_probe.so"] == 1
    assert set(threads.values()) == {1}


# Run as a script with "sweep" or "spectrum" as argv[1]: runs that driver on
# two workers and prints the file names of scipy's bundled OpenBLAS, the
# spectrum modules loaded before and after the driver, its sidecar's BLAS
# threads, and what the pooled trials saw: after a sweep, the threads of
# trials that import scipy.linalg after the fork; in a spectrum check, the
# spectrum modules each worker had loaded after its trial, and its threads.
FOOTPRINT_SCRIPT = """
import glob, json, os, sys
from sparselv import experiments

def loaded():
    return [m for m in ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg",
                        "scipy.sparse.csgraph") if m in sys.modules]

def linalg_trial(task):
    import scipy.linalg
    return experiments.blas_threads()

spectrum_trial = experiments._spectrum_trial

def probed_spectrum_trial(trial):
    row = spectrum_trial(trial)
    return row and {**row, "loaded": loaded(), "threads": experiments.blas_threads()}

if __name__ == "__main__":
    cfg = experiments.SweepConfig(n=60, d=6, kappa_grid=[2.0, 4.0], trials_per_point=4)
    bundled = glob.glob(os.path.join(experiments._SCIPY_LIBS, "*openblas*"))
    report = {"bundled": sorted(os.path.basename(p) for p in bundled), "before": loaded()}
    if sys.argv[1] == "sweep":
        record = experiments.run_feasibility_sweep(cfg, workers=2).provenance
        report["after"] = loaded()
        report["trials"], _ = experiments.run_trials(cfg, range(2), linalg_trial, workers=2)
    else:
        experiments._spectrum_trial = probed_spectrum_trial
        result = experiments.run_spectrum_check(cfg, 8.0, workers=2)
        record = result.provenance
        report["after"] = loaded()
        report["trials"] = [{k: row[k] for k in ("loaded", "threads")} for row in result.rows]
    report["threads"] = record["blas_threads"]
    print(json.dumps(report))
"""


def test_sweep_leaves_scipy_linalg_unloaded_and_pins_its_openblas(tmp_path):
    # The pin loads scipy's OpenBLAS itself, so a trial that imports
    # scipy.linalg after the fork finds it at one thread, not at three.
    report = _script_output(tmp_path, FOOTPRINT_SCRIPT, "sweep", blas_threads=3)
    if not report["bundled"]:
        pytest.skip("scipy bundles no OpenBLAS")
    assert report["before"] == report["after"] == []
    assert set(report["bundled"]) <= set(report["threads"])
    assert set(report["threads"].values()) == {1}
    assert report["trials"] == [report["threads"]] * 2


def test_spectrum_check_loads_no_spectrum_module(tmp_path):
    # The split is the pattern's own and dgeev comes from the _flapack
    # extension, loaded by file in each worker; the pin has already loaded
    # the OpenBLAS that _flapack links, so the solve runs on one thread.
    report = _script_output(tmp_path, FOOTPRINT_SCRIPT, "spectrum", blas_threads=3)
    assert report["before"] == report["after"] == []
    assert report["trials"] and all(seen["loaded"] == [] for seen in report["trials"])
    if not report["threads"]:
        pytest.skip("no OpenBLAS loaded")
    assert set(report["bundled"]) <= set(report["threads"])
    assert set(report["threads"].values()) == {1}
    assert all(seen["threads"] == report["threads"] for seen in report["trials"])


# Run as a script with a scipy.libs stand-in as argv[1]: prints the OpenBLAS
# files mapped before the first pin, those the pin found, the threads a
# two-worker sweep saw, and the files mapped after it.
NO_BUNDLED_OPENBLAS_SCRIPT = """
import json, os, sys
from sparselv import experiments

def mapped():
    with open("/proc/self/maps") as f:
        return sorted({os.path.basename(line.split(maxsplit=5)[-1].strip()) for line in f
                       if "openblas" in line})

experiments._SCIPY_LIBS = sys.argv[1]
before = mapped()
found = sorted(experiments._openblas())
cfg = experiments.SweepConfig(n=60, d=6, kappa_grid=[2.0, 4.0], trials_per_point=2)
threads = experiments.run_feasibility_sweep(cfg, workers=2).provenance["blas_threads"]
print(json.dumps({"before": before, "found": found, "threads": threads, "after": mapped()}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
@pytest.mark.parametrize("libs_dir", ["empty", "missing"])
def test_pin_loads_nothing_where_scipy_bundles_no_openblas(libs_dir, tmp_path):
    # In a fresh interpreter, so that no earlier pin has found the libraries.
    (tmp_path / "empty").mkdir()
    report = _script_output(tmp_path, NO_BUNDLED_OPENBLAS_SCRIPT, str(tmp_path / libs_dir),
                            blas_threads=1)
    assert report["found"] == report["before"] == report["after"]
    assert report["threads"] == {name: 1 for name in report["before"]}


# Run as a script: counts the opens of /proc/self/maps over two run_trials
# calls, and prints whether _openblas() gave the same dict after each.
OPENBLAS_ONCE_SCRIPT = """
import builtins, json
from sparselv import experiments

reads = []

def counted(file, *args, **kwargs):
    if file == "/proc/self/maps":
        reads.append(file)
    return builtins.open(file, *args, **kwargs)

def probe(task):
    return task

experiments.open = counted
cfg = experiments.SweepConfig(n=4, d=2)
experiments.run_trials(cfg, [0], probe)
first = experiments._openblas()
experiments.run_trials(cfg, [0], probe)
print(json.dumps({"reads": len(reads), "same": experiments._openblas() is first}))
"""


def test_openblas_found_once_per_process(tmp_path):
    report = _script_output(tmp_path, OPENBLAS_ONCE_SCRIPT, blas_threads=1)
    assert report == {"reads": 1, "same": True}


def test_sweep_and_histogram_trials_build_no_csr_matrix(monkeypatch, tmp_path):
    # Neumann solves and the dynamics call the compiled kernel on the
    # pattern's index arrays, and dense matrices are filled from row_cols; a
    # CSR or BSR matrix is built only for ARPACK's norms and certificates.
    for matrix in (sp.csr_matrix, sp.bsr_matrix):
        def refuse(self, *args, name=matrix.__name__, **kwargs):
            raise AssertionError(f"a trial built a {name}")

        monkeypatch.setattr(matrix, "__init__", refuse)
        with pytest.raises(AssertionError, match=f"built a {matrix.__name__}"):
            matrix(np.eye(2))
    cfg = SweepConfig(n=60, d=6, kappa_grid=[1.0, 4.0], trials_per_point=2)
    tasks = [(0, 0), (1, 1)]
    sweep, _ = run_trials(cfg, tasks, experiments._sweep_trial)
    assert all(r is not None for r in sweep)
    edges = np.linspace(0.0, 2.0, 11)
    hist, _ = run_trials(replace(cfg, fix_pattern=False), [0, 1],
                         functools.partial(experiments._hist_trial, edges=edges))
    assert all(r is not None for r in hist)
    assert min(run_singular_gap_trials(n=30, d=4, trials=2, master_seed=7)) > 0.0
    assert cli.main(["solve", "--n", "60", "--d", "6", "--kappa", "8.0",
                     "--out", str(tmp_path / "solve.csv")]) == 0
    assert run_dynamics_trace(replace(cfg, t_end=5.0), 4.0).record.times[-1] == 5.0
    (M,), _ = run_trials(cfg, [(0, 0)], experiments._matrix)  # at kappa = 1
    for method in ("pivoting", "ode_limit"):
        assert saturated_equilibrium(M, method=method).x.min() >= 0.0


def test_trials_on_a_fixed_pattern_share_index_arrays():
    cfg = SweepConfig(n=60, d=6, kappa_grid=[2.0, 4.0], trials_per_point=2)
    (a, b), _ = run_trials(cfg, [(0, 0), (1, 1)], experiments._matrix)
    assert a.weights.tobytes() != b.weights.tobytes()
    bsr_a, bsr_b = a._unscaled_bsr(), b._unscaled_bsr()
    assert bsr_a.indptr is bsr_b.indptr
    assert np.shares_memory(bsr_a.indices, bsr_b.indices)
    assert a.pattern.block_index is b.pattern.block_index


def test_singular_gap_trials():
    gaps = run_singular_gap_trials(n=30, d=4, trials=20, master_seed=7)
    assert len(gaps) == 20
    assert min(gaps) > 0.0
