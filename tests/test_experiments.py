import importlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sparselv import ConfigError, PatternModel, SweepConfig, cli, experiments
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


@pytest.fixture
def caller_threads():
    """Every loaded OpenBLAS set to 3 threads, restored afterwards."""
    libs = experiments._openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    saved = experiments.blas_threads()
    for _, set_ in libs.values():
        set_(3)
    yield {name: 3 for name in libs}
    for name, (_, set_) in libs.items():
        set_(saved[name])


class TestRunTrials:
    CFG = SweepConfig(n=4, d=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, workers, caller_threads):
        results, env = run_trials(self.CFG, range(3), _pid_and_threads, workers)
        ones = {name: 1 for name in caller_threads}
        assert [threads for _, threads in results] == [ones] * 3
        assert env == {"workers": workers, "blas_threads": ones}
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

    def test_pool_no_larger_than_its_tasks(self, tmp_path, monkeypatch):
        # A fork pool starts every worker at once; each one runs _init.
        started = tmp_path / "started"
        init = experiments._init

        def logged(cfg, extra):
            with open(started, "a") as f:
                f.write(f"{os.getpid()}\n")
            init(cfg, extra)

        monkeypatch.setattr(experiments, "_init", logged)
        results, env = run_trials(self.CFG, range(2), _pid_and_threads, workers=4)
        assert env["workers"] == 2
        assert len(set(started.read_text().split())) == 2
        assert len({pid for pid, _ in results}) <= 2

    def test_one_task_runs_in_one_worker(self):
        # Pooled, so the trial's memory stays out of the caller.
        results, env = run_trials(self.CFG, [0], _pid_and_threads, workers=3)
        assert env["workers"] == 1
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
    for _, set_ in libs.values():
        set_(3)
    cfg = experiments.SweepConfig(n=4, d=2)
    results, _ = experiments.run_trials(cfg, range(4), probe, workers=2)
    print(json.dumps({"libs": sorted(libs), "results": results}))
"""


def test_pool_forks_whatever_the_default_start_method(tmp_path):
    # A spawned or forkserver worker would not inherit the pin and would
    # start its OpenBLAS with OPENBLAS_NUM_THREADS threads.
    script = tmp_path / "spawn_default.py"
    script.write_text(SPAWN_SCRIPT)
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "3"}
    out = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
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


def test_pin_covers_a_deleted_library_file(tmp_path):
    # /proc/self/maps lists an unlinked file as "<path> (deleted)", as after
    # an upgrade under a running interpreter; the pin must still load it.
    script = tmp_path / "deleted_library.py"
    script.write_text(DELETED_LIBRARY_SCRIPT)
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "libopenblas_probe.so")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    threads = json.loads(out.stdout)
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    assert threads["libopenblas_probe.so"] == 1
    assert set(threads.values()) == {1}


def test_sweep_and_histogram_trials_build_no_csr_matrix(monkeypatch):
    # Their Neumann solves call the compiled kernel on the pattern's index
    # arrays; a CSR matrix is built only for spectra and dense expansion.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a trial built a csr_matrix")

    monkeypatch.setattr(sp.csr_matrix, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a csr_matrix"):
        sp.csr_matrix(np.eye(2))
    cfg = SweepConfig(n=60, d=6, kappa_grid=[1.0, 4.0], trials_per_point=2)
    tasks = [(0, 0), (1, 1)]
    sweep, _ = run_trials(cfg, tasks, experiments._sweep_trial)
    assert all(r is not None for r in sweep)
    edges = np.linspace(0.0, 2.0, 11)
    hist, _ = run_trials(replace(cfg, fix_pattern=False), [0, 1], experiments._hist_trial,
                         edges=edges)
    assert all(r is not None for r in hist)


def test_trials_on_a_fixed_pattern_share_index_arrays():
    cfg = SweepConfig(n=60, d=6, kappa_grid=[2.0, 4.0], trials_per_point=2)
    (a, b), _ = run_trials(cfg, [(0, 0), (1, 1)], experiments._matrix)
    assert a.weights.tobytes() != b.weights.tobytes()
    csr_a, csr_b = a._unscaled_csr(), b._unscaled_csr()
    assert csr_a.indptr is csr_b.indptr
    assert np.shares_memory(csr_a.indices, csr_b.indices)
    assert a.pattern.csr_index is b.pattern.csr_index


def test_singular_gap_trials():
    gaps = run_singular_gap_trials(n=30, d=4, trials=20, master_seed=7)
    assert len(gaps) == 20
    assert min(gaps) > 0.0
