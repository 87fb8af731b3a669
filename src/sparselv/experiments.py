"""Seeded Monte Carlo experiment driver.

Every trial seed is a pure function of (master_seed, kappa index, trial
index), so runs are fully deterministic given the config, independent of
worker count and scheduling.  ``trial_seed`` and ``pattern_seed`` define
the seeds through ``numpy.random.SeedSequence``; a run does not call them,
but computes all of its seeds at once in ``_init``, with ``_seed_table``,
numpy's hash on arrays, to the same bits.  Aggregation reduces per-trial
records in sorted (kappa, trial) order, which makes floating-point sums
reproducible across 1 and W workers.

Every driver runs its trials through one engine,
``run_trials(cfg, tasks, trial_fn, workers=1)``.  It calls the
module-level ``trial_fn(task)`` once per task, in-process when
``workers == 1`` and otherwise in a pool of at most one process per task
(which keeps the trials' memory out of the caller, even for one task), and
returns the results in task order.  Tasks go to the pool in chunks of up
to 8, small enough that every worker gets some.  Before the first trial
the caller stores ``cfg``, the fixed pattern (if ``cfg.fix_pattern``) and
the run's seed tables in ``_CTX``, emptied when the call returns or
raises; other constants, such as the histogram's bin edges, are bound to
``trial_fn`` with ``functools.partial``.  ``_pattern(task)`` returns that
cached pattern, or else trial ``task = (kappa_index, trial)``'s own, and
``_matrix(task)`` draws on it the seeded matrix at the alpha of
``cfg.kappa_grid[kappa_index]``, each reading its seed from the tables,
so a task's trial must lie in ``range(cfg.trials_per_point)``; the
single-kappa drivers run on the grid ``[kappa]``, which their sidecars
echo.  ``pattern`` runs ``_pattern``, and ``solve`` a trial that draws with
``_matrix`` and solves, as the one task ``(0, 0)``; the dynamics trace is
a one-task call too.  No subcommand builds, draws or solves outside a trial.

``run_trials`` pins the bundled OpenBLAS libraries to one thread for its
whole body (see ``one_blas_thread``), so every trial, and every eigensolve
in it, runs on one BLAS thread whatever the worker count.  The pin is set
in the caller before the pool forks, and the workers inherit it with ``_CTX``.
That holds only under the ``fork`` start method, so the pool asks for it
explicitly rather than taking the default (``forkserver`` on Linux from
Python 3.14).  The pin first loads scipy's bundled OpenBLAS, which only
``scipy.linalg`` or LAPACK's ``_flapack`` extension would load otherwise,
so a trial that loads either after the fork (a Jacobian spectrum loads
``_flapack`` on its first call) finds it already pinned.  The libraries
are found once per process, at the first pin (see ``_openblas``).  Only
the pooled branch imports ``multiprocessing`` and ``concurrent.futures``,
and it loads ``numpy.random`` before the fork, for the workers to
inherit; none of them is loaded at import, which they would slow.

``run_trials`` returns the results with the run's sidecar record:
``config`` (``cfg.echo()``), ``workers``, ``blas_threads`` (per library, as
the trials saw them), ``blas_cores`` (per library, the core whose kernels
fix the bits of LAPACK's outputs), the ``python``, ``numpy``, ``scipy`` and
package ``version`` and ``wall_time_s``, the wall time of the engine call.
The ``scipy`` version is read from scipy's ``version.py`` by path, so a run
imports the ``scipy`` package only if it calls an ARPACK helper.
Drivers return it as their ``provenance``; the histogram adds its ``bins``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import platform
import runpy
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

from . import __version__
from .patterns import (
    MODELS,
    AdjacencyPattern,
    block_permutation_pattern,
    full_pattern,
    general_regular_pattern,
    proportional_pattern,
)
# spectral_norm is unused here; perfbench/tracing.py wraps it by this name.
from .interaction import InteractionMatrix, assemble, singular_gap, spectral_norm  # noqa: F401
from .interaction import _SCIPY_DIR
from .equilibrium import DivergenceError, solve_feasibility
from .dynamics import TrajectoryRecord, integrate_lv, jacobian_spectrum

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepResult",
    "HistogramResult",
    "DynamicsTrace",
    "SpectrumSweepResult",
    "run_feasibility_sweep",
    "run_abundance_histogram",
    "run_dynamics_trace",
    "run_spectrum_check",
    "run_singular_gap_trials",
    "trial_seed",
    "pattern_seed",
    "build_pattern",
    "run_trials",
    "blas_threads",
    "one_blas_thread",
    "MODELS",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class SweepConfig:
    n: int
    d: int = 0
    model: str = "block_permutation"
    beta: float | None = None  # proportional model only; sets d
    kappa_grid: list[float] = field(default_factory=lambda: [2.0])
    trials_per_point: int = 1
    master_seed: int = 0
    fix_pattern: bool = True
    t_end: float = 50.0

    def __post_init__(self):
        # Types first: YAML reads n: 100.0 or fix_pattern: 'no' without complaint.
        # bool is an Integral, so it is refused where a number is meant.
        typed = [(name, getattr(self, name), Integral)
                 for name in ("n", "d", "trials_per_point", "master_seed")]
        typed += [("t_end", self.t_end, Real), ("fix_pattern", self.fix_pattern, bool)]
        if not isinstance(self.kappa_grid, (list, tuple)):
            raise ConfigError(f"kappa_grid must be a list of numbers, got {self.kappa_grid!r}")
        typed += [("kappa_grid entry", k, Real) for k in self.kappa_grid]
        if self.beta is not None:
            typed.append(("beta", self.beta, Real))
        for name, value, kind in typed:
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                what = {Integral: "an integer", Real: "a number", bool: "true or false"}[kind]
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.beta is not None and self.model != "proportional":
            raise ConfigError(f"beta applies to the proportional model only, not {self.model!r}")
        if self.model == "proportional":
            if self.beta is None:
                raise ConfigError("proportional model requires beta")
            if not (0.0 < self.beta <= 1.0):
                raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
        if self.model in ("full", "proportional"):
            derived = self.n if self.model == "full" else max(1, round(self.beta * self.n))
            if self.d not in (0, derived):
                raise ConfigError(f"the {self.model} model sets d={derived}; got d={self.d}")
            self.d = derived
        if not (1 <= self.d <= self.n):
            raise ConfigError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        if self.model == "block_permutation" and self.n % self.d != 0:
            raise ConfigError(
                f"block-permutation model needs d | n, got n={self.n}, d={self.d}"
            )
        if not self.kappa_grid:
            raise ConfigError("kappa_grid must be non-empty")
        if not all(0 < k < math.inf for k in self.kappa_grid):
            raise ConfigError(f"kappa must be positive and finite, got {self.kappa_grid}")
        if len(set(self.kappa_grid)) < len(self.kappa_grid):
            raise ConfigError(f"kappa_grid repeats a value: {self.kappa_grid}")
        if not 0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if self.trials_per_point < 1:
            raise ConfigError(
                f"trials_per_point must be >= 1, got {self.trials_per_point}"
            )
        self.kappa_grid = sorted(float(k) for k in self.kappa_grid)

    def alpha(self, kappa: float) -> float:
        """Interaction strength alpha = sqrt(kappa * log n)."""
        if not 0 < kappa < math.inf:
            raise ConfigError(f"kappa must be positive and finite, got {kappa}")
        if self.n < 2:
            raise ConfigError("alpha parameterization needs n >= 2")
        return math.sqrt(kappa * math.log(self.n))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SweepConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            # YAML keys need not be strings (1: 2), and mixed types do not sort.
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
        try:
            return cls(**mapping)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        return asdict(self)


def trial_seed(master_seed: int, kappa_index: int, trial: int) -> int:
    """Deterministic per-trial seed, independent of execution order."""
    ss = np.random.SeedSequence([int(master_seed), int(kappa_index), int(trial)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def pattern_seed(master_seed: int, trial: int | None = None) -> int:
    entropy = [int(master_seed), 0x5EED]
    if trial is not None:
        entropy.append(int(trial))
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def build_pattern(cfg: SweepConfig, seed: int) -> AdjacencyPattern:
    if cfg.model == "block_permutation":
        m = cfg.n // cfg.d
        return block_permutation_pattern(m, cfg.d, np.random.default_rng(seed).permutation(m))
    if cfg.model == "general_regular":
        return general_regular_pattern(cfg.n, cfg.d, seed)
    if cfg.model == "proportional":
        return proportional_pattern(cfg.n, cfg.beta, seed)
    return full_pattern(cfg.n)


# ---------------------------------------------------------------------------
# Trial engine
# ---------------------------------------------------------------------------

# The running call's set-up, built by _init in the caller; forked workers inherit it.
_CTX: dict = {}


_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """numpy's ``SeedSequence`` hashmix on uint32 arrays: each call xors in
    the running constant, steps it by ``mult`` and multiplies by it."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _seed_table(*entropy) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(1, np.uint64)[0]`` for every
    element of the broadcast ``entropy``, in one numpy pass.  An entry is a
    non-negative int, which enters as its 32-bit words, low first, or an
    integer array of values below 2**32, one word each.  This is numpy's
    hash with each word an array: a pool of 4 words (zeros where the
    entropy is shorter), words past the pool mixed in after it, and two
    output words joined low first.  ``tests/test_experiments.py`` checks it
    against ``trial_seed`` and ``pattern_seed``."""
    words = []
    for e in entropy:
        if isinstance(e, np.ndarray):
            words.append(e.astype(np.uint32))
        else:
            e = int(e)
            words += [np.uint32(e >> s & _MASK32) for s in range(0, max(e.bit_length(), 1), 32)]
    # At least 1-d: uint32 arithmetic on numpy scalars warns when it wraps.
    shape = np.broadcast_shapes(*map(np.shape, words), (1,))
    words = [np.broadcast_to(w, shape) for w in words + [np.uint32(0)] * (4 - len(words))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    low, high = (output(value).astype(np.uint64) for value in pool[:2])
    return low | high << np.uint64(32)


def _init(cfg: SweepConfig) -> None:
    """Store ``cfg``, the fixed pattern (if ``cfg.fix_pattern``) and the
    run's seed tables in ``_CTX``: ``seeds[kappa_index, trial]`` is
    ``trial_seed(cfg.master_seed, kappa_index, trial)`` and
    ``pattern_seeds[trial]`` is ``pattern_seed(cfg.master_seed, trial)``,
    for every trial in ``range(cfg.trials_per_point)``.  Both come from one
    ``_seed_table`` pass, the pattern seeds its last row."""
    rows = np.append(np.arange(len(cfg.kappa_grid)), 0x5EED)
    seeds = _seed_table(cfg.master_seed, rows[:, None], np.arange(cfg.trials_per_point))
    fixed = None
    if cfg.fix_pattern:
        fixed = build_pattern(cfg, int(_seed_table(cfg.master_seed, 0x5EED)[0]))
    _CTX.update(cfg=cfg, pattern=fixed, seeds=seeds[:-1], pattern_seeds=seeds[-1])


def _pattern(task: tuple[int, int]) -> AdjacencyPattern:
    """The cached fixed pattern, or the own pattern of trial ``task[1]``."""
    fixed, seeds = _CTX["pattern"], _CTX["pattern_seeds"]
    return build_pattern(_CTX["cfg"], int(seeds[task[1]])) if fixed is None else fixed


def _matrix(task: tuple[int, int]) -> InteractionMatrix:
    """Seeded interaction matrix of trial ``task = (kappa_index, trial)``,
    at the alpha of its grid kappa, on ``_pattern(task)``."""
    kappa_index, trial = task
    cfg: SweepConfig = _CTX["cfg"]
    alpha = cfg.alpha(cfg.kappa_grid[kappa_index])
    return assemble(_pattern(task), alpha, int(_CTX["seeds"][kappa_index, trial]))


# A scipy wheel bundles its OpenBLAS here; other builds have no such directory.
_SCIPY_LIBS = _SCIPY_DIR + ".libs"


@functools.cache
def _scipy_version() -> str:
    """``scipy.__version__``, read once per process from its source, scipy's
    ``version.py``, run by path without importing ``scipy``."""
    return runpy.run_path(os.path.join(_SCIPY_DIR, "version.py"))["version"]


@functools.cache
def _openblas() -> dict[str, tuple]:
    """``{library file name: (get, set, core)}``, the thread-count functions
    and core name (``SkylakeX``, ``Haswell``, ...) of every OpenBLAS mapped
    into this process, found in ``/proc/self/maps`` once per process; empty
    where there is no such file or no OpenBLAS.  scipy's bundled OpenBLAS is
    loaded first, so it is found before ``scipy.linalg`` loads it.  A
    library that another package maps later is not found."""
    for path in sorted(glob.glob(os.path.join(_SCIPY_LIBS, "*openblas*"))):
        ctypes.CDLL(path)
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line}
    except OSError:
        return {}
    found = {}
    # An unlinked file maps as "<path> (deleted)"; dlopen finds it by <path>.
    for path in sorted(p.removesuffix(" (deleted)") for p in paths):
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get, set_, core = (getattr(lib, f"{stem}_{f}{suffix}", None)
                                   for f in ("get_num_threads", "set_num_threads", "get_corename"))
                if None not in (get, set_, core):
                    get.restype, core.restype = ctypes.c_int, ctypes.c_char_p
                    set_.argtypes = (ctypes.c_int,)
                    found.setdefault(os.path.basename(path), (get, set_, core().decode()))
    return found


def blas_threads() -> dict[str, int]:
    """Threads per loaded OpenBLAS library, by file name."""
    return {name: get() for name, (get, _, _) in _openblas().items()}


@contextmanager
def one_blas_thread():
    """Pin every loaded OpenBLAS to one thread, and scipy's bundled one,
    which it loads if need be, so that a trial that loads ``scipy.linalg``
    or ``_flapack`` after the fork finds it already pinned.  Yields the
    sidecar's ``blas_threads``, the counts read inside the pin, and
    ``blas_cores``, and restores the caller's counts on exit, also when the
    body raises.  Does nothing where there is no OpenBLAS."""
    libs = _openblas()
    saved = [get() for get, _, _ in libs.values()]
    for _, set_, _ in libs.values():
        set_(1)
    try:
        yield {"blas_threads": {name: get() for name, (get, _, _) in libs.items()},
               "blas_cores": {name: core for name, (_, _, core) in libs.items()}}
    finally:
        for (_, set_, _), count in zip(libs.values(), saved):
            set_(count)


def run_trials(cfg: SweepConfig, tasks, trial_fn, workers: int = 1):
    """``[trial_fn(task) for task in tasks]``, in-process or in a pool of
    at most ``workers`` processes, on one BLAS thread after one set-up in
    the caller, and the run's sidecar record; see the module docstring.
    Raises ValueError for ``workers < 1``."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t0 = time.time()
    try:
        _init(cfg)
        with one_blas_thread() as blas:
            if workers == 1:
                results = [trial_fn(t) for t in tasks]
            else:
                # Only a pooled call loads the pool, and numpy.random (11 extension
                # modules, loaded on first use) before the fork, once for every worker.
                import multiprocessing
                import numpy.random  # noqa: F401
                from concurrent.futures import ProcessPoolExecutor
                # A fork pool starts all its workers at the first submit, however few the tasks.
                workers = max(1, min(workers, len(tasks)))
                chunk = max(1, min(8, len(tasks) // (2 * workers)))
                fork = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
                    results = list(pool.map(trial_fn, tasks, chunksize=chunk))
    finally:
        _CTX.clear()
    return results, {
        "config": cfg.echo(), "workers": workers, **blas,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": _scipy_version(),
        "version": __version__, "wall_time_s": time.time() - t0,
    }


def _solve(M: InteractionMatrix):
    """Neumann report of M, or None when the iteration diverged or stopped
    at ``max_iter`` without converging."""
    try:
        report = solve_feasibility(M)
    except DivergenceError:
        return None
    return report if report.converged else None


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else math.nan


# ---------------------------------------------------------------------------
# Feasibility sweep
# ---------------------------------------------------------------------------


def _sweep_trial(task: tuple[int, int]) -> dict | None:
    """Feasibility record of one trial; None if the solve diverged or did not converge."""
    M = _matrix(task)
    report = _solve(M)
    if report is None:
        return None
    max_r_norm = float(np.max(np.abs(report.R))) / (M.alpha * math.sqrt(2.0 * math.log(M.n)))
    return {
        "feasible": report.feasible,
        "min_x": report.min_x,
        "max_R_normalized": max_r_norm,
    }


@dataclass
class SweepResult:
    rows: list[dict]
    provenance: dict


def run_feasibility_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Feasibility fraction per kappa over seeded trials.

    Every trial goes to the Neumann solve.  Trials whose iteration
    diverges (spectral radius of M >= 1) or stops at ``max_iter`` without
    converging count in a separate ``diverged`` column and as infeasible;
    they are never dropped.  ``mean_min_x`` and ``mean_max_R_normalized``
    average over the solved trials.
    """
    T = cfg.trials_per_point
    tasks = [(ki, t) for ki in range(len(cfg.kappa_grid)) for t in range(T)]
    results, record = run_trials(cfg, tasks, _sweep_trial, workers)

    rows = []
    for ki, kappa in enumerate(cfg.kappa_grid):
        recs = results[ki * T : (ki + 1) * T]
        solved = [r for r in recs if r is not None]
        feasible_count = sum(1 for r in solved if r["feasible"])
        rows.append(
            {
                "kappa": kappa,
                "alpha": cfg.alpha(kappa),
                "trials": T,
                "feasible_count": feasible_count,
                "diverged": T - len(solved),
                "feasible_fraction": feasible_count / T,
                "mean_min_x": _mean([r["min_x"] for r in solved]),
                "mean_max_R_normalized": _mean([r["max_R_normalized"] for r in solved]),
            }
        )
    return SweepResult(rows=rows, provenance=record)


# ---------------------------------------------------------------------------
# Abundance histogram
# ---------------------------------------------------------------------------


def _hist_trial(trial: int, edges: np.ndarray) -> dict | None:
    """Histogram counts and moments of one equilibrium on the bin ``edges``;
    None if the solve diverged or did not converge."""
    report = _solve(_matrix((0, trial)))
    if report is None:
        return None
    x = report.x
    counts, _ = np.histogram(x, bins=edges)
    return {
        "counts": counts,
        "sum": float(x.sum()),
        "sumsq": float((x * x).sum()),
    }


@dataclass
class HistogramResult:
    alpha: float
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    variance: float
    pooled: int
    outside: int
    trials: int
    diverged: int
    provenance: dict


def run_abundance_histogram(
    cfg: SweepConfig, kappa: float, bins: int = 60, workers: int = 1
) -> HistogramResult:
    """Pool equilibrium abundances across trials; the sample mean and
    variance are reported for comparison against (1, 1/alpha^2).  The bins
    span 1 +- 8/alpha; ``outside`` counts the pooled abundances beyond them,
    which the moments include and the counts do not."""
    cfg = replace(cfg, kappa_grid=[kappa])
    alpha = cfg.alpha(kappa)
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    if kappa < 2.0:
        warnings.warn(
            f"kappa={kappa} is below the feasibility threshold; the abundance "
            "histogram is meant for the feasible regime",
            RuntimeWarning,
        )
    edges = np.linspace(1.0 - 8.0 / alpha, 1.0 + 8.0 / alpha, bins + 1)
    trial_fn = functools.partial(_hist_trial, edges=edges)
    results, record = run_trials(cfg, range(cfg.trials_per_point), trial_fn, workers)

    # Sums run in trial order, as the byte-identity across worker counts needs.
    solved = [rec for rec in results if rec is not None]
    counts = sum((rec["counts"] for rec in solved), np.zeros(bins, dtype=np.int64))
    total = len(solved) * cfg.n
    mean = sum(rec["sum"] for rec in solved) / total if total else math.nan
    variance = sum(rec["sumsq"] for rec in solved) / total - mean * mean if total else math.nan
    return HistogramResult(
        alpha=alpha,
        bin_edges=edges,
        counts=counts,
        mean=mean,
        variance=variance,
        pooled=total,
        outside=total - int(counts.sum()),
        trials=cfg.trials_per_point,
        diverged=len(results) - len(solved),
        provenance={**record, "bins": bins},
    )


# ---------------------------------------------------------------------------
# Dynamics trace and spectrum check
# ---------------------------------------------------------------------------


@dataclass
class DynamicsTrace:
    record: TrajectoryRecord
    species_indices: np.ndarray  # the species whose rows record.states holds, in order
    provenance: dict


def _dynamics_trial(trial: int) -> tuple[np.ndarray, TrajectoryRecord]:
    """Trajectory of one trial from x0 = 1/2, sampled at 201 times, with the
    distance to the equilibrium when the solve converged feasible, and the
    full rows of 10 random species."""
    cfg: SweepConfig = _CTX["cfg"]
    M = _matrix((0, trial))
    report = _solve(M)
    reference = report.x if report is not None and report.feasible else None
    rng = np.random.default_rng(int(_seed_table(cfg.master_seed, 0, 1)[0]))
    species = np.sort(rng.choice(cfg.n, size=min(10, cfg.n), replace=False))
    record = integrate_lv(
        M, np.full(cfg.n, 0.5), cfg.t_end, sample_count=201, reference=reference, rows=species
    )
    return species, record


def run_dynamics_trace(cfg: SweepConfig, kappa: float) -> DynamicsTrace:
    """Trajectory of trial 0 through ``run_trials`` (one task, in-process,
    one BLAS thread).  ``record.states`` holds the rows of 10 random
    species only, listed in ``species_indices``."""
    cfg = replace(cfg, kappa_grid=[kappa])
    [(species, record)], provenance = run_trials(cfg, [0], _dynamics_trial)
    return DynamicsTrace(record, species, provenance)


@dataclass
class SpectrumSweepResult:
    rows: list[dict]
    skipped: int
    mean_max_real_part: float
    mean_localization_error: float
    provenance: dict


def _spectrum_trial(trial: int) -> dict | None:
    """Jacobian spectrum row at a converged feasible equilibrium; else None."""
    M = _matrix((0, trial))
    report = _solve(M)
    if report is None or not report.feasible:
        return None
    spec = jacobian_spectrum(M, report.x)
    return {
        "trial": trial,
        "max_real_part": spec.max_real_part,
        "localization_error": spec.localization_error,
        "min_x": report.min_x,
    }


def run_spectrum_check(cfg: SweepConfig, kappa: float, workers: int = 1) -> SpectrumSweepResult:
    """Per-trial Jacobian spectra at the feasible equilibrium.  Trials whose
    Neumann solve diverged, stopped at ``max_iter`` without converging, or
    ended infeasible are skipped and counted in ``skipped``: the Jacobian
    is only meaningful at a converged equilibrium.

    Trials run on ``workers`` processes, each eigensolve on one BLAS
    thread, so the rows are identical for every worker count.
    """
    cfg = replace(cfg, kappa_grid=[kappa])
    results, record = run_trials(cfg, range(cfg.trials_per_point), _spectrum_trial, workers)
    rows = [r for r in results if r is not None]
    return SpectrumSweepResult(
        rows=rows,
        skipped=len(results) - len(rows),
        mean_max_real_part=_mean([r["max_real_part"] for r in rows]),
        mean_localization_error=_mean([r["localization_error"] for r in rows]),
        provenance=record,
    )


def _gap_trial(trial: int) -> float:
    return singular_gap(_matrix((0, trial)))


def _gap_run(
    n: int, d: int, trials: int, master_seed: int, model: str
) -> tuple[list[float], dict]:
    """The gaps of ``run_singular_gap_trials`` and the ``run_trials``
    record of their run, for ``sparselv gap``'s sidecar."""
    cfg = SweepConfig(
        n=n, d=d, model=model, trials_per_point=trials, master_seed=master_seed,
    )
    if cfg.n < 2:
        raise ConfigError(f"gap needs n >= 2, got n={cfg.n}: a 1x1 matrix has no singular gap")
    return run_trials(cfg, range(trials), _gap_trial)


def run_singular_gap_trials(
    n: int, d: int, trials: int, master_seed: int, model: str = "general_regular"
) -> list[float]:
    """Monte Carlo over the smallest consecutive singular-value gap of the
    raw masked matrix (almost surely positive), on one fixed pattern; n >= 2."""
    return _gap_run(n, d, trials, master_seed, model)[0]
