"""Seeded Monte Carlo experiment driver.

Every trial seed is a pure function of (master_seed, kappa index, trial
index), so runs are fully deterministic given the config, independent of
worker count and scheduling.  Aggregation reduces per-trial records in
sorted (kappa, trial) order, which makes floating-point sums reproducible
across 1 and W workers.

Every driver runs its trials through one engine,
``run_trials(cfg, tasks, trial_fn, workers=1, **extra)``.  It calls the
module-level ``trial_fn(task)`` once per task, in-process when
``workers <= 1`` and otherwise in a process pool (chunksize 8), and returns
the results in task order.  Before the first trial each worker stores
``cfg`` and the ``extra`` keywords in its context ``_CTX`` and, when
``cfg.fix_pattern`` is set, builds the fixed pattern once.  Inside a trial,
``_matrix(kappa_index, trial, alpha)`` assembles the seeded interaction
matrix on that cached pattern, or on the trial's own pattern otherwise.
Each driver's ``provenance`` comes from ``_provenance``: config echo,
driver-specific keys, package version and wall time.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import __version__
from .patterns import (
    AdjacencyPattern,
    Permutation,
    block_permutation_pattern,
    full_pattern,
    general_regular_pattern,
    proportional_pattern,
)
# spectral_norm is unused here; perfbench/tracing.py wraps it by this name.
from .interaction import InteractionMatrix, assemble, singular_gap, spectral_norm  # noqa: F401
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
    "MODELS",
]

MODELS = ("block_permutation", "general_regular", "full", "proportional")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class SweepConfig:
    n: int
    d: int = 0
    model: str = "block_permutation"
    beta: float | None = None  # proportional model only; overrides d
    kappa_grid: list[float] = field(default_factory=lambda: [2.0])
    trials_per_point: int = 1
    master_seed: int = 0
    fix_pattern: bool = True
    t_end: float = 50.0
    sample_count: int = 201
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    solver_tol: float = 1e-12
    trace_species: int = 10

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "full":
            self.d = self.n
        elif self.model == "proportional":
            if self.beta is None:
                raise ConfigError("proportional model requires beta")
            if not (0.0 < self.beta <= 1.0):
                raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
            self.d = max(1, round(self.beta * self.n))
        if not (1 <= self.d <= self.n):
            raise ConfigError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        if self.model == "block_permutation" and self.n % self.d != 0:
            raise ConfigError(
                f"block-permutation model needs d | n, got n={self.n}, d={self.d}"
            )
        if not self.kappa_grid:
            raise ConfigError("kappa_grid must be non-empty")
        if any(k <= 0 for k in self.kappa_grid):
            raise ConfigError(f"kappa values must be positive: {self.kappa_grid}")
        if self.trials_per_point < 1:
            raise ConfigError(
                f"trials_per_point must be >= 1, got {self.trials_per_point}"
            )
        self.kappa_grid = sorted(float(k) for k in self.kappa_grid)

    def alpha(self, kappa: float) -> float:
        """Interaction strength alpha = sqrt(kappa * log n)."""
        if self.n < 2:
            raise ConfigError("alpha parameterization needs n >= 2")
        return math.sqrt(kappa * math.log(self.n))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SweepConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
        sigma = Permutation.random(m, np.random.default_rng(seed))
        return block_permutation_pattern(m, cfg.d, sigma)
    if cfg.model == "general_regular":
        return general_regular_pattern(cfg.n, cfg.d, seed)
    if cfg.model == "proportional":
        return proportional_pattern(cfg.n, cfg.beta, seed)
    return full_pattern(cfg.n)


# ---------------------------------------------------------------------------
# Trial engine
# ---------------------------------------------------------------------------

# Worker-process state: the fixed pattern is rebuilt per worker from the
# seed instead of being pickled per task.
_CTX: dict = {}


def _init(cfg: SweepConfig, extra: dict) -> None:
    fixed = build_pattern(cfg, pattern_seed(cfg.master_seed)) if cfg.fix_pattern else None
    _CTX.clear()
    _CTX.update(extra, cfg=cfg, pattern=fixed)


def _matrix(kappa_index: int, trial: int, alpha: float) -> InteractionMatrix:
    """Seeded interaction matrix of one trial on the cached or per-trial pattern."""
    cfg: SweepConfig = _CTX["cfg"]
    pattern = _CTX["pattern"]
    if pattern is None:
        pattern = build_pattern(cfg, pattern_seed(cfg.master_seed, trial))
    return assemble(pattern, alpha, trial_seed(cfg.master_seed, kappa_index, trial))


def run_trials(cfg: SweepConfig, tasks, trial_fn, workers: int = 1, **extra) -> list:
    """``[trial_fn(task) for task in tasks]``, in-process or in a pool of
    ``workers`` processes; see the module docstring."""
    if workers <= 1:
        _init(cfg, extra)
        return [trial_fn(t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init, initargs=(cfg, extra)
    ) as pool:
        return list(pool.map(trial_fn, tasks, chunksize=8))


def _provenance(cfg: SweepConfig | None, t0: float, **extra) -> dict:
    """Sidecar record of a run that started at ``time.time() == t0``."""
    config = {} if cfg is None else {"config": cfg.echo()}
    return {**config, **extra, "version": __version__, "wall_time_s": time.time() - t0}


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else math.nan


# ---------------------------------------------------------------------------
# Feasibility sweep
# ---------------------------------------------------------------------------


def _sweep_trial(task: tuple[int, int]) -> dict:
    cfg: SweepConfig = _CTX["cfg"]
    kappa_index, trial = task
    alpha = cfg.alpha(cfg.kappa_grid[kappa_index])
    M = _matrix(kappa_index, trial, alpha)
    try:
        report = solve_feasibility(M, tol=cfg.solver_tol)
    except DivergenceError:
        return {"diverged": True, "feasible": False}
    max_r_norm = float(np.max(np.abs(report.R))) / (alpha * math.sqrt(2.0 * math.log(cfg.n)))
    return {
        "diverged": False,
        "feasible": report.feasible,
        "min_x": report.min_x,
        "max_R_normalized": max_r_norm,
    }


@dataclass
class SweepResult:
    rows: list[dict]
    provenance: dict

    CSV_COLUMNS = (
        "kappa",
        "alpha",
        "trials",
        "feasible_count",
        "diverged",
        "feasible_fraction",
        "mean_min_x",
        "mean_max_R_normalized",
    )

    def feasible_fractions(self) -> list[tuple[float, float]]:
        return [(r["kappa"], r["feasible_fraction"]) for r in self.rows]


def run_feasibility_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Feasibility fraction per kappa over seeded trials.

    Every trial goes to the Neumann solve.  Trials whose iteration
    diverges (spectral radius of M >= 1) count in a separate ``diverged``
    column and as infeasible; they are never dropped.  ``mean_min_x`` and
    ``mean_max_R_normalized`` average over the solved (non-diverged) trials.
    """
    t0 = time.time()
    T = cfg.trials_per_point
    tasks = [(ki, t) for ki in range(len(cfg.kappa_grid)) for t in range(T)]
    results = run_trials(cfg, tasks, _sweep_trial, workers)

    rows = []
    for ki, kappa in enumerate(cfg.kappa_grid):
        recs = results[ki * T : (ki + 1) * T]
        solved = [r for r in recs if not r["diverged"]]
        feasible_count = sum(1 for r in recs if r["feasible"])
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
    return SweepResult(rows=rows, provenance=_provenance(cfg, t0))


# ---------------------------------------------------------------------------
# Abundance histogram
# ---------------------------------------------------------------------------


def _hist_trial(trial: int) -> dict | None:
    """Histogram counts and moments of one equilibrium; None if diverged."""
    M = _matrix(0, trial, _CTX["alpha"])
    try:
        x = solve_feasibility(M, tol=_CTX["cfg"].solver_tol).x
    except DivergenceError:
        return None
    counts, _ = np.histogram(x, bins=_CTX["edges"])
    return {
        "counts": counts,
        "sum": float(x.sum()),
        "sumsq": float((x * x).sum()),
        "count": x.size,
    }


@dataclass
class HistogramResult:
    kappa: float
    alpha: float
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    variance: float
    pooled: int
    trials: int
    diverged: int
    provenance: dict

    def bin_rows(self):
        header = ["bin_left", "bin_right", "count"]
        rows = [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), int(c))
            for i, c in enumerate(self.counts)
        ]
        return header, rows


def run_abundance_histogram(
    cfg: SweepConfig, kappa: float, bins: int = 60, workers: int = 1
) -> HistogramResult:
    """Pool equilibrium abundances across trials; the sample mean and
    variance are reported for comparison against (1, 1/alpha^2)."""
    if kappa <= 0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    if kappa < 2.0:
        import warnings

        warnings.warn(
            f"kappa={kappa} is below the feasibility threshold; the abundance "
            "histogram is meant for the feasible regime",
            RuntimeWarning,
        )
    t0 = time.time()
    alpha = cfg.alpha(kappa)
    span = 8.0 / alpha
    edges = np.linspace(1.0 - span, 1.0 + span, bins + 1)
    tasks = range(cfg.trials_per_point)
    results = run_trials(cfg, tasks, _hist_trial, workers, alpha=alpha, edges=edges)

    # Sums run in trial order, as the byte-identity across worker counts needs.
    solved = [rec for rec in results if rec is not None]
    counts = sum((rec["counts"] for rec in solved), np.zeros(bins, dtype=np.int64))
    total = sum(rec["count"] for rec in solved)
    mean = sum(rec["sum"] for rec in solved) / total if total else math.nan
    variance = sum(rec["sumsq"] for rec in solved) / total - mean * mean if total else math.nan
    return HistogramResult(
        kappa=kappa,
        alpha=alpha,
        bin_edges=edges,
        counts=counts,
        mean=mean,
        variance=variance,
        pooled=total,
        trials=cfg.trials_per_point,
        diverged=len(results) - len(solved),
        provenance=_provenance(cfg, t0, kappa=kappa, bins=bins),
    )


# ---------------------------------------------------------------------------
# Dynamics trace and spectrum check
# ---------------------------------------------------------------------------


@dataclass
class DynamicsTrace:
    record: TrajectoryRecord
    species_indices: np.ndarray
    species_traces: np.ndarray  # (len(species_indices), T)
    kappa: float
    alpha: float
    provenance: dict

    def trace_rows(self):
        """One row per selected species: index followed by its abundances
        at the sample times."""
        header = ["species"] + [f"t={t:g}" for t in self.record.times]
        rows = [
            (int(idx), *map(float, self.species_traces[i]))
            for i, idx in enumerate(self.species_indices)
        ]
        return header, rows


def run_dynamics_trace(cfg: SweepConfig, kappa: float) -> DynamicsTrace:
    """Integrate one seeded trial and extract the min/max/mean series plus
    full traces for a random selection of species (all from x0 = 1/2).
    The trial always uses the fixed pattern, whatever ``cfg.fix_pattern``."""
    t0 = time.time()
    alpha = cfg.alpha(kappa)
    pattern = build_pattern(cfg, pattern_seed(cfg.master_seed))
    seed = trial_seed(cfg.master_seed, 0, 0)
    M = assemble(pattern, alpha, seed)
    reference = None
    try:
        report = solve_feasibility(M, tol=cfg.solver_tol)
        if report.feasible:
            reference = report.x
    except DivergenceError:
        pass
    record = integrate_lv(
        M,
        np.full(cfg.n, 0.5),
        cfg.t_end,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        sample_count=cfg.sample_count,
        reference=reference,
        keep_states=True,
    )
    rng = np.random.default_rng(trial_seed(cfg.master_seed, 0, 1))
    k = min(cfg.trace_species, cfg.n)
    indices = np.sort(rng.choice(cfg.n, size=k, replace=False))
    traces = record.states[indices]
    return DynamicsTrace(
        record=record,
        species_indices=indices,
        species_traces=traces,
        kappa=kappa,
        alpha=alpha,
        provenance=_provenance(cfg, t0, kappa=kappa),
    )


@dataclass
class SpectrumSweepResult:
    rows: list[dict]
    skipped: int
    mean_max_real_part: float
    mean_localization_error: float
    provenance: dict

    CSV_COLUMNS = ("trial", "max_real_part", "localization_error", "min_x")


def _spectrum_trial(trial: int) -> dict | None:
    """Jacobian spectrum row at a feasible equilibrium; None otherwise."""
    M = _matrix(0, trial, _CTX["alpha"])
    try:
        report = solve_feasibility(M, tol=_CTX["cfg"].solver_tol)
    except DivergenceError:
        return None
    if not report.feasible:
        return None
    spec = jacobian_spectrum(M, report.x)
    return {
        "trial": trial,
        "max_real_part": spec.max_real_part,
        "localization_error": spec.localization_error,
        "min_x": report.min_x,
    }


def run_spectrum_check(cfg: SweepConfig, kappa: float, workers: int = 1) -> SpectrumSweepResult:
    """Per-trial Jacobian spectra at the feasible equilibrium.  Infeasible
    or diverged trials are skipped and counted.

    Trials run in-process whatever ``workers`` says: the dense eigensolve
    already uses every core through the BLAS.  On 2 cores with OpenBLAS on
    2 threads, 3 trials at n=1000, d=8 took 1.9-2.5 s in-process and
    2.9-4.0 s in a 2-process pool (chunksize 1).
    """
    t0 = time.time()
    alpha = cfg.alpha(kappa)
    results = run_trials(cfg, range(cfg.trials_per_point), _spectrum_trial, alpha=alpha)
    rows = [r for r in results if r is not None]
    return SpectrumSweepResult(
        rows=rows,
        skipped=len(results) - len(rows),
        mean_max_real_part=_mean([r["max_real_part"] for r in rows]),
        mean_localization_error=_mean([r["localization_error"] for r in rows]),
        provenance=_provenance(cfg, t0, kappa=kappa),
    )


def _gap_trial(trial: int) -> float:
    return singular_gap(_matrix(0, trial, 1.0))


def run_singular_gap_trials(
    n: int, d: int, trials: int, master_seed: int, model: str = "general_regular"
) -> list[float]:
    """Monte Carlo over the smallest consecutive singular-value gap of the
    raw masked matrix (almost surely positive), on one fixed pattern."""
    cfg = SweepConfig(
        n=n, d=d, model=model, trials_per_point=trials, master_seed=master_seed,
    )
    return run_trials(cfg, range(trials), _gap_trial)
