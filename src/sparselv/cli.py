"""Command-line interface.

Subcommands: pattern, solve, sweep, histogram, dynamics, spectrum, gap.
Outputs are plot-ready CSV or JSON, and only this module decides their
formats; the layers below return numbers and dict rows.  File outputs get
a meta.json sidecar with the run's provenance: config echo, workers, BLAS
threads, version and wall time.  Exit codes: 0 success, 2 invalid config
or a file that cannot be read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
# Unused here; perfbench/tracing.py wraps assemble and spectral_norm by these names.
from .interaction import assemble, spectral_norm  # noqa: F401
from .equilibrium import DivergenceError, EquilibriumError, solve_feasibility
from .dynamics import IntegrationError
from .experiments import (
    MODELS,
    ConfigError,
    SweepConfig,
    _gap_run,
    _matrix,
    _pattern,
    _provenance,
    run_abundance_histogram,
    run_dynamics_trace,
    run_feasibility_sweep,
    run_spectrum_check,
    # Unused here; perfbench/tracing.py wraps it by this name.
    run_singular_gap_trials,  # noqa: F401
    run_trials,
)

EXIT_INVALID_CONFIG = 2
EXIT_NUMERICAL_FAILURE = 3


SOLVE_COLUMNS = (
    "feasible", "min_x", "argmin", "min_Z", "residual_inf", "alpha", "n", "d", "seed",
)
SWEEP_COLUMNS = (
    "kappa",
    "alpha",
    "trials",
    "feasible_count",
    "diverged",
    "feasible_fraction",
    "mean_min_x",
    "mean_max_R_normalized",
)
SPECTRUM_COLUMNS = ("trial", "max_real_part", "localization_error", "min_x")


_SHARED_FLAGS = {
    "--seed": dict(type=int, help="master seed (default: the config file's, else 0)"),
    "--threads": dict(
        type=int, default=1,
        help="worker processes; their trials run on one BLAS thread each",
    ),
    "--out": dict(type=str, default=None, help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--config": dict(type=str, default=None, help="flat key-value config file"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Register the shared flags that the subcommand reads; no others."""
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _load_config(args, **overrides) -> SweepConfig:
    mapping = {}
    if args.config:
        import yaml  # here, not at module scope: only --config needs it

        with open(args.config) as f:
            try:
                loaded = yaml.safe_load(f)
            except yaml.YAMLError as exc:
                raise ConfigError(f"config file is not valid YAML: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must be a flat mapping, got {type(loaded).__name__}")
        mapping.update(loaded)
    # A flag overrides the file; SweepConfig defaults master_seed to 0.
    overrides["master_seed"] = args.seed
    mapping.update({k: v for k, v in overrides.items() if v is not None})
    return SweepConfig.from_mapping(mapping)


def _finite(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    """Strict JSON text, indent 2, NaN and infinities as null, newline-terminated."""
    return json.dumps(_finite(obj), indent=2, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text: the header line, then one line per row in header order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _pattern_text(p) -> str:
    """Pattern text: header ``n d model seed`` (``-`` for no seed), then one
    line per row with its column indices ascending (zero-based)."""
    buf = io.StringIO()
    buf.write(f"{p.n} {p.d} {p.model.value} {'-' if p.seed is None else p.seed}\n")
    np.savetxt(buf, p.row_cols, fmt="%d")
    return buf.getvalue()


def _write_text(path, text, meta=None):
    """Write ``text`` to ``path`` (plus the meta.json sidecar), or to stdout."""
    if path:
        with open(path, "w") as f:
            f.write(text)
        if meta is not None:
            with open(path + ".meta.json", "w") as f:
                f.write(_json_text(meta))
    else:
        sys.stdout.write(text)


def _write_rows(args, header, rows, meta=None):
    """Rows in ``header`` order, as CSV or as a JSON list of objects."""
    if args.format == "json":
        text = _json_text([dict(zip(header, row)) for row in rows])
    else:
        text = _csv_text(header, rows)
    _write_text(args.out, text, meta)


def cmd_pattern(args) -> int:
    t0 = time.time()
    cfg = _load_config(
        args, n=args.n, d=args.d, model=args.model, beta=args.beta,
    )
    [pattern], env = run_trials(cfg, [(0, 0)], _pattern)
    _write_text(args.out, _pattern_text(pattern), _provenance(cfg, t0, env))
    return 0


def cmd_solve(args) -> int:
    t0 = time.time()
    cfg = _load_config(
        args, n=args.n, d=args.d, model=args.model, beta=args.beta,
        kappa_grid=[args.kappa] if args.kappa is not None else None,
    )
    if args.kappa is None and len(cfg.kappa_grid) > 1:
        raise ConfigError(
            f"solve takes one kappa, but the config grid is {cfg.kappa_grid}; "
            "pass --kappa"
        )
    [M], env = run_trials(cfg, [(0, 0)], _matrix)
    report = solve_feasibility(M)
    if not report.converged:
        raise EquilibriumError(
            f"Neumann solve did not converge in {report.solver_iterations} "
            f"iterations (residual {report.residual_inf:.3e})"
        )
    meta = _provenance(cfg, t0, env)
    row = [getattr(report, c) for c in SOLVE_COLUMNS[:5]]
    row += [getattr(M, c) for c in SOLVE_COLUMNS[5:]]  # alpha, n, d, seed
    if args.format == "json" or args.full_state:
        payload = {"x": report.x.tolist()} if args.full_state else {}
        payload.update(zip(SOLVE_COLUMNS, row))
        _write_text(args.out, _json_text(payload), meta)
    else:
        _write_rows(args, SOLVE_COLUMNS, [row], meta)
    return 0


def cmd_sweep(args) -> int:
    result = run_feasibility_sweep(_load_config(args), workers=args.threads)
    rows = [[r[c] for c in SWEEP_COLUMNS] for r in result.rows]
    _write_rows(args, SWEEP_COLUMNS, rows, result.provenance)
    return 0


def cmd_histogram(args) -> int:
    result = run_abundance_histogram(
        _load_config(args), args.kappa, bins=args.bins, workers=args.threads
    )
    edges = result.bin_edges.tolist()
    rows = list(zip(edges[:-1], edges[1:], result.counts.tolist()))
    meta = {
        **result.provenance,
        "mean": result.mean,
        "variance": result.variance,
        "pooled": result.pooled,
        "diverged": result.diverged,
    }
    _write_rows(args, ("bin_left", "bin_right", "count"), rows, meta)
    return 0


def cmd_dynamics(args) -> int:
    trace = run_dynamics_trace(_load_config(args), args.kappa)
    header, rows = trace.record.series_rows()
    _write_rows(args, header, rows, trace.provenance)
    if args.out:
        # One row per traced species: its index, then its abundance at each time.
        t_header = ["species"] + [f"t={t:g}" for t in trace.record.times]
        t_rows = zip(trace.species_indices.tolist(), *trace.record.states.T.tolist())
        _write_text(args.out + ".traces.csv", _csv_text(t_header, t_rows))
    return 0


def cmd_spectrum(args) -> int:
    result = run_spectrum_check(_load_config(args), args.kappa, workers=args.threads)
    rows = [[r[c] for c in SPECTRUM_COLUMNS] for r in result.rows]
    meta = {
        **result.provenance,
        "skipped": result.skipped,
        "mean_max_real_part": result.mean_max_real_part,
        "mean_localization_error": result.mean_localization_error,
    }
    _write_rows(args, SPECTRUM_COLUMNS, rows, meta)
    return 0


def cmd_gap(args) -> int:
    t0 = time.time()
    gaps, env = _gap_run(args.n, args.d, args.trials, args.seed, args.model)
    meta = _provenance(
        None, t0, env,
        n=args.n, d=args.d, model=args.model, trials=args.trials, seed=args.seed,
        min_over_trials=min(gaps),
    )
    _write_rows(args, ["trial", "min_gap"], list(enumerate(gaps)), meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselv",
        description="Sparse Lotka-Volterra feasibility and stability experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="generate a d-regular adjacency pattern")
    _add_shared(p, "--seed", "--out", "--config")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("solve", help="solve one feasibility instance")
    _add_shared(p, "--seed", "--out", "--format", "--config")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float, help="alpha = sqrt(kappa log n)")
    p.add_argument("--full-state", action="store_true", help="include x in JSON output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="feasibility fraction over a kappa grid")
    _add_shared(p, *_SHARED_FLAGS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("histogram", help="pooled abundance histogram at one kappa")
    _add_shared(p, *_SHARED_FLAGS)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("dynamics", help="trajectory trace for one seeded trial")
    _add_shared(p, "--seed", "--out", "--format", "--config")
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("spectrum", help="Jacobian spectra at feasible equilibria")
    _add_shared(p, *_SHARED_FLAGS)
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gap", help="singular-gap Monte Carlo")
    _add_shared(p, "--seed", "--out", "--format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    # no --beta here, so no proportional model
    p.add_argument(
        "--model", choices=tuple(m for m in MODELS if m != "proportional"),
        default="general_regular",
    )
    p.set_defaults(func=cmd_gap, seed=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (DivergenceError, EquilibriumError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
