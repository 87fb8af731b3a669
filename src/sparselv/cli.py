"""Command-line interface.

Subcommands: pattern, solve, sweep, histogram, dynamics, spectrum, gap.
Outputs are plot-ready CSV or JSON; file outputs get a meta.json sidecar
with the run's provenance: config echo, version and wall time.  Exit
codes: 0 success, 2 invalid config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import yaml

from . import __version__
from .patterns import pattern_text
# spectral_norm is unused here; perfbench/tracing.py wraps it by this name.
from .interaction import assemble, spectral_norm  # noqa: F401
from .equilibrium import DivergenceError, EquilibriumError, solve_feasibility
from .dynamics import IntegrationError
from .experiments import (
    MODELS,
    ConfigError,
    SweepConfig,
    _provenance,
    build_pattern,
    pattern_seed,
    run_abundance_histogram,
    run_dynamics_trace,
    run_feasibility_sweep,
    run_spectrum_check,
    run_singular_gap_trials,
    trial_seed,
)

EXIT_INVALID_CONFIG = 2
EXIT_NUMERICAL_FAILURE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for sweep and histogram; spectrum runs in-process "
        "on purpose, since its BLAS eigensolve already uses every core (a "
        "2-process pool measured 1.3-1.9x slower on 2 cores)",
    )
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", type=str, default=None, help="flat key-value config file")


def _load_config(args, **overrides) -> SweepConfig:
    mapping = {}
    if args.config:
        with open(args.config) as f:
            loaded = yaml.safe_load(f)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must be a flat mapping, got {type(loaded).__name__}")
        mapping.update(loaded)
    if "master_seed" not in mapping:
        mapping["master_seed"] = args.seed
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


def _write_text(args, text, meta=None):
    """Write ``text`` to ``--out`` (plus the meta.json sidecar) or stdout."""
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        if meta is not None:
            with open(args.out + ".meta.json", "w") as f:
                f.write(_json_text(meta))
    else:
        sys.stdout.write(text)


def _write_rows(args, header, rows, meta=None):
    if args.format == "json":
        text = _json_text([dict(zip(header, row)) for row in rows])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    _write_text(args, text, meta)


def cmd_pattern(args) -> int:
    t0 = time.time()
    cfg = _load_config(
        args, n=args.n, d=args.d, model=args.model, beta=args.beta,
    )
    pattern = build_pattern(cfg, pattern_seed(cfg.master_seed))
    _write_text(args, pattern_text(pattern), _provenance(cfg, t0))
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
    kappa = cfg.kappa_grid[0]
    pattern = build_pattern(cfg, pattern_seed(cfg.master_seed))
    M = assemble(pattern, cfg.alpha(kappa), trial_seed(cfg.master_seed, 0, 0))
    report = solve_feasibility(M, tol=cfg.solver_tol)
    meta = _provenance(cfg, t0)
    if args.format == "json" or args.full_state:
        _write_text(args, report.to_json(full_state=args.full_state) + "\n", meta)
    else:
        scalars = report.scalar_dict()
        _write_rows(args, list(scalars), [tuple(scalars.values())], meta)
    return 0


def cmd_sweep(args) -> int:
    result = run_feasibility_sweep(_load_config(args), workers=args.threads)
    header = list(result.CSV_COLUMNS)
    rows = [tuple(r[c] for c in header) for r in result.rows]
    _write_rows(args, header, rows, result.provenance)
    return 0


def cmd_histogram(args) -> int:
    result = run_abundance_histogram(
        _load_config(args), args.kappa, bins=args.bins, workers=args.threads
    )
    header, rows = result.bin_rows()
    meta = {
        **result.provenance,
        "mean": result.mean,
        "variance": result.variance,
        "pooled": result.pooled,
        "diverged": result.diverged,
    }
    _write_rows(args, header, rows, meta)
    return 0


def cmd_dynamics(args) -> int:
    trace = run_dynamics_trace(_load_config(args), args.kappa)
    header, rows = trace.record.series_rows()
    _write_rows(args, header, rows, trace.provenance)
    if args.out:
        t_header, t_rows = trace.trace_rows()
        with open(args.out + ".traces.csv", "w") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(t_header)
            writer.writerows(t_rows)
    return 0


def cmd_spectrum(args) -> int:
    result = run_spectrum_check(_load_config(args), args.kappa, workers=args.threads)
    header = list(result.CSV_COLUMNS)
    rows = [tuple(r[c] for c in header) for r in result.rows]
    meta = {
        **result.provenance,
        "skipped": result.skipped,
        "mean_max_real_part": result.mean_max_real_part,
        "mean_localization_error": result.mean_localization_error,
    }
    _write_rows(args, header, rows, meta)
    return 0


def cmd_gap(args) -> int:
    t0 = time.time()
    gaps = run_singular_gap_trials(
        args.n, args.d, args.trials, args.seed, model=args.model
    )
    meta = _provenance(
        None, t0, n=args.n, d=args.d, trials=args.trials, seed=args.seed,
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
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("solve", help="solve one feasibility instance")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float, help="alpha = sqrt(kappa log n)")
    p.add_argument("--full-state", action="store_true", help="include x in JSON output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="feasibility fraction over a kappa grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("histogram", help="pooled abundance histogram at one kappa")
    _add_common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("dynamics", help="trajectory trace for one seeded trial")
    _add_common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("spectrum", help="Jacobian spectra at feasible equilibria")
    _add_common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gap", help="singular-gap Monte Carlo")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    # no --beta here, so no proportional model
    p.add_argument(
        "--model", choices=tuple(m for m in MODELS if m != "proportional"),
        default="general_regular",
    )
    p.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (DivergenceError, EquilibriumError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
