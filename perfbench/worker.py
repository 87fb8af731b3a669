"""One run of one benchmark workload, in a fresh interpreter.

run.py starts this script with PYTHONPATH set to the checkout's ``src``.
It times its own set-up (importing sparselv and building the workload's
config), makes one small untimed warm-up call, then calls the workload's
driver again and again until ``--seconds`` are spent.  Call i uses
``master_seed = seed + 1_000_000 * i``, so the first call's master seed is
the workload seed and a run covers as many distinct trials as fit in it.
Every call's outputs are checked outside the timed region.  With
``--trace 1`` each call is made twice with one worker, untraced and
traced, and the pair must give the same results.  The last stdout line is
one JSON record for run.py.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
SEED_STRIDE = 1_000_000

# Criterion 1's kappa grid: f(kappa) crosses 1/2 near kappa = 2.
SWEEP_KAPPAS = [0.5, 1.2, 1.6, 2.0, 2.4, 3.0, 3.5, 8.0]

# SweepConfig fields of one driver call, per workload and size.  "full" is
# the paper's scale, with calls of a few seconds so that a run holds several
# and the reference kernel is sampled often; "warmup" is the untimed first
# call; "tiny" serves the self-test.
SIZES = {
    "sweep_block": {
        "full": dict(n=2000, d=16, trials_per_point=10),
        "warmup": dict(n=2000, d=16, trials_per_point=1),
        # Criterion 1's bounds hold at n=2000 only.
        "tiny": dict(n=2000, d=16, trials_per_point=1),
    },
    "hist_general": {
        "full": dict(n=2000, d=16, trials_per_point=150),
        "warmup": dict(n=2000, d=16, trials_per_point=4),
        "tiny": dict(n=200, d=8, trials_per_point=6),
    },
    "stability": {
        "full": dict(n=1000, d=8, trials_per_point=3),
        "warmup": dict(n=1000, d=8, trials_per_point=1),
        "tiny": dict(n=100, d=4, trials_per_point=3),
    },
}


class Workload:
    """Builds one call's config, runs the driver, checks and digests the result."""

    def __init__(self, name, size, seed, run_dir, sparselv):
        self.name = name
        self.size = size
        self.seed = seed
        self.run_dir = run_dir
        self.sl = sparselv
        self.prepare(0)

    def prepare(self, index, warmup=False):
        """Config of call ``index``; the sweep's is also written for the CLI."""
        size = "warmup" if warmup and self.size == "full" else self.size
        fields = dict(master_seed=self.seed + SEED_STRIDE * index, **SIZES[self.name][size])
        if self.name == "sweep_block":
            fields.update(model="block_permutation", kappa_grid=SWEEP_KAPPAS)
            # The CLI reads a flat YAML mapping; JSON is valid YAML.
            (self.run_dir / "sweep.yaml").write_text(json.dumps(fields) + "\n")
        elif self.name == "hist_general":
            fields.update(model="general_regular", kappa_grid=[4.0], fix_pattern=False)
        else:
            fields.update(kappa_grid=[8.0], t_end=30.0)
        self.cfg = self.sl.experiments.SweepConfig(**fields)

    def run(self, workers):
        """The timed part: one driver call on the prepared config."""
        ex = self.sl.experiments
        if self.name == "sweep_block":
            # Single-threaded on purpose: the sweep is the serial baseline.
            return self.sl.cli.main([
                "sweep", "--config", str(self.run_dir / "sweep.yaml"), "--threads", "1",
                "--out", str(self.run_dir / "sweep.csv"),
            ])
        if self.name == "hist_general":
            return ex.run_abundance_histogram(self.cfg, 4.0, workers=workers)
        return (ex.run_spectrum_check(self.cfg, 8.0, workers=workers),
                ex.run_dynamics_trace(self.cfg, 8.0))

    def check(self, output):
        """Return (trials, unsolved trials, result digest, failed checks)."""
        return getattr(self, "_check_" + self.name)(self.cfg, output)

    def _check_sweep_block(self, cfg, code):
        if code != 0:
            return 0, 0, "", [f"cli exit code {code}"]
        data = (self.run_dir / "sweep.csv").read_bytes()
        rows = list(csv.DictReader(data.decode().splitlines()))
        meta = json.loads((self.run_dir / "sweep.csv.meta.json").read_text())
        errors = []
        if meta.get("config") != json.loads(json.dumps(cfg.echo())):
            errors.append("meta.json config echo differs from the config")
        frac = {float(r["kappa"]): float(r["feasible_fraction"]) for r in rows}
        kappas = sorted(frac)
        if kappas != cfg.kappa_grid:
            return 0, 0, "", errors + [f"csv kappas {kappas} != grid {cfg.kappa_grid}"]
        crossing = None
        for a, b in zip(kappas, kappas[1:]):
            if frac[a] < 0.5 <= frac[b]:
                crossing = a + (0.5 - frac[a]) * (b - a) / (frac[b] - frac[a])
                break
        if not frac[0.5] <= 0.05:
            errors.append(f"f(0.5) = {frac[0.5]} > 0.05")
        if not frac[8.0] >= 0.95:
            errors.append(f"f(8) = {frac[8.0]} < 0.95")
        if crossing is None or not 1.2 <= crossing <= 3.5:
            errors.append(f"0.5-crossing {crossing} outside [1.2, 3.5]")
        trials = sum(int(r["trials"]) for r in rows)
        unsolved = sum(int(r["diverged"]) for r in rows)
        return trials, unsolved, hashlib.sha256(data).hexdigest(), errors

    def _check_hist_general(self, cfg, res):
        errors = []
        scaled_var = res.variance * res.alpha**2
        if not abs(res.mean - 1.0) <= 0.01:
            errors.append(f"|mean - 1| = {abs(res.mean - 1.0):.4g} > 0.01")
        if not abs(scaled_var - 1.0) <= 0.15:
            errors.append(f"|var*alpha^2 - 1| = {abs(scaled_var - 1.0):.4g} > 0.15")
        if res.pooled != (res.trials - res.diverged) * cfg.n:
            errors.append(f"pooled {res.pooled} != solved trials * n")
        digest = hashlib.sha256(
            res.counts.tobytes()
            + repr((res.mean, res.variance, res.pooled, res.diverged)).encode()
        ).hexdigest()
        return res.trials, res.diverged, digest, errors

    def _check_stability(self, cfg, output):
        spec, dyn = output
        errors = []
        if not spec.rows:
            errors.append("no feasible trial")
        unstable = [r["trial"] for r in spec.rows if not r["max_real_part"] < 0.0]
        if unstable:
            errors.append(f"feasible trials {unstable} have max_real_part >= 0")
        if len(spec.rows) + spec.skipped != cfg.trials_per_point:
            errors.append("spectrum rows + skipped != trials")
        rec = dyn.record
        if rec.min_series.min() < -1e-8:
            errors.append(f"negative abundance {rec.min_series.min():.3g}")
        dist = rec.distance_series
        if dist is not None and not dist[-1] < 1e-2 * dist[0]:
            errors.append(f"trajectory did not approach the equilibrium: {dist[0]:.3g} -> {dist[-1]:.3g}")
        payload = json.dumps([spec.rows, rec.series_rows()[1]]).encode()
        unsolved = spec.skipped + (1 if dist is None else 0)
        return cfg.trials_per_point + 1, unsolved, hashlib.sha256(payload).hexdigest(), errors


class ReferenceKernel:
    """Fixed CPU work that does not use sparselv, timed beside every call.

    The CPU speed of a shared host drifts by up to 2x over minutes, and the
    drivers' wall time drifts with it.  Scaling a call's rate by (reference
    time measured beside it) / NOMINAL_S reports the rate at the speed where
    this kernel takes NOMINAL_S, which removes most of the drift.  The mix
    follows the drivers' own: interpreter loops, sparse products,
    permutations and a small dense eigensolve.
    """

    NOMINAL_S = 0.06

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(12345)
        n, d = 2000, 16
        cols = rng.permutation(np.tile(np.arange(n), d))
        self.np = np
        self.A = sp.csr_matrix(
            (rng.standard_normal(n * d), (np.repeat(np.arange(n), d), cols)), shape=(n, n)
        )
        self.D = rng.standard_normal((160, 160))
        self._once()  # the first pass pays one-off costs

    def _once(self):
        np = self.np
        t = time.perf_counter()
        s = 0
        for j in range(150_000):
            s += j & 7
        v = np.ones(self.A.shape[0])
        for _ in range(150):
            v = self.A.T @ (self.A @ v)
            v /= np.linalg.norm(v)
        rng = np.random.default_rng(1)
        for _ in range(40):
            rng.permutation(self.A.shape[0])
        np.linalg.eigvals(self.D)
        return time.perf_counter() - t

    def time(self):
        """Mean of five passes, about 0.3 s in all."""
        return statistics.fmean(self._once() for _ in range(5))


def timed_call(workload, workers, tracer=None):
    errors = []
    t = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(workers)
        else:
            with tracer:
                output = workload.run(workers)
    except Exception as exc:  # a crashing call is a failed call, not a failed run
        errors.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t
    trials, unsolved, digest = 0, 0, ""
    if not errors:
        trials, unsolved, digest, errors = workload.check(output)
    return {"master_seed": workload.cfg.master_seed, "wall_s": wall, "trials": trials,
            "unsolved": unsolved, "sha256": digest, "errors": errors}


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "seed": seed,
    }
    env.update(_cache_sizes())
    return env


def _blas_threads(numpy):
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_sizes():
    # glibc's sysconf names for the L2 and L3 sizes, which Python's os.sysconf
    # table lacks; Linux only.
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        return {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        return {"l2_bytes": None, "l3_bytes": None}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    t = time.perf_counter()
    import sparselv
    import sparselv.cli
    import sparselv.experiments

    workload = Workload(args.workload, args.size, args.seed, run_dir, sparselv)
    setup_s = time.perf_counter() - t
    if not Path(sparselv.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported sparselv from {sparselv.__file__}, not from {ROOT / 'src'}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    workers = NPROC if args.trace == 0 else 1
    reference = ReferenceKernel()
    record = {"setup_s": setup_s, "ref_nominal_s": ReferenceKernel.NOMINAL_S,
              "env": environment(args.seed), "workers": workers}
    workload.prepare(0, warmup=True)
    workload.run(workers)

    calls, traced = [], []
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer({"cli": sparselv.cli, "experiments": sparselv.experiments})
    ref_s = reference.time()
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        workload.prepare(len(calls))
        call = timed_call(workload, workers)
        ref_after = reference.time()
        call["ref_s"] = (ref_s + ref_after) / 2
        ref_s = ref_after
        calls.append(call)
        if args.trace:
            first = len(tracer.spans)
            call = timed_call(workload, workers, tracer)
            call["layers"] = layer_metrics(tracer.spans[first:])
            traced.append(call)
        step = time.perf_counter() - t
        if time.perf_counter() - start + step / 2 > args.seconds:
            break
    record["calls"] = calls
    record["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    if args.trace:
        spans_path = run_dir / "spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["traced_calls"] = traced
        record["layers"] = {
            k: statistics.median(c["layers"][k] for c in traced) for k in traced[0]["layers"]
        }
        record["trace_overhead_frac"] = (
            sum(c["wall_s"] for c in traced) / sum(c["wall_s"] for c in calls) - 1.0
        )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
