"""Monte Carlo throughput benchmark for sparselv.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh interpreters with
PYTHONPATH set to the checkout's ``src``, so nothing needs installing.  The
workload seed is the ``master_seed`` of the run's first driver call; call i
uses ``seed + 1_000_000 * i`` (see worker.py).

Workloads (closed loop: one process calls the driver, waits for it, and
calls it again; never more workers than cores):

* ``sweep_block``: ``sparselv sweep`` run in-process through ``cli.main``
  with ``--threads 1``; block_permutation, n=2000, d=16, criterion 1's
  kappa grid, one fixed pattern.  Dominated by the spectral-norm guard.
* ``hist_general``: ``run_abundance_histogram`` at kappa=4, general_regular,
  n=2000, d=16, a new pattern per trial, one worker per core.  Dominated by
  the pattern build.
* ``stability``: ``run_spectrum_check`` at kappa=8, n=1000, d=8 (one worker
  per core), plus one ``run_dynamics_trace`` to t=30.  Dominated by dense
  Jacobian spectra.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time to import
  sparselv and build the workload's config.
* ``trials_per_s``: trials finished per second of driver wall time, at the
  reference CPU speed: each call's wall time is scaled by the time of a
  fixed reference kernel measured beside it (worker.ReferenceKernel),
  because the shared host's speed drifts by up to 2x over minutes.  The
  unscaled rate is printed and recorded as ``raw_trials_per_s``.
* ``peak_rss_mb``: largest peak resident size of the workload process or
  any of its workers.
* ``solved_frac``: trials that got an equilibrium over trials attempted.
  Its complement ``unsolved_frac`` (``diverged`` rows, skipped spectrum
  trials) is printed and recorded; it is 0 on two workloads, so it cannot
  be a gated metric.

With ``--trace 1`` each call is made untraced and then traced, both with
one worker, and the run reports per-layer busy times and counters from
spans recorded around the package's layers (tracing.py), plus
``trace_overhead_frac``, the traced calls' wall time over the untraced
calls' minus one.

Every call's outputs are checked (criterion bounds, parseable outputs; in a
traced run, the traced call must reproduce the untraced call's results); a
call that fails a check counts as failed.  The SHA-256 of the first call's
result rows is printed as ``result_sha256``.  Human-readable lines come
first; the last stdout line is the JSON result.  Full records, spans and
outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep_block", "hist_general", "stability")

# Fresh interpreters timed for setup_s, besides the workload process itself.
SETUP_PROBES = 3
# Every process this run starts must have ended by then.
RUN_BUDGET_S = 170.0


def run_worker(args, deadline, setup_only=False):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget")
    finally:
        # Pool workers share the worker's session; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def summarize(args, record, setups, units):
    calls = record["calls"]
    traced = record.get("traced_calls", [])
    for plain, call in zip(calls, traced):
        if call["sha256"] != plain["sha256"] and not call["errors"]:
            call["errors"].append("traced call's results differ from the untraced call's")
    trials = sum(c["trials"] for c in calls)
    unsolved_frac = sum(c["unsolved"] for c in calls) / trials if trials else 1.0
    nominal = record["ref_nominal_s"]
    if args.trace:
        values = {**record["layers"], "trace_overhead_frac": record["trace_overhead_frac"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "trials_per_s": trials / sum(c["wall_s"] * nominal / c["ref_s"] for c in calls),
            "peak_rss_mb": record["peak_rss_mb"],
            "solved_frac": 1.0 - unsolved_frac,
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "env": record["env"],
        "workers": record["workers"],
        "setup_samples_s": setups,
        "calls": calls + traced,
        "result_sha256": calls[0]["sha256"],
        "unsolved_frac": unsolved_frac,
        "raw_trials_per_s": trials / sum(c["wall_s"] for c in calls),
        "spans_file": record.get("spans_file"),
        "attempted": len(calls) + len(traced),
        "failed": sum(1 for c in calls + traced if c["errors"]),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def report(summary):
    print(f"workload {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}"
          f"  size {summary['size']}  workers {summary['workers']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in summary["env"].items()))
    for i, c in enumerate(summary["calls"], 1):
        status = "ok" if not c["errors"] else "FAILED: " + "; ".join(c["errors"])
        print(f"call {i}: master_seed {c['master_seed']}  {c['wall_s']:.3f} s  {c['trials']} trials"
              f"  {c['unsolved']} unsolved  {c['sha256'][:16]}  {status}")
    for name, m in summary["metrics"].items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    if not summary["trace"]:
        print(f"{'raw_trials_per_s':36s} {summary['raw_trials_per_s']:>14.6g} 1/s")
        print(f"{'unsolved_frac':36s} {summary['unsolved_frac']:>14.6g} frac")
    print(f"result_sha256 {summary['result_sha256']}")
    if summary["spans_file"]:
        print(f"spans {summary['spans_file']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sparselv" / "__init__.py").is_file():
        print(f"error: no sparselv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    if not args.trace:
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    record = run_worker(args, deadline)
    setups.append(record["setup_s"])
    summary = summarize(args, record, setups, units)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    report(summary)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
