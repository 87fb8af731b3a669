"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--traced] [--label seed]

Runs ``run.py`` once per (seed, workload), seeds in the outer loop so that
a slow spell of the machine touches every workload, and reports for each
end-to-end metric the median, the quartiles and the spread (interquartile
distance over the median) next to a third of the metric's bound.
``--traced`` adds one traced run per workload, on the first seed, for the
per-layer table.  ``--label`` writes the summary to
``perfbench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            last, record = run_once(w, seed, args.seconds, 0)
            runs[w].append({
                "seed": seed, "correct": last["correct"], "attempted": last["attempted"],
                "failed": last["failed"], "result_sha256": record["result_sha256"],
                "unsolved_frac": record["unsolved_frac"],
                "raw_trials_per_s": record["raw_trials_per_s"],
                "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            })
            print(w, seed, last["correct"],
                  " ".join(f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()),
                  flush=True)

    summary = {"env": record["env"], "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for w in workloads:
        entry = {"runs": runs[w], "end_to_end": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name] for r in runs[w]])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            steady = name == "setup_s" or s["spread"] < bound / 3
            ok &= steady
            print(f"{w:13s} {name:14s} median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  bound/3 {bound / 3:.4f}  {'ok' if steady else 'TOO WIDE'}")
        if args.traced:
            last, record = run_once(w, seeds[0], args.seconds, 1)
            entry["per_layer"] = {"seed": seeds[0],
                                  "metrics": {k: v["value"] for k, v in last["metrics"].items()}}
            for k, v in last["metrics"].items():
                print(f"{w:13s} {k:36s} {v['value']:.6g} {v['unit']}")
        summary["workloads"][w] = entry
    if args.label:
        out = HERE / "results" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
