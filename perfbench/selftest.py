"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the run exits 0,
that the last line holds exactly the result keys with every metric that
BENCHMARK.json names (and the human-readable lines name them too), and
that the checks pass.  On the traced runs it checks that spans nest, that
self times are >= 0 and add up to no more than ``experiments.driver_s``.
Last, it checks that a directory holding only BENCHMARK.json and the
benchmark's files makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import self_times  # noqa: E402

SEED = 3
EPS = 1e-9


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected, problems, label):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return False
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m['value']!r}")
    human = "\n".join(lines[:-1])
    problems.extend(f"{label}: {name} not in the printed lines" for name in expected
                    if name not in human)
    return True


def check_spans(workload, problems):
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    spans = [json.loads(line) for line in (ROOT / record["spans_file"]).read_text().splitlines()]
    label = f"{workload} spans"
    if not spans:
        problems.append(f"{label}: none recorded")
        return
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if not s["start"] <= s["end"]:
            problems.append(f"{label}: span {s['id']} ends before it starts")
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None or not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            problems.append(f"{label}: span {s['id']} ({s['name']}) not inside its parent")
        elif s["name"] != "experiments.trial" and s["trial"] != p["trial"]:
            problems.append(f"{label}: span {s['id']} has trial {s['trial']}, parent {p['trial']}")
    own = self_times(spans)
    negative = [i for i, t in own.items() if t < -EPS]
    if negative:
        problems.append(f"{label}: negative self time in spans {negative[:5]}")
    # Self times of the spans inside each driver span add up to at most its duration.
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s["id"])

    def subtree_self(i):
        return own[i] + sum(subtree_self(c) for c in children[i])

    drivers = [s for s in spans if s["name"] == "experiments.driver"]
    driver_s = sum(s["end"] - s["start"] for s in drivers)
    inside = sum(subtree_self(s["id"]) for s in drivers)
    if not drivers or inside > driver_s + EPS:
        problems.append(f"{label}: self times {inside} exceed experiments.driver_s {driver_s}")
    # The sweep and histogram drivers expose their per-trial functions.
    trial_spans = [s for s in spans if s["name"] == "experiments.trial"]
    if workload in ("sweep_block", "hist_general") and not trial_spans:
        problems.append(f"{label}: no trial spans")


def check_bare_directory(problems):
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "sweep_block", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append(f"bare directory: exit {proc.returncode}, last line {last[0][:80]!r}")
    shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for w in (w["name"] for w in spec["workloads"]):
        check_result(run(ROOT, w, 0), expected[0], problems, f"{w} trace 0")
        if check_result(run(ROOT, w, 1), expected[1], problems, f"{w} trace 1"):
            check_spans(w, problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
