"""Spans around sparselv's layers, recorded from outside the package.

``sparselv.experiments`` and ``sparselv.cli`` import each layer's public
functions by name, so rebinding those names routes every call the drivers
make through a timing wrapper without changing the package.  Spans are kept
in memory (name, start, end, parent id, trial id and a few counters read
from the returned reports) and written out when the traced run ends.

Calls must stay in this process: trace a driver with ``workers=1``.

Which end-to-end figure each layer should move, and where:

* ``patterns.*``: trials_per_s and peak_rss_mb on hist_general only.
* ``interaction.norm_*``: trials_per_s on sweep_block (the only caller).
* ``interaction.assemble_*``: trials_per_s on hist_general.
* ``equilibrium.*``: trials_per_s on hist_general, solved_frac on sweep_block.
* ``dynamics.*``: trials_per_s and peak_rss_mb on stability.
* ``experiments.driver_*`` (self time: seeding, pool start-up, reduction):
  trials_per_s everywhere.
* ``cli.*`` (self time: config load, CSV and sidecar writes): trials_per_s
  on sweep_block.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

DRIVERS = (
    "run_feasibility_sweep",
    "run_abundance_histogram",
    "run_spectrum_check",
    "run_dynamics_trace",
    "run_singular_gap_trials",
)

# (span name, module name, function names bound in that module).  The
# per-trial functions are private, but they are the only place a trial is
# visible from outside: the drivers look them up as module globals per call.
BINDINGS = (
    ("cli.main", "cli", ("main",)),
    ("experiments.driver", "cli", DRIVERS),
    ("experiments.driver", "experiments", DRIVERS),
    ("experiments.trial", "experiments", ("_sweep_trial", "_hist_trial")),
    (
        "patterns.build",
        "experiments",
        (
            "block_permutation_pattern",
            "general_regular_pattern",
            "proportional_pattern",
            "full_pattern",
        ),
    ),
    ("interaction.assemble", "cli", ("assemble",)),
    ("interaction.assemble", "experiments", ("assemble",)),
    ("interaction.norm", "cli", ("spectral_norm",)),
    ("interaction.norm", "experiments", ("spectral_norm",)),
    ("equilibrium.solve", "cli", ("solve_feasibility",)),
    ("equilibrium.solve", "experiments", ("solve_feasibility",)),
    ("dynamics.integrate", "experiments", ("integrate_lv",)),
    ("dynamics.jacobian", "experiments", ("jacobian_spectrum",)),
)


def _trial_id(fn_name, args):
    if fn_name == "_sweep_trial":
        kappa_index, trial = args[0]
        return f"{kappa_index}/{trial}"
    if fn_name == "_hist_trial":
        return str(args[0])
    return None


def _describe(span_name, result):
    """Counters read from a layer's return value."""
    if span_name == "patterns.build":
        return {"method": result.meta.get("method", result.model.value)}
    if span_name == "interaction.norm":
        return {"iterations": result.iterations, "converged": result.converged}
    if span_name == "equilibrium.solve":
        return {"iterations": result.solver_iterations, "converged": result.converged}
    return {}


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self, modules: dict):
        self.modules = modules  # {"cli": sparselv.cli, "experiments": ...}
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self.t0 = time.perf_counter()

    def __enter__(self):
        for span_name, module_name, fn_names in BINDINGS:
            module = self.modules[module_name]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(span_name, fn_name, original))
        return self

    def __exit__(self, *exc):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()
        return False

    def _wrap(self, span_name, fn_name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            trial = _trial_id(fn_name, args)
            span = {
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "name": span_name,
                "fn": fn_name,
                "trial": trial if trial is not None else (parent["trial"] if parent else None),
                "start": time.perf_counter() - self.t0,
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter() - self.t0
                self._stack.pop()
            span.update(_describe(span_name, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children cover.  Children of one
    span run one after another in this process, so their durations add."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals for one traced workload call.  A layer the call
    never reaches reports 0 time, 0 calls and 0 for its ratios."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(own[s["id"]] for s in by_name[name])

    def duration(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def share(name, pred):
        group = by_name[name]
        return sum(1 for s in group if pred(s)) / len(group) if group else 0.0

    def mean(name, key):
        values = [s[key] for s in by_name[name] if key in s]
        return sum(values) / len(values) if values else 0.0

    return {
        "patterns.build_s": busy("patterns.build"),
        "patterns.build_calls": len(by_name["patterns.build"]),
        "patterns.fallback_frac": share(
            "patterns.build", lambda s: s.get("method") == "cyclic_fallback"
        ),
        "interaction.norm_s": busy("interaction.norm"),
        "interaction.norm_calls": len(by_name["interaction.norm"]),
        "interaction.norm_iters_mean": mean("interaction.norm", "iterations"),
        "interaction.norm_unconverged_frac": share(
            "interaction.norm", lambda s: s.get("converged") is False
        ),
        "interaction.assemble_s": busy("interaction.assemble"),
        "interaction.assemble_calls": len(by_name["interaction.assemble"]),
        "equilibrium.solve_s": busy("equilibrium.solve"),
        "equilibrium.solve_calls": len(by_name["equilibrium.solve"]),
        "equilibrium.solve_iters_mean": mean("equilibrium.solve", "iterations"),
        "equilibrium.solve_unconverged_frac": share(
            "equilibrium.solve", lambda s: s.get("converged") is False
        ),
        "equilibrium.diverged_frac": share(
            "equilibrium.solve", lambda s: s.get("error") == "DivergenceError"
        ),
        "dynamics.jacobian_s": busy("dynamics.jacobian"),
        "dynamics.jacobian_calls": len(by_name["dynamics.jacobian"]),
        "dynamics.integrate_s": busy("dynamics.integrate"),
        "dynamics.integrate_calls": len(by_name["dynamics.integrate"]),
        "experiments.driver_s": duration("experiments.driver"),
        "experiments.driver_self_s": busy("experiments.driver") + busy("experiments.trial"),
        "cli.main_s": duration("cli.main"),
        "cli.self_s": busy("cli.main"),
    }
