"""Spans around ivsysid's layer functions, recorded from outside the program.

Tracer.wrap replaces a module attribute with a wrapper that records one span
per call: name, start, end, the id of the span that caused it, and the
thread. Functions are wrapped where their callers look them up (for example
harness.feature_map, which run_trial's lambda reads at call time), so the
program itself is untouched. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time
from pathlib import Path

import numpy as np


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, float] = {}
        self._counts_lock = threading.Lock()
        #: False while the benchmark calls the program for a check of its own
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            stack = self._stack()
            # a worker thread's first span was caused by whatever the main
            # thread has open (run_monte_carlo hands trials to its pool)
            parents = stack or self._main_stack
            parent = parents[-1] if parents else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if on_return is not None:
                on_return(result)
            return result

        setattr(module, attr, wrapper)

    def add(self, counter: str, value: float) -> None:
        if not self.recording:
            return
        # worker threads add to the same counter (splitfilters.rows)
        with self._counts_lock:
            self.counts[counter] = self.counts.get(counter, 0.0) + value

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
            fh.write("\n")

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for sid, n, start, end, _, _ in self.spans:
            if n != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, [])):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out


def instrument(tracer: Tracer, modules) -> None:
    """Wrap every layer boundary the workloads cross.

    modules: the imported ivsysid modules, keyed by their short names.
    """
    dyn, split, harness, cli = (modules[k] for k in ("dynamics", "splitfilters", "harness", "cli"))

    def rows(design):
        tracer.add("splitfilters.rows", design.X.shape[0])

    # (module looked up by the caller, attribute, span name, on_return)
    sites = [
        (harness, "integrate", "dynamics.integrate", None),
        (dyn, "integrate", "dynamics.integrate", None),
        (harness, "pseudo_true_discrete", "dynamics.pseudo_true_discrete", None),
        (harness, "add_noise", "dynamics.add_noise", None),
        (harness, "feature_map", "dynamics.feature_map", None),
        (dyn, "feature_map", "dynamics.feature_map", None),
        (cli, "feature_map", "dynamics.feature_map", None),
        (split, "build_filter", "polyfilter.build_filter", None),
        (harness, "build_split_bank", "splitfilters.build_split_bank", None),
        (dyn, "build_split_bank", "splitfilters.build_split_bank", None),
        (cli, "build_split_bank", "splitfilters.build_split_bank", None),
        (harness, "assemble_design", "splitfilters.assemble_design", rows),
        (dyn, "assemble_design", "splitfilters.assemble_design", rows),
        (cli, "assemble_design", "splitfilters.assemble_design", rows),
        (split, "rho_truncate", "splitfilters.rho_truncate", None),
        (harness, "iv_estimate", "estimator.iv_estimate", None),
        (cli, "iv_estimate", "estimator.iv_estimate", None),
        (harness, "ls_estimate", "estimator.ls_estimate", None),
        (dyn, "ls_estimate", "estimator.ls_estimate", None),
        (cli, "ls_estimate", "estimator.ls_estimate", None),
        (harness, "excitation_check", "estimator.excitation_check", None),
        (cli, "excitation_check", "estimator.excitation_check", None),
        (harness, "prepare_shared", "harness.prepare_shared", None),
        (harness, "run_trial", "harness.run_trial", None),
        (harness, "run_monte_carlo", "harness.run_monte_carlo", None),
        (harness, "summarize", "harness.summarize", None),
        (harness, "kde_export", "harness.kde_export", None),
        (harness, "write_trials_csv", "harness.write_trials_csv", None),
        (harness, "write_kde_csv", "harness.write_kde_csv", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (cli, "_read_measurements", "cli.read", None),
        (cli, "main", "cli.main", None),
    ]
    for module, attr, name, on_return in sites:
        tracer.wrap(module, attr, name, on_return)

    bootstrap = harness.bootstrap_se

    @functools.wraps(bootstrap)
    def bootstrap_rss(*args, **kwargs):
        before = maxrss_mb()
        try:
            return bootstrap(*args, **kwargs)
        finally:
            tracer.add("harness.bootstrap_se.rss_mb", maxrss_mb() - before)

    harness.bootstrap_se = bootstrap_rss
    tracer.wrap(harness, "bootstrap_se", "harness.bootstrap_se")


#: per_layer metric name -> unit, in BENCHMARK.json order
LAYER_UNITS = {
    "dynamics.integrate.s": "s",
    "dynamics.integrate.calls": "count",
    "dynamics.pseudo_true_discrete.s": "s",
    "dynamics.add_noise.s": "s",
    "dynamics.feature_map.s": "s",
    "polyfilter.build_filter.s": "s",
    "polyfilter.build_filter.calls": "count",
    "splitfilters.build_split_bank.s": "s",
    "splitfilters.assemble_design.s": "s",
    "splitfilters.rows": "count",
    "splitfilters.rho_truncate.s": "s",
    "estimator.ls_estimate.s": "s",
    "estimator.iv_estimate.s": "s",
    "estimator.excitation_check.s": "s",
    "harness.prepare_shared.s": "s",
    "harness.run_trial.p50_s": "s",
    "harness.run_trial.tail_s": "s",
    "harness.run_trial.samples": "count",
    "harness.worker_busy_s": "s",
    "harness.worker_idle_s": "s",
    "harness.summarize.s": "s",
    "harness.kde_export.s": "s",
    "harness.write_trials_csv.s": "s",
    "harness.write_kde_csv.s": "s",
    "harness.bootstrap_se.s": "s",
    "harness.bootstrap_se.rss_mb": "MB",
    "cli.read.s": "s",
    "cli.main.s": "s",
    "estimator.iv_bias_pct": "%",
    "trace.overhead_s": "s",
}

#: span names whose metric is the summed inclusive time
_INCLUSIVE = [
    "dynamics.integrate", "dynamics.pseudo_true_discrete", "dynamics.add_noise",
    "dynamics.feature_map", "polyfilter.build_filter", "splitfilters.build_split_bank",
    "splitfilters.rho_truncate", "estimator.ls_estimate", "estimator.iv_estimate",
    "estimator.excitation_check", "harness.prepare_shared", "harness.summarize",
    "harness.kde_export", "harness.write_trials_csv", "harness.write_kde_csv",
    "harness.bootstrap_se", "cli.read", "cli.main",
]

#: tail percentiles tried, highest first
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(samples: list[float]) -> float:
    """The highest percentile of _PERCENTILES with ten samples beyond it.

    Which one it is follows from the sample count. With fewer than forty
    samples there is no such tail, and the median stands in for it.
    """
    n = len(samples)
    for pct in _PERCENTILES:
        if n >= 40 and n * (1.0 - pct / 100.0) >= 10.0:
            return float(np.percentile(samples, pct))
    return float(np.median(samples)) if samples else 0.0


def layer_metrics(
    tracer: Tracer, workers: int, overhead_s: float, iv_bias_pct: float
) -> dict[str, float]:
    """Per-layer figures; a layer the workload never enters reads 0.

    iv_bias_pct: the IV bias as measured, without the floor bias_ratio puts
    under it, so that a growing IV bias shows even while it is below the floor.
    """
    out = {f"{name}.s": float(sum(tracer.durations(name))) for name in _INCLUSIVE}
    out["splitfilters.assemble_design.s"] = float(
        sum(tracer.self_times("splitfilters.assemble_design"))
    )
    out["dynamics.integrate.calls"] = float(len(tracer.durations("dynamics.integrate")))
    out["polyfilter.build_filter.calls"] = float(len(tracer.durations("polyfilter.build_filter")))
    out["splitfilters.rows"] = tracer.counts.get("splitfilters.rows", 0.0)
    out["harness.bootstrap_se.rss_mb"] = tracer.counts.get("harness.bootstrap_se.rss_mb", 0.0)
    trials = tracer.durations("harness.run_trial")
    out["harness.run_trial.p50_s"] = float(np.median(trials)) if trials else 0.0
    out["harness.run_trial.tail_s"] = tail(trials)
    out["harness.run_trial.samples"] = float(len(trials))
    stage = sum(tracer.durations("harness.run_monte_carlo"))
    out["harness.worker_busy_s"] = float(sum(trials))
    out["harness.worker_idle_s"] = float(stage * workers - sum(trials))
    out["estimator.iv_bias_pct"] = float(iv_bias_pct)
    out["trace.overhead_s"] = float(overhead_s)
    return {name: out[name] for name in LAYER_UNITS}
