"""Span tracer that wraps uavclust functions from outside the package.

Each layer function is wrapped under the name its caller resolves it
by (``uavclust.engine.step``, not ``uavclust.mobility.step``), because
``from .mobility import step`` binds a second reference that patching
the defining module would miss.  Every call records one span
``(id, parent id, layer, start, end)``; spans stay in memory until the
caller writes them out.  ``install`` and ``restore`` bracket one traced
call so the untimed correctness checks never run through the wrappers.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer name -> (module, attribute path) pairs it covers.  The layer
# names are the defining modules; the attribute paths are the call sites.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli.main": (("uavclust.cli", "main"),),
    "engine.run": (("uavclust.engine", "run"),),
    "mobility.step": (("uavclust.engine", "step"),),
    "mobility.neighbor_table": (("uavclust.engine", "neighbor_table"),),
    "channel.link_draw": (("uavclust.engine", "Simulation._link_rng"),
                          ("uavclust.channel", "sample_shadowing"),
                          ("uavclust.channel", "sample_fast_fading")),
    "assignment.assign": (("uavclust.engine", "assign"),),
    "chselect.select_ch": (("uavclust.engine", "select_ch"),),
    "chselect.select_ch_vmasc": (("uavclust.engine", "select_ch_vmasc"),),
    "chselect.select_ch_random": (("uavclust.engine", "select_ch_random"),),
    "backup.build_backup_list": (("uavclust.engine", "build_backup_list"),),
    "backup.pop_replacement": (("uavclust.engine", "pop_replacement"),),
    "trace.write_trace": (("uavclust.trace", "write_trace"),),
    "trace.read_trace": (("uavclust.trace", "read_trace"),),
    "metrics.run_metrics": (("uavclust.metrics", "run_metrics"),),
}

# Layers whose results are counted as useful or not: a backup pop is
# useful when it seats a replacement instead of falling back to a full
# re-selection.
USEFUL: Dict[str, Callable[[object], bool]] = {
    "backup.pop_replacement": lambda result: result[0] is not None,
}


def _resolve_owner(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or
    None when the module or an intermediate attribute no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Wraps the functions named in LAYERS and records their spans."""

    def __init__(self):
        self.spans: List[Optional[Tuple[int, int, str, float, float]]] = []
        self.useful: Dict[str, int] = {name: 0 for name in USEFUL}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        judge = USEFUL.get(layer)
        useful = self.useful

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, layer, start, end)
            if judge is not None and judge(result):
                useful[layer] += 1
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer, sites in LAYERS.items():
            for module_name, path in sites:
                found = _resolve_owner(module_name, path)
                if found is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, fn):
        """Run fn() with the wrappers installed, restoring them after.

        fn should look its callees up at call time (``lambda:
        cli.main(argv)``): a function object taken before install is the
        unwrapped original.
        """
        self.install()
        try:
            return fn()
        finally:
            self.restore()

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread nest, so children never
        overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, parent, _, start, end = span
            if parent >= 0:
                child_time[parent] += end - start
        stats = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for layer in LAYERS}
        for sid, _, layer, start, end in self.spans:
            entry = stats[layer]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return stats

    def durations(self, layer: str) -> List[float]:
        return [end - start for _, _, name, start, end in self.spans
                if name == layer]

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [id, parent, layer, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(tracer: Tracer, runs: int, traced_call_s: List[float],
                      untraced_call_s: List[float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metric values with their units, from the traced calls.

    ``runs`` is the number of operations (simulated or re-aggregated
    runs) the traced calls completed.
    """
    stats = tracer.layer_stats()
    traced_wall_s = sum(traced_call_s)
    out: Dict[str, Tuple[float, str]] = {}
    for layer, entry in stats.items():
        calls = entry["calls"]
        out[f"{layer}.calls_per_run"] = (calls / runs, "count")
        out[f"{layer}.us_per_call"] = (
            entry["total_s"] / calls * 1e6 if calls else 0.0, "us")
        out[f"{layer}.self_share"] = (entry["self_s"] / traced_wall_s, "ratio")
    run_ms = [d * 1e3 for d in tracer.durations("engine.run")]
    if len(run_ms) >= 2:
        deciles = statistics.quantiles(run_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(run_ms), deciles[8]
    else:
        p50 = p90 = run_ms[0] if run_ms else 0.0
    out["engine.run.ms_p50"] = (p50, "ms")
    out["engine.run.ms_p90"] = (p90, "ms")
    pops = stats["backup.pop_replacement"]["calls"]
    out["backup.hit_ratio"] = (
        tracer.useful["backup.pop_replacement"] / pops if pops else 0.0, "ratio")
    out["trace.reads_per_run"] = (
        stats["trace.read_trace"]["calls"] / runs, "count")
    out["tracing_overhead"] = (
        statistics.median(traced_call_s) / statistics.median(untraced_call_s) - 1.0,
        "ratio")
    return out
