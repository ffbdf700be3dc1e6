"""Correctness checks: pinned run statistics, trace-body digests and the
golden grid.

A run's statistics are its ``RunMetrics`` in a JSON-safe form with every
float kept as its ``repr``, so a pin compares exactly and NaN compares
equal to NaN.  A trace body is every line after the ``#`` header; the
header carries the config digest, which changes when a config field is
added or removed even though the simulated events do not.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

# Seed at which every workload's runs are pinned.  Other seeds get the
# structural checks only, plus the printed digest.
PINNED_SEED = 1

SCHEMES = ("proposed", "vmasc", "random")

# Config variants of the golden grid, each run for every scheme at
# every seed in GRID_SEEDS, on top of the default scenario.
GRID_VARIANTS: Dict[str, Dict[str, object]] = {
    "geometric": {"residual_mode": "geometric"},
    "instantaneous": {"snr_fading": "instantaneous"},
    "benchmarks_use_backup": {"benchmarks_use_backup": True},
    "backup_raw_scores": {"backup_raw_scores": True},
}
GRID_SEEDS = (1, 2, 3)


def pin_form(rm) -> Dict[str, object]:
    """JSON-safe, exactly comparable form of one RunMetrics."""
    return {
        "per_cluster": sorted([int(c), int(n)] for c, n in rm.per_cluster.items()),
        "total_reselections": int(rm.total_reselections),
        "cumulative": [[repr(float(t)), int(n)] for t, n in rm.cumulative],
        "degraded_selections": int(rm.degraded_selections),
        "mean_snr": repr(float(rm.mean_snr)),
    }


def from_pin_form(metrics_module, pinned: Dict[str, object]):
    """Rebuild the RunMetrics a pin_form came from."""
    return metrics_module.RunMetrics(
        per_cluster={c: n for c, n in pinned["per_cluster"]},
        total_reselections=pinned["total_reselections"],
        cumulative=tuple((float(t), n) for t, n in pinned["cumulative"]),
        mean_snr=float(pinned["mean_snr"]),
        degraded_selections=pinned["degraded_selections"],
    )


def load_pins(path: str = PINS_PATH) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj, indent: str = "") -> str:
    """JSON with one line per dict that holds no dict, so each run's
    metrics sit on one line and a re-pin diffs run by run."""
    if not isinstance(obj, dict) or not any(isinstance(v, dict) for v in obj.values()):
        return json.dumps(obj, sort_keys=True, separators=(", ", ": "))
    inner = indent + " "
    items = [f"{inner}{json.dumps(k)}: {_dump(obj[k], inner)}" for k in sorted(obj)]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def save_pins(pins: Dict[str, object], path: str = PINS_PATH) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_dump(pins) + "\n")
    os.replace(tmp, path)


def trace_body(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    return data[data.index(b"\n") + 1:]


def bodies_sha256(paths: Iterable[str]) -> str:
    """sha256 over the trace bodies, each prefixed by its length."""
    h = hashlib.sha256()
    for path in paths:
        body = trace_body(path)
        h.update(len(body).to_bytes(8, "big"))
        h.update(body)
    return h.hexdigest()


def trace_path(out_dir: str, scheme: str, run_index: int) -> str:
    """Where the CLI writes a run's trace (README: output layout)."""
    return os.path.join(out_dir, "traces", f"{scheme}_run{run_index:04d}.trace")


def run_key(scheme: str, run_index: int) -> str:
    return f"{scheme}_run{run_index:04d}"


class RunVerifier:
    """Checks every trace a ``compare`` call wrote, memoised on its bytes.

    A run fails if its trace does not parse, if the metrics of the
    parsed trace differ from those of the same run simulated in memory,
    or, when ``pinned`` is given, if they differ from the pin.  The
    simulator is deterministic, so a trace whose bytes were already
    verified needs no second simulation.
    """

    def __init__(self, uav, config, runs: int, seed: int,
                 pinned: Optional[Dict[str, object]] = None):
        self.uav = uav
        self.config = config
        self.runs = runs
        self.plan = uav.cli.seed_plan(seed, runs, SCHEMES)
        self.pinned = pinned
        self._memo: Dict[Tuple[str, bytes], Tuple[Optional[str], object]] = {}

    def keys(self) -> List[Tuple[str, int]]:
        return [(scheme, k) for scheme in SCHEMES for k in range(self.runs)]

    def in_memory_metrics(self, scheme: str, run_index: int):
        cfg = dataclasses.replace(self.config, scheme=scheme)
        events = self.uav.engine.run(cfg, seeds=self.plan[run_index][scheme])
        return self.uav.metrics.run_metrics(events)

    def _verify(self, scheme: str, run_index: int,
                path: str) -> Tuple[Optional[str], object]:
        """(problem or None, pin form of the on-disk metrics)."""
        try:
            _, events = self.uav.trace.read_trace(path)
        except (OSError, ValueError, KeyError) as exc:
            return f"trace does not parse: {exc!r}", None
        on_disk = pin_form(self.uav.metrics.run_metrics(events))
        if on_disk != pin_form(self.in_memory_metrics(scheme, run_index)):
            return "on-disk and in-memory run_metrics differ", on_disk
        if self.pinned is not None:
            if on_disk != self.pinned["runs"].get(run_key(scheme, run_index)):
                return "run_metrics differ from the pin", on_disk
        return None, on_disk

    def check(self, out_dir: str) -> Tuple[Dict[str, str], Dict[str, object]]:
        """Failures by run key, and the pin form of every run that parsed."""
        failures: Dict[str, str] = {}
        forms: Dict[str, object] = {}
        for scheme, k in self.keys():
            key = run_key(scheme, k)
            path = trace_path(out_dir, scheme, k)
            try:
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).digest()
            except OSError as exc:
                failures[key] = f"trace missing: {exc!r}"
                continue
            memo_key = (key, digest)
            if memo_key not in self._memo:
                self._memo[memo_key] = self._verify(scheme, k, path)
            problem, form = self._memo[memo_key]
            if problem is not None:
                failures[key] = problem
            if form is not None:
                forms[key] = form
        return failures, forms

    def body_digest(self, out_dir: str) -> str:
        return bodies_sha256(trace_path(out_dir, s, k) for s, k in self.keys())


def grid_cells() -> List[Tuple[str, str, int, str]]:
    """(cell key, variant, seed, scheme) for every golden-grid cell."""
    return [(f"{variant}/seed{seed}/{scheme}", variant, seed, scheme)
            for variant in GRID_VARIANTS for seed in GRID_SEEDS
            for scheme in SCHEMES]


def grid_cell(uav, variant: str, seed: int, scheme: str,
              work_dir: str) -> Dict[str, object]:
    """Simulate one golden-grid cell; its trace-body digest and metrics.

    The trace goes through the CLI's writer and reader, so the digest
    is of the bytes on disk and the metrics must agree both ways.
    """
    cfg = uav.config.validate(dataclasses.replace(
        uav.config.SimConfig(), seed=seed, scheme=scheme,
        **GRID_VARIANTS[variant]))
    events = uav.engine.run(cfg, seeds=uav.seeding.run_seeds(seed, 0, scheme))
    path = os.path.join(work_dir, "grid.trace")
    uav.trace.write_trace(path, {"config": cfg.digest(), "scheme": scheme}, events)
    in_memory = pin_form(uav.metrics.run_metrics(events))
    on_disk = pin_form(uav.metrics.run_metrics(uav.trace.read_trace(path)[1]))
    if in_memory != on_disk:
        raise ValueError("on-disk and in-memory run_metrics differ")
    return {"trace_body_sha256": bodies_sha256([path]), "run_metrics": in_memory}


def check_grid(uav, pinned: Dict[str, object], work_dir: str,
               log: Callable[[str], None]) -> Tuple[int, int]:
    """(cells attempted, cells failed) against the pinned golden grid."""
    failed = 0
    cells = grid_cells()
    for key, variant, seed, scheme in cells:
        try:
            got = grid_cell(uav, variant, seed, scheme, work_dir)
        except (TypeError, ValueError) as exc:  # TypeError: variant field gone
            log(f"golden grid {key}: {exc}")
            failed += 1
            continue
        want = pinned.get(key)
        if got != want:
            what = ("trace body" if want and got["run_metrics"] == want["run_metrics"]
                    else "run_metrics")
            log(f"golden grid {key}: {what} differs from the pin")
            failed += 1
    return len(cells), failed
