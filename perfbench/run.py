"""uavclust benchmark: simulated runs per second on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (runs_per_s, setup_s,
peak_rss_mb); ``--trace 1`` makes a separate traced run at one worker
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and the checks.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

import checks  # noqa: E402  (sibling module; needs no uavclust import)
import tracer as tracing  # noqa: E402

MODULES = ("cli", "config", "engine", "metrics", "seeding", "trace")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "compare" simulates; "metrics" re-aggregates
    config_text: str      # flat key = value config handed to --config
    runs: int             # --runs: each run is one operation per scheme
    workers: int
    setup_reps: int       # set-ups per benchmark run; setup_s is their median


WORKLOADS = {w.name: w for w in (
    # The paper's headline experiment: default scenario (I = 12, 700 s,
    # large-scale SNR), all three schemes, one process.  Dominated by
    # mobility.step and the engine loop; writes and parses every trace.
    Workload("paper_default", "compare", "", runs=5, workers=1, setup_reps=15),
    # Dense road: I = 100 makes the O(I^2) neighbor table dominate, and
    # instantaneous fading adds a fast-fading draw per link sample.  Two
    # workers exercise the process pool (2 = cores of the reference box).
    Workload("dense_road", "compare",
             "num_vehicles = 100\nsnr_fading = instantaneous\n",
             runs=2, workers=2, setup_reps=15),
    # Re-aggregation of traces written during set-up: no simulation,
    # only trace parsing and metrics.  Set-up writes the traces of a
    # paper_default compare.
    Workload("reaggregate", "metrics", "", runs=10, workers=1, setup_reps=3),
)}


def import_uavclust() -> types.SimpleNamespace:
    """Fresh import of the uavclust package from the checkout's src/.

    Earlier imports are dropped first so every set-up pays the package's
    own import cost.  numpy stays imported: it cannot be re-imported in
    one process.
    """
    for name in [m for m in sys.modules
                 if m == "uavclust" or m.startswith("uavclust.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"uavclust.{name}") for name in MODULES})


def compare_argv(config_path: str, runs: int, seed: int, workers: int,
                 out_dir: str) -> List[str]:
    return ["compare", "--config", config_path, "--runs", str(runs),
            "--seed", str(seed), "--workers", str(workers), "--out", out_dir]


@dataclasses.dataclass
class Prepared:
    uav: types.SimpleNamespace
    config: object        # the SimConfig the CLI derives from the argv
    config_path: str
    out_dir: str


def set_up(wl: Workload, seed: int, work: str) -> Tuple[Prepared, float]:
    """One set-up: import, config validation and, for re-aggregation,
    writing the input traces.  Returns the prepared state and its
    wall time."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gc.collect()
    start = time.perf_counter()
    uav = import_uavclust()
    config_path = os.path.join(work, "workload.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text)
    config = uav.config.validate(dataclasses.replace(
        uav.config.load_config(config_path), seed=seed))
    out_dir = os.path.join(work, "out")
    if wl.command == "metrics":
        rc = uav.cli.main(compare_argv(config_path, wl.runs, seed, 1, out_dir))
        if rc != 0:
            raise RuntimeError(f"set-up compare exited with {rc}")
    elapsed = time.perf_counter() - start
    return Prepared(uav, config, config_path, out_dir), elapsed


def read_aggregate(path: str) -> Dict[str, str]:
    """Fields of an aggregate.<scheme>.txt, minus those the `metrics`
    subcommand takes from its own base config instead of the traces."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(": ")
            fields[key] = value
    for key in ("config_digest", "seed_base"):
        fields.pop(key, None)
    return fields


def expected_aggregates(uav, config, forms: Dict[str, object],
                        runs: int) -> Dict[str, Dict[str, str]]:
    """Aggregate-file fields computed in memory from verified run metrics."""
    per_scheme = {
        scheme: uav.metrics.aggregate([
            checks.from_pin_form(uav.metrics, forms[checks.run_key(scheme, k)])
            for k in range(runs)])
        for scheme in checks.SCHEMES}
    params = uav.metrics.LikelihoodParams(
        weight_reselect=config.weight_reselect, weight_snr=config.weight_snr,
        poisson_rate=config.poisson_rate, gauss_mean=config.gauss_mean,
        gauss_var=config.gauss_var)
    scores = uav.metrics.compare_schemes(per_scheme, params)
    out = {}
    for scheme, agg in per_scheme.items():
        fields = {
            "scheme": scheme,
            "runs": str(runs),
            "mean_total_reselections": repr(agg.mean_total),
            "mean_snr": repr(agg.mean_snr),
            "mean_degraded_selections": repr(agg.mean_degraded),
        }
        for cid, count in agg.mean_per_cluster.items():
            fields[f"mean_reselections_cluster_{cid}"] = repr(count)
        sc = scores[scheme]
        fields["normalized_reselections"] = repr(sc.normalized_reselections)
        fields["normalized_snr"] = repr(sc.normalized_snr)
        fields["robustness_likelihood"] = repr(sc.likelihood)
        out[scheme] = fields
    return out


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(WORK, wl.name)
        self.attempted = 0
        self.failed = 0
        self.pins = checks.load_pins()
        self.pinned = (self.pins["workloads"][wl.name]
                       if seed == checks.PINNED_SEED else None)

    def log(self, text: str) -> None:
        print(text, flush=True)

    # -- correctness -----------------------------------------------------

    def check_grid(self) -> None:
        grid_dir = os.path.join(self.work, "grid")
        os.makedirs(grid_dir, exist_ok=True)
        cells, failed = checks.check_grid(self.prep.uav, self.pins["golden_grid"],
                                          grid_dir, self.log)
        self.log(f"golden grid: {cells - failed}/{cells} cells match the pin")
        self.attempted += cells
        self.failed += failed

    def check_call(self, rc: int) -> Tuple[int, Dict[str, object]]:
        """Failed operations of the call just made, and the run metrics
        of the runs it produced."""
        if rc != 0:
            self.log(f"cli exited with {rc}")
            return self.ops_per_call, {}
        if self.input_failures:
            return self.ops_per_call, {}
        if self.wl.command == "compare":
            failures, forms = self.verifier.check(self.prep.out_dir)
            for key, problem in sorted(failures.items()):
                self.log(f"failed run {key}: {problem}")
            return len(failures), forms
        failed = 0
        for scheme, want in self.expected.items():
            path = os.path.join(self.prep.out_dir, f"aggregate.{scheme}.txt")
            try:
                got = read_aggregate(path)
            except OSError as exc:
                got = {"error": repr(exc)}
            if got != want:
                self.log(f"aggregate.{scheme}.txt differs from the in-memory "
                         "aggregate")
                failed += self.wl.runs
        return failed, {}

    # -- phases ----------------------------------------------------------

    def set_up(self) -> float:
        times = []
        for _ in range(self.wl.setup_reps):
            self.prep, elapsed = set_up(self.wl, self.seed, self.work)
            times.append(elapsed)
        self.log(f"set-up times (s): {', '.join(f'{t:.4f}' for t in times)}")
        prep = self.prep
        runs = self.wl.runs
        self.verifier = checks.RunVerifier(prep.uav, prep.config, runs,
                                           self.seed, self.pinned)
        self.ops_per_call = runs * len(checks.SCHEMES)
        self.input_failures: Dict[str, str] = {}
        if self.wl.command == "metrics":
            self.input_failures, forms = self.verifier.check(prep.out_dir)
            for key, problem in sorted(self.input_failures.items()):
                self.log(f"failed input run {key}: {problem}")
            self.report_digest()
            self.expected = (expected_aggregates(prep.uav, prep.config, forms, runs)
                             if not self.input_failures else {})
        return statistics.median(times)

    def report_digest(self) -> None:
        digest = self.verifier.body_digest(self.prep.out_dir)
        if self.pinned is None:
            status = "unpinned seed"
        elif digest == self.pinned["trace_body_sha256"]:
            status = "matches the pin"
        else:
            status = "differs from the pin"
        self.log(f"trace_body_sha256 {self.wl.name} seed={self.seed}: "
                 f"{digest} ({status})")

    def argv(self, workers: int) -> List[str]:
        prep = self.prep
        if self.wl.command == "metrics":
            return ["metrics", "--out", prep.out_dir]
        return compare_argv(prep.config_path, self.wl.runs, self.seed, workers,
                            prep.out_dir)

    def call(self, argv: List[str], tracer: Optional[tracing.Tracer] = None):
        """One timed CLI call and its checks: (wall s, failed, run metrics)."""
        main = self.prep.uav.cli
        gc.collect()
        start = time.perf_counter()
        rc = tracer.call(lambda: main.main(argv)) if tracer else main.main(argv)
        wall = time.perf_counter() - start
        failed, forms = self.check_call(rc)
        return wall, failed, forms

    def warm_up(self, argv: List[str]) -> None:
        """One untimed call: fills caches and the verifier's memo."""
        _, failed, _ = self.call(argv)
        if failed:
            self.log(f"warm-up call: {failed} failed runs")
        if self.wl.command == "compare":
            self.report_digest()

    def measure(self) -> Dict[str, Tuple[float, str]]:
        """End-to-end run: repeated untraced calls for --seconds."""
        argv = self.argv(self.wl.workers)
        self.warm_up(argv)
        rates = []
        measured = 0.0
        while measured < self.seconds or len(rates) < 3:
            wall, failed, _ = self.call(argv)
            measured += wall
            rates.append(self.ops_per_call / wall)
            self.attempted += self.ops_per_call
            self.failed += failed
        self.log(f"runs/s per call: {', '.join(f'{r:.4f}' for r in rates)}")
        return {"runs_per_s": (statistics.median(rates), "runs/s")}

    def measure_traced(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer run: alternating untraced and traced calls at one
        worker; the traced runs must reproduce the untraced statistics
        (run metrics for compare; the aggregate check for metrics)."""
        argv = self.argv(1)
        self.warm_up(argv)
        tracer = tracing.Tracer()
        traced: List[float] = []
        untraced: List[float] = []
        while sum(traced) + sum(untraced) < self.seconds or len(traced) < 2:
            wall, failed, plain_forms = self.call(argv)
            untraced.append(wall)
            self.attempted += self.ops_per_call
            self.failed += failed
            wall, failed, traced_forms = self.call(argv, tracer)
            traced.append(wall)
            self.attempted += self.ops_per_call
            if traced_forms != plain_forms:
                self.log("traced run statistics differ from the untraced run")
                failed = self.ops_per_call
            self.failed += failed
        if tracer.missing:
            self.log(f"not traced (attribute not found): {', '.join(tracer.missing)}")
        spans_path = os.path.join(self.work, "spans.jsonl")
        tracer.write_spans(spans_path)
        self.log(f"{len(tracer.spans)} spans written to "
                 f"{os.path.relpath(spans_path, ROOT)}")
        self.log("untraced runs/s per call at 1 worker: " + ", ".join(
            f"{self.ops_per_call / wall:.4f}" for wall in untraced))
        runs = self.ops_per_call * len(traced)
        return tracing.per_layer_metrics(tracer, runs, traced, untraced)

    def run(self) -> Dict[str, object]:
        setup_s = self.set_up()
        self.check_grid()
        if self.trace:
            metrics = self.measure_traced()
        else:
            metrics = self.measure()
            metrics["setup_s"] = (setup_s, "s")
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        for name, (value, unit) in metrics.items():
            self.log(f"{name}: {value:.6g} {unit}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.PINNED_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uavclust", "__init__.py")):
        print(f"benchmark: no uavclust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    result = bench.run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
