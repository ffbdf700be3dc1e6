"""Experiment driver.

Subcommands::

    run      one scheme, one config, N seeded runs
    compare  all schemes on shared (paired) mobility seeds
    sweep    compare across a swept variable (vehicles | duration)
    metrics  re-aggregate previously written trace files

Output layout, one directory per experiment::

    out/
      config.echo            loadable echo of the effective base config
      traces/<scheme>_run<k>.trace
      aggregate.<scheme>.txt
      plots/*.dat            whitespace-separated columns, '#' header
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from . import engine, metrics, trace
from .config import SCHEMES, SimConfig, ConfigError, dump_config, load_config, validate
from .seeding import RunSeeds, run_seeds


def seed_plan(seed_base: int, run_count: int,
              schemes: Sequence[str]) -> List[Dict[str, RunSeeds]]:
    """Per-run, per-scheme stream seeds.

    Mobility and fading seeds are shared across schemes at each run
    index (paired design); only the scheme-random stream differs.  Each
    run index is one task: its schemes run in lockstep over one fleet.
    """
    if run_count < 1:
        raise ValueError("seed_plan: run count must be >= 1")
    return [{scheme: run_seeds(seed_base, k, scheme) for scheme in schemes}
            for k in range(run_count)]


def _trace_path(out_dir: str, scheme: str, run_index: int) -> str:
    return os.path.join(out_dir, "traces", f"{scheme}_run{run_index:04d}.trace")


def _execute_run_index(task: Tuple[SimConfig, Dict[str, RunSeeds], str, int]) -> None:
    """Worker entry point: simulate every scheme of one run index and
    persist their traces."""
    config, plan, out_dir, run_index = task
    for scheme, events in engine.run_paired(config, plan).items():
        seeds = plan[scheme]
        trace.write_trace(_trace_path(out_dir, scheme, run_index), {
            "config": dataclasses.replace(config, scheme=scheme).digest(),
            "scheme": scheme,
            "run": str(run_index),
            "seed": str(config.seed),
            "mobility_seed": str(seeds.mobility),
            "fading_seed": str(seeds.fading),
            "scheme_seed": str(seeds.scheme),
        }, events)


def _read_runs(paths: Sequence[str]) -> List[metrics.TraceRun]:
    """Parse each trace once into its header and run metrics."""
    return [(header, metrics.run_metrics(events))
            for header, events in map(trace.read_trace, paths)]


def _run_experiment(config: SimConfig, schemes: Sequence[str], runs: int,
                    out_dir: str, workers: int) -> Dict[str, List[metrics.TraceRun]]:
    """Fan out one task per run index, on min(workers, runs) processes
    (in this one if that is 1); returns the parsed runs per scheme.

    out_dir gets the echo of config, which a later `metrics` scores
    with.  Traces left in out_dir by an earlier experiment are removed
    first, so that `metrics` sees only this experiment's runs.
    """
    _echo_config(out_dir, config)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(trace_dir, "*.trace")):
        os.remove(stale)
    tasks = [(config, plan, out_dir, k)
             for k, plan in enumerate(seed_plan(config.seed, runs, schemes))]
    workers = min(workers, runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_execute_run_index, tasks))
    else:
        for task in tasks:
            _execute_run_index(task)
    return {scheme: _read_runs([_trace_path(out_dir, scheme, k)
                                for k in range(runs)])
            for scheme in schemes}


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _likelihood_params(config: SimConfig) -> metrics.LikelihoodParams:
    return metrics.LikelihoodParams(
        weight_reselect=config.weight_reselect, weight_snr=config.weight_snr,
        poisson_rate=config.poisson_rate, gauss_mean=config.gauss_mean,
        gauss_var=config.gauss_var)


def _write_aggregates(out_dir: str, config: SimConfig,
                      runs: Dict[str, List[metrics.TraceRun]]
                      ) -> Dict[str, metrics.AggregateMetrics]:
    """Write aggregate.<scheme>.txt; digest and seed come from the trace headers."""
    per_scheme = {s: metrics.aggregate_traces(r) for s, r in runs.items()}
    scores = None
    if len(per_scheme) > 1:
        scores = metrics.compare_schemes(per_scheme, _likelihood_params(config))
    for scheme, agg in sorted(per_scheme.items()):
        header = runs[scheme][0][0]
        lines = [
            f"scheme: {scheme}",
            f"config_digest: {header['config']}",
            f"runs: {agg.runs}",
            f"seed_base: {header['seed']}",
            f"mean_total_reselections: {agg.mean_total!r}",
            f"mean_snr: {agg.mean_snr!r}",
            f"mean_degraded_selections: {agg.mean_degraded!r}",
        ]
        for cid, count in sorted(agg.mean_per_cluster.items()):
            lines.append(f"mean_reselections_cluster_{cid}: {count!r}")
        if scores is not None:
            sc = scores[scheme]
            lines.append(f"normalized_reselections: {sc.normalized_reselections!r}")
            lines.append(f"normalized_snr: {sc.normalized_snr!r}")
            lines.append(f"robustness_likelihood: {sc.likelihood!r}")
        _atomic_write(os.path.join(out_dir, f"aggregate.{scheme}.txt"),
                      "\n".join(lines) + "\n")
    return per_scheme


def _write_time_series(out_dir: str, config: SimConfig,
                       runs: Dict[str, List[metrics.TraceRun]]) -> None:
    """Mean cumulative re-selections per scheme on the CAM grid,
    normalized by the global maximum."""
    schemes = sorted(runs)
    grid = [k * config.cam_interval
            for k in range(int(config.total_time / config.cam_interval) + 1)]
    series = {}
    for scheme in schemes:
        cum = [metrics.cumulative_at(rm, grid) for _, rm in runs[scheme]]
        series[scheme] = [sum(col) / len(col) for col in zip(*cum)]
    peak = max((max(s) for s in series.values()), default=0.0)
    os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
    lines = ["# time " + " ".join(schemes)]
    for i, t in enumerate(grid):
        row = [trace.format_number(t)]
        for scheme in schemes:
            value = series[scheme][i] / peak if peak > 0 else 0.0
            row.append(f"{value:.6f}")
        lines.append(" ".join(row))
    _atomic_write(os.path.join(out_dir, "plots", "reselections_vs_time.dat"),
                  "\n".join(lines) + "\n")


def _load_base_config(args, default_path: Optional[str] = None) -> SimConfig:
    """--config, else default_path if given, else the default scenario,
    with the command-line overrides applied."""
    path = args.config or default_path
    config = load_config(path) if path else SimConfig()
    updates = {}
    if getattr(args, "vehicles", None) is not None:
        updates["num_vehicles"] = args.vehicles
    if getattr(args, "duration", None) is not None:
        updates["total_time"] = args.duration
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if updates:
        config = dataclasses.replace(config, **updates)
    return validate(config)


def _echo_config(out_dir: str, config: SimConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "config.echo"), dump_config(config))


def _cmd_run(args) -> int:
    config = _load_base_config(args)
    runs = _run_experiment(config, [args.scheme], args.runs, args.out, args.workers)
    _write_aggregates(args.out, config, runs)
    return 0


def _cmd_compare(args) -> int:
    config = _load_base_config(args)
    schemes = args.scheme.split(",") if args.scheme else list(SCHEMES)
    runs = _run_experiment(config, schemes, args.runs, args.out, args.workers)
    _write_aggregates(args.out, config, runs)
    _write_time_series(args.out, config, runs)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_base_config(args)
    schemes = args.scheme.split(",") if args.scheme else list(SCHEMES)
    values = [int(v) if args.var == "vehicles" else float(v)
              for v in args.values.split(",")]
    if sorted(values) != values or len(set(values)) != len(values):
        print("sweep: --values must be strictly increasing", file=sys.stderr)
        return 2
    field = "num_vehicles" if args.var == "vehicles" else "total_time"
    _echo_config(args.out, config)
    table: Dict[float, Dict[str, float]] = {}
    for value in values:
        point_cfg = validate(dataclasses.replace(config, **{field: value}))
        point_dir = os.path.join(args.out,
                                 f"{args.var}_{trace.format_number(value)}")
        runs = _run_experiment(point_cfg, schemes, args.runs, point_dir, args.workers)
        per_scheme = _write_aggregates(point_dir, point_cfg, runs)
        table[value] = {s: m.mean_total for s, m in per_scheme.items()}
    peak = max((v for row in table.values() for v in row.values()), default=0.0)
    os.makedirs(os.path.join(args.out, "plots"), exist_ok=True)
    lines = [f"# {args.var} " + " ".join(sorted(schemes))]
    for value in values:
        row = [trace.format_number(value)]
        for scheme in sorted(schemes):
            norm = table[value][scheme] / peak if peak > 0 else 0.0
            row.append(f"{norm:.6f}")
        lines.append(" ".join(row))
    _atomic_write(os.path.join(args.out, "plots", f"sweep_{args.var}.dat"),
                  "\n".join(lines) + "\n")
    return 0


def _cmd_metrics(args) -> int:
    # without --config, score with the likelihood parameters the traces
    # were aggregated with: those of the experiment's config echo
    echo = os.path.join(args.out, "config.echo")
    config = _load_base_config(args, echo if os.path.isfile(echo) else None)
    trace_dir = os.path.join(args.out, "traces")
    paths = sorted(glob.glob(os.path.join(trace_dir, "*.trace")))
    if not paths:
        print(f"metrics: no trace files in {trace_dir}", file=sys.stderr)
        return 2
    by_scheme: Dict[str, List[metrics.TraceRun]] = {}
    for run in _read_runs(paths):
        by_scheme.setdefault(run[0]["scheme"], []).append(run)
    _write_aggregates(args.out, config, by_scheme)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--vehicles", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavclust",
        description="UAV-assisted vehicular clustering simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single scheme, N seeded runs")
    p_run.add_argument("--scheme", default="proposed", choices=SCHEMES)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="all schemes, paired seeds")
    p_cmp.add_argument("--scheme", default=None,
                       help="comma-separated scheme subset")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep vehicles or duration")
    p_sweep.add_argument("--var", required=True,
                         choices=("vehicles", "duration"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--scheme", default=None)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_met = sub.add_parser("metrics", help="re-aggregate existing traces")
    p_met.add_argument("--config", help="config file path; only its "
                       "likelihood weights apply")
    p_met.add_argument("--out", required=True, help="output directory")
    p_met.set_defaults(func=_cmd_metrics)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
