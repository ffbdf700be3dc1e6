"""Experiment driver.

Subcommands::

    run      one scheme, one config, N seeded runs: compare of one scheme
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
import shutil
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
    index (paired design); only the scheme-random stream differs.  A
    run index's schemes run in lockstep over one fleet, in a block of
    run indices (engine.run_block).
    """
    if run_count < 1:
        raise ValueError("seed_plan: run count must be >= 1")
    return [{scheme: run_seeds(seed_base, k, scheme) for scheme in schemes}
            for k in range(run_count)]


def _trace_path(out_dir: str, scheme: str, run_index: int) -> str:
    return os.path.join(out_dir, "traces", f"{scheme}_run{run_index:04d}.trace")


def _execute_block(task: Tuple[SimConfig, List[Dict[str, RunSeeds]], str, int]
                   ) -> List[Dict[str, metrics.TraceRun]]:
    """Worker entry point: simulate every scheme of a block of
    consecutive run indices, from the first given, persist their traces
    and score them in memory.

    Each scheme's header meta is what parse_header reads back from its
    trace, so the scores equal those `metrics` computes from the files.
    """
    config, plans, out_dir, first = task
    digests = {scheme: dataclasses.replace(config, scheme=scheme).digest()
               for scheme in plans[0]}
    scored = []
    for run_index, (plan, traces) in enumerate(
            zip(plans, engine.run_block(config, plans)), first):
        runs = {}
        for scheme, events in traces.items():
            seeds = plan[scheme]
            meta = {
                "config": digests[scheme],
                "scheme": scheme,
                "run": str(run_index),
                "seed": str(config.seed),
                "mobility_seed": str(seeds.mobility),
                "fading_seed": str(seeds.fading),
                "scheme_seed": str(seeds.scheme),
            }
            trace.write_trace(_trace_path(out_dir, scheme, run_index), meta,
                              events)
            runs[scheme] = (meta, metrics.run_metrics(events))
        scored.append(runs)
    return scored


def _reset_out(out_dir: str, config: SimConfig) -> None:
    """Give out_dir the echo of config, which a later `metrics` scores
    with, and remove the traces, aggregates and plots an earlier
    experiment left there, so that out_dir and `metrics` see only this
    experiment's output."""
    os.makedirs(out_dir, exist_ok=True)
    trace.atomic_write(os.path.join(out_dir, "config.echo"), dump_config(config))
    root = glob.escape(out_dir)  # out_dir is a name, not a pattern
    for stale in (glob.glob(os.path.join(root, "traces", "*.trace"))
                  + glob.glob(os.path.join(root, "aggregate.*.txt"))
                  + glob.glob(os.path.join(root, "plots", "*.dat"))):
        os.remove(stale)


def _run_experiment(config: SimConfig, schemes: Sequence[str], runs: int,
                    out_dir: str, workers: int) -> Dict[str, List[metrics.TraceRun]]:
    """Fan out one task per block of consecutive run indices, on at most
    min(workers, runs) processes: this one and a pool of the rest, no
    larger than the blocks sent to it; returns each scheme's header and
    run metrics per run index, scored in memory by the tasks.  A block
    holds ceil(runs / workers) run indices, at most engine.BLOCK_ROWS
    fleet rows and at least one run.  out_dir is reset first
    (_reset_out).
    """
    _reset_out(out_dir, config)
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    workers = min(workers, runs)
    size = max(1, min(-(-runs // workers),
                      engine.BLOCK_ROWS // config.num_vehicles))
    plans = seed_plan(config.seed, runs, schemes)
    tasks = [(config, plans[k:k + size], out_dir, k)
             for k in range(0, runs, size)]
    pooled = [task for k, task in enumerate(tasks) if k % workers]
    if pooled:
        # this process runs every workers-th block, from the first,
        # while at most workers - 1 pool processes share the others
        with ProcessPoolExecutor(
                max_workers=min(workers - 1, len(pooled))) as pool:
            theirs = pool.map(_execute_block, pooled)
            mine = iter([_execute_block(task) for task in tasks[::workers]])
            blocks = [next(theirs if k % workers else mine)
                      for k in range(len(tasks))]
    else:
        blocks = [_execute_block(task) for task in tasks]
    scored = [by_scheme for block in blocks for by_scheme in block]
    return {scheme: [by_scheme[scheme] for by_scheme in scored]
            for scheme in schemes}


def _write_aggregates(out_dir: str, config: SimConfig,
                      runs: Dict[str, List[metrics.TraceRun]]
                      ) -> Dict[str, metrics.AggregateMetrics]:
    """Write aggregate.<scheme>.txt; digest and seed come from the trace headers."""
    per_scheme = {s: metrics.aggregate_traces(r) for s, r in runs.items()}
    scores = None
    if len(per_scheme) > 1:
        # LikelihoodParams' fields are SimConfig's
        scores = metrics.compare_schemes(per_scheme, metrics.LikelihoodParams(
            *(getattr(config, f) for f in metrics.LikelihoodParams._fields)))
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
        trace.atomic_write(os.path.join(out_dir, f"aggregate.{scheme}.txt"),
                           "\n".join(lines) + "\n")
    return per_scheme


def _write_plot(path: str, x_name: str, xs: Sequence[float],
                series: Dict[str, List[float]]) -> None:
    """One plot file: a row per x, a column per scheme (sorted), every
    value normalized by the global maximum."""
    schemes = sorted(series)
    peak = max((max(s) for s in series.values()), default=0.0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [f"# {x_name} " + " ".join(schemes)]
    for i, x in enumerate(xs):
        row = [trace.format_number(x)]
        for scheme in schemes:
            value = series[scheme][i] / peak if peak > 0 else 0.0
            row.append(f"{value:.6f}")
        lines.append(" ".join(row))
    trace.atomic_write(path, "\n".join(lines) + "\n")


def _write_experiment(config: SimConfig, schemes: Sequence[str], runs: int,
                      out_dir: str, workers: int
                      ) -> Dict[str, metrics.AggregateMetrics]:
    """Run one experiment into out_dir: traces, aggregates, and the mean
    cumulative re-selections per scheme on the CAM grid."""
    scored = _run_experiment(config, schemes, runs, out_dir, workers)
    per_scheme = _write_aggregates(out_dir, config, scored)
    step = config.slots(config.cam_interval)
    grid = [k * config.slot_duration
            for k in range(0, config.num_slots + 1, step)]
    series = {}
    for scheme, scheme_runs in scored.items():
        cum = [metrics.cumulative_at(rm, grid) for _, rm in scheme_runs]
        series[scheme] = [sum(col) / len(col) for col in zip(*cum)]
    _write_plot(os.path.join(out_dir, "plots", "reselections_vs_time.dat"),
                "time", grid, series)
    return per_scheme


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


def _experiment_schemes(args) -> List[str]:
    """The schemes of --scheme (all by default).  Bad or repeated schemes,
    runs or workers are rejected here, before anything under --out is
    touched."""
    schemes = args.scheme.split(",") if args.scheme else list(SCHEMES)
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme(s) {unknown}; expected {list(SCHEMES)}")
    repeated = sorted({s for s in schemes if schemes.count(s) > 1})
    if repeated:
        raise ValueError(f"scheme(s) {repeated} given more than once")
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    return schemes


def _cmd_compare(args) -> int:
    config = _load_base_config(args)
    _write_experiment(config, _experiment_schemes(args), args.runs, args.out,
                      args.workers)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_base_config(args)
    schemes = _experiment_schemes(args)
    values = [int(v) if args.var == "vehicles" else float(v)
              for v in args.values.split(",")]
    if sorted(values) != values or len(set(values)) != len(values):
        print("sweep: --values must be strictly increasing", file=sys.stderr)
        return 2
    field = "num_vehicles" if args.var == "vehicles" else "total_time"
    # every point is checked before anything under --out is written
    points = [validate(dataclasses.replace(config, **{field: value}))
              for value in values]
    # the sweep's own output, and the point directories an earlier
    # sweep wrote (the ones holding an echo), are replaced
    _reset_out(args.out, config)
    for var in ("vehicles", "duration"):
        for stale in glob.glob(os.path.join(glob.escape(args.out), f"{var}_*",
                                            "config.echo")):
            shutil.rmtree(os.path.dirname(stale))
    series: Dict[str, List[float]] = {s: [] for s in schemes}
    for value, point_cfg in zip(values, points):
        point_dir = os.path.join(args.out,
                                 f"{args.var}_{trace.format_number(value)}")
        per_scheme = _write_experiment(point_cfg, schemes, args.runs,
                                       point_dir, args.workers)
        for scheme, agg in per_scheme.items():
            series[scheme].append(agg.mean_total)
    _write_plot(os.path.join(args.out, "plots", f"sweep_{args.var}.dat"),
                args.var, values, series)
    return 0


def _cmd_metrics(args) -> int:
    # without --config, score with the likelihood parameters the traces
    # were aggregated with: those of the experiment's config echo
    echo = os.path.join(args.out, "config.echo")
    config = _load_base_config(args, echo if os.path.isfile(echo) else None)
    trace_dir, root = os.path.join(args.out, "traces"), glob.escape(args.out)
    paths = sorted(glob.glob(os.path.join(root, "traces", "*.trace")))
    if not paths:
        print(f"metrics: no trace files in {trace_dir}", file=sys.stderr)
        return 2
    by_scheme: Dict[str, List[metrics.TraceRun]] = {}
    holders: Dict[Tuple[str, str], List[str]] = {}
    for path in paths:
        run = metrics.score_trace(path)
        for key in ("config", "scheme", "seed", "run"):  # what is read here
            if key not in run[0]:
                raise ValueError(f"{path}, line 1: the trace header has no {key}=")
        by_scheme.setdefault(run[0]["scheme"], []).append(run)
        holders.setdefault((run[0]["scheme"], run[0]["run"]), []).append(path)
    # a run index held twice would be scored twice
    for (scheme, index), held in holders.items():
        if len(held) > 1:
            raise ValueError(f"{held[0]} and {held[1]} both hold run {index} "
                             f"of {scheme}")
    plot = os.path.join(args.out, "plots", "reselections_vs_time.dat")
    plotted = set()  # the schemes the plot's header names
    if os.path.isfile(plot):
        with open(plot, encoding="utf-8", errors="replace") as fh:
            plotted = set(fh.readline().split()[2:])
    _write_aggregates(args.out, config, by_scheme)  # scores, then writes
    # an aggregate or plot of a scheme no trace is left of is stale
    kept = {os.path.join(args.out, f"aggregate.{s}.txt") for s in by_scheme}
    for stale in set(glob.glob(os.path.join(root, "aggregate.*.txt"))) - kept:
        os.remove(stale)
    if plotted - set(by_scheme):
        os.remove(plot)
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
    p_run.set_defaults(func=_cmd_compare)

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
    except (ConfigError, ValueError, OSError, ArithmeticError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
