"""Alternating in-process A/B of one workload's CLI calls: parent against change.

Run from the repository root::

    python3 tools/ab_calls.py --parent <commit> --work <scratch dir> \\
        --workload paper_default [--pairs 40] [--seed 1] [--setup]

The parent side is ``git archive`` of the given commit and the change
side a copy of the working tree (as tools/bench_pairs.py makes them).
Both packages are imported into this one process, each the way
perfbench/run.py's import_uavclust does it: from the tree's src/, after
dropping every uavclust module imported before.  Each side then calls
``cli.main`` on the workload's timed argv (perfbench/run.py's WORKLOADS
and compare_argv, at --seed), once untimed and then once per pair: the
parent first on odd pairs, the change first on even pairs.  Before each
call the side's modules are put back into sys.modules and its src/ at
the head of sys.path, so the forked workers of a process pool run that
side's code.  Separate processes pick up load from other tenants for
whole runs; calls alternated in one process share it, which resolves
differences of a few percent.

With --setup the tool times perfbench/run.py's set_up of the workload
instead of its timed call: the import of the side's package from its
src/, the config validation and, for reaggregate, the traces it writes.
Each side's set_up runs with that side's src/ at the head of sys.path,
once untimed and then once per pair, in the same alternating order.
Bytecode caching is left as the environment sets it: under
PYTHONDONTWRITEBYTECODE=1, as the benchmark's set-ups run, every set_up
compiles the package from source.

Prints each side's median and quartiles of the call's wall time (ms),
the pairs in which the change's call was faster and the ratio of the
medians, change over parent; the last line is the same as one JSON
object.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def summarize(times: Dict[str, List[float]]) -> Dict[str, object]:
    """Each side's median and quartiles of its call times (statistics
    .quantiles, inclusive method), the pairs in which the change's call
    was faster (ties counting for neither) and the ratio of the
    medians, change over parent."""
    out: Dict[str, object] = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(times[side], n=4,
                                              method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    out["change_faster_pairs"] = f"{wins}/{len(times['parent'])}"
    out["change_over_parent_median"] = (out["change"]["median"]
                                        / out["parent"]["median"])
    return out


def alternate(measure: Callable[[str], float],
              pairs: int) -> Dict[str, List[float]]:
    """Each side's measure(side) of pairs pairs, after one untimed
    measure per side: the parent first in the first, third, ... pair
    and the change first in the others."""
    for side in SIDES:
        measure(side)
    times: Dict[str, List[float]] = {side: [] for side in SIDES}
    for k in range(pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            times[side].append(measure(side))
    return times


def setup_measure(bench, wl, trees: Dict[str, str], seed: int,
                  work: str) -> Callable[[str], float]:
    """measure(side) for --setup: the wall time of bench.set_up(wl,
    seed, ...) with the side's src/ at the head of sys.path."""
    def measure(side: str) -> float:
        sys.path[0] = os.path.join(trees[side], "src")
        return bench.set_up(wl, seed, os.path.join(work, f"{side}-setup"))[1]
    return measure


def _drop_uavclust() -> None:
    for name in [m for m in sys.modules
                 if m == "uavclust" or m.startswith("uavclust.")]:
        del sys.modules[name]


def _import_tree(tree: str) -> Dict[str, object]:
    """The uavclust modules of a tree, imported fresh from its src/."""
    _drop_uavclust()
    sys.path.insert(0, os.path.join(tree, "src"))
    try:
        importlib.invalidate_caches()
        importlib.import_module("uavclust.cli")
    finally:
        sys.path.pop(0)
    return {name: module for name, module in sys.modules.items()
            if name == "uavclust" or name.startswith("uavclust.")}


def _install(tree: str, modules: Dict[str, object]) -> None:
    _drop_uavclust()
    sys.modules.update(modules)
    sys.path[0] = os.path.join(tree, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--work", required=True,
                        help="directory for the two trees (emptied first)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setup", action="store_true",
                        help="time perfbench's set_up, not the timed call")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    if not args.setup:
        sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "tools"), os.path.join(ROOT, "perfbench")]
    import bench_pairs
    bench = importlib.import_module("run")
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]

    shutil.rmtree(args.work, ignore_errors=True)
    trees = {side: os.path.join(args.work, side) for side in SIDES}
    bench_pairs.parent_tree(args.parent, trees["parent"])
    bench_pairs.change_tree(trees["change"])
    if args.setup:
        sys.path.insert(0, "")  # setup_measure puts a side's src/ here
        times = alternate(setup_measure(bench, wl, trees, args.seed,
                                        args.work), args.pairs)
        report(times, {"workload": args.workload, "seed": args.seed,
                       "setup": True})
        return 0
    modules = {side: _import_tree(trees[side]) for side in SIDES}
    sys.path.insert(0, "")  # the slot _install fills with a side's src/

    def call(side: str, call_argv: List[str]) -> float:
        _install(trees[side], modules[side])
        gc.collect()
        start = time.perf_counter()
        rc = modules[side]["uavclust.cli"].main(call_argv)
        wall = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"{side}: cli {call_argv} exited with {rc}")
        return wall

    argvs = {}
    for side in SIDES:
        config_path = os.path.join(args.work, f"{side}.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(wl.config_text)
        out_dir = os.path.join(args.work, f"{side}-out")
        if wl.command == "metrics":
            call(side, bench.compare_argv(config_path, wl.runs, args.seed, 1,
                                          out_dir))
            argvs[side] = ["metrics", "--out", out_dir]
        else:
            argvs[side] = bench.compare_argv(config_path, wl.runs, args.seed,
                                             wl.workers, out_dir)
    times = alternate(lambda side: call(side, argvs[side]), args.pairs)
    report(times, {"workload": args.workload, "seed": args.seed,
                   "argv": argvs["change"]})
    return 0


def report(times: Dict[str, List[float]], head: Dict[str, object]) -> None:
    """Print summarize(times) in ms, then as one JSON object after head."""
    summary = summarize(times)
    for side in SIDES:
        stats = summary[side]
        print(f"{side}: median {stats['median'] * 1e3:.2f} ms, quartiles "
              f"{stats['q1'] * 1e3:.2f} - {stats['q3'] * 1e3:.2f} ms")
    print(f"change faster in {summary['change_faster_pairs']} pairs; change "
          f"over parent median x{summary['change_over_parent_median']:.4f}")
    print(json.dumps({**head, **summary}))


if __name__ == "__main__":
    sys.exit(main())
