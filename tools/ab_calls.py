"""Alternating in-process A/B of the benchmark's workloads: parent against change.

Run from the repository root::

    python3 tools/ab_calls.py --parent <commit> --work <scratch dir> \\
        [--workload <name> ...] [--pairs 40] [--seed 1] \\
        [--pr <n> --change "<what changed>"]

The parent side is ``git archive`` of the commit, the change side a copy
of the working tree's tracked and untracked-but-not-ignored files.  For
each workload (default: all of BENCHMARK.json) two measures alternate in
this one process, once untimed per side and then once per pair, the
parent first on odd pairs: setup_s, perfbench/run.py's set_up with the
side's src/ at the head of sys.path (under PYTHONDONTWRITEBYTECODE=1 each
compiles src/), then runs_per_s, the timed ``cli.main`` call on the
side's last set-up, with its modules back in sys.modules so a process
pool forks its code.  Calls that alternate share other tenants' load,
which separate processes do not.  peak_rss_mb, a process's own peak,
alternates the same way between fresh interpreters, each running its
side's perfbench/run.py --seconds 1 with the side's tree as cwd
(started through LAUNCHER).

Each (workload, metric) cell holds each side's median and quartiles
(inclusive method), the pairs the change won (ties count for neither),
the ratio of the medians, the median and quartiles of the per-pair
change/parent ratios, which load drift over the run moves less than
either side's spread, and a verdict: "gain met" if the change won at
least 90 % of the pairs and its median gain exceeds the parent's IQR;
else "unresolved" if the parent's IQR over median is wider than the
bound and the change does not beat every parent run; else within or
beyond the bound by the ratio of the medians.  Both sides' outputs must
agree, and the change must match the golden grid and, at the pinned
seed, each workload's trace_body_sha256.  --pr and --change write
BENCH_<pr>.json.
"""
from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MEASURED = ("runs_per_s", "setup_s", "peak_rss_mb")


def parent_tree(commit: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def change_tree(dest: str) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # not deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def sources(tree: str) -> Dict[str, bytes]:
    """The package's Python sources (src/uavclust/*.py) by file name."""
    package = pathlib.Path(tree, "src", "uavclust")
    return {path.name: path.read_bytes()
            for path in sorted(package.glob("*.py"))}


def src_lines(tree: str) -> int:
    """Lines of the package's Python sources (wc -l src/uavclust/*.py)."""
    return sum(text.count(b"\n") for text in sources(tree).values())


def measured_tree(tree: str) -> str:
    """What the change side measured: its sources' line count and one
    sha256 over their names and bytes, to compare with a commit."""
    digest = hashlib.sha256()
    for name, text in sources(tree).items():
        digest.update(name.encode() + b"\0" + text)
    return (f"src/uavclust/*.py of the change side: {src_lines(tree)} lines, "
            f"sha256 {digest.hexdigest()} over each file's name and bytes")


def perfbench():
    """perfbench/run.py as a module; its checks module is .checks."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    return importlib.import_module("run")


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


def _sig(value: float) -> float:
    return float(f"{value:.6g}")


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(values: Dict[str, List[float]], better: str,
              bound: float) -> Dict[str, object]:
    """One (workload, metric) cell from each side's values of the pairs,
    with its verdict (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    cell: Dict[str, object] = {}
    for side in SIDES:
        cell[side] = _quartiles(values[side])
    parent, change = cell["parent"], cell["change"]
    pairs = len(values["parent"])
    wins = sum(sign * (c - p) > 0
               for p, c in zip(values["parent"], values["change"]))
    ratio = change["median"] / parent["median"]
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    spread = iqr / parent["median"]
    beats_all = (min(sign * v for v in values["change"])
                 > max(sign * v for v in values["parent"]))
    if 10 * wins >= 9 * pairs and gain > iqr:
        verdict = (f"gain met: median gain {_sig(gain)} exceeds the "
                   f"parent's IQR {_sig(iqr)}")
    elif spread > bound and not beats_all:
        verdict = (f"unresolved: the parent's spread {spread:.2f} is wider "
                   f"than its {bound} bound")
    else:
        verdict = (f"{'within' if sign * (1.0 - ratio) <= bound else 'beyond'}"
                   f" its {bound} bound")
    for side in SIDES:
        cell[side] = {key: _sig(v) for key, v in cell[side].items()}
        cell[side]["runs"] = [_sig(v) for v in values[side]]
    cell["change_better_pairs"] = f"{wins}/{pairs}"
    cell["change_over_parent_median"] = round(ratio, 4)
    cell["change_over_parent_pairs"] = {
        key: round(v, 4) for key, v in _quartiles(
            [c / p for p, c in zip(values["parent"], values["change"])]
        ).items()}
    cell["verdict"] = verdict
    return cell


def outputs(bench, out_dir: str) -> Dict[str, object]:
    """What a call left in out_dir that both sides must agree on: the
    trace names, one sha256 over their bodies (headers carry the config
    digest) and the fields of each aggregate.<scheme>.txt."""
    traces = sorted(glob.glob(os.path.join(out_dir, "traces", "*.trace")))
    found: Dict[str, object] = {
        "traces": [os.path.basename(path) for path in traces],
        "trace bodies": bench.checks.bodies_sha256(traces)}
    for path in sorted(glob.glob(os.path.join(out_dir, "aggregate.*.txt"))):
        found[os.path.basename(path)] = bench.read_aggregate(path)
    return found


def parity(bench, out_dirs: Dict[str, str]) -> str:
    found = {side: outputs(bench, out_dirs[side]) for side in SIDES}
    keys = sorted(set(found["parent"]) | set(found["change"]))
    differ = [key for key in keys
              if found["parent"].get(key) != found["change"].get(key)]
    return "equal" if not differ else "differ: " + ", ".join(differ)


def set_up_measure(bench, wl, trees: Dict[str, str], seed: int, work: str,
                   prepared: Dict[str, object]) -> Callable[[str], float]:
    """measure(side): the wall time of bench.set_up(wl, seed, ...) with
    the side's src/ at the head of sys.path.  prepared[side] keeps the
    side's last set-up and the uavclust modules it imported."""
    def measure(side: str) -> float:
        sys.path[0] = os.path.join(trees[side], "src")
        prep, wall = bench.set_up(wl, seed,
                                  os.path.join(work, f"{side}-{wl.name}"))
        prepared[side] = prep, {name: module
                                for name, module in sys.modules.items()
                                if name.partition(".")[0] == "uavclust"}
        return wall
    return measure


def _install(tree: str, modules: Dict[str, object]) -> None:
    for name in [m for m in sys.modules if m.partition(".")[0] == "uavclust"]:
        del sys.modules[name]
    sys.modules.update(modules)
    sys.path[0] = os.path.join(tree, "src")


def call_measure(bench, wl, seed: int, trees: Dict[str, str],
                 prepared: Dict[str, object]) -> Callable[[str], float]:
    """measure(side): the wall time of the workload's timed cli.main
    call on the side's last set-up, as perfbench/run.py makes it."""
    def measure(side: str) -> float:
        prep, modules = prepared[side]
        argv = (["metrics", "--out", prep.out_dir] if wl.command == "metrics"
                else bench.compare_argv(prep.config_path, wl.runs, seed,
                                        wl.workers, prep.out_dir))
        _install(trees[side], modules)
        gc.collect()
        start = time.perf_counter()
        rc = prep.uav.cli.main(argv)
        wall = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"{side}: cli {argv} exited with {rc}")
        return wall
    return measure


# Linux keeps a process's peak RSS across exec, so a process started
# from this one, which holds both trees' modules, would report at least
# this one's peak.  A small interpreter in between starts each run.
LAUNCHER = ("import subprocess, sys; "
            "sys.exit(subprocess.run(sys.argv[1:]).returncode)")


def rss_measure(wl, seed: int,
                trees: Dict[str, str]) -> Callable[[str], float]:
    """measure(side): the peak_rss_mb that the side's own
    perfbench/run.py reports for the workload at --seconds 1, run in a
    fresh interpreter (through LAUNCHER) with the side's tree as cwd.
    A run that fails or is not correct is refused."""
    def measure(side: str) -> float:
        command = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", wl.name, "--seed", str(seed),
                   "--seconds", "1"]
        done = subprocess.run([sys.executable, "-c", LAUNCHER] + command,
                              cwd=trees[side], capture_output=True,
                              text=True)
        shown = f"{side}: {' '.join(command[1:])}"
        if done.returncode != 0:
            raise RuntimeError(f"{shown} exited with {done.returncode}: "
                               f"{done.stderr[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            raise RuntimeError(f"{shown} is not correct: {result['failed']} "
                               f"of {result['attempted']} operations failed")
        return result["metrics"]["peak_rss_mb"]["value"]
    return measure


def ab_workload(bench, wl, trees: Dict[str, str], args, metrics: Dict,
                pins: Dict) -> Dict[str, object]:
    """The report entry of one workload: its cells, the parity of
    the two sides' outputs and the change's trace digest."""
    prepared: Dict[str, object] = {}
    setup_s = alternate(set_up_measure(bench, wl, trees, args.seed,
                                       args.work, prepared), args.pairs)
    walls = alternate(call_measure(bench, wl, args.seed, trees, prepared),
                      args.pairs)
    ops = wl.runs * len(bench.checks.SCHEMES)
    values = {"runs_per_s": {side: [ops / w for w in walls[side]]
                             for side in SIDES},
              "setup_s": setup_s,
              "peak_rss_mb": alternate(rss_measure(wl, args.seed, trees),
                                       args.pairs)}
    entry = {name: summarize(values[name], spec["better"], spec["bound"])
             for name, spec in metrics.items()}
    out_dirs = {side: prepared[side][0].out_dir for side in SIDES}
    entry["parity"] = parity(bench, out_dirs)
    digest = bench.checks.bodies_sha256(
        bench.checks.trace_path(out_dirs["change"], scheme, k)
        for scheme in bench.checks.SCHEMES for k in range(wl.runs))
    pinned = pins["workloads"][wl.name]["trace_body_sha256"]
    status = ("unpinned seed" if args.seed != bench.checks.PINNED_SEED else
              "matches the pin" if digest == pinned else "differs from the pin")
    entry["trace_body_sha256"] = f"{digest} on the change ({status})"
    return entry


def main(argv=None) -> int:
    bench = perfbench()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]
               if m["name"] in MEASURED}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--work", required=True,
                        help="directory for the two trees (emptied first)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(bench.WORKLOADS),
                        help="repeatable; default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pr", type=int, help="write BENCH_<pr>.json")
    parser.add_argument("--change", help="what the change does (with --pr)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    if (args.pr is None) != (args.change is None):
        parser.error("--pr and --change go together")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    shutil.rmtree(args.work, ignore_errors=True)
    trees = {side: os.path.join(args.work, side) for side in SIDES}
    parent_tree(args.parent, trees["parent"])
    change_tree(trees["change"])
    sys.path.insert(0, "")  # the slot a side's src/ is put in
    pins = bench.checks.load_pins()
    report: Dict[str, object] = {
        "change": args.change,
        "parent_commit": args.parent,
        "tool": "tools/ab_calls.py (its docstring gives the method)",
        "bytecode": ("not written: every set_up compiles src/"
                     if sys.dont_write_bytecode else
                     "written on a side's first set_up, then read"),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"{platform.system()} {platform.release()}, Python "
                f"{platform.python_version()}",
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "measured_tree": measured_tree(trees["change"]),
        "pairs": args.pairs,
        "seed": args.seed,
        "peak_rss_mb": "each side's perfbench/run.py --seconds 1, one "
                       "fresh interpreter per run",
        "workloads": {},
    }
    sys.path[0] = os.path.join(trees["change"], "src")
    grid_dir = os.path.join(args.work, "grid")
    os.makedirs(grid_dir)
    cells, failed = bench.checks.check_grid(
        bench.import_uavclust(), pins["golden_grid"], grid_dir, print)
    report["golden_grid"] = (f"{cells - failed}/{cells} cells match the pin "
                             "on the change")
    print(f"golden grid: {report['golden_grid']}", flush=True)
    for name in workloads:
        entry = ab_workload(bench, bench.WORKLOADS[name], trees, args,
                            metrics, pins)
        report["workloads"][name] = entry
        for metric in metrics:
            cell = entry[metric]
            print(f"{name} {metric} {cell['parent']['median']} -> "
                  f"{cell['change']['median']} "
                  f"(x{cell['change_over_parent_median']}, pairs x"
                  f"{cell['change_over_parent_pairs']['median']}, "
                  f"change better in "
                  f"{cell['change_better_pairs']}, {cell['verdict']})",
                  flush=True)
        print(f"{name} parity: {entry['parity']}; trace_body_sha256 "
              f"{entry['trace_body_sha256']}", flush=True)

    if args.pr is not None:
        path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
