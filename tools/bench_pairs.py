"""Alternating parent/change pairs of the benchmark, as BENCH_<pr>.json.

Run from the repository root::

    python3 tools/bench_pairs.py --parent <commit> --pr <n> \\
        --change "<what changed>" --work <scratch dir> \\
        [--pairs 10] [--seconds 25] [--claim paper_default:runs_per_s]

The parent side is ``git archive`` of the given commit; the change side
is a copy of the working tree's tracked and untracked-but-not-ignored
files.  Each side runs in its own directory with
PYTHONDONTWRITEBYTECODE=1, so every set-up compiles the package from
source.  Pair k runs every workload of BENCHMARK.json at seed
``--seed-base + k`` on both sides, one run at a time, each workload on
both sides before the next: the parent first on odd pairs, the change
first on even pairs.  A last run of the change per workload at the
pinned seed 1 reports its golden grid and its trace digest against the
pin.  Medians and quartiles are over the pairs (statistics.quantiles,
inclusive method); "change better" counts the pairs in which the change
beats its parent in the metric's direction, ties counting for neither.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


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
    package = os.path.join(tree, "src", "uavclust")
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                out[name] = fh.read()
    return out


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


def run_bench(tree: str, workload: str, seed: int, seconds: int) -> Dict:
    """One perfbench/run.py run: its result line, plus the golden grid
    and trace digest lines it logged."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed} failed:\n"
                           f"{out.stdout}\n{out.stderr}")

    def logged(prefix: str) -> str:
        return next((line for line in lines if line.startswith(prefix)), "")

    result = json.loads(lines[-1])
    result["grid"] = logged("golden grid:")
    result["digest"] = logged("trace_body_sha256")
    return result


def summary(values: List[float]) -> Dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def digest_of(line: str) -> str:
    match = re.search(r": ([0-9a-f]{64})", line)
    return match.group(1) if match else ""


def compare(results: Dict, metrics: Dict, pairs: int) -> Dict:
    """Per metric: each side's summary, the pairs the change won and the
    ratio of the medians; then the correct, failed and attempted totals."""
    entry: Dict[str, object] = {}
    for name, spec in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(values["parent"], values["change"]))
        stats = {side: summary(values[side]) for side in SIDES}
        entry[name] = {
            **stats, "change_better_pairs": f"{wins}/{pairs}",
            "change_over_parent_median": round(
                stats["change"]["median"] / stats["parent"]["median"], 4)}
    entry["correct"] = {side: all(r["correct"] for r in results[side])
                        for side in SIDES}
    for key in ("failed", "attempted"):
        entry[key] = {side: sum(r[key] for r in results[side])
                      for side in SIDES}
    return entry


def verdicts(report: Dict, metrics: Dict) -> None:
    """The no_regression and spread lines of the report."""
    lines, spreads = [], []
    for workload, entry in report["workloads"].items():
        for name, spec in metrics.items():
            stats = entry[name]
            ratio = stats["change_over_parent_median"]
            worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            within = "within" if worse <= spec["bound"] else "beyond"
            lines.append(
                f"{workload} {name} {stats['parent']['median']} -> "
                f"{stats['change']['median']} (x{ratio:.4f}, change better "
                f"in {stats['change_better_pairs']}, {within} its "
                f"{spec['bound']} bound)")
            spreads.append(f"{workload} {name} " + " / ".join(
                f"{(stats[s]['q3'] - stats[s]['q1']) / stats[s]['median']:.2f}"
                for s in SIDES))
    report["no_regression"] = "; ".join(lines)
    report["spread"] = ("interquartile range over median, parent / change: "
                        + "; ".join(spreads))


def claim(report: Dict, metrics: Dict, workload: str, name: str) -> Dict:
    stats = report["workloads"][workload][name]
    sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
    gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    wins, pairs = map(int, stats["change_better_pairs"].split("/"))
    met = gain > iqr and wins >= 0.9 * pairs
    return {"metric": name, "workload": workload,
            "result": f"{'met' if met else 'not met'}: median "
                      f"{stats['parent']['median']} -> "
                      f"{stats['change']['median']} "
                      f"(x{stats['change_over_parent_median']}), change "
                      f"better in {wins}/{pairs} pairs; the median gain "
                      f"{gain:.4f} "
                      f"{'exceeds' if gain > iqr else 'does not exceed'} "
                      f"the parent's IQR {iqr:.4f}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--pr", required=True, type=int,
                        help="the <pr> of BENCH_<pr>.json")
    parser.add_argument("--change", required=True, help="what the change does")
    parser.add_argument("--work", required=True,
                        help="directory for the two trees (emptied first)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--seed-base", type=int, default=None,
                        help="pair k runs at seed-base + k (default pr * 100)")
    parser.add_argument("--claim", default=None,
                        help="workload:metric the change claims a gain in")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    shutil.rmtree(args.work, ignore_errors=True)
    trees = {side: os.path.join(args.work, side) for side in SIDES}
    parent_tree(args.parent, trees["parent"])
    change_tree(trees["change"])

    base = args.pr * 100 if args.seed_base is None else args.seed_base
    seeds = [base + k for k in range(1, args.pairs + 1)]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for k, seed in enumerate(seeds):
        for workload in workloads:
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_bench(trees[side], workload, seed, args.seconds)
                results[workload][side].append(result)
                print(f"pair {k + 1}/{args.pairs} {workload} {side}: "
                      f"{result['metrics']}", flush=True)
    pinned = {w: run_bench(trees["change"], w, 1, args.seconds)
              for w in workloads}

    report: Dict[str, object] = {
        "change": args.change,
        "parent_commit": args.parent,
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds} --trace 0",
        "seeds": seeds,
        "pairs": args.pairs,
        "order": f"parent first on odd pairs (seeds {seeds[0]}, "
                 f"{seeds[0] + 2}, ...), change first on even pairs; within "
                 "a pair each workload runs on both sides before the next "
                 f"({', '.join(workloads)})",
        "environment": "PYTHONDONTWRITEBYTECODE=1 and no __pycache__ in "
                       "either tree, so every set-up compiles the package "
                       f"from source; parent (git archive of {args.parent}) "
                       "and change (copy of the working tree's files) each "
                       "in their own directory, runs one at a time "
                       "(tools/bench_pairs.py)",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"{platform.system()} {platform.release()}, Python "
                f"{platform.python_version()}",
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "measured_tree": measured_tree(trees["change"]),
        "workloads": {},
    }
    bodies = []
    for workload in workloads:
        entry = compare(results[workload], metrics, args.pairs)
        pin = pinned[workload]
        entry["golden_grid_seed1"] = (
            f"{pin['grid']} on the change (seed 1, --seconds "
            f"{args.seconds}, correct: {str(pin['correct']).lower()}); "
            f"{pin['digest']}")
        report["workloads"][workload] = entry
        same = sum(digest_of(p["digest"]) == digest_of(c["digest"]) != ""
                   for p, c in zip(results[workload]["parent"],
                                   results[workload]["change"]))
        bodies.append(f"{workload} {same}/{args.pairs}")
    report["claim"] = (claim(report, metrics, *args.claim.split(":"))
                       if args.claim else None)
    report["trace_bodies"] = ("pairs whose two sides printed the same "
                              "trace_body_sha256: " + ", ".join(bodies))
    verdicts(report, metrics)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
