"""The verdicts of tools/bench_pairs.py on a hand-made report."""
import pathlib
import types

BENCH_PAIRS_PATH = (pathlib.Path(__file__).resolve().parent.parent
                    / "tools" / "bench_pairs.py")


def load_bench_pairs():
    """The script as a module, executed from its source without writing
    a bytecode cache next to it."""
    module = types.ModuleType("bench_pairs")
    module.__file__ = str(BENCH_PAIRS_PATH)
    source = BENCH_PAIRS_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(BENCH_PAIRS_PATH), "exec"), module.__dict__)
    return module


BENCH_PAIRS = load_bench_pairs()
METRICS = {"runs_per_s": {"better": "higher", "bound": 0.25},
           "setup_s": {"better": "lower", "bound": 0.25}}


def entry(parent, change):
    """One metric's entry, as compare() writes it, from the two sides'
    runs."""
    stats = {"parent": BENCH_PAIRS.summary(parent),
             "change": BENCH_PAIRS.summary(change)}
    return {**stats, "change_better_pairs": "0/4",
            "change_over_parent_median": round(
                stats["change"]["median"] / stats["parent"]["median"], 4)}


def verdict_lines(**workloads):
    report = {"workloads": {
        name: {metric: entry(*runs) for metric, runs in metrics.items()}
        for name, metrics in workloads.items()}}
    BENCH_PAIRS.verdicts(report, METRICS)
    return report["no_regression"].split("; ")


def test_verdicts_within_beyond_and_unresolved():
    lines = verdict_lines(
        # narrow spreads: within, then beyond by the ratio of the medians
        narrow={"runs_per_s": ([100, 101, 102, 103], [90, 91, 92, 93]),
                "setup_s": ([1.0, 1.01, 1.02, 1.03], [1.4, 1.41, 1.42, 1.43])},
        # the parent's IQR over median (0.35 and 0.55) is wider than the
        # 0.25 bound: unresolved whether the medians hold or not
        wide={"runs_per_s": ([60, 90, 110, 140], [65, 95, 105, 150]),
              "setup_s": ([0.5, 0.8, 1.2, 1.5], [2.0, 0.7, 3.0, 1.1])})
    assert [line.split(", ")[-1] for line in lines] == [
        "within its 0.25 bound)",
        "beyond its 0.25 bound)",
        "unresolved: the parent's spread 0.35 is wider than its 0.25 bound)",
        "unresolved: the parent's spread 0.55 is wider than its 0.25 bound)"]


def test_a_change_better_in_every_run_is_resolved_despite_the_spread():
    # every change run beats every parent run: the spread leaves no doubt
    lines = verdict_lines(
        wide={"runs_per_s": ([60, 90, 110, 140], [141, 150, 160, 170]),
              "setup_s": ([0.5, 0.8, 1.2, 1.5], [0.1, 0.2, 0.3, 0.45])})
    assert [line.split(", ")[-1] for line in lines] == [
        "within its 0.25 bound)", "within its 0.25 bound)"]
