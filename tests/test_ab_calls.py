"""tools/ab_calls.py: its summary, its alternation and its --setup mode, on
hand-made timings."""
import pathlib
import sys
import types

import pytest

AB_CALLS_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "tools" / "ab_calls.py")


def load_ab_calls():
    """The script as a module, executed from its source without writing
    a bytecode cache next to it."""
    module = types.ModuleType("ab_calls")
    module.__file__ = str(AB_CALLS_PATH)
    source = AB_CALLS_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(AB_CALLS_PATH), "exec"), module.__dict__)
    return module


AB_CALLS = load_ab_calls()


def test_summary_quartiles_wins_and_ratio():
    report = AB_CALLS.summarize({
        "parent": [1.0, 1.1, 1.2, 1.3, 1.4, 1.2],
        # faster, slower, faster, faster, faster, tied
        "change": [0.9, 1.2, 1.0, 1.2, 1.3, 1.2]})
    # inclusive quartiles: the parent sorted is 1.0 1.1 1.2 1.2 1.3 1.4
    assert report["parent"] == pytest.approx(
        {"median": 1.2, "q1": 1.125, "q3": 1.275})
    # the change sorted is 0.9 1.0 1.2 1.2 1.2 1.3
    assert report["change"] == pytest.approx(
        {"median": 1.2, "q1": 1.05, "q3": 1.2})
    assert report["change_faster_pairs"] == "4/6"
    assert report["change_over_parent_median"] == pytest.approx(1.0)


def test_summary_of_a_change_slower_in_every_pair():
    report = AB_CALLS.summarize({"parent": [0.1, 0.2, 0.3],
                                 "change": [0.2, 0.4, 0.6]})
    assert report["change_faster_pairs"] == "0/3"
    assert report["change_over_parent_median"] == pytest.approx(2.0)


def test_alternate_warms_up_then_swaps_the_first_side_each_pair():
    calls = []

    def measure(side):
        calls.append(side)
        return float(len(calls))

    times = AB_CALLS.alternate(measure, 3)
    assert calls == ["parent", "change",  # untimed
                     "parent", "change", "change", "parent",
                     "parent", "change"]
    assert times == {"parent": [3.0, 6.0, 7.0], "change": [4.0, 5.0, 8.0]}


def test_setup_mode_times_each_side_set_up_from_its_own_src(tmp_path,
                                                            monkeypatch):
    # a stand-in for perfbench/run.py: set_up reports the src/ at the
    # head of sys.path and its work directory
    seen = []

    def set_up(wl, seed, work):
        seen.append((sys.path[0], wl, seed, work))
        return None, 0.25 * len(seen)

    bench = types.SimpleNamespace(set_up=set_up)
    trees = {"parent": str(tmp_path / "p"), "change": str(tmp_path / "c")}
    monkeypatch.setattr(sys, "path", [""] + sys.path)
    measure = AB_CALLS.setup_measure(bench, "wl", trees, 5, str(tmp_path))
    assert measure("change") == 0.25
    assert measure("parent") == 0.5
    assert seen == [
        (str(tmp_path / "c" / "src"), "wl", 5, str(tmp_path / "change-setup")),
        (str(tmp_path / "p" / "src"), "wl", 5, str(tmp_path / "parent-setup"))]
