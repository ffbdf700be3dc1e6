"""tools/ab_calls.py: its cells and verdicts, its alternation, its set-up
and peak-RSS measures and its parity check, on hand-made timings,
outputs and trees."""
import json
import os
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


def verdict(parent, change, better="higher"):
    cell = AB_CALLS.summarize({"parent": parent, "change": change}, better,
                              0.25)
    return cell["verdict"]


def test_summary_quartiles_wins_and_ratio():
    cell = AB_CALLS.summarize({
        "parent": [1.0, 1.1, 1.2, 1.3, 1.4, 1.2],
        # faster, slower, faster, faster, faster, tied
        "change": [0.9, 1.2, 1.0, 1.2, 1.3, 1.2]}, "lower", 0.25)
    # inclusive quartiles: the parent sorted is 1.0 1.1 1.2 1.2 1.3 1.4
    assert cell["parent"] == {"median": 1.2, "q1": 1.125, "q3": 1.275,
                              "runs": [1.0, 1.1, 1.2, 1.3, 1.4, 1.2]}
    # the change sorted is 0.9 1.0 1.2 1.2 1.2 1.3
    assert (cell["change"]["median"], cell["change"]["q1"],
            cell["change"]["q3"]) == (1.2, 1.05, 1.2)
    assert cell["change_better_pairs"] == "4/6"
    assert cell["change_over_parent_median"] == 1.0


def test_summary_of_a_change_slower_in_every_pair():
    cell = AB_CALLS.summarize({"parent": [0.1, 0.2, 0.3],
                               "change": [0.2, 0.4, 0.6]}, "lower", 0.25)
    assert cell["change_better_pairs"] == "0/3"
    assert cell["change_over_parent_median"] == pytest.approx(2.0)


def test_pair_ratios_are_taken_pair_by_pair():
    # both sides drift 1 -> 4 over the run; each pair's change reads
    # 1.1 times its parent, which the sides' own spreads do not show
    cell = AB_CALLS.summarize({"parent": [1.0, 2.0, 3.0, 4.0, 2.0],
                               "change": [1.1, 2.2, 3.3, 4.4, 2.2]},
                              "higher", 0.25)
    assert cell["change_over_parent_pairs"] == {"median": 1.1, "q1": 1.1,
                                                "q3": 1.1}
    cell = AB_CALLS.summarize({"parent": [2.0, 2.0, 4.0, 4.0, 5.0],
                               "change": [1.0, 3.0, 4.0, 6.0, 5.0]},
                              "lower", 0.25)
    # pair ratios 0.5, 1.5, 1.0, 1.5, 1.0, kept as measured whichever
    # way is better
    assert cell["change_over_parent_pairs"] == {"median": 1.0, "q1": 1.0,
                                                "q3": 1.5}


def test_verdicts_within_beyond_and_unresolved():
    # narrow spreads: within, then beyond by the ratio of the medians
    assert verdict([100, 101, 102, 103], [90, 91, 92, 93]) == (
        "within its 0.25 bound")
    assert verdict([1.0, 1.01, 1.02, 1.03], [1.4, 1.41, 1.42, 1.43],
                   "lower") == "beyond its 0.25 bound"
    # the parent's IQR over median (0.35 and 0.55) is wider than the
    # 0.25 bound: unresolved whether the medians hold or not
    assert verdict([60, 90, 110, 140], [65, 95, 105, 150]) == (
        "unresolved: the parent's spread 0.35 is wider than its 0.25 bound")
    assert verdict([0.5, 0.8, 1.2, 1.5], [2.0, 0.7, 3.0, 1.1], "lower") == (
        "unresolved: the parent's spread 0.55 is wider than its 0.25 bound")


def test_a_change_better_in_every_run_is_resolved_despite_the_spread():
    # the parent's spread (0.51, 0.48) is wider than the bound, the change
    # beats every parent run, and its median gain stays below the
    # parent's IQR
    assert verdict([10, 50, 100, 101, 102], [103] * 5) == (
        "within its 0.25 bound")
    assert verdict([1.0, 1.01, 1.02, 1.5, 1.9], [0.99] * 5, "lower") == (
        "within its 0.25 bound")


def test_gain_rule_at_its_edges():
    # the parent's median is 10 and its IQR 10.75 - 9.25 = 1.5
    parent = [9, 10, 11, 9, 10, 11, 9, 10, 11, 10]
    for step, met in ((1.5, False), (1.625, True)):
        # the change wins 9 of 10 pairs, by step each
        change = [parent[0] - 1] + [p + step for p in parent[1:]]
        cell = AB_CALLS.summarize({"parent": parent, "change": change},
                                  "higher", 0.25)
        assert cell["change_better_pairs"] == "9/10"
        assert cell["change"]["median"] == 10 + step
        assert cell["verdict"].startswith("gain met") is met
    # a gain above the IQR in 8 of 10 pairs is not met
    change = [p - 1 for p in parent[:2]] + [p + 5 for p in parent[2:]]
    assert verdict(parent, change) == "within its 0.25 bound"


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
        seen.append((sys.path[0], seed, work))
        return f"prepared {len(seen)}", 0.25 * len(seen)

    bench = types.SimpleNamespace(set_up=set_up)
    wl = types.SimpleNamespace(name="wl")
    trees = {"parent": str(tmp_path / "p"), "change": str(tmp_path / "c")}
    monkeypatch.setattr(sys, "path", [""] + sys.path)
    prepared = {}
    measure = AB_CALLS.set_up_measure(bench, wl, trees, 5, str(tmp_path),
                                      prepared)
    assert measure("change") == 0.25
    assert measure("parent") == 0.5
    assert seen == [
        (str(tmp_path / "c" / "src"), 5, str(tmp_path / "change-wl")),
        (str(tmp_path / "p" / "src"), 5, str(tmp_path / "parent-wl"))]
    assert prepared["change"][0] == "prepared 1"
    assert prepared["parent"][0] == "prepared 2"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as the tool imports it, without writing a
    bytecode cache next to it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setattr(sys, "path", list(sys.path))
        yield AB_CALLS.perfbench()


def write_out(root, header, body, digest):
    (root / "traces").mkdir(parents=True)
    (root / "traces" / "proposed_run0000.trace").write_bytes(header + body)
    (root / "aggregate.proposed.txt").write_text(
        f"scheme: proposed\nconfig_digest: {digest}\nmean_snr: 0.5\n")
    return str(root)


def test_parity_ignores_headers_and_config_digests_but_not_a_body_byte(
        tmp_path, bench):
    body = b'10.0 ch_elected {"cluster":0}\n20.0 ch_left {"cluster":0}\n'
    parent = write_out(tmp_path / "p", b"# config=aa scheme=proposed\n",
                       body, "aa")
    same = write_out(tmp_path / "c", b"# config=bb scheme=proposed\n",
                     body, "bb")
    other = write_out(tmp_path / "d", b"# config=aa scheme=proposed\n",
                      body.replace(b"20.0", b"21.0"), "aa")
    assert AB_CALLS.parity(bench, {"parent": parent, "change": same}) == (
        "equal")
    assert AB_CALLS.parity(bench, {"parent": parent, "change": other}) == (
        "differ: trace bodies")


def fake_tree(root, last_line):
    """A tree whose perfbench/run.py writes its arguments to ran.json in
    its cwd and prints a first line, then last_line, to stdout."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "with open('ran.json', 'w') as fh:\n"
        "    json.dump(sys.argv, fh)\n"
        "print('set-up done')\n"
        f"print({last_line!r})\n")
    return str(root)


def test_rss_mode_reads_each_side_own_perfbench_in_a_fresh_process(
        tmp_path):
    line = ('{{"correct": true, "attempted": 30, "failed": 0, "metrics": '
            '{{"peak_rss_mb": {{"value": {}, "unit": "MB"}}}}}}')
    trees = {"parent": fake_tree(tmp_path / "p", line.format(43.5)),
             "change": fake_tree(tmp_path / "c", line.format(41.75))}
    wl = types.SimpleNamespace(name="paper_default")
    measure = AB_CALLS.rss_measure(wl, 7, trees)
    assert measure("parent") == 43.5
    assert measure("change") == 41.75
    for side in ("p", "c"):
        ran = json.loads((tmp_path / side / "ran.json").read_text())
        assert ran == [os.path.join("perfbench", "run.py"), "--workload",
                       "paper_default", "--seed", "7", "--seconds", "1"]


def test_rss_mode_refuses_a_run_that_is_not_correct_or_fails(tmp_path):
    wrong = ('{"correct": false, "attempted": 30, "failed": 5, "metrics": '
             '{"peak_rss_mb": {"value": 40.0, "unit": "MB"}}}')
    trees = {"parent": fake_tree(tmp_path / "p", wrong),
             "change": str(tmp_path / "empty")}
    (tmp_path / "empty").mkdir()
    wl = types.SimpleNamespace(name="dense_road")
    measure = AB_CALLS.rss_measure(wl, 1, trees)
    with pytest.raises(RuntimeError, match="parent: .* is not correct: "
                                           "5 of 30 operations failed"):
        measure("parent")
    # the change tree has no perfbench/run.py
    with pytest.raises(RuntimeError, match="change: .* exited with 2"):
        measure("change")


def test_rss_mode_reports_the_run_own_peak_not_this_process(tmp_path):
    # this process's peak grows past 64 MB; a run started straight from
    # it would report at least that, whatever its own use
    held = bytearray(64 << 20)
    for k in range(0, len(held), 4096):
        held[k] = 1
    run = tmp_path / "t" / "perfbench" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(
        "import json, resource\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
        "                  'metrics': {'peak_rss_mb': {'value': peak}}}))\n")
    measure = AB_CALLS.rss_measure(types.SimpleNamespace(name="wl"), 1,
                                   {"parent": str(tmp_path / "t")})
    assert 0 < measure("parent") < 64
