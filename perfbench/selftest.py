"""Tests of the benchmark itself (not of uavclust).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's own test run from collecting it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

sys.path.insert(0, bench.SRC)

# A short compare keeps each test around a second: one run per scheme,
# one clustering round.
SHORT = "total_time = 70\n"


@pytest.fixture(scope="module")
def uav():
    return bench.import_uavclust()


@pytest.fixture
def short_compare(uav, tmp_path):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(SHORT)
    out_dir = str(tmp_path / "out")
    argv = bench.compare_argv(str(cfg_path), 1, 5, 1, out_dir)
    config = uav.config.validate(dataclasses.replace(
        uav.config.load_config(str(cfg_path)), seed=5))
    return argv, config, out_dir


def _sites():
    out = []
    for sites in tracing.LAYERS.values():
        for module_name, path in sites:
            owner, attr = tracing._resolve_owner(module_name, path)
            out.append((owner, attr, vars(owner)[attr]))
    return out


def test_every_layer_site_exists(uav):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == []


def test_wrapper_restores_original_attributes(uav, short_compare):
    before = _sites()
    tracer = tracing.Tracer()
    tracer.install()
    assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)

    def boom():
        raise RuntimeError("inside a traced call")

    with pytest.raises(RuntimeError):
        tracer.call(boom)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)

    argv, _, _ = short_compare
    assert tracer.call(lambda: uav.cli.main(argv)) == 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_self_shares_sum_to_at_most_one(uav, short_compare):
    argv, _, _ = short_compare
    tracer = tracing.Tracer()
    walls = []
    for _ in range(2):
        start = time.perf_counter()
        assert tracer.call(lambda: uav.cli.main(argv)) == 0
        walls.append(time.perf_counter() - start)
    metrics = tracing.per_layer_metrics(tracer, runs=6, traced_call_s=walls,
                                        untraced_call_s=walls)
    shares = [value for name, (value, _) in metrics.items()
              if name.endswith(".self_share")]
    assert len(shares) == len(tracing.LAYERS)
    assert all(share >= 0.0 for share in shares)
    assert sum(shares) <= 1.0
    assert metrics["engine.run.calls_per_run"][0] == 1.0
    assert metrics["trace.reads_per_run"][0] == 2.0


def test_spans_nest_under_their_parent(uav, short_compare):
    argv, _, _ = short_compare
    tracer = tracing.Tracer()
    tracer.call(lambda: uav.cli.main(argv))
    by_id = {span[0]: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span[1] == -1]
    assert [span[2] for span in roots] == ["cli.main"]
    for sid, parent, _, start, end in tracer.spans:
        if parent >= 0:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_verifier_accepts_a_clean_compare(uav, short_compare):
    argv, config, out_dir = short_compare
    assert uav.cli.main(argv) == 0
    verifier = checks.RunVerifier(uav, config, runs=1, seed=5)
    failures, forms = verifier.check(out_dir)
    assert failures == {}
    assert sorted(forms) == ["proposed_run0000", "random_run0000", "vmasc_run0000"]


def test_perturbed_in_memory_metrics_fail_the_run(uav, short_compare):
    argv, config, out_dir = short_compare
    assert uav.cli.main(argv) == 0

    class Perturbed(checks.RunVerifier):
        def in_memory_metrics(self, scheme, run_index):
            rm = super().in_memory_metrics(scheme, run_index)
            if scheme != "vmasc":
                return rm
            return dataclasses.replace(
                rm, total_reselections=rm.total_reselections + 1)

    failures, _ = Perturbed(uav, config, runs=1, seed=5).check(out_dir)
    assert failures == {
        "vmasc_run0000": "on-disk and in-memory run_metrics differ"}


def test_a_run_that_differs_from_its_pin_fails(uav, short_compare):
    argv, config, out_dir = short_compare
    assert uav.cli.main(argv) == 0
    _, forms = checks.RunVerifier(uav, config, runs=1, seed=5).check(out_dir)
    pinned = {"runs": dict(forms)}
    pinned["runs"]["random_run0000"] = dict(forms["random_run0000"],
                                            degraded_selections=-1)
    failures, _ = checks.RunVerifier(uav, config, runs=1, seed=5,
                                     pinned=pinned).check(out_dir)
    assert failures == {"random_run0000": "run_metrics differ from the pin"}


def test_unparseable_trace_fails_the_run(uav, short_compare):
    argv, config, out_dir = short_compare
    assert uav.cli.main(argv) == 0
    with open(checks.trace_path(out_dir, "proposed", 0), "a") as fh:
        fh.write("not a trace line\n")
    failures, _ = checks.RunVerifier(uav, config, runs=1, seed=5).check(out_dir)
    assert list(failures) == ["proposed_run0000"]
    assert failures["proposed_run0000"].startswith("trace does not parse")


def test_pin_file_round_trips(tmp_path):
    pins = checks.load_pins()
    copy = tmp_path / "pins.json"
    checks.save_pins(pins, str(copy))
    assert checks.load_pins(str(copy)) == pins
    with open(checks.PINS_PATH, "rb") as fh:
        assert copy.read_bytes() == fh.read()
    assert set(pins["workloads"]) == set(bench.WORKLOADS)
    assert sorted(pins["golden_grid"]) == sorted(k for k, *_ in checks.grid_cells())


def test_pin_form_round_trips_run_metrics(uav):
    rm = uav.metrics.RunMetrics(per_cluster={2: 1, 0: 3}, total_reselections=4,
                                cumulative=((10.0, 1), (20.5, 2), (1e-7, 3), (30.0, 4)),
                                mean_snr=math.nan, degraded_selections=1)
    form = checks.pin_form(rm)
    assert json.loads(json.dumps(form)) == form
    back = checks.from_pin_form(uav.metrics, json.loads(json.dumps(form)))
    assert checks.pin_form(back) == form
    assert back.per_cluster == rm.per_cluster
    assert back.cumulative == rm.cumulative
    assert math.isnan(back.mean_snr)
