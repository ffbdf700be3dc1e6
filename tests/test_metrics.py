"""Metric math oracles and trace aggregation."""
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavclust import engine, metrics, trace
from uavclust.config import SimConfig, validate
from uavclust.seeding import run_seeds
from uavclust.trace import SimEvent

from test_golden import CELLS, GRID

REL = 1e-9


def test_lambda_r_hand_values():
    assert math.isclose(metrics.lambda_r(0.0, 0.5), 0.5, rel_tol=REL)
    assert math.isclose(metrics.lambda_r(1.0, 0.5),
                        1.1931471805599454, rel_tol=REL)
    assert math.isclose(metrics.lambda_r(0.0, 1.0), 1.0, rel_tol=REL)


def test_lambda_r_domain_errors():
    with pytest.raises(ValueError):
        metrics.lambda_r(-0.1, 0.5)
    with pytest.raises(ValueError):
        metrics.lambda_r(1.0, 0.0)


def test_lambda_s_hand_values():
    assert math.isclose(metrics.lambda_s(1.0, 1.0, 0.1),
                        -0.23235401329235011, rel_tol=REL)
    assert math.isclose(metrics.lambda_s(0.5, 1.0, 0.1),
                        1.01764598670765, rel_tol=REL)
    # unit peak density: zero log-score at the mean
    assert abs(metrics.lambda_s(1.0, 1.0, 1.0 / (2.0 * math.pi))) < 1e-12
    with pytest.raises(ValueError):
        metrics.lambda_s(1.0, 1.0, 0.0)


def test_robustness_likelihood_hand_values():
    assert math.isclose(metrics.robustness_likelihood(0.0, 1.0),
                        0.8129721753489352, rel_tol=REL)
    assert math.isclose(metrics.robustness_likelihood(1.0, 0.5),
                        0.3253197601301151, rel_tol=REL)


def _reselect(t, cluster, vid, tenure=1):
    return SimEvent(t, "ch_reselected_full", ids=(cluster, vid),
                    payload={"degraded": False, "tenure": tenure})


def test_run_metrics_counts_reselections():
    events = [
        SimEvent(0.0, "clustering_round", payload={"round": 0}),
        SimEvent(0.0, "ch_selected", ids=(1, 4), payload={"degraded": False}),
        _reselect(30.0, 1, 5),
        SimEvent(40.0, "ch_replaced_from_backup", ids=(1, 6),
                 payload={"tenure": 3}),
    ]
    rm = metrics.run_metrics(events)
    assert rm.total_reselections == 2
    assert rm.per_cluster == {1: 2}
    assert rm.cumulative == ((30.0, 1), (40.0, 2))
    assert math.isnan(rm.mean_snr)


def test_run_metrics_degraded_and_tenure_weighted_snr():
    events = [
        SimEvent(0.0, "ch_selected", ids=(0, 1), payload={"degraded": True}),
        SimEvent(10.0, "cam_batch", ids=(0, 1),
                 payload={"members": 3, "tenure": 1, "snr": 2.0}),
        SimEvent(20.0, "cam_batch", ids=(0, 1),
                 payload={"members": 3, "tenure": 1, "snr": 4.0}),
        _reselect(30.0, 0, 2, tenure=2),
        SimEvent(40.0, "cam_batch", ids=(0, 2),
                 payload={"members": 3, "tenure": 2, "snr": 9.0}),
    ]
    rm = metrics.run_metrics(events)
    assert rm.degraded_selections == 1
    # tenure means (3.0 and 9.0) weigh equally regardless of sample counts
    assert rm.mean_snr == pytest.approx(6.0)


def test_cumulative_at_step_function():
    rm = metrics.run_metrics([_reselect(30.0, 0, 1), _reselect(50.0, 0, 2)])
    assert metrics.cumulative_at(rm, [0.0, 30.0, 40.0, 60.0]) == [0, 1, 1, 2]


def test_aggregate_mean_totals():
    runs = [metrics.run_metrics([_reselect(10.0, 0, 1), _reselect(20.0, 0, 2)]),
            metrics.run_metrics([_reselect(10.0, 0, 1), _reselect(20.0, 1, 2),
                                 _reselect(30.0, 1, 3), _reselect(40.0, 1, 4)])]
    agg = metrics.aggregate(runs)
    assert agg.runs == 2
    assert agg.mean_total == pytest.approx(3.0)
    assert agg.mean_per_cluster[0] == pytest.approx(1.5)
    assert agg.mean_per_cluster[1] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        metrics.aggregate([])


def test_aggregate_traces_rejects_mixed_configs():
    header_a = {"config": "aaaa", "scheme": "proposed"}
    header_b = {"config": "bbbb", "scheme": "proposed"}
    with pytest.raises(ValueError):
        metrics.aggregate_traces([(header_a, []), (header_b, [])])


def test_compare_schemes_normalizes_by_cross_scheme_max():
    def agg(total, snr):
        return metrics.AggregateMetrics(runs=1, mean_total=total,
                                        mean_per_cluster={}, mean_snr=snr,
                                        mean_degraded=0.0)
    scores = metrics.compare_schemes({"a": agg(10.0, 4.0), "b": agg(20.0, 2.0)})
    assert scores["b"].normalized_reselections == pytest.approx(1.0)
    assert scores["a"].normalized_reselections == pytest.approx(0.5)
    assert scores["a"].normalized_snr == pytest.approx(1.0)
    assert scores["b"].normalized_snr == pytest.approx(0.5)
    expect_a = metrics.robustness_likelihood(0.5, 1.0)
    assert scores["a"].likelihood == pytest.approx(expect_a, rel=REL)


def test_compare_schemes_nan_snr_is_order_independent():
    def agg(total, snr):
        return metrics.AggregateMetrics(runs=1, mean_total=total,
                                        mean_per_cluster={}, mean_snr=snr,
                                        mean_degraded=0.0)
    nan_first = metrics.compare_schemes({"a": agg(10.0, math.nan),
                                         "b": agg(20.0, 2.0)})
    nan_last = metrics.compare_schemes({"b": agg(20.0, 2.0),
                                        "a": agg(10.0, math.nan)})
    alone = metrics.compare_schemes({"b": agg(20.0, 2.0)})
    for scores in (nan_first, nan_last):
        assert math.isnan(scores["a"].normalized_snr)
        assert math.isnan(scores["a"].likelihood)
        assert scores["a"].normalized_reselections == pytest.approx(0.5)
        assert scores["b"] == alone["b"]
    all_nan = metrics.compare_schemes({"a": agg(10.0, math.nan)})
    assert math.isnan(all_nan["a"].normalized_snr)
    assert math.isnan(all_nan["a"].likelihood)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(deadline=None)
def test_likelihood_bounded_and_monotone_in_r(r, s):
    value = metrics.robustness_likelihood(r, s)
    assert 0.0 < value < 1.0
    # fewer normalized re-selections can only help, fixed S
    assert metrics.robustness_likelihood(0.0, s) >= value - 1e-12


def pin_form(rm):
    """A RunMetrics with every float as its repr, so NaN equals NaN."""
    return (sorted(rm.per_cluster.items()), rm.total_reselections,
            [(repr(t), n) for t, n in rm.cumulative], repr(rm.mean_snr),
            rm.degraded_selections)


@pytest.mark.parametrize("variant,scheme", CELLS)
def test_in_memory_and_on_disk_metrics_agree(variant, scheme, tmp_path):
    # `compare` scores its events in memory and `metrics` parses only the
    # scored kinds from disk: both must give the full parse's metrics
    overrides, _ = GRID[variant]
    cfg = validate(dataclasses.replace(SimConfig(), seed=1, scheme=scheme,
                                       **overrides))
    events = engine.run(cfg, seeds=run_seeds(1, 0, scheme))
    path = str(tmp_path / "cell.trace")
    trace.write_trace(path, {"config": cfg.digest(), "scheme": scheme}, events)
    in_memory = pin_form(metrics.run_metrics(events))
    _, parsed = trace.read_trace(path)
    _, scored = trace.read_trace(path, kinds=metrics.SCORED_KINDS)
    assert pin_form(metrics.run_metrics(parsed)) == in_memory
    assert pin_form(metrics.run_metrics(scored)) == in_memory
    assert {ev.kind for ev in scored} <= metrics.SCORED_KINDS
    assert len(scored) < len(parsed)
