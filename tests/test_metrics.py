"""Metric math oracles and trace aggregation."""
import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavclust import engine, metrics, trace
from uavclust.config import SimConfig, validate
from uavclust.model import left_mean, left_sum
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


HALF_MAX = sys.float_info.max / 2


# terms above 2**1020 make about a third of the drawn sums overflow
@given(st.lists(st.floats(-HALF_MAX, HALF_MAX) | st.floats(2.0 ** 1020, HALF_MAX)
                | st.floats(-HALF_MAX, -2.0 ** 1020), min_size=1, max_size=64))
@settings(deadline=None, max_examples=500)
def test_left_mean_is_the_plain_mean_wherever_that_is_finite(values):
    mean, plain = left_mean(values), left_sum(values) / len(values)
    assert math.isfinite(mean)
    if math.isfinite(plain):
        assert mean.hex() == plain.hex()  # bit for bit, sign of zero too


def test_left_mean_of_an_overflowing_sum():
    big = 1.0047545726038328e+307
    assert math.isinf(left_sum([big] * 20))
    assert left_mean([big] * 20) == big
    # a non-finite term is its own mean: no rescaling hides it
    assert left_mean([big] * 19 + [math.inf]) == math.inf
    assert math.isnan(left_mean([math.inf, -math.inf]))


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


# the golden cells, plus one whose mean SNR is NaN: a lone vehicle is a
# CH without members, so no CAM batch carries an SNR
ROUND_TRIP_OVERRIDES = {variant: overrides
                        for variant, (overrides, _) in GRID.items()}
ROUND_TRIP_OVERRIDES["lone_vehicle"] = {"num_vehicles": 1}


@pytest.mark.parametrize("variant,scheme",
                         CELLS + [("lone_vehicle", "proposed")])
def test_in_memory_and_on_disk_metrics_agree(variant, scheme, tmp_path):
    # `compare` scores its events in memory and `metrics` folds the
    # scored lines of the file: both must give the full parse's metrics
    cfg = validate(dataclasses.replace(SimConfig(), seed=1, scheme=scheme,
                                       **ROUND_TRIP_OVERRIDES[variant]))
    events = engine.run(cfg, seeds=run_seeds(1, 0, scheme))
    path = str(tmp_path / "cell.trace")
    meta = {"config": cfg.digest(), "scheme": scheme}
    trace.write_trace(path, meta, events)
    in_memory = pin_form(metrics.run_metrics(events))
    header, folded = metrics.score_trace(path)
    assert header == meta
    assert pin_form(folded) == in_memory
    assert pin_form(metrics.run_metrics(trace.read_trace(path)[1])) == in_memory
    assert (in_memory[3] == "nan") == (variant == "lone_vehicle")


@pytest.mark.parametrize("text,error", [
    ("# not a uavclust trace\n", "line 1: not a trace header"),
    # json.loads raises RecursionError here, not a ValueError
    ("# uavclust-trace scheme=x\n\n0\tcam_batch\t0,1\t" + "[" * 100000 + "\n",
     "line 3: maximum recursion depth"),
])
def test_an_unreadable_trace_names_its_path_and_line(tmp_path, text, error):
    path = tmp_path / "bad.trace"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.trace, {error}"):
        metrics.score_trace(str(path))


def reference_score(path):
    """The scoring path score_trace replaced: split every non-blank
    line, json.loads the time, ids and payload of the scored ones, then
    the event loop.  Any exception is a rejection."""
    with open(path, "r", encoding="utf-8") as fh:
        trace.parse_header(fh.readline())
        rows = []
        for line in fh:
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise ValueError(f"not a trace event: {line!r}")
            time_s, kind, ids_s, payload_s = fields
            if kind in metrics.SCORED_KINDS:
                ids = tuple(map(int, ids_s.split(","))) if ids_s else ()
                rows.append((float(time_s), kind, ids, json.loads(payload_s)))
    per_cluster, cumulative, total, degraded, samples = {}, [], 0, 0, {}
    for time, kind, ids, payload in rows:
        if kind in trace.RESELECTION_KINDS:
            total += 1
            per_cluster[ids[0]] = per_cluster.get(ids[0], 0) + 1
            cumulative.append((time, total))
        if kind in ("ch_selected", "ch_reselected_full") and payload.get("degraded"):
            degraded += 1
        if kind == "cam_batch" and "snr" in payload:
            samples.setdefault((ids[0], payload["tenure"]), []).append(payload["snr"])
    means = [left_sum(v) / len(v) for v in samples.values()]
    return metrics.RunMetrics(
        per_cluster=per_cluster, total_reselections=total,
        cumulative=tuple(cumulative),
        mean_snr=left_sum(means) / len(means) if means else math.nan,
        degraded_selections=degraded)


@pytest.fixture(scope="module")
def written_trace(tmp_path_factory):
    """The header and body lines of a short trace that holds every scored
    kind: a `proposed` body (backup replacements) followed by a `vmasc`
    one (full re-selections)."""
    cfg = validate(dataclasses.replace(SimConfig(), seed=3, total_time=140.0))
    path = str(tmp_path_factory.mktemp("corrupt") / "base.trace")
    events = [ev for scheme in ("proposed", "vmasc")
              for ev in engine.run(dataclasses.replace(cfg, scheme=scheme),
                                   seeds=run_seeds(3, 0, scheme))]
    trace.write_trace(path, {"config": cfg.digest(), "scheme": "mixed"}, events)
    with open(path, "r", encoding="utf-8") as fh:
        header, *body = fh.read().splitlines()
    assert metrics.SCORED_KINDS <= {line.split("\t")[1] for line in body}
    return header, body


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["snr", "tenure", "degraded", "members"]) | _text,
        inner, max_size=4),
    max_leaves=6)
_payload_text = (st.builds(json.dumps, _json_values)
                 | st.text(st.sampled_from('{}[]":,0123456789.eE-+ntrufalsNIy\\ '),
                           max_size=12))
_blank = st.text(st.sampled_from(" \r\n\x0b\x0c\u00a0\u2028"), min_size=1,
                 max_size=3)


# mutation -> strategy of its argument
_MUTATIONS = {
    "drop_tab": st.integers(0, 2),
    "time": st.text(st.sampled_from("0123456789.eE+-_ nafinty"), max_size=8),
    "ids": st.text(st.sampled_from("0123456789,-+_ x"), max_size=6),
    "payload": _payload_text,
    "after_payload": st.text(st.characters(blacklist_categories=("Cs",)),
                             min_size=1, max_size=4),
    "wrap_payload": st.tuples(_blank, _blank),
}


def mutate_line(line, mutation, arg):
    """line with one mutation of _MUTATIONS applied."""
    if mutation == "drop_tab":
        cut = [i for i, c in enumerate(line) if c == "\t"][arg]
        return line[:cut] + line[cut + 1:]
    fields = line.split("\t")
    if mutation == "time":
        fields[0] = arg
    elif mutation == "ids":
        fields[2] = arg
    elif mutation == "payload":
        fields[3] = arg
    elif mutation == "after_payload":
        fields[3] += arg
    else:
        fields[3] = arg[0] + fields[3] + arg[1]
    return "\t".join(fields)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_trace_is_scored_or_rejected_as_before(written_trace,
                                                         tmp_path_factory, data):
    # a trace with one mutated line is rejected (ValueError) exactly when
    # the replaced path rejected it, and otherwise scores the same
    header, body = written_trace
    scored = [k for k, line in enumerate(body)
              if line.split("\t")[1] in metrics.SCORED_KINDS]
    k = data.draw(st.sampled_from(scored) | st.integers(0, len(body) - 1))
    mutation = data.draw(st.sampled_from(sorted(_MUTATIONS)))
    lines = list(body)
    lines[k] = mutate_line(body[k], mutation, data.draw(_MUTATIONS[mutation]))
    path = str(tmp_path_factory.getbasetemp() / "mutant.trace")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + lines) + "\n")
    try:
        expected = pin_form(reference_score(path))
    except Exception:  # a crash of the replaced path is a rejection too
        expected = None
    if expected is None:
        with pytest.raises(ValueError, match="mutant.trace, line "):
            metrics.score_trace(path)
    else:
        assert pin_form(metrics.score_trace(path)[1]) == expected
