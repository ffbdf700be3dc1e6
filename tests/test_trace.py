"""Trace record round-trips and atomic file writes."""
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.trace import (EVENT_KINDS, SimEvent, format_event,
                            format_header, format_number, format_payload,
                            parse_header, read_trace, write_trace)

from oracle import parse_event


def reference_format_event(event):
    """format_event with the payload written by json.dumps: the oracle
    the scalar payload encoder must match byte for byte."""
    ids = ",".join(str(i) for i in event.ids)
    payload = json.dumps(dict(event.payload), sort_keys=True,
                         separators=(",", ":"))
    return f"{format_number(event.time)}\t{event.kind}\t{ids}\t{payload}"

_payload_values = st.one_of(
    st.integers(), st.booleans(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False))
_events = st.builds(
    SimEvent,
    time=st.floats(allow_nan=False, allow_infinity=False),
    kind=st.sampled_from(EVENT_KINDS),
    ids=st.lists(st.integers(), max_size=3).map(tuple),
    payload=st.dictionaries(st.text(), _payload_values, max_size=3))


def test_event_round_trip():
    ev = SimEvent(30.0, "ch_selected", ids=(1, 4),
                  payload={"scheme": "proposed", "degraded": False})
    assert parse_event(format_event(ev)) == ev


def test_event_round_trip_no_ids():
    ev = SimEvent(0.0, "clustering_round", payload={"round": 0})
    assert parse_event(format_event(ev)) == ev


@given(_events)
@example(SimEvent(100000.5, "beacon_ok", ids=(0, 5)))
@example(SimEvent(1234567.0, "clustering_round", payload={"round": 3}))
def test_event_round_trip_property(ev):
    assert parse_event(format_event(ev)) == ev


def test_format_is_tab_separated_with_sorted_payload():
    ev = SimEvent(10.0, "cam_batch", ids=(0, 3),
                  payload={"tenure": 1, "members": 4})
    line = format_event(ev)
    assert line == '10\tcam_batch\t0,3\t{"members":4,"tenure":1}'


def test_header_round_trip():
    meta = {"config": "abcd1234", "scheme": "vmasc", "run": "7"}
    assert parse_header(format_header(meta)) == meta
    with pytest.raises(ValueError):
        parse_header("not a header")


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "run.trace")
    meta = {"config": "abcd", "scheme": "proposed", "run": "0"}
    events = [SimEvent(0.0, "clustering_round", payload={"round": 0}),
              SimEvent(10.0, "beacon_ok", ids=(0, 5))]
    write_trace(path, meta, events)
    header, parsed = read_trace(path)
    assert header == meta
    assert parsed == events
    assert not os.path.exists(path + ".tmp")  # temp file renamed away


# every payload scalar: NaN / +-inf, -0.0 and subnormals, ints past 64
# bits, bools and strings that need escaping
_any_scalar = st.one_of(
    st.floats(), st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 200),
    st.booleans(), st.text())
_any_events = st.builds(
    SimEvent,
    time=st.floats(),
    kind=st.sampled_from(EVENT_KINDS),
    ids=st.lists(st.integers(), max_size=3).map(tuple),
    payload=st.dictionaries(st.text(), _any_scalar, max_size=4))


@settings(max_examples=400)
@given(_any_events)
@example(SimEvent(0.0, "beacon_ok", ids=(0, 5)))
@example(SimEvent(100000.5, "cam_batch", ids=(1, 2),
                  payload={"members": 3, "tenure": 2, "snr": math.nan}))
@example(SimEvent(0.1 + 0.2, "cam_batch",
                  payload={"snr": math.inf, "a": -math.inf, "z": -0.0,
                           "sub": 5e-324, "big": -(2 ** 100)}))
@example(SimEvent(-0.0, "ch_departed", ids=(3, 4),
                  payload={"reason": 'q"b\\s\tt \u00e9\u6f22\U0001f600\n',
                           "k\"ey": True, "off": False}))
def test_format_event_matches_json_dumps(ev):
    line = format_event(ev)
    assert line == reference_format_event(ev)
    assert format_event(parse_event(line)) == line


ODD_EVENTS = [
    SimEvent(0.0, "clustering_round"),
    SimEvent(-0.0, "beacon_ok", ids=(0,)),
    SimEvent(0.0, "beacon_ok", ids=(0, 1)),
    SimEvent(-0.0, "vehicle_respawn", ids=(-5, 2 ** 70, 3)),
    SimEvent(0.1 + 0.2, "cam_batch", ids=(1, 2),
             payload={"snr": math.nan, "members": 3, "tenure": 2}),
    SimEvent(0.1 + 0.2, "cam_batch", ids=(1, 2),
             payload={"tenure": 2, "snr": math.inf, "members": 3}),
    SimEvent(1e300, "ch_departed", ids=(3, 4),
             payload={"reason": "tab\there \u00e9\u6f22\U0001f600 \"q\"\n",
                      "a": -math.inf, "z": -0.0, "big": 10 ** 30,
                      "neg": -(10 ** 30), "on": True, "off": False}),
    SimEvent(math.nan, "ch_selected", ids=(7, 7),
             payload={"scheme": "\u00fcber", "degraded": True}),
    SimEvent(5e-324, "ch_reselected_full", payload={"": 0, "\t": 1.5}),
]


def test_trace_writer_matches_format_event(tmp_path):
    # the writer formats each distinct time once and caches each payload
    # key order; neither may change a byte of format_event's lines
    events = ODD_EVENTS + ODD_EVENTS[::-1]
    path = str(tmp_path / "odd.trace")
    write_trace(path, {"scheme": "proposed"}, events)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[1:] == [format_event(ev) for ev in events] + [""]


def test_format_payload_rejects_non_scalars():
    with pytest.raises(TypeError):
        format_payload({"members": [1, 2]})
    with pytest.raises(TypeError):
        format_payload({"ch": None})
