"""Trace record round-trips and atomic file writes."""
import os

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uavclust.trace import (EVENT_KINDS, SimEvent, format_event,
                            format_header, parse_event, parse_header,
                            read_trace, write_trace)

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
