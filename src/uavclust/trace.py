"""Event trace records and their line-delimited on-disk format.

One event per line, tab-separated::

    time<TAB>kind<TAB>id,id,...<TAB>{payload json}

The payload is compact JSON with sorted keys, written by a scalar
encoder byte for byte as json.dumps writes it (format_payload).  A
reader that needs only some kinds parses only those (read_trace).

The first line is a ``#`` header carrying the config digest, scheme,
run index and stream seeds, so aggregation can refuse mixed-config
input.  Files are written to a temp name and renamed so no partial
trace ever appears under the final name.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Collection, Dict, List, Optional, Sequence, Tuple

EVENT_KINDS = (
    "clustering_round", "cam_batch", "beacon_ok", "beacon_missed",
    "ch_selected", "ch_departed", "ch_replaced_from_backup",
    "ch_reselected_full", "vehicle_respawn",
)

RESELECTION_KINDS = ("ch_replaced_from_backup", "ch_reselected_full")


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str
    ids: Tuple[int, ...] = ()
    payload: Dict = field(default_factory=dict)


def format_number(value: float) -> str:
    """%g (six significant digits) where it reads back exactly, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _json_scalar(value) -> str:
    """One payload value as json.dumps writes it inside a dict."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"trace payload value {value!r} is not a JSON scalar")


def format_payload(payload: Dict) -> str:
    """json.dumps(payload, sort_keys=True, separators=(",", ":")) for str
    keys and scalar values; strings go through json's own escaper."""
    if not payload:
        return "{}"
    items = [f"{encode_basestring_ascii(key)}:{_json_scalar(payload[key])}"
             for key in sorted(payload)]
    return "{" + ",".join(items) + "}"


def format_event(event: SimEvent) -> str:
    ids = ",".join(map(str, event.ids))
    return (f"{format_number(event.time)}\t{event.kind}\t{ids}\t"
            f"{format_payload(event.payload)}")


def _split_event(line: str) -> List[str]:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 4:
        raise ValueError(f"not a trace event: {line!r}")
    return fields


def _build_event(fields: List[str]) -> SimEvent:
    time_s, kind, ids_s, payload_s = fields
    ids = tuple(map(int, ids_s.split(","))) if ids_s else ()
    return SimEvent(float(time_s), kind, ids, json.loads(payload_s))


def parse_event(line: str) -> SimEvent:
    return _build_event(_split_event(line))


def format_header(meta: Dict[str, str]) -> str:
    parts = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return f"# uavclust-trace {parts}"


def parse_header(line: str) -> Dict[str, str]:
    prefix = "# uavclust-trace "
    if not line.startswith(prefix):
        raise ValueError(f"not a trace header: {line!r}")
    meta = {}
    for part in line[len(prefix):].split():
        key, _, value = part.partition("=")
        meta[key] = value
    return meta


def write_trace(path: str, meta: Dict[str, str],
                events: Sequence[SimEvent]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(format_header(meta) + "\n")
        for event in events:
            fh.write(format_event(event) + "\n")
    os.replace(tmp, path)


def read_trace(path: str, *, kinds: Optional[Collection[str]] = None
               ) -> Tuple[Dict[str, str], List[SimEvent]]:
    """The header and events of a trace file; with kinds, only the
    events of those kinds (the other lines are split, never parsed)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = parse_header(fh.readline())
        rows = (_split_event(line) for line in fh if line.strip())
        events = [_build_event(row) for row in rows
                  if kinds is None or row[1] in kinds]
    return header, events
