"""Event trace records and their line-delimited on-disk format.

One event per line, tab-separated::

    time<TAB>kind<TAB>id,id,...<TAB>{payload json}

The first line is a ``#`` header carrying the config digest, scheme,
run index and stream seeds, so aggregation can refuse mixed-config
input.  Files are written to a temp name and renamed so no partial
trace ever appears under the final name.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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


def format_event(event: SimEvent) -> str:
    ids = ",".join(str(i) for i in event.ids)
    payload = json.dumps(event.payload, sort_keys=True, separators=(",", ":"))
    return f"{format_number(event.time)}\t{event.kind}\t{ids}\t{payload}"


def parse_event(line: str) -> SimEvent:
    time_s, kind, ids_s, payload_s = line.rstrip("\n").split("\t")
    ids = tuple(int(i) for i in ids_s.split(",")) if ids_s else ()
    return SimEvent(time=float(time_s), kind=kind, ids=ids,
                    payload=json.loads(payload_s))


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


def read_trace(path: str) -> Tuple[Dict[str, str], List[SimEvent]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = parse_header(fh.readline())
        events = [parse_event(line) for line in fh if line.strip()]
    return header, events
