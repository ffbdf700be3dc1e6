"""Event trace records and their line-delimited on-disk format.

One event per line, tab-separated::

    time<TAB>kind<TAB>id,id,...<TAB>{payload json}

The payload is compact JSON with sorted keys, written by a scalar
encoder byte for byte as json.dumps writes it (format_payload).
read_trace parses every line into events; fold_trace streams a file
into a fold and parses only the lines of the kinds the fold reads.

The first line is a ``#`` header carrying the config digest, scheme,
run index and stream seeds, so aggregation can refuse mixed-config
input.  Files are written to a temp name and renamed so no partial
trace ever appears under the final name.
"""
from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import (Any, Callable, Collection, Dict, Iterable, List, Mapping,
                    NamedTuple, Sequence, Tuple, TypeVar)

EVENT_KINDS = (
    "clustering_round", "cam_batch", "beacon_ok", "beacon_missed",
    "ch_selected", "ch_departed", "ch_replaced_from_backup",
    "ch_reselected_full", "vehicle_respawn",
)

RESELECTION_KINDS = ("ch_replaced_from_backup", "ch_reselected_full")


# an event's fields in order, as a fold over a trace reads them: a
# SimEvent, or a parsed line whose payload is whatever JSON it holds
Row = Tuple[float, str, Tuple[int, ...], Any]
T = TypeVar("T")


class SimEvent(NamedTuple):
    time: float
    kind: str
    ids: Tuple[int, ...] = ()
    # read-only, because a default is shared by every event that takes it
    payload: Mapping[str, Any] = MappingProxyType({})


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


_raw_decode = json.JSONDecoder().raw_decode


def _parse_row(fields: List[str]) -> Row:
    time_s, kind, ids_s, payload_s = fields
    ids = tuple(map(int, ids_s.split(","))) if ids_s else ()
    # json.loads(payload_s) in one raw_decode call when that consumes
    # it whole; json.loads itself also skips surrounding whitespace, or
    # raises
    try:
        payload, end = _raw_decode(payload_s)
    except ValueError:
        end = -1
    if end != len(payload_s):
        payload = json.loads(payload_s)
    return float(time_s), kind, ids, payload


def parse_event(line: str) -> SimEvent:
    return SimEvent(*_parse_row(_split_event(line)))


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
    """The header and every event of a trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = parse_header(fh.readline())
        events = [SimEvent(*_parse_row(_split_event(line)))
                  for line in fh if line.strip()]
    return header, events


def fold_trace(path: str, kinds: Collection[str],
               fold: Callable[[Iterable[Row]], T]) -> Tuple[Dict[str, str], T]:
    """The header of a trace file and fold(rows), where rows streams the
    parsed lines of the given kinds in file order.

    Every other non-blank line is only split, and must have four
    fields.  A ValueError from parsing or from the fold, or a payload
    nested too deep for json, is raised as a ValueError that names the
    path and the line the rows had reached.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        lines = fh.read().split("\n")
    lineno = 1

    def rows() -> Iterable[Row]:
        nonlocal lineno
        for lineno, line in enumerate(lines, 2):
            fields = line.split("\t")
            if len(fields) == 4:
                # a blank line's kind is blank, so it is never parsed
                if fields[1] in kinds:
                    yield _parse_row(fields)
            elif line.strip():
                raise ValueError(f"not a trace event: {line!r}")

    try:
        return parse_header(first), fold(rows())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from exc
