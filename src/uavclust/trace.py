"""Event trace records and their line-delimited on-disk format.

One event per line, tab-separated::

    time<TAB>kind<TAB>id,id,...<TAB>{payload json}

The payload is compact JSON with sorted keys as json.dumps writes it,
each value of exact type str, int, float or bool by a table of its own
and any other by json.dumps.  format_events is the one writer of event
lines and fold_trace the one reader: it streams a file into a fold and
parses only the lines of the kinds the fold reads, each payload in one
call of json's C scanner and each distinct ids text once per file;
read_trace is its fold into a list of events.

The first line is a ``#`` header carrying the config digest, scheme,
run index and stream seeds, so aggregation can refuse mixed-config
input.  Files are written to a temp name and renamed (atomic_write) so
no partial trace ever appears under the final name.
"""
from __future__ import annotations

import functools
import json
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


# the payload of an event without one; read-only, because it is shared
# by every such event
NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class SimEvent(NamedTuple):
    time: float
    kind: str
    ids: Tuple[int, ...] = ()
    payload: Mapping[str, Any] = NO_PAYLOAD


# SimEvent((time, kind, ids, payload)): all four fields in one tuple,
# without the argument handling of SimEvent(...), which costs the
# engine about twice as much per event
make_event = functools.partial(tuple.__new__, SimEvent)


def format_number(value: float) -> str:
    """%g (six significant digits) where it reads back exactly, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _json_scalar(value) -> str:
    """One payload value as json.dumps writes it inside a dict."""
    if not isinstance(value, (str, int, float)):
        raise TypeError(f"trace payload value {value!r} is not a JSON scalar")
    return json.dumps(value)


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


def _float_text(value: float) -> str:
    """A finite float as json.dumps writes it; NaN and infinities (for
    which value - value is not 0.0) as _json_scalar writes them."""
    return float.__repr__(value) if value - value == 0.0 else _json_scalar(value)


# payload value formatters by exact type; any other type, subclasses of
# these included, goes through _json_scalar
_SCALAR_TEXT: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
}


def format_events(events: Iterable[SimEvent]) -> str:
    """One line per event, each ending in a newline, in one string:
    format_number(time), kind, the ids joined by commas and the payload
    as json.dumps(payload, sort_keys=True, separators=(",", ":"))
    writes it, tab-separated.  Payload keys are str and values JSON
    scalars; any other value raises TypeError.

    Each distinct time is formatted once (format_number; 0.0 and -0.0,
    which compare equal, are formatted each time), and each distinct
    key order of a payload sorts and encodes its keys once.
    """
    times: Dict[float, str] = {}
    key_texts: Dict[tuple, List[Tuple[str, str]]] = {}
    scalar_text = _SCALAR_TEXT.get
    lines = []
    for time, kind, ids, payload in events:
        time_text = times.get(time)
        if time_text is None or not time:
            time_text = times[time] = format_number(time)
        if len(ids) == 2:
            ids_text = f"{ids[0]},{ids[1]}"
        else:
            ids_text = ",".join(map(str, ids))
        if payload:
            order = tuple(payload)
            keys = key_texts.get(order)
            if keys is None:
                keys = key_texts[order] = [
                    (key, encode_basestring_ascii(key) + ":")
                    for key in sorted(payload)]
            items = []
            for key, text in keys:
                value = payload[key]
                items.append(text + scalar_text(type(value), _json_scalar)(value))
            payload_text = "{" + ",".join(items) + "}"
        else:
            payload_text = "{}"
        lines.append(f"{time_text}\t{kind}\t{ids_text}\t{payload_text}\n")
    return "".join(lines)


def atomic_write(path: str, text: str) -> None:
    """Write text to a temp name and rename it to path, so no partial
    file ever appears under path."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_trace(path: str, meta: Dict[str, str],
                events: Sequence[SimEvent]) -> None:
    atomic_write(path, format_header(meta) + "\n" + format_events(events))


def read_trace(path: str) -> Tuple[Dict[str, str], List[SimEvent]]:
    """The header and every event of a known kind (EVENT_KINDS) of a
    trace file, through fold_trace."""
    return fold_trace(path, EVENT_KINDS,
                      lambda rows: [make_event(row) for row in rows])


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
        # a payload is json.loads(payload_s): one call of the C scanner
        # that raw_decode wraps, when that consumes it whole; json.loads
        # itself also skips surrounding whitespace, or raises.  Each
        # distinct ids text becomes its tuple once.
        scan_once, loads = json.JSONDecoder().scan_once, json.loads
        id_tuples: Dict[str, Tuple[int, ...]] = {"": ()}
        for lineno, line in enumerate(lines, 2):
            fields = line.split("\t")
            if len(fields) == 4:
                time_s, kind, ids_s, payload_s = fields
                # a blank line's kind is blank, so it is never parsed
                if kind in kinds:
                    ids = id_tuples.get(ids_s)
                    if ids is None:
                        ids = id_tuples[ids_s] = tuple(map(int, ids_s.split(",")))
                    try:
                        payload, end = scan_once(payload_s, 0)
                    except (StopIteration, ValueError):
                        end = -1
                    if end != len(payload_s):
                        payload = loads(payload_s)
                    yield float(time_s), kind, ids, payload
            elif line.strip():
                raise ValueError(f"not a trace event: {line!r}")

    try:
        return parse_header(first), fold(rows())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from exc
