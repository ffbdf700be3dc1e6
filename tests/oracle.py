"""Reference functions that only the tests call.

The simulator samples V2V links in batches
(engine.Simulation._link_snrs), assigns vehicles to UAVs in one array
pass (assignment.assign) and reads traces in one streaming fold with
json's C scanner (trace.fold_trace); these are the scalar forms the
tests check them against.
"""
import json

import numpy as np

from uavclust import channel
from uavclust.trace import EVENT_KINDS, SimEvent, parse_header


def reference_assign(fleet, uav_x, altitude, power, g0, noise):
    """The UAV id of the max A2G SNR per fleet row, one scalar SNR per
    UAV and row; ties break to the lowest UAV id.  UAV j hovers at
    (uav_x[j], 0.0) at altitude[j] and transmits at power[j]; a float
    altitude or power is every UAV's."""
    uavs = list(zip(uav_x, *([v] * len(uav_x) if isinstance(v, float) else v
                             for v in (altitude, power))))
    column = []
    for x, y in zip(fleet.x.ravel().tolist(), fleet.y.ravel().tolist()):
        best_uav = None
        best_snr = -1.0
        for j, (ux, h, p) in enumerate(uavs):
            d = channel.a2g_distance(ux, 0.0, h, x, y)
            snr = channel.a2g_snr(p, channel.a2g_gain(d, g0), noise)
            if snr > best_snr:
                best_uav, best_snr = j, snr
        column.append(best_uav)
    return np.array(column, dtype=np.int64).reshape(fleet.x.shape)


def v2v_gain(large_scale: float, fast_fading: float) -> float:
    """Instantaneous V2V gain: exponential fast-fading factor times J_V."""
    if fast_fading < 0.0:
        raise ValueError(f"v2v_gain: fading factor cannot be negative, got {fast_fading}")
    return fast_fading * large_scale


def v2v_snr(p_vehicle: float, gain: float, noise: float) -> float:
    """V2V SNR with the vehicle transmit power."""
    if noise <= 0.0:
        raise ValueError(f"v2v_snr: noise power must be positive, got {noise}")
    return p_vehicle * gain / noise


_raw_decode = json.JSONDecoder().raw_decode


def _parse_row(fields):
    """The (time, kind, ids, payload) row of a line's four fields."""
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


def reference_read_trace(path):
    """trace.read_trace, one _parse_row per line of a known kind: the
    header and events of a trace file, or a ValueError that names the
    path and the line reached."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        lines = fh.read().split("\n")
    lineno = 1
    try:
        header = parse_header(first)
        events = []
        for lineno, line in enumerate(lines, 2):
            fields = line.split("\t")
            if len(fields) == 4:
                if fields[1] in EVENT_KINDS:
                    events.append(SimEvent(*_parse_row(fields)))
            elif line.strip():
                raise ValueError(f"not a trace event: {line!r}")
        return header, events
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from exc


def parse_event(line: str) -> SimEvent:
    """One trace line, with or without its newline, as the event it was
    written from."""
    return SimEvent(*_parse_row(line.rstrip("\n").split("\t")))
