"""Reference functions that only the tests call.

The simulator samples V2V links in batches (engine._link_snrs), assigns
vehicles to UAVs in one array pass (assignment.assign) and scores
traces in one streaming fold (trace.fold_trace); these are the scalar
forms the tests check them against.
"""
import numpy as np

from uavclust import channel
from uavclust.trace import SimEvent, _parse_row


def reference_assign(fleet, uavs, g0, noise):
    """The UAV id of the max A2G SNR per fleet row, one scalar SNR per
    UAV and row; ties break to the lowest UAV id."""
    ordered = sorted(uavs, key=lambda n: n.id)
    column = []
    for x, y in zip(fleet.x.ravel().tolist(), fleet.y.ravel().tolist()):
        best_uav = None
        best_snr = -1.0
        for u in ordered:
            d = channel.a2g_distance(u.pos.x, u.pos.y, u.pos.h, x, y)
            snr = channel.a2g_snr(u.tx_power, channel.a2g_gain(d, g0), noise)
            if snr > best_snr:
                best_uav, best_snr = u.id, snr
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


def parse_event(line: str) -> SimEvent:
    """One trace line, with or without its newline, as the event it was
    written from."""
    return SimEvent(*_parse_row(line.rstrip("\n").split("\t")))
