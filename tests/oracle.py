"""Reference functions that only the tests call.

The simulator samples V2V links in batches (engine._link_snrs) and
scores traces in one streaming fold (trace.fold_trace); these are the
scalar forms the tests check them against.
"""
from uavclust.trace import SimEvent, _parse_row, _split_event


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
    """One trace line as the event it was written from."""
    return SimEvent(*_parse_row(_split_event(line)))
