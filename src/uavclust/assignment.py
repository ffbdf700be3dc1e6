"""UAV-vehicle assignment: every vehicle joins the UAV with max A2G SNR."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import channel
from .mobility import Fleet
from .model import UavNode


def assign(fleet: Fleet, uavs: Sequence[UavNode],
           g0: float, noise: float) -> np.ndarray:
    """Per-row argmax of the A2G SNR over all UAVs: the UAV id of every
    fleet row, in the shape of the fleet's arrays.

    Ties break to the lowest UAV id so the result is independent of
    evaluation order.
    """
    if not uavs:
        raise ValueError("assign: need at least one UAV")
    if not fleet.x.shape[-1]:
        raise ValueError("assign: need at least one vehicle")
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
