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
    evaluation order.  One array pass ranks the UAVs of every row; a
    row whose best SNR is not clearly positive or is within 1e-9
    (relative) of the second is decided by scalar SNRs, UAV by UAV, as
    the two forms may round apart in the last bits.
    """
    if not uavs:
        raise ValueError("assign: need at least one UAV")
    if not fleet.x.shape[-1]:
        raise ValueError("assign: need at least one vehicle")
    ordered = sorted(uavs, key=lambda n: n.id)
    x, y = fleet.x.ravel(), fleet.y.ravel()
    ux, uy, h, power = np.array([[u.pos.x, u.pos.y, u.pos.h, u.tx_power]
                                 for u in ordered]).T[:, :, None]
    snrs = power * (g0 / ((ux - x) ** 2 + (uy - y) ** 2 + h ** 2)) / noise
    top = np.sort(snrs, axis=0)
    second = top[-2] if len(ordered) > 1 else 0.0
    column = np.array([u.id for u in ordered])[snrs.argmax(axis=0)]
    for i in np.flatnonzero(~((top[-1] - second > 1e-9 * top[-1])
                              & (second >= 0.0))).tolist():
        best_snr = -1.0
        for u in ordered:
            d = channel.a2g_distance(u.pos.x, u.pos.y, u.pos.h,
                                     x.item(i), y.item(i))
            snr = channel.a2g_snr(u.tx_power, channel.a2g_gain(d, g0), noise)
            if snr > best_snr:
                column[i], best_snr = u.id, snr
    return column.reshape(fleet.x.shape)
