"""UAV-vehicle assignment: every vehicle joins the UAV with max A2G SNR."""
from __future__ import annotations

import numpy as np

from . import channel
from .mobility import Fleet


def assign(fleet: Fleet, uav_x, altitude, power,
           g0: float, noise: float) -> np.ndarray:
    """Per-row argmax of the A2G SNR over all UAVs: the UAV id of every
    fleet row, in the shape of the fleet's arrays.  UAV j hovers at
    (uav_x[j], 0.0) at altitude[j] with power[j]; altitude and power
    are each one value per UAV or one value for all UAVs.

    Ties break to the lowest UAV id so the result is independent of
    evaluation order.  One array pass ranks the UAVs of every row; a
    row whose best SNR is not clearly positive or is within 1e-9
    (relative) of the second is decided by scalar SNRs, UAV by UAV, as
    the two forms may round apart in the last bits.
    """
    ux, h, power = (np.asarray(column, dtype=float)[:, None] for column in
                    np.broadcast_arrays(uav_x, altitude, power))
    if not len(ux):
        raise ValueError("assign: need at least one UAV")
    if not fleet.x.shape[-1]:
        raise ValueError("assign: need at least one vehicle")
    x, y = fleet.x.ravel(), fleet.y.ravel()
    snrs = channel.a2g_snr(power, g0 / ((ux - x) ** 2 + (0.0 - y) ** 2 + h ** 2),
                           noise)
    top = np.sort(snrs, axis=0)
    second = top[-2] if len(ux) > 1 else 0.0
    column = snrs.argmax(axis=0)
    for i in np.flatnonzero(~((top[-1] - second > 1e-9 * top[-1])
                              & (second >= 0.0))).tolist():
        best_snr = -1.0
        for j in range(len(ux)):
            d = channel.a2g_distance(ux.item(j), 0.0, h.item(j),
                                     x.item(i), y.item(i))
            snr = channel.a2g_snr(power.item(j), channel.a2g_gain(d, g0), noise)
            if snr > best_snr:
                column[i], best_snr = j, snr
    return column.reshape(fleet.x.shape)
