"""UAV-vehicle assignment: every vehicle joins the UAV with max A2G SNR."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from . import channel
from .mobility import Fleet
from .model import UavId, UavNode, VehicleId


@dataclass(frozen=True)
class AssignmentMatrix:
    """Vehicle -> (UAV, SNR) partition."""

    by_vehicle: Dict[VehicleId, Tuple[UavId, float]]

    def members_of(self, uav_id: UavId):
        return sorted(v for v, (u, _) in self.by_vehicle.items() if u == uav_id)


def assign(fleet: Fleet, uavs: Sequence[UavNode],
           g0: float, noise: float) -> AssignmentMatrix:
    """Per-vehicle argmax of the A2G SNR over all UAVs.

    Ties break to the lowest UAV id so the result is independent of
    evaluation order.
    """
    if not uavs:
        raise ValueError("assign: need at least one UAV")
    if not len(fleet.ids):
        raise ValueError("assign: need at least one vehicle")
    by_vehicle: Dict[VehicleId, Tuple[UavId, float]] = {}
    for vid, x, y in zip(fleet.ids.tolist(), fleet.x.tolist(),
                         fleet.y.tolist()):
        best_uav = None
        best_snr = -1.0
        for u in sorted(uavs, key=lambda n: n.id):
            d = channel.a2g_distance(u.pos.x, u.pos.y, u.pos.h, x, y)
            snr = channel.a2g_snr(u.tx_power, channel.a2g_gain(d, g0), noise)
            if snr > best_snr:
                best_uav, best_snr = u.id, snr
        by_vehicle[vid] = (best_uav, best_snr)
    return AssignmentMatrix(by_vehicle=by_vehicle)
