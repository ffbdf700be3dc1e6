"""Cluster-head selection: the proposed threshold scheme plus the random
and lowest-average-relative-speed (VMaSC) benchmarks."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import Cam, VehicleId, left_sum


@dataclass(frozen=True)
class ChDecision:
    """Outcome of one CH selection pass.

    examined lists (vehicle, v_d, residual, neighbor_count) in the order
    candidates were considered.  degraded marks the fallback pick made
    when nobody passed both thresholds.
    """

    chosen: Optional[VehicleId]
    examined: Tuple[Tuple[VehicleId, float, float, int], ...]
    degraded: bool


def cluster_avg_speed(member_avg_speeds: Sequence[float]) -> float:
    """Arithmetic mean of member average speeds."""
    if not member_avg_speeds:
        raise ValueError("cluster_avg_speed: empty cluster")
    return left_sum(member_avg_speeds) / len(member_avg_speeds)


def select_ch(cams: Sequence[Cam], v_cl: float, r_u: float, dt: float,
              eps_distance: float, eps_neighbors: int,
              residual_fn: Optional[Callable[[Cam], float]] = None) -> ChDecision:
    """Pick the CH: candidates in increasing |v_avg - v_cl| order, first
    one whose residual path and neighbor count clear both thresholds.

    If nobody qualifies, fall back to the minimum-v_d candidate and flag
    the decision as degraded.  residual_fn overrides the default
    2 r_U - v_avg * dt residual (used for the geometric variant).
    """
    if not cams:
        raise ValueError("select_ch: empty cluster")
    if residual_fn is None:
        residual_fn = lambda cam: 2.0 * r_u - cam.avg_speed * dt
    ordered = sorted(cams, key=lambda c: (abs(c.avg_speed - v_cl), c.vehicle_id))
    examined: List[Tuple[VehicleId, float, float, int]] = []
    for cam in ordered:
        v_d = abs(cam.avg_speed - v_cl)
        xi = residual_fn(cam)
        n_count = len(cam.neighbors)
        examined.append((cam.vehicle_id, v_d, xi, n_count))
        if xi >= eps_distance and n_count >= eps_neighbors:
            return ChDecision(chosen=cam.vehicle_id,
                              examined=tuple(examined), degraded=False)
    return ChDecision(chosen=ordered[0].vehicle_id,
                      examined=tuple(examined), degraded=True)


def select_ch_random(members: Sequence[VehicleId],
                     rng: np.random.Generator) -> VehicleId:
    """Uniform random member, drawn from the caller's scheme stream."""
    if not members:
        raise ValueError("select_ch_random: empty cluster")
    ordered = sorted(members)
    return ordered[int(rng.integers(0, len(ordered)))]


def select_ch_vmasc(cams: Sequence[Cam]) -> VehicleId:
    """Member with the lowest mean absolute average-speed difference to
    its co-members; ties break to the lowest vehicle id."""
    if not cams:
        raise ValueError("select_ch_vmasc: empty cluster")
    if len(cams) == 1:
        return cams[0].vehicle_id
    best_id = None
    best_rel = None
    for cam in sorted(cams, key=lambda c: c.vehicle_id):
        rel = left_sum(abs(cam.avg_speed - other.avg_speed)
                       for other in cams if other.vehicle_id != cam.vehicle_id)
        rel /= len(cams) - 1
        if best_rel is None or rel < best_rel:
            best_id, best_rel = cam.vehicle_id, rel
    return best_id
