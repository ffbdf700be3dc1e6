"""Core value types shared by every simulator module.

All records are plain frozen dataclasses so they can be shared freely
across concurrent Monte Carlo runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Tuple

VehicleId = int
UavId = int
ClusterId = int

KMH_TO_MS = 1.0 / 3.6


@dataclass(frozen=True)
class RoadPoint:
    """2D position on the road: x along the road axis, y the lane offset."""

    x: float
    y: float


@dataclass(frozen=True)
class AirPoint:
    """3D hover position of a UAV at fixed altitude h."""

    x: float
    y: float
    h: float

    def planar_distance(self, p: RoadPoint) -> float:
        return math.hypot(self.x - p.x, self.y - p.y)


@dataclass(frozen=True)
class Vehicle:
    """Kinematic state of one vehicle.

    speed_history holds the most recent speed samples (newest last),
    bounded by the configured averaging window.  generation increments
    on every respawn so a recycled id can be told apart from the
    vehicle that left the road.
    """

    id: VehicleId
    pos: RoadPoint
    dir: int  # +1 or -1 along the road axis
    speed: float  # m/s
    speed_history: Tuple[float, ...]
    generation: int = 0


@dataclass(frozen=True)
class Cam:
    """Cooperative awareness message: the 8-field per-vehicle snapshot."""

    vehicle_id: VehicleId
    cluster_id: ClusterId
    is_ch: bool
    pos: RoadPoint
    dir: int
    speed: float
    avg_speed: float
    neighbors: FrozenSet[VehicleId]


@dataclass(frozen=True)
class UavNode:
    """Aerial base station hovering over the road."""

    id: UavId
    pos: AirPoint
    coverage_radius: float  # meters, planar
    tx_power: float  # watts

