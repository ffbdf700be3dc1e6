"""Core value types and the float sum shared by every simulator module.

All records are plain frozen dataclasses so they can be shared freely
across concurrent Monte Carlo runs.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import FrozenSet, Iterable

VehicleId = int
UavId = int

KMH_TO_MS = 1.0 / 3.6


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, the same bits on every Python.

    From Python 3.12 the builtin sum() of floats compensates rounding,
    so every mean the simulator reports or compares uses this fold.
    """
    return functools.reduce(operator.add, values, 0.0)


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
    """Initial state of one vehicle: the input record of a Fleet.

    generation increments on every respawn so a recycled id can be told
    apart from the vehicle that left the road.
    """

    id: VehicleId
    pos: RoadPoint
    dir: int  # +1 or -1 along the road axis
    speed: float  # m/s
    generation: int = 0


@dataclass(frozen=True)
class Cam:
    """Cooperative awareness message: the fields CH selection reads."""

    vehicle_id: VehicleId
    pos: RoadPoint
    dir: int
    avg_speed: float
    neighbors: FrozenSet[VehicleId]


@dataclass(frozen=True)
class UavNode:
    """Aerial base station hovering over the road."""

    id: UavId
    pos: AirPoint
    coverage_radius: float  # meters, planar
    tx_power: float  # watts

