"""UAV records and the float sum shared by every simulator module.

Vehicles have no record: a vehicle is its row of the run's
mobility.Fleet.  UAV records are NamedTuples, immutable, so they can
be shared freely across concurrent Monte Carlo runs.
"""
from __future__ import annotations

import functools
import operator
from typing import Iterable, NamedTuple

VehicleId = int
UavId = int

KMH_TO_MS = 1.0 / 3.6


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, the same bits on every Python.

    From Python 3.12 the builtin sum() of floats compensates rounding,
    so every mean the simulator reports or compares uses this fold.
    """
    return functools.reduce(operator.add, values, 0.0)


class AirPoint(NamedTuple):
    """3D hover position of a UAV at fixed altitude h."""

    x: float
    y: float
    h: float


class UavNode(NamedTuple):
    """Aerial base station hovering over the road."""

    id: UavId
    pos: AirPoint
    coverage_radius: float  # meters, planar
    tx_power: float  # watts

