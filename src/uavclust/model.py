"""UAV records and the float sum shared by every simulator module.

Vehicles have no record: a vehicle is its row of the run's
mobility.Fleet.  UAV records are NamedTuples, immutable, so they can
be shared freely across concurrent Monte Carlo runs.
"""
from __future__ import annotations

import functools
import math
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


def left_sum_bound(n: int, x: float) -> float:
    """A bound on left_sum of n terms in [0, x], 0.0 at n = 0 whatever x
    is.  Each addition rounds up by at most a factor 1 + u, u = 2**-53,
    so the fold is at most n·x·(1 + u)**n <= n·x·e**(n·u) (Higham 2002,
    §4.2); the factor 2 covers the rounding of float(n), the products and
    exp.  It is inf, or exp raises OverflowError, where the fold could
    overflow."""
    return 2.0 * n * x * math.exp(n * 2.0 ** -53) if n else 0.0


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

