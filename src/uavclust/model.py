"""The float sum and the units shared by every simulator module.

Neither vehicles nor UAVs have a record: a vehicle is its row of the
run's mobility.Fleet, a UAV its index into engine.place_uavs' hover x
array; the config holds the altitude, radius and power all UAVs share.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Sequence

VehicleId = int

KMH_TO_MS = 1.0 / 3.6


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, the same bits on every Python.

    From Python 3.12 the builtin sum() of floats compensates rounding,
    so every mean the simulator reports or compares uses this fold.
    """
    return functools.reduce(operator.add, values, 0.0)


def left_mean(values: Sequence[float]) -> float:
    """left_sum(values) / n, the mean every reported SNR is taken by.

    Only where that sum overflows and every term is finite, the terms
    are summed scaled by 2**-k, 2**k > 2n, and the mean scaled back: a
    power-of-two scale moves no rounding above the subnormal range
    (Goldberg 1991), and the mean of terms up to half the largest float
    is then finite.  Wherever the plain sum is finite, it is the mean.
    """
    n = len(values)
    mean = left_sum(values) / n
    if math.isinf(mean) and all(map(math.isfinite, values)):
        scale = 2.0 ** (n.bit_length() + 1)
        return left_sum(v / scale for v in values) / n * scale
    return mean


def left_sum_bound(n: int, x: float) -> float:
    """A bound on left_sum of n terms in [0, x], 0.0 at n = 0 whatever x
    is.  Each addition rounds up by at most a factor 1 + u, u = 2**-53,
    so the fold is at most n·x·(1 + u)**n <= n·x·e**(n·u) (Higham 2002,
    §4.2); the factor 2 covers the rounding of float(n), the products and
    exp.  It is inf, or exp raises OverflowError, where the fold could
    overflow."""
    return 2.0 * n * x * math.exp(n * 2.0 ** -53) if n else 0.0

