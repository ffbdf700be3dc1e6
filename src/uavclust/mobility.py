"""Vehicle kinematics on the two-lane road.

Constant speed per road traversal; a vehicle leaving the road respawns
at the entry end of its lane with a freshly sampled speed and a cleared
speed history, keeping the population size constant.  One Fleet of
numpy arrays holds the whole population, one row per vehicle: a run's
only vehicle state, with no per-vehicle record.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .model import AirPoint, VehicleId, left_sum


class Fleet:
    """Struct-of-arrays kinematic state of every vehicle; a vehicle's id
    is its row.

    x, y, dir (+1 or -1 along the road axis), speed (m/s) and age
    (steps since spawn) are numpy arrays.  A respawned row is a new
    vehicle; step reports it, and the Fleet keeps no trace of the
    vehicle that left the road.  A speed history starts as (speed,) at
    spawn and gains one sample of the same constant speed per step, so
    it is min(age + 1, window) copies of the speed and is never stored.
    """

    def __init__(self, x, y, dir, speed):
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        self.dir = np.array(dir, dtype=np.int64)
        self.speed = np.array(speed, dtype=float)
        self.age = np.zeros(len(self.x), dtype=np.int64)

    def avg_speeds(self, window: int) -> np.ndarray:
        """avg_speed of every row's speed history.  Each row's left fold
        is written as repeated elementwise adds, so its bits match the
        scalar fold's."""
        count = np.minimum(self.age + 1, window)
        total = np.zeros_like(self.speed)
        for k in range(int(count.max(initial=0))):
            np.add(total, self.speed, out=total, where=k < count)
        return total / count


def step(fleet: Fleet, road_length: float, dt: float,
         rng: np.random.Generator,
         speed_range: Tuple[float, float]) -> List[VehicleId]:
    """Advance every vehicle by dt seconds, in place.

    Returns the rows respawned this step, each at the entry end of its
    lane.  Leavers draw their new speed one scalar draw each, in row
    order, so RNG consumption is deterministic.
    """
    if dt <= 0:
        raise ValueError(f"step: dt must be positive, got {dt}")
    new_x = fleet.x + fleet.dir * fleet.speed * dt
    leaving = ~((0.0 <= new_x) & (new_x <= road_length))
    fleet.x = new_x
    fleet.age += 1
    respawned: List[VehicleId] = np.flatnonzero(leaving).tolist()
    for i in respawned:
        speed = float(rng.uniform(*speed_range))
        fleet.x[i] = 0.0 if fleet.dir[i] > 0 else road_length
        fleet.speed[i] = speed
        fleet.age[i] = 0
    return respawned


def avg_speed(history: Sequence[float], window: int) -> float:
    """Mean of the newest min(len, window) speed samples."""
    if not history:
        raise ValueError("avg_speed: empty speed history")
    if window < 1:
        raise ValueError(f"avg_speed: window must be >= 1, got {window}")
    recent = history[-window:]
    return left_sum(recent) / len(recent)


def residual_path(r_u: float, v_avg, dt: float):
    """Remaining in-cluster travel budget: 2 r_U - v_avg * dt, for one
    average speed or an array of them.

    May be negative; callers compare it against the distance threshold.
    """
    if r_u <= 0.0:
        raise ValueError(f"residual_path: coverage radius must be positive, got {r_u}")
    if np.less(v_avg, 0.0).any():
        raise ValueError(f"residual_path: average speed must be >= 0, got {v_avg}")
    return 2.0 * r_u - v_avg * dt


def residual_path_geometric(uav: AirPoint, x, y, direction, v_avg,
                            dt: float, r_u: float):
    """Exact variant: distance to the coverage-circle exit along the
    heading, minus the travel budget v_avg * dt.  x, y, direction and
    v_avg are scalars or equal-length arrays.

    A vehicle already outside the coverage circle gets zero exit
    distance.
    """
    dx = x - uav.x
    dy = y - uav.y
    lateral_sq = dy * dy
    # exit point along +-x: solve (dx + s*dir)^2 + dy^2 = r_u^2, s > 0
    half_chord = np.sqrt(np.maximum(r_u * r_u - lateral_sq, 0.0))
    exit_dist = np.where(dx * dx + lateral_sq > r_u * r_u, 0.0,
                         half_chord - direction * dx)
    return exit_dist - v_avg * dt


def neighbor_table(fleet: Fleet, rng_range: float) -> np.ndarray:
    """Number of other vehicles within planar range, per fleet row."""
    if rng_range <= 0.0:
        raise ValueError(f"neighbor_table: range must be positive, got {rng_range}")
    x, y = fleet.x, fleet.y
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    near = dist <= rng_range
    # np.hypot and math.hypot may round apart in the last bit: pairs this
    # close to the range are decided by the scalar expression.
    for i, j in zip(*np.nonzero(np.abs(dist - rng_range) <= 1e-9 * rng_range)):
        near[i, j] = math.hypot(x[i] - x[j], y[i] - y[j]) <= rng_range
    np.fill_diagonal(near, False)
    return near.sum(axis=1)
