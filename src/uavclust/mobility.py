"""Vehicle kinematics on the two-lane road.

Constant speed per road traversal; a vehicle leaving the road respawns
at the entry end of its lane with a freshly sampled speed and a cleared
speed history, keeping the population size constant.  One Fleet of
numpy arrays holds the whole population: a run's only vehicle state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .model import AirPoint, RoadPoint, Vehicle, VehicleId, left_sum


@dataclass(frozen=True)
class RoadModel:
    """Straight two-lane two-way road."""

    length: float
    lane_offsets: Tuple[float, float]

    def lane_dir(self, lane: int) -> int:
        # first lane runs +x, second lane -x
        return 1 if lane == 0 else -1

    def entry_x(self, direction: int) -> float:
        return 0.0 if direction > 0 else self.length


class Fleet:
    """Struct-of-arrays kinematic state of every vehicle, in list order.

    ids, x, y, dir (+1 or -1 along the road axis), speed (m/s),
    generation and age (steps since spawn) are numpy arrays; row maps
    each id to its index, which never changes.  A speed history starts
    as (speed,) at spawn and gains one sample of the same constant
    speed per step, so it is min(age + 1, window) copies of the speed
    and is never stored.
    """

    def __init__(self, vehicles: Sequence[Vehicle]):
        self.ids = np.array([v.id for v in vehicles], dtype=np.int64)
        self.x = np.array([v.pos.x for v in vehicles], dtype=float)
        self.y = np.array([v.pos.y for v in vehicles], dtype=float)
        self.dir = np.array([v.dir for v in vehicles], dtype=np.int64)
        self.speed = np.array([v.speed for v in vehicles], dtype=float)
        self.generation = np.array([v.generation for v in vehicles],
                                   dtype=np.int64)
        self.age = np.zeros(len(vehicles), dtype=np.int64)
        self.row = {vid: i for i, vid in enumerate(self.ids.tolist())}

    def pos(self, i: int) -> RoadPoint:
        return RoadPoint(self.x.item(i), self.y.item(i))

    def avg_speed_of(self, i: int, window: int) -> float:
        """avg_speed of row i's speed history."""
        speed = self.speed.item(i)
        return avg_speed((speed,) * min(self.age.item(i) + 1, window), window)


def step(fleet: Fleet, road: RoadModel, dt: float, rng: np.random.Generator,
         speed_range: Tuple[float, float]) -> List[VehicleId]:
    """Advance every vehicle by dt seconds, in place.

    Returns the ids respawned this step.  Leavers draw their new speed
    one scalar draw each, in list order, so RNG consumption is
    deterministic.
    """
    if dt < 0:
        raise ValueError(f"step: dt must be >= 0, got {dt}")
    if dt == 0:
        return []
    new_x = fleet.x + fleet.dir * fleet.speed * dt
    leaving = ~((0.0 <= new_x) & (new_x <= road.length))
    fleet.x = new_x
    fleet.age += 1
    respawned: List[VehicleId] = []
    for i in np.flatnonzero(leaving).tolist():
        speed = float(rng.uniform(*speed_range))
        fleet.x[i] = road.entry_x(fleet.dir[i])
        fleet.speed[i] = speed
        fleet.age[i] = 0
        fleet.generation[i] += 1
        respawned.append(int(fleet.ids[i]))
    return respawned


def avg_speed(history: Sequence[float], window: int) -> float:
    """Mean of the newest min(len, window) speed samples."""
    if not history:
        raise ValueError("avg_speed: empty speed history")
    if window < 1:
        raise ValueError(f"avg_speed: window must be >= 1, got {window}")
    recent = history[-window:]
    return left_sum(recent) / len(recent)


def residual_path(r_u: float, v_avg: float, dt: float) -> float:
    """Remaining in-cluster travel budget: 2 r_U - v_avg * dt.

    May be negative; callers compare it against the distance threshold.
    """
    if r_u <= 0.0:
        raise ValueError(f"residual_path: coverage radius must be positive, got {r_u}")
    if v_avg < 0.0:
        raise ValueError(f"residual_path: average speed must be >= 0, got {v_avg}")
    return 2.0 * r_u - v_avg * dt


def residual_path_geometric(uav: AirPoint, pos: RoadPoint, direction: int,
                            v_avg: float, dt: float, r_u: float) -> float:
    """Exact variant: distance to the coverage-circle exit along the
    heading, minus the travel budget v_avg * dt.

    A vehicle already outside the coverage circle gets zero exit
    distance.
    """
    dx = pos.x - uav.x
    dy = pos.y - uav.y
    lateral_sq = dy * dy
    if dx * dx + lateral_sq > r_u * r_u:
        exit_dist = 0.0
    else:
        # exit point along +-x: solve (dx + s*dir)^2 + dy^2 = r_u^2, s > 0
        half_chord = math.sqrt(max(r_u * r_u - lateral_sq, 0.0))
        exit_dist = half_chord - direction * dx
    return exit_dist - v_avg * dt


def neighbor_table(fleet: Fleet,
                   rng_range: float) -> Dict[VehicleId, FrozenSet[VehicleId]]:
    """Ids of all other vehicles within planar range, for every vehicle."""
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
    rows, cols = np.nonzero(near)
    nbr_ids = fleet.ids[cols].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(x))).tolist()
    starts = [0] + ends[:-1]
    return {vid: frozenset(nbr_ids[a:b])
            for vid, a, b in zip(fleet.ids.tolist(), starts, ends)}
