"""Vehicle kinematics on the two-lane road.

Constant speed per road traversal; a vehicle leaving the road respawns
at the entry end of its lane with a freshly sampled speed and a cleared
speed history, keeping the population size constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from .model import AirPoint, RoadPoint, Vehicle, VehicleId


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


def step(vehicles: Sequence[Vehicle], road: RoadModel, dt: float,
         rng: np.random.Generator, speed_range: Tuple[float, float],
         window: int) -> Tuple[List[Vehicle], List[VehicleId]]:
    """Advance all vehicles by dt seconds.

    Returns the new vehicle list plus the ids respawned this step.
    Vehicles are processed in list order so RNG consumption is
    deterministic.
    """
    if dt < 0:
        raise ValueError(f"step: dt must be >= 0, got {dt}")
    if dt == 0:
        return list(vehicles), []
    out: List[Vehicle] = []
    respawned: List[VehicleId] = []
    for v in vehicles:
        new_x = v.pos.x + v.dir * v.speed * dt
        if 0.0 <= new_x <= road.length:
            history = (v.speed_history + (v.speed,))[-window:]
            out.append(replace(v, pos=RoadPoint(new_x, v.pos.y),
                               speed_history=history))
        else:
            speed = float(rng.uniform(*speed_range))
            out.append(replace(v, pos=RoadPoint(road.entry_x(v.dir), v.pos.y),
                               speed=speed, speed_history=(speed,),
                               generation=v.generation + 1))
            respawned.append(v.id)
    return out, respawned


def avg_speed(history: Sequence[float], window: int) -> float:
    """Mean of the newest min(len, window) speed samples."""
    if not history:
        raise ValueError("avg_speed: empty speed history")
    if window < 1:
        raise ValueError(f"avg_speed: window must be >= 1, got {window}")
    recent = history[-window:]
    return sum(recent) / len(recent)


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


def neighbors_of(vehicle: Vehicle, vehicles: Iterable[Vehicle],
                 rng_range: float) -> Set[VehicleId]:
    """Ids of all other vehicles within planar range."""
    if rng_range <= 0.0:
        raise ValueError(f"neighbors_of: range must be positive, got {rng_range}")
    result: Set[VehicleId] = set()
    for other in vehicles:
        if other.id == vehicle.id:
            continue
        d = math.hypot(vehicle.pos.x - other.pos.x, vehicle.pos.y - other.pos.y)
        if d <= rng_range:
            result.add(other.id)
    return result


def neighbor_table(vehicles: Sequence[Vehicle], rng_range: float):
    """Neighbor sets for all vehicles at once."""
    return {v.id: neighbors_of(v, vehicles, rng_range) for v in vehicles}
