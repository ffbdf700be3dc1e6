"""Vehicle kinematics on the two-lane road.

Constant speed per road traversal; a vehicle leaving the road respawns
at the entry end of its lane with a freshly sampled speed and a cleared
speed history, keeping the population size constant.  One Fleet of
numpy arrays holds the whole population, one row per vehicle: a run's
only vehicle state, with no per-vehicle record.  A Fleet may also hold
a block of runs, one run per row of (runs, vehicles) arrays; step,
avg_speeds and neighbor_table treat each run on its own.
"""
from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .model import AirPoint, VehicleId, left_sum


class Fleet:
    """Struct-of-arrays kinematic state of every vehicle; a vehicle's id
    is its row.

    x, y, dir (+1 or -1 along the road axis), speed (m/s) and age
    (steps since spawn) are numpy arrays, of one shape: (vehicles,) for
    one run or (runs, vehicles) for a block of runs.  A respawned row is a new
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
        self.age = np.zeros(self.x.shape, dtype=np.int64)

    def avg_speeds(self, window: int) -> np.ndarray:
        """avg_speed of every row's speed history.  Fold k is 0.0 plus k
        copies of each speed, added left to right in one
        np.add.accumulate, so each row's bits match the scalar fold's."""
        count = np.minimum(self.age + 1, window)
        folds = np.zeros((int(count.max(initial=0)) + 1, *count.shape))
        folds[1:] = self.speed
        np.add.accumulate(folds, axis=0, out=folds)
        rows = folds.reshape(len(folds), -1)
        return rows[count.ravel(), np.arange(count.size)].reshape(
            count.shape) / count


def step(fleet: Fleet, road_length: float, dt: float,
         rng: Union[np.random.Generator, Sequence[np.random.Generator]],
         speed_range: Tuple[float, float],
         slots: int = 1) -> List[Tuple[int, List[VehicleId]]]:
    """Advance every vehicle by slots slots of dt seconds, in place.

    rng is the mobility Generator of a one-run fleet, or of a block
    fleet a sequence of them, one per run.  Returns (slot, rows) for
    each slot of the block, counted from 0, that respawned rows, each
    at the entry end of its lane; rows are flat indices into the
    fleet's arrays (run * vehicles + vehicle in a block), ascending.
    Leavers draw their new speed from their run's stream, one scalar
    draw each, in (slot, row) order, so each run's RNG consumption is
    that of slots one-slot steps of that run alone.

    A row's positions are the left fold x + inc + inc ..., with inc =
    dir * speed * dt, made for all rows at once by np.add.accumulate
    into a new fleet.x; the old array is never written.  A row that
    leaves goes on from its entry end in scalar float math, the same
    fold with its new speed, and may leave again in the block.
    """
    if dt <= 0:
        raise ValueError(f"step: dt must be positive, got {dt}")
    if slots < 1:
        raise ValueError(f"step: slots must be >= 1, got {slots}")
    rngs = [rng] if fleet.x.ndim == 1 else rng
    low, span = speed_range[0], speed_range[1] - speed_range[0]
    vehicles = fleet.x.shape[-1]
    path = np.empty((slots + 1, *fleet.x.shape))
    path[0] = fleet.x
    path[1:] = fleet.dir * fleet.speed * dt
    np.add.accumulate(path, axis=0, out=path)
    path = path[1:].reshape(slots, -1)
    off = ~((0.0 <= path) & (path <= road_length))
    fleet.x = path[-1].reshape(fleet.x.shape).copy()
    fleet.age += slots
    leavers = np.flatnonzero(off.any(axis=0))
    # (slot, row) of every departure not yet resolved, earliest first
    pending = list(zip(off[:, leavers].argmax(axis=0).tolist(),
                       leavers.tolist()))
    heapq.heapify(pending)
    x, speed, age = (a.reshape(-1) for a in (fleet.x, fleet.speed, fleet.age))
    direction = fleet.dir.reshape(-1)
    respawned: Dict[int, List[VehicleId]] = {}
    while pending:
        slot, i = heapq.heappop(pending)
        respawned.setdefault(slot, []).append(i)
        # Generator.uniform(low, high)'s own expression and draw
        new_speed = low + span * rngs[i // vehicles].random()
        sign = direction.item(i)
        pos = 0.0 if sign > 0 else road_length
        inc = sign * new_speed * dt
        for later in range(slot + 1, slots):
            pos += inc
            if not 0.0 <= pos <= road_length:
                heapq.heappush(pending, (later, i))
                break
        x[i] = pos
        speed[i] = new_speed
        age[i] = slots - 1 - slot
    return list(respawned.items())


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


def within(dx, dy, radius) -> np.ndarray:
    """Whether np.hypot(dx, dy) <= radius, elementwise over the broadcast
    arrays.  np.hypot and math.hypot may round apart in the last bit:
    offsets within 1e-9 * radius of the radius are decided by the
    scalar math.hypot(dx, dy) <= radius."""
    dist = np.hypot(dx, dy)
    near = dist <= radius
    close = np.abs(dist - radius) <= 1e-9 * radius
    if close.any():
        dx, dy, radius = (np.broadcast_to(v, dist.shape)[close].tolist()
                          for v in (dx, dy, radius))
        near[close] = [math.hypot(a, b) <= r for a, b, r in zip(dx, dy, radius)]
    return near


def neighbor_table(fleet: Fleet, rng_range: float) -> np.ndarray:
    """Number of other vehicles of its run within planar range, per
    fleet row."""
    return neighbor_counts(fleet.x, fleet.y, slice(None), rng_range)


def neighbor_counts(x, y, rows, rng_range: float) -> np.ndarray:
    """neighbor_table's entries of the rows `rows`, an index into the
    last axis of the position arrays x and y: the same elementwise
    range test (within) of each of them against every row."""
    if rng_range <= 0.0:
        raise ValueError(f"neighbor_counts: range must be positive, got {rng_range}")
    near = within(x[..., rows, None] - x[..., None, :],
                  y[..., rows, None] - y[..., None, :], rng_range)
    # minus the row itself, at offset (0, 0)
    return near.sum(axis=-1) - 1
