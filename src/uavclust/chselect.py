"""Cluster-head selection: the proposed threshold scheme plus the random
and lowest-average-relative-speed (VMaSC) benchmarks.

A cluster is given as arrays over its members: their vehicle ids and,
at the same index, each member's features.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .model import VehicleId, left_sum


def cluster_avg_speed(member_avg_speeds: Sequence[float]) -> float:
    """Arithmetic mean of member average speeds."""
    if not len(member_avg_speeds):
        raise ValueError("cluster_avg_speed: empty cluster")
    return left_sum(member_avg_speeds) / len(member_avg_speeds)


def select_ch(ids: np.ndarray, v_d: np.ndarray, nbr_count: np.ndarray,
              residual: np.ndarray, eps_distance: float,
              eps_neighbors: int) -> Tuple[VehicleId, bool]:
    """Pick the CH: members in increasing (v_d, id) order, the first one
    whose residual path and neighbor count clear both thresholds.

    v_d is |v_avg - v_cl|.  If nobody qualifies, fall back to the first
    member in that order and flag the pick as degraded.  Returns
    (chosen id, degraded).
    """
    if not len(ids):
        raise ValueError("select_ch: empty cluster")
    order = np.lexsort((ids, v_d))
    passed = order[(residual[order] >= eps_distance)
                   & (nbr_count[order] >= eps_neighbors)]
    if len(passed):
        return int(ids[passed[0]]), False
    return int(ids[order[0]]), True


def select_ch_random(members: Sequence[VehicleId],
                     rng: np.random.Generator) -> VehicleId:
    """Uniform random member, drawn from the caller's scheme stream."""
    if not len(members):
        raise ValueError("select_ch_random: empty cluster")
    ordered = sorted(np.asarray(members).tolist())
    return ordered[int(rng.integers(0, len(ordered)))]


def select_ch_vmasc(ids: np.ndarray, avg_speed: np.ndarray) -> VehicleId:
    """Member with the lowest mean absolute average-speed difference to
    its co-members; ties break to the lowest vehicle id.

    Each member's sum is a left fold over the co-members in array order.
    With finite speeds, the zero difference to itself that the fold
    also adds leaves every partial sum unchanged.
    """
    n = len(ids)
    if not n:
        raise ValueError("select_ch_vmasc: empty cluster")
    if n == 1:
        return int(ids[0])
    diff = np.abs(avg_speed[:, None] - avg_speed[None, :])
    rel = np.add.accumulate(diff, axis=1)[:, -1] / (n - 1)
    return int(ids[np.lexsort((ids, rel))[0]])
