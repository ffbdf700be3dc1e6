"""Cluster-head selection: the proposed threshold scheme plus the random
and lowest-average-relative-speed (VMaSC) benchmarks.

A cluster is given as sequences (plain lists in the engine) over its
members: their vehicle ids and, at the same index, their features.
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


def select_ch(ids: Sequence[VehicleId], v_d: Sequence[float],
              nbr_count: Sequence[int], residual: Sequence[float],
              eps_distance: float, eps_neighbors: int) -> Tuple[VehicleId, bool]:
    """Pick the CH: members in increasing (v_d, id) order, the first one
    whose residual path and neighbor count clear both thresholds.

    v_d is |v_avg - v_cl|.  If nobody qualifies, fall back to the first
    member in that order and flag the pick as degraded.  Returns
    (chosen id, degraded).
    """
    if not len(ids):
        raise ValueError("select_ch: empty cluster")
    # ids are distinct, so the counts and paths never break a tie
    ordered = sorted(zip(v_d, ids, nbr_count, residual))
    for _, vid, count, path in ordered:
        if path >= eps_distance and count >= eps_neighbors:
            return vid, False
    return ordered[0][1], True


def select_ch_random(members: Sequence[VehicleId],
                     rng: np.random.Generator) -> VehicleId:
    """Uniform random member, drawn from the caller's scheme stream."""
    if not len(members):
        raise ValueError("select_ch_random: empty cluster")
    ordered = sorted(members)
    return ordered[int(rng.integers(0, len(ordered)))]


def select_ch_vmasc(ids: Sequence[VehicleId],
                    avg_speed: Sequence[float]) -> VehicleId:
    """Member with the lowest mean absolute average-speed difference to
    its co-members; ties break to the lowest vehicle id.

    Each member's sum is a left fold over the co-members in sequence
    order (np.add.accumulate).  With finite speeds, the zero difference
    to itself that the fold also adds leaves every partial sum unchanged.
    """
    n = len(ids)
    if not n:
        raise ValueError("select_ch_vmasc: empty cluster")
    if n == 1:
        return ids[0]
    diff = np.abs(np.subtract.outer(avg_speed, avg_speed))
    rel = np.add.accumulate(diff, axis=1)[:, -1] / (n - 1)
    return min(zip(rel.tolist(), ids))[1]
