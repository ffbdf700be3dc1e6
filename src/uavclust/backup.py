"""Ranked CH backup list: weighted aggregation of per-criterion ranks.

Each candidate is ranked on three criteria (speed closeness, neighbor
count, residual path), ranks are mapped linearly to [0, 1] scores (best
rank 1.0), and the weighted sum orders the list.  Raw-value scoring,
which weights the criterion values themselves, is kept behind a flag for
comparison.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .model import VehicleId


@dataclass(frozen=True)
class BackupCandidate:
    """Per-candidate inputs: speed difference to the cluster mean,
    neighbor count and residual path."""

    vehicle: VehicleId
    v_d: float
    neighbor_count: int
    residual: float


@dataclass(frozen=True)
class BackupEntry:
    vehicle: VehicleId
    score: float
    speed_score: float
    neighbor_score: float
    path_score: float


def _rank_scores(values: Sequence[float], reverse: bool) -> List[float]:
    """Map values to [0, 1] scores, linear in rank, best rank = 1.0.

    Equal values share the best rank among them, so identical candidates
    get identical scores.  reverse=True means larger is better.
    """
    n = len(values)
    if n == 1:
        return [1.0]
    # competition ranking: rank of a value = number of strictly better values
    ordered = sorted(values)
    better = ([n - bisect_right(ordered, v) for v in values] if reverse
              else [bisect_left(ordered, v) for v in values])
    return [1.0 - b / (n - 1) for b in better]


def build_backup_list(candidates: Sequence[BackupCandidate],
                      weights: Tuple[float, float, float],
                      raw_scores: bool = False) -> List[BackupEntry]:
    """Score and order the non-CH members as replacement candidates.

    weights are (speed, neighbors, path) and must sum to 1.  The list is
    sorted by score descending, ties by lowest vehicle id.
    """
    w_s, w_n, w_p = weights
    if not candidates:
        return []
    if raw_scores:
        entries = [BackupEntry(vehicle=c.vehicle,
                               score=w_s * c.v_d + w_n * c.neighbor_count + w_p * c.residual,
                               speed_score=c.v_d,
                               neighbor_score=float(c.neighbor_count),
                               path_score=c.residual)
                   for c in candidates]
    else:
        speed = _rank_scores([c.v_d for c in candidates], reverse=False)
        nbrs = _rank_scores([float(c.neighbor_count) for c in candidates], reverse=True)
        path = _rank_scores([c.residual for c in candidates], reverse=True)
        entries = [BackupEntry(vehicle=c.vehicle,
                               score=w_s * s + w_n * n + w_p * p,
                               speed_score=s, neighbor_score=n, path_score=p)
                   for c, s, n, p in zip(candidates, speed, nbrs, path)]
    return sorted(entries, key=lambda e: (-e.score, e.vehicle))


def pop_replacement(entries: Sequence[BackupEntry],
                    present: Set[VehicleId]) -> Tuple[Optional[VehicleId], List[BackupEntry]]:
    """Take the highest-scored entry still in the cluster.

    Stale entries skipped on the way are dropped.  Returns (None,
    remaining) when the list is exhausted.
    """
    remaining = list(entries)
    while remaining:
        top = remaining.pop(0)
        if top.vehicle in present:
            return top.vehicle, remaining
    return None, remaining
