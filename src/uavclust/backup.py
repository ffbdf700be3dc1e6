"""Ranked CH backup list: weighted aggregation of per-criterion ranks.

Each candidate is ranked on three criteria (speed closeness, neighbor
count, residual path), ranks are mapped linearly to [0, 1] scores (best
rank 1.0), and the weighted sum orders the list.  Raw-value scoring,
which weights the criterion values themselves, is kept behind a flag for
comparison.  Candidates are given as sequences (plain lists in the
engine): their vehicle ids and, at the same index, their speed
difference to the cluster mean, neighbor count and residual path.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from .model import VehicleId


def _rank_scores(values: Sequence[float], reverse: bool) -> List[float]:
    """Map values to [0, 1] scores, linear in rank, best rank = 1.0.

    Equal values share the best rank among them, so identical candidates
    get identical scores.  reverse=True means larger is better.
    """
    # competition ranking: rank of a value = number of strictly better
    # values; a lone value has rank 0 and scores 1.0
    n = len(values)
    span = max(n - 1, 1)
    ordered = sorted(values)
    if reverse:
        return [1.0 - (n - bisect_right(ordered, v)) / span for v in values]
    return [1.0 - bisect_left(ordered, v) / span for v in values]


def backup_scores(v_d: Sequence[float], nbr_count: Sequence[int],
                  residual: Sequence[float], weights: Tuple[float, float, float],
                  raw_scores: bool = False) -> List[float]:
    """Each candidate's weighted score; weights are (speed, neighbors,
    path) and must sum to 1."""
    w_s, w_n, w_p = weights
    if not raw_scores:
        v_d, nbr_count, residual = (_rank_scores(v_d, reverse=False),
                                    _rank_scores(nbr_count, reverse=True),
                                    _rank_scores(residual, reverse=True))
    return [w_s * s + w_n * n + w_p * p
            for s, n, p in zip(v_d, nbr_count, residual)]


def build_backup_list(ids: Sequence[VehicleId], v_d: Sequence[float],
                      nbr_count: Sequence[int], residual: Sequence[float],
                      weights: Tuple[float, float, float],
                      raw_scores: bool = False) -> List[VehicleId]:
    """The non-CH members' ids as replacement candidates, best first:
    by score descending, ties by lowest vehicle id."""
    scores = backup_scores(v_d, nbr_count, residual, weights, raw_scores)
    return [vid for _, vid in sorted(zip([-s for s in scores], ids))]


def pop_replacement(backup: Sequence[VehicleId], present: Sequence[bool]
                    ) -> Tuple[Optional[VehicleId], Sequence[VehicleId]]:
    """Take the highest-ranked backup id still in the cluster; present
    flags, per entry, whether it is.

    Stale entries skipped on the way are dropped.  Returns (None,
    remaining) when the list is exhausted.
    """
    for k, here in enumerate(present):
        if here:
            return backup[k], backup[k + 1:]
    return None, backup[:0]
