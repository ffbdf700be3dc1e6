"""Ranked CH backup list: weighted aggregation of per-criterion ranks.

Each candidate is ranked on three criteria (speed closeness, neighbor
count, residual path), ranks are mapped linearly to [0, 1] scores (best
rank 1.0), and the weighted sum orders the list.  Raw-value scoring,
which weights the criterion values themselves, is kept behind a flag for
comparison.  Candidates are given as arrays: their vehicle ids and, at
the same index, their speed difference to the cluster mean, neighbor
count and residual path.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .model import VehicleId


def _rank_scores(values: np.ndarray, reverse: bool) -> np.ndarray:
    """Map values to [0, 1] scores, linear in rank, best rank = 1.0.

    Equal values share the best rank among them, so identical candidates
    get identical scores.  reverse=True means larger is better.
    """
    n = len(values)
    if n == 1:
        return np.ones(1)
    # competition ranking: rank of a value = number of strictly better values
    ordered = np.sort(values)
    better = (n - ordered.searchsorted(values, side="right") if reverse
              else ordered.searchsorted(values, side="left"))
    return 1.0 - better / (n - 1)


def backup_scores(v_d: np.ndarray, nbr_count: np.ndarray,
                  residual: np.ndarray, weights: Tuple[float, float, float],
                  raw_scores: bool = False) -> np.ndarray:
    """Each candidate's weighted score; weights are (speed, neighbors,
    path) and must sum to 1."""
    w_s, w_n, w_p = weights
    if raw_scores:
        return w_s * v_d + w_n * nbr_count + w_p * residual
    return (w_s * _rank_scores(v_d, reverse=False)
            + w_n * _rank_scores(nbr_count, reverse=True)
            + w_p * _rank_scores(residual, reverse=True))


def build_backup_list(ids: np.ndarray, v_d: np.ndarray,
                      nbr_count: np.ndarray, residual: np.ndarray,
                      weights: Tuple[float, float, float],
                      raw_scores: bool = False) -> np.ndarray:
    """The non-CH members' ids as replacement candidates, best first:
    by score descending, ties by lowest vehicle id."""
    scores = backup_scores(v_d, nbr_count, residual, weights, raw_scores)
    return ids[np.lexsort((ids, -scores))]


def pop_replacement(backup: np.ndarray, present: np.ndarray
                    ) -> Tuple[Optional[VehicleId], np.ndarray]:
    """Take the highest-ranked backup id still in the cluster; present
    flags, per entry, whether it is.

    Stale entries skipped on the way are dropped.  Returns (None,
    remaining) when the list is exhausted.
    """
    hits = np.flatnonzero(present)
    if not len(hits):
        return None, backup[:0]
    top = hits[0]
    return int(backup[top]), backup[top + 1:]
