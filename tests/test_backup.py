"""AHP-ranked backup list: rank scoring, ordering and replacement pops."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.backup import (BackupCandidate, _rank_scores, build_backup_list,
                             pop_replacement)

WEIGHTS = (0.5, 0.25, 0.25)


def reference_rank_scores(values, reverse):
    """Counts the strictly better values of each distinct value one by
    one: the oracle the sorted ranking must match bit for bit."""
    n = len(values)
    if n == 1:
        return [1.0]
    better = {value: sum(1 for v in values if (v > value if reverse else v < value))
              for value in set(values)}
    return [1.0 - better[v] / (n - 1) for v in values]


def cand(vid, v_d, nbrs, residual):
    return BackupCandidate(vehicle=vid, v_d=v_d, neighbor_count=nbrs,
                           residual=residual)


def test_three_candidate_hand_oracle():
    entries = build_backup_list([cand(0, 1.0, 3, 400.0),
                                 cand(1, 2.0, 5, 100.0),
                                 cand(2, 3.0, 1, 600.0)], WEIGHTS)
    assert [e.vehicle for e in entries] == [0, 1, 2]
    assert entries[0].score == pytest.approx(0.75)
    assert entries[1].score == pytest.approx(0.50)
    assert entries[2].score == pytest.approx(0.25)


def test_single_candidate_gets_full_score():
    entries = build_backup_list([cand(4, 2.0, 1, 50.0)], WEIGHTS)
    assert [e.vehicle for e in entries] == [4]
    assert entries[0].score == pytest.approx(1.0)


def test_identical_candidates_tie_by_id():
    entries = build_backup_list([cand(7, 1.0, 2, 300.0),
                                 cand(3, 1.0, 2, 300.0)], WEIGHTS)
    assert [e.vehicle for e in entries] == [3, 7]
    assert entries[0].score == pytest.approx(entries[1].score)


def test_empty_candidates_give_empty_list():
    assert build_backup_list([], WEIGHTS) == []


def test_single_criterion_reductions():
    cands = [cand(0, 3.0, 1, 100.0), cand(1, 1.0, 5, 300.0),
             cand(2, 2.0, 3, 200.0)]
    by_speed = build_backup_list(cands, (1.0, 0.0, 0.0))
    assert [e.vehicle for e in by_speed] == [1, 2, 0]  # smallest v_d first
    by_nbrs = build_backup_list(cands, (0.0, 1.0, 0.0))
    assert [e.vehicle for e in by_nbrs] == [1, 2, 0]  # most neighbors first
    by_path = build_backup_list(cands, (0.0, 0.0, 1.0))
    assert [e.vehicle for e in by_path] == [1, 2, 0]  # longest residual first


def test_raw_score_mode_uses_values():
    cands = [cand(0, 1.0, 2, 100.0), cand(1, 2.0, 4, 50.0)]
    entries = build_backup_list(cands, WEIGHTS, raw_scores=True)
    scores = {e.vehicle: e.score for e in entries}
    assert scores[0] == pytest.approx(0.5 * 1.0 + 0.25 * 2 + 0.25 * 100.0)
    assert scores[1] == pytest.approx(0.5 * 2.0 + 0.25 * 4 + 0.25 * 50.0)


def test_pop_replacement_cases():
    entries = build_backup_list([cand(0, 1.0, 3, 400.0),
                                 cand(1, 2.0, 5, 100.0),
                                 cand(2, 3.0, 1, 600.0)], WEIGHTS)
    chosen, rest = pop_replacement(entries, present={0, 1, 2})
    assert chosen == 0
    assert [e.vehicle for e in rest] == [1, 2]
    chosen, rest = pop_replacement(entries, present={1, 2})
    assert chosen == 1  # stale top entry skipped and dropped
    assert [e.vehicle for e in rest] == [2]
    chosen, rest = pop_replacement([], present={1})
    assert chosen is None
    assert rest == []
    chosen, rest = pop_replacement(entries, present=set())
    assert chosen is None
    assert rest == []


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=20.0),
                          st.integers(min_value=0, max_value=10),
                          st.floats(min_value=-500.0, max_value=1000.0)),
                min_size=1, max_size=15))
@settings(deadline=None, max_examples=100)
def test_scores_bounded_and_sorted(rows):
    cands = [cand(i, v, n, r) for i, (v, n, r) in enumerate(rows)]
    entries = build_backup_list(cands, WEIGHTS)
    assert len(entries) == len(cands)
    assert all(0.0 <= e.score <= 1.0 + 1e-12 for e in entries)
    assert all(a.score >= b.score for a, b in zip(entries, entries[1:]))
    # the best rank on every criterion is always awarded
    assert max(e.speed_score for e in entries) == pytest.approx(1.0)
    assert max(e.neighbor_score for e in entries) == pytest.approx(1.0)
    assert max(e.path_score for e in entries) == pytest.approx(1.0)


# a few distinct finite values, each drawn many times: mostly ties
TIED_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@given(TIED_VALUES, st.booleans())
@example([0.0, -0.0, 0.0, 1.0, -0.0], False)
@example([0.0, -0.0, 0.0, 1.0, -0.0], True)
@example([2.5, 2.5, 2.5], True)
@settings(deadline=None, max_examples=300)
def test_rank_scores_match_pairwise_counts(values, reverse):
    assert _rank_scores(values, reverse) == reference_rank_scores(values, reverse)
