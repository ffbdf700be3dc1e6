"""AHP-ranked backup list: rank scoring, ordering and replacement pops."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.backup import (_rank_scores, backup_scores, build_backup_list,
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


def reference_build_backup_list(candidates, weights, raw_scores=False):
    """Per-candidate scoring of (id, v_d, neighbor count, residual)
    tuples: the oracle the array ranking must match.  Returns (id,
    score) pairs, best first."""
    w_s, w_n, w_p = weights
    if raw_scores:
        scored = [(vid, w_s * v_d + w_n * n + w_p * r)
                  for vid, v_d, n, r in candidates]
    else:
        ids, v_ds, nbrs, paths = zip(*candidates)
        scored = [(vid, w_s * s + w_n * n + w_p * p) for vid, s, n, p in zip(
            ids, reference_rank_scores(list(v_ds), reverse=False),
            reference_rank_scores([float(n) for n in nbrs], reverse=True),
            reference_rank_scores(list(paths), reverse=True))]
    return sorted(scored, key=lambda e: (-e[1], e[0]))


def columns(candidates, as_lists=False):
    """(ids, v_d, neighbor counts, residuals) of candidate tuples: numpy
    arrays, or plain lists as the engine passes them."""
    ids, v_d, nbrs, residual = zip(*candidates)
    if as_lists:
        return list(ids), list(v_d), list(nbrs), list(residual)
    return (np.array(ids), np.array(v_d, dtype=float), np.array(nbrs),
            np.array(residual, dtype=float))


def ranked(candidates, weights=WEIGHTS, raw_scores=False, as_lists=False):
    """(ids best first, their scores) of build_backup_list."""
    ids, v_d, nbrs, residual = columns(candidates, as_lists)
    order = list(build_backup_list(ids, v_d, nbrs, residual, weights,
                                   raw_scores))
    scores = dict(zip(list(ids),
                      backup_scores(v_d, nbrs, residual, weights,
                                    raw_scores)))
    return order, [scores[vid] for vid in order]


def test_three_candidate_hand_oracle():
    order, scores = ranked([(0, 1.0, 3, 400.0), (1, 2.0, 5, 100.0),
                            (2, 3.0, 1, 600.0)])
    assert order == [0, 1, 2]
    assert scores == pytest.approx([0.75, 0.50, 0.25])


def test_single_candidate_gets_full_score():
    order, scores = ranked([(4, 2.0, 1, 50.0)])
    assert order == [4]
    assert scores == pytest.approx([1.0])


def test_identical_candidates_tie_by_id():
    order, scores = ranked([(7, 1.0, 2, 300.0), (3, 1.0, 2, 300.0)])
    assert order == [3, 7]
    assert scores[0] == pytest.approx(scores[1])


def test_empty_candidates_give_empty_list():
    empty = np.array([], dtype=int)
    assert list(build_backup_list(empty, np.array([]), empty, np.array([]),
                                  WEIGHTS)) == []


def test_single_criterion_reductions():
    cands = [(0, 3.0, 1, 100.0), (1, 1.0, 5, 300.0), (2, 2.0, 3, 200.0)]
    by_speed, _ = ranked(cands, (1.0, 0.0, 0.0))
    assert by_speed == [1, 2, 0]  # smallest v_d first
    by_nbrs, _ = ranked(cands, (0.0, 1.0, 0.0))
    assert by_nbrs == [1, 2, 0]  # most neighbors first
    by_path, _ = ranked(cands, (0.0, 0.0, 1.0))
    assert by_path == [1, 2, 0]  # longest residual first


def test_raw_score_mode_uses_values():
    order, scores = ranked([(0, 1.0, 2, 100.0), (1, 2.0, 4, 50.0)],
                           raw_scores=True)
    by_id = dict(zip(order, scores))
    assert by_id[0] == pytest.approx(0.5 * 1.0 + 0.25 * 2 + 0.25 * 100.0)
    assert by_id[1] == pytest.approx(0.5 * 2.0 + 0.25 * 4 + 0.25 * 50.0)


def test_pop_replacement_cases():
    backup = np.array([0, 1, 2])
    chosen, rest = pop_replacement(backup, np.isin(backup, [0, 1, 2]))
    assert chosen == 0
    assert rest.tolist() == [1, 2]
    chosen, rest = pop_replacement(backup, np.isin(backup, [1, 2]))
    assert chosen == 1  # stale top entry skipped and dropped
    assert rest.tolist() == [2]
    empty = np.array([], dtype=int)
    chosen, rest = pop_replacement(empty, np.isin(empty, [1]))
    assert chosen is None
    assert rest.tolist() == []
    chosen, rest = pop_replacement(backup, np.isin(backup, []))
    assert chosen is None
    assert rest.tolist() == []


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=20.0),
                          st.integers(min_value=0, max_value=10),
                          st.floats(min_value=-500.0, max_value=1000.0)),
                min_size=1, max_size=15))
@settings(deadline=None, max_examples=100)
def test_scores_bounded_and_sorted(rows):
    _, v_d, nbrs, residual = columns([(i, *row) for i, row in enumerate(rows)])
    order, scores = ranked([(i, *row) for i, row in enumerate(rows)])
    assert sorted(order) == list(range(len(rows)))
    assert all(0.0 <= s <= 1.0 + 1e-12 for s in scores)
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    # the best rank on every criterion is always awarded
    assert max(_rank_scores(v_d, reverse=False)) == pytest.approx(1.0)
    assert max(_rank_scores(nbrs, reverse=True)) == pytest.approx(1.0)
    assert max(_rank_scores(residual, reverse=True)) == pytest.approx(1.0)


# a few distinct finite values, each drawn many times: mostly ties
TIED_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@given(TIED_VALUES, st.booleans(), st.booleans())
@example([0.0, -0.0, 0.0, 1.0, -0.0], False, False)
@example([0.0, -0.0, 0.0, 1.0, -0.0], True, True)
@example([2.5, 2.5, 2.5], True, False)
@settings(deadline=None, max_examples=300)
def test_rank_scores_match_pairwise_counts(values, reverse, as_lists):
    given_values = list(values) if as_lists else np.array(values)
    assert list(_rank_scores(given_values, reverse)) == \
        reference_rank_scores(values, reverse)


# few distinct values per criterion: ties on every criterion and in the
# weighted scores, signed zeros, singletons
CRITERIA = (st.sampled_from([0.0, -0.0, 0.5, 2.25]) | st.floats(0.0, 20.0),
            st.integers(0, 10),
            st.sampled_from([0.0, -0.0, 100.0]) | st.floats(-500.0, 1000.0))


@st.composite
def candidate_lists(draw):
    n = draw(st.integers(1, 15))
    pools = [draw(st.lists(c, min_size=1, max_size=4)) for c in CRITERIA]
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ids = (np.cumsum(gaps) - 1).tolist()
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)),
                         min_size=n, max_size=n))
    return [(vid, *row) for vid, row in zip(ids, rows)]


@given(candidate_lists(),
       st.sampled_from([WEIGHTS, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                        (0.0, 0.0, 1.0), (0.2, 0.3, 0.5)]),
       st.booleans(), st.booleans())
@example([(0, 1.0, 3, 400.0), (1, -0.0, 3, 0.0), (2, 0.0, 3, -0.0)],
         WEIGHTS, False, False)
@example([(0, 1.0, 3, 400.0), (1, -0.0, 3, 0.0), (2, 0.0, 3, -0.0)],
         WEIGHTS, False, True)
@example([(5, 2.0, 1, 50.0)], WEIGHTS, True, True)
@settings(deadline=None, max_examples=300)
def test_build_backup_list_matches_reference(cands, weights, raw_scores,
                                             as_lists):
    order, scores = ranked(cands, weights, raw_scores, as_lists)
    want = reference_build_backup_list(cands, weights, raw_scores)
    assert order == [vid for vid, _ in want]
    assert scores == [score for _, score in want]
