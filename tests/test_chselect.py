"""Cluster-head selection: threshold scheme and benchmark selectors."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.chselect import (cluster_avg_speed, select_ch,
                               select_ch_random, select_ch_vmasc)
from uavclust.model import left_sum


def reference_select_ch(members, v_cl, eps_distance, eps_neighbors):
    """Per-member loop over (id, avg_speed, neighbor count, residual)
    tuples: the oracle the array selection must match."""
    ordered = sorted(members, key=lambda m: (abs(m[1] - v_cl), m[0]))
    for vid, _, n_count, xi in ordered:
        if xi >= eps_distance and n_count >= eps_neighbors:
            return vid, False
    return ordered[0][0], True


def reference_select_ch_vmasc(members):
    """Per-member left folds over (id, avg_speed) pairs: the oracle the
    cumsum means must match."""
    if len(members) == 1:
        return members[0][0]
    best_id = best_rel = None
    for vid, speed in sorted(members):
        rel = left_sum(abs(speed - other) for oid, other in members
                       if oid != vid)
        rel /= len(members) - 1
        if best_rel is None or rel < best_rel:
            best_id, best_rel = vid, rel
    return best_id


def select(speeds, nbrs, residuals, v_cl, eps_distance, eps_neighbors,
           ids=None):
    """select_ch on members with the given features, ids 0..n-1 unless
    given."""
    speeds = np.asarray(speeds, dtype=float)
    ids = np.arange(len(speeds)) if ids is None else np.asarray(ids)
    return select_ch(ids, np.abs(speeds - v_cl), np.asarray(nbrs),
                     np.asarray(residuals, dtype=float), eps_distance,
                     eps_neighbors)


def test_cluster_avg_speed_oracle():
    assert cluster_avg_speed([10.0, 12.0, 14.0]) == pytest.approx(12.0)
    assert cluster_avg_speed([7.5]) == pytest.approx(7.5)
    with pytest.raises(ValueError):
        cluster_avg_speed([])


def test_select_ch_picks_min_speed_difference_when_all_pass():
    chosen, degraded = select([12.0, 13.0, 20.0], [2, 2, 2],
                              [880.0, 870.0, 800.0], v_cl=15.0,
                              eps_distance=100.0, eps_neighbors=1)
    assert chosen == 1  # v_d = 2, minimal
    assert not degraded


def test_select_ch_skips_candidate_failing_residual():
    # a failing residual for the closest-speed candidate only
    chosen, degraded = select([12.0, 13.0, 20.0], [2, 2, 2],
                              [400.0, -50.0, 400.0], v_cl=15.0,
                              eps_distance=100.0, eps_neighbors=1)
    assert chosen == 0  # next in v_d order after the reject
    assert not degraded


def test_select_ch_singleton_degraded_fallback():
    chosen, degraded = select([4.0], [0], [960.0], v_cl=4.0,
                              eps_distance=100.0, eps_neighbors=1, ids=[5])
    assert chosen == 5
    assert degraded


def test_select_ch_degraded_picks_min_vd():
    chosen, degraded = select([10.0, 12.0, 30.0], [0, 0, 0],
                              [-500.0, -640.0, -1900.0], v_cl=13.0,
                              eps_distance=1e9, eps_neighbors=0)
    assert degraded
    assert chosen == 1  # closest to the cluster average


def test_select_ch_empty_cluster_rejected():
    with pytest.raises(ValueError):
        select([], [], [], v_cl=0.0, eps_distance=100.0, eps_neighbors=1)


def test_select_ch_random_singleton_and_determinism():
    assert select_ch_random([7], np.random.default_rng(0)) == 7
    picks_a = [select_ch_random([3, 1, 2], np.random.default_rng(9))
               for _ in range(5)]
    picks_b = [select_ch_random(np.array([1, 2, 3]), np.random.default_rng(9))
               for _ in range(5)]
    assert picks_a == picks_b  # member order does not matter, seed does
    with pytest.raises(ValueError):
        select_ch_random([], np.random.default_rng(0))


def test_select_ch_random_covers_all_members():
    rng = np.random.default_rng(4)
    seen = {select_ch_random([0, 1, 2], rng) for _ in range(200)}
    assert seen == {0, 1, 2}


def test_select_ch_vmasc_oracle():
    # mean relative speeds: 5.5, 5.0, 9.5
    assert select_ch_vmasc(np.arange(3), np.array([10.0, 11.0, 20.0])) == 1


def test_select_ch_vmasc_tie_and_singleton():
    # tie breaks to the lowest id
    assert select_ch_vmasc(np.array([2, 0, 1]),
                           np.array([15.0, 15.0, 15.0])) == 0
    assert select_ch_vmasc(np.array([9]), np.array([12.0])) == 9
    with pytest.raises(ValueError):
        select_ch_vmasc(np.array([], dtype=int), np.array([]))


def test_select_ch_vmasc_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        speeds = rng.uniform(5.0, 25.0, size=n).round(3)
        if n == 1:
            expect = {0}
        else:
            mat = np.abs(speeds[:, None] - speeds[None, :])
            means = mat.sum(axis=1) / (n - 1)
            # tolerance absorbs summation-order rounding between oracles
            near_min = means <= means.min() + 1e-9
            expect = {int(np.flatnonzero(near_min)[0])}
            if near_min.sum() > 1:
                expect = set(np.flatnonzero(near_min).tolist())
        assert select_ch_vmasc(np.arange(n), speeds) in expect


# a few distinct speeds, each drawn many times: exact |v - v_cl| ties,
# equal speeds and signed zeros
SPEED_POOL = st.lists(st.floats(min_value=-0.0, max_value=40.0,
                                allow_subnormal=False),
                      min_size=1, max_size=4).map(lambda p: p + [0.0, -0.0])
TIED_SPEEDS = SPEED_POOL.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=20))
FREE_SPEEDS = st.lists(st.floats(min_value=0.0, max_value=40.0),
                       min_size=1, max_size=20)


def member_ids(draw, n):
    """n ascending distinct vehicle ids, not necessarily contiguous."""
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return np.cumsum(gaps) - 1


@st.composite
def clusters(draw):
    speeds = draw(st.one_of(TIED_SPEEDS, FREE_SPEEDS))
    n = len(speeds)
    ids = member_ids(draw, n)
    nbrs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    residuals = draw(st.lists(st.sampled_from([-50.0, 0.0, 100.0, 400.0]),
                              min_size=n, max_size=n))
    return ids, speeds, nbrs, residuals


@given(clusters(), st.sampled_from([None, 0.0, -0.0, 12.5]),
       st.sampled_from([-1e12, 0.0, 100.0, 1e9]), st.integers(0, 4),
       st.booleans())
@example((np.array([0, 1, 2]), [14.0, 16.0, 15.0], [1, 1, 0],
          [400.0, 400.0, 400.0]), None, 100.0, 1, False)
@example((np.array([0, 1, 2]), [14.0, 16.0, 15.0], [1, 1, 0],
          [400.0, 400.0, 400.0]), None, 100.0, 1, True)
@example((np.array([3]), [-0.0], [0], [0.0]), 0.0, 0.0, 0, True)
@settings(deadline=None, max_examples=300)
def test_select_ch_matches_reference(cluster, v_cl, eps_distance,
                                     eps_neighbors, as_lists):
    ids, speeds, nbrs, residuals = cluster
    if v_cl is None:  # the engine's v_cl: the cluster mean
        v_cl = cluster_avg_speed(speeds)
    if as_lists:  # as the engine passes them
        got = select_ch(ids.tolist(), [abs(s - v_cl) for s in speeds],
                        nbrs, residuals, eps_distance, eps_neighbors)
    else:
        got = select_ch(ids, np.abs(np.array(speeds) - v_cl),
                        np.array(nbrs), np.array(residuals), eps_distance,
                        eps_neighbors)
    want = reference_select_ch(
        list(zip(ids.tolist(), speeds, nbrs, residuals)), v_cl,
        eps_distance, eps_neighbors)
    assert got == want


@given(st.one_of(TIED_SPEEDS, FREE_SPEEDS), st.data(), st.booleans())
@example([12.0, 14.0, 13.0, 13.0], None, False)
@example([12.0, 14.0, 13.0, 13.0], None, True)
@example([0.0, -0.0, 0.0], None, False)
@example([7.0], None, True)
@settings(deadline=None, max_examples=300)
def test_select_ch_vmasc_matches_reference(speeds, data, as_lists):
    ids = (np.arange(len(speeds)) if data is None
           else member_ids(data.draw, len(speeds)))
    if as_lists:  # as the engine passes them
        got = select_ch_vmasc(ids.tolist(), list(speeds))
    else:
        got = select_ch_vmasc(ids, np.array(speeds))
    assert got == reference_select_ch_vmasc(list(zip(ids.tolist(), speeds)))
