"""Mobility model: kinematics, respawn policy, averages and residuals."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.chselect import cluster_avg_speed
from uavclust.mobility import (Fleet, avg_speed, neighbor_counts,
                               neighbor_table, residual_path,
                               residual_path_geometric, step)
from uavclust.model import left_sum

from conftest import fleet_of, make_vehicle

ROAD_LENGTH = 1000.0
SPEEDS = (10.0, 15.0)


def reference_step(vehicles, histories, road_length, dt, rng, speed_range,
                   window):
    """Per-Vehicle step loop with tuple speed histories: the oracle the
    array step must match."""
    out, out_histories, respawned = [], [], []
    for v, history in zip(vehicles, histories):
        new_x = v.x + v.dir * v.speed * dt
        if 0.0 <= new_x <= road_length:
            out.append(replace(v, x=new_x))
            out_histories.append((history + (v.speed,))[-window:])
        else:
            speed = float(rng.uniform(*speed_range))
            out.append(replace(v, x=0.0 if v.dir > 0 else road_length,
                               speed=speed))
            out_histories.append((speed,))
            respawned.append(v.id)
    return out, out_histories, respawned


def reference_neighbors(vehicles, rng_range):
    return [sum(1 for o in vehicles if o.id != v.id
                and math.hypot(v.x - o.x, v.y - o.y)
                <= rng_range)
            for v in vehicles]


def step_one(vehicle, dt=1.0):
    fleet = fleet_of([vehicle])
    respawned = step(fleet, ROAD_LENGTH, dt, np.random.default_rng(0), SPEEDS)
    return fleet, respawned


def test_step_advances_by_speed():
    fleet, respawned = step_one(make_vehicle(0, 100.0, speed=20.0))
    assert fleet.x.tolist() == pytest.approx([120.0])
    assert fleet.age.tolist() == [1]  # history (20.0, 20.0)
    assert fleet.avg_speeds(10).tolist() == [avg_speed((20.0, 20.0), 10)]
    assert respawned == []


def test_step_respawns_exiting_vehicle():
    v = make_vehicle(3, 995.0, speed=10.0)
    fleet, respawned = step_one(v)
    # slot 0 of the block, the fleet row, whatever the record's id
    assert respawned == [(0, [0])]
    assert (fleet.x.tolist(), fleet.y.tolist()) == ([0.0], [v.y])  # +x entry
    speed = fleet.speed.item(0)
    assert 10.0 <= speed <= 15.0
    assert fleet.age.tolist() == [0]  # history cleared to (speed,)
    assert fleet.avg_speeds(10).tolist() == [speed]


def test_step_respawn_minus_direction_enters_at_far_end():
    fleet, respawned = step_one(make_vehicle(1, 5.0, y=2.0, direction=-1,
                                             speed=10.0))
    assert respawned == [(0, [0])]
    assert fleet.x.tolist() == [1000.0]


def test_step_rejects_zero_dt():
    with pytest.raises(ValueError, match="positive"):
        step_one(make_vehicle(0, 100.0, speed=20.0), dt=0.0)


def test_step_rejects_an_empty_block():
    with pytest.raises(ValueError, match="slots"):
        step(fleet_of([make_vehicle(0, 100.0)]), ROAD_LENGTH, 1.0,
             np.random.default_rng(0), SPEEDS, 0)


def test_step_rejects_negative_dt():
    with pytest.raises(ValueError):
        step(fleet_of([]), ROAD_LENGTH, -1.0, np.random.default_rng(0),
             SPEEDS)


def test_avg_speed_constant_history():
    assert avg_speed([15.0] * 5, 10) == pytest.approx(15.0)


def test_avg_speed_window_shorter_than_history():
    assert avg_speed([10.0, 12.0, 14.0], 3) == pytest.approx(12.0)
    assert avg_speed([10.0, 12.0, 14.0, 16.0], 3) == pytest.approx(14.0)


def test_means_fold_left_to_right():
    # from Python 3.12 the builtin sum() compensates rounding and gives
    # 1.0 for both sums; the plain fold gives what Python 3.11 gives
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert avg_speed([0.1] * 10, 10) == 0.9999999999999999 / 10
    assert cluster_avg_speed([0.1] * 10) == 0.9999999999999999 / 10


def test_avg_speed_domain_errors():
    with pytest.raises(ValueError):
        avg_speed([], 3)
    with pytest.raises(ValueError):
        avg_speed([10.0], 0)


def test_residual_path_hand_values():
    assert residual_path(500.0, 0.0, 70.0) == pytest.approx(1000.0)
    assert residual_path(500.0, 10.0, 70.0) == pytest.approx(300.0)
    assert residual_path(500.0, 15.0, 70.0) == pytest.approx(-50.0)


def test_residual_path_domain_errors():
    with pytest.raises(ValueError):
        residual_path(0.0, 10.0, 70.0)
    with pytest.raises(ValueError):
        residual_path(500.0, -1.0, 70.0)


def test_residual_path_geometric_center():
    v = make_vehicle(0, 500.0, y=0.0, speed=10.0)
    # from the disc center the exit distance is exactly the radius
    xi = residual_path_geometric(500.0, v.x, v.y, v.dir, 10.0, 10.0, 200.0)
    assert xi == pytest.approx(200.0 - 100.0)


def test_residual_path_geometric_outside_disc():
    v = make_vehicle(0, 900.0, y=0.0, speed=10.0)
    xi = residual_path_geometric(500.0, v.x, v.y, v.dir, 10.0, 10.0, 200.0)
    assert xi == pytest.approx(-100.0)  # zero exit distance minus travel


def test_neighbors_collinear_oracle():
    vehicles = [make_vehicle(0, 0.0, y=0.0), make_vehicle(1, 100.0, y=0.0),
                make_vehicle(2, 300.0, y=0.0)]
    assert neighbor_table(fleet_of(vehicles), 150.0).tolist() == [1, 1, 0]


def test_neighbors_singleton_empty():
    fleet = fleet_of([make_vehicle(0, 10.0)])
    assert neighbor_table(fleet, 150.0).tolist() == [0]
    with pytest.raises(ValueError):
        neighbor_table(fleet, 0.0)


# (x, speed, direction); every history starts as (speed,) and outgrows
# the averaging window when the run is long enough.
VEHICLE = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=40.0),
    st.sampled_from([1, -1]))


@given(st.lists(VEHICLE, max_size=25), st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=80),
       st.sampled_from([1.0, 0.5, 2.5]))
@settings(deadline=None, max_examples=60)
def test_step_matches_reference_loop(layout, seed, window, slots, dt):
    vehicles = [make_vehicle(i, x, y=-2.0 if d > 0 else 2.0, direction=d,
                             speed=s)
                for i, (x, s, d) in enumerate(layout)]
    histories = [(v.speed,) for v in vehicles]
    fleet = fleet_of(vehicles)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(slots):
        respawned = step(fleet, ROAD_LENGTH, dt, rng, SPEEDS)
        vehicles, histories, ref_respawned = reference_step(
            vehicles, histories, ROAD_LENGTH, dt, ref_rng, SPEEDS, window)
        assert respawned == ([(0, ref_respawned)] if ref_respawned else [])
    rows = range(len(vehicles))
    assert [(i, fleet.x.item(i), fleet.y.item(i), fleet.dir.item(i),
             fleet.speed.item(i)) for i in rows] == \
        [(v.id, v.x, v.y, v.dir, v.speed) for v in vehicles]
    assert fleet.avg_speeds(window).tolist() == [avg_speed(history, window)
                                                 for history in histories]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def check_block_step(layout, seed, window, slots, dt, road_length):
    """Steps the layout once by a block of slots, slot by slot, and
    through reference_step, on a road of road_length (layout x scaled
    from 0..1000); asserts all three agree and returns the block's
    respawns."""
    vehicles = [make_vehicle(i, x * road_length / 1000.0,
                             y=-2.0 if d > 0 else 2.0, direction=d, speed=s)
                for i, (x, s, d) in enumerate(layout)]
    histories = [(v.speed,) for v in vehicles]
    block, single = fleet_of(vehicles), fleet_of(vehicles)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    held, before = block.x, block.x.tolist()
    respawned = step(block, road_length, dt, rngs[0], SPEEDS, slots)
    # a survey holds the x array of its slot (engine.Traffic) across the
    # block: step replaces it and never writes it
    assert block.x is not held and held.tolist() == before
    single_respawned, ref_respawned = [], []
    for slot in range(slots):
        single_respawned += [(slot, rows) for _, rows in step(
            single, road_length, dt, rngs[1], SPEEDS)]
        vehicles, histories, ref = reference_step(
            vehicles, histories, road_length, dt, rngs[2], SPEEDS, window)
        ref_respawned += [(slot, ref)] if ref else []
    assert respawned == single_respawned == ref_respawned
    ref_rows = [(v.x, v.speed) for v in vehicles]
    ref_avgs = [avg_speed(history, window) for history in histories]
    for fleet in (block, single):
        assert list(zip(fleet.x.tolist(), fleet.speed.tolist())) == ref_rows
        assert fleet.avg_speeds(window).tolist() == ref_avgs
    assert block.age.tolist() == single.age.tolist()
    assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
            == rngs[2].bit_generator.state)
    return respawned


@given(st.lists(VEHICLE, max_size=25), st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=40),
       st.sampled_from([1.0, 0.5, 2.5]), st.sampled_from([1000.0, 40.0]))
@settings(deadline=None, max_examples=80)
def test_block_step_matches_one_slot_steps(layout, seed, window, slots, dt,
                                           road_length):
    check_block_step(layout, seed, window, slots, dt, road_length)


@given(st.integers(min_value=1, max_value=4).flatmap(
           lambda runs: st.lists(st.lists(VEHICLE, min_size=5, max_size=5),
                                 min_size=runs, max_size=runs)),
       st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=40),
       st.sampled_from([1.0, 2.5]), st.sampled_from([1000.0, 40.0]))
@settings(deadline=None, max_examples=60)
def test_block_fleet_steps_each_run_as_alone(layouts, seed, window, slots,
                                             dt, road_length):
    # a fleet of (runs, vehicles) arrays, each run with its own stream,
    # against each run stepped alone; respawned rows are flat indices
    alone = [fleet_of([make_vehicle(i, x * road_length / 1000.0,
                                    y=-2.0 if d > 0 else 2.0, direction=d,
                                    speed=s)
                       for i, (x, s, d) in enumerate(layout)])
             for layout in layouts]
    block = Fleet(*(np.stack([getattr(f, column) for f in alone])
                    for column in ("x", "y", "dir", "speed")))
    respawned = step(block, road_length, dt,
                     [np.random.default_rng(seed + b) for b in range(len(alone))],
                     SPEEDS, slots)
    expected = {}
    for b, fleet in enumerate(alone):
        for slot, rows in step(fleet, road_length, dt,
                               np.random.default_rng(seed + b), SPEEDS, slots):
            expected.setdefault(slot, []).extend(5 * b + row for row in rows)
    assert respawned == sorted(expected.items())
    nbr_count, avg_speeds = (neighbor_table(block, 150.0),
                             block.avg_speeds(window))
    for b, fleet in enumerate(alone):
        for column in ("x", "speed", "age"):
            assert getattr(block, column)[b].tolist() == \
                getattr(fleet, column).tolist()
        assert avg_speeds[b].tolist() == fleet.avg_speeds(window).tolist()
        assert nbr_count[b].tolist() == neighbor_table(fleet, 150.0).tolist()


def test_a_row_leaves_twice_in_one_block():
    # on a 40 m road a respawned row (10..15 m/s) is off it again within
    # four slots, and goes on in scalar math inside the block; rows 0
    # and 2 leave in the first slot, in row order
    layout = [(875.0, 10.0, 1), (500.0, 0.0, -1), (100.0, 12.0, -1)]
    respawned = check_block_step(layout, 3, 4, 9, 1.0, 40.0)
    assert respawned[0] == (0, [0, 2])
    assert sum(0 in rows for _, rows in respawned) >= 2
    assert all(1 not in rows for _, rows in respawned)  # parked


# positions on a half-metre grid with lanes 120 m apart, so that many
# pairs sit at exactly 150.0 m (90-120-150 triangles and 150 m gaps)
GRID_POINT = st.tuples(st.integers(min_value=0, max_value=800).map(lambda k: k * 0.5),
                       st.sampled_from([-2.0, 2.0, 0.0, 120.0]))


@given(st.lists(st.one_of(GRID_POINT,
                          st.tuples(st.floats(min_value=0.0, max_value=1000.0),
                                    st.floats(min_value=-200.0, max_value=200.0))),
                max_size=40))
@example([(0.0, 0.0), (150.0, 0.0), (90.0, 120.0), (300.0, 0.0)])
@example([(0.0, -2.0), (150.0, -2.0), (150.0, -2.0)])
# np.hypot and math.hypot round these 150 m pairs to opposite sides
@example([(0.0, 0.0), (147.31637927596591, 28.246847558971332)])
@example([(0.0, 0.0), (79.58734617281932, 127.14501299369876)])
@settings(deadline=None, max_examples=100)
def test_neighbor_table_matches_brute_force(points):
    vehicles = [make_vehicle(i, x, y=y) for i, (x, y) in enumerate(points)]
    assert neighbor_table(fleet_of(vehicles), 150.0).tolist() == \
        reference_neighbors(vehicles, 150.0)


# a 50 m grid: many offsets exactly at the 150 m range, along either
# axis, and vehicles at the same position
GRID_50 = st.tuples(st.integers(min_value=0, max_value=20).map(lambda k: k * 50.0),
                    st.integers(min_value=-3, max_value=3).map(lambda k: k * 50.0))


@given(runs=st.integers(min_value=1, max_value=3),
       vehicles=st.integers(min_value=1, max_value=25), data=st.data())
@settings(deadline=None, max_examples=100)
def test_neighbor_counts_of_members_equal_their_table_entries(runs, vehicles,
                                                              data):
    # what a backup ranking counts for its members, one run's rows or
    # the whole (runs, vehicles) block, against the full table
    point = st.one_of(GRID_50, GRID_POINT, st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=-200.0, max_value=200.0)))
    points = data.draw(st.lists(point, min_size=runs * vehicles,
                                max_size=runs * vehicles))
    x, y = (np.array(column).reshape(runs, vehicles) for column in zip(*points))
    fleet = Fleet(x, y, np.ones_like(x, dtype=int), np.full_like(x, 10.0))
    table = neighbor_table(fleet, 150.0)
    members = sorted(data.draw(st.sets(st.integers(0, vehicles - 1),
                                       min_size=1)))
    for run in range(runs):
        assert neighbor_counts(x[run], y[run], members, 150.0).tolist() == \
            table[run][members].tolist()
    assert neighbor_counts(x, y, members, 150.0).tolist() == \
        table[:, members].tolist()


def test_neighbor_counts_of_stacked_vehicles():
    # three vehicles at one point and one exactly 150 m away from them
    x, y = np.array([0.0, 0.0, 0.0, 150.0, 300.1]), np.full(5, -2.0)
    assert neighbor_counts(x, y, [0, 3, 4], 150.0).tolist() == [3, 3, 0]
    assert neighbor_table(Fleet(x, y, np.ones(5), np.ones(5)),
                          150.0).tolist() == [3, 3, 3, 3, 0]


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1000.0),
                          st.floats(min_value=5.0, max_value=20.0),
                          st.sampled_from([1, -1])),
                min_size=1, max_size=20),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(deadline=None, max_examples=50)
def test_step_keeps_population_on_road(layout, seed):
    vehicles = [make_vehicle(i, x, y=-2.0 if d > 0 else 2.0,
                             direction=d, speed=s)
                for i, (x, s, d) in enumerate(layout)]
    fleet = fleet_of(vehicles)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        step(fleet, ROAD_LENGTH, 1.0, rng, SPEEDS)
    assert len(fleet.x) == len(layout)
    assert all(0.0 <= x <= ROAD_LENGTH for x in fleet.x.tolist())
