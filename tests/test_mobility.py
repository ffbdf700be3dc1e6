"""Mobility model: kinematics, respawn policy, averages and residuals."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.chselect import cluster_avg_speed
from uavclust.mobility import (Fleet, RoadModel, avg_speed, neighbor_table,
                               residual_path, residual_path_geometric, step)
from uavclust.model import AirPoint, RoadPoint, left_sum

from conftest import make_vehicle

ROAD = RoadModel(length=1000.0, lane_offsets=(-2.0, 2.0))
SPEEDS = (10.0, 15.0)


def reference_step(vehicles, histories, road, dt, rng, speed_range, window):
    """Per-Vehicle step loop with tuple speed histories: the oracle the
    array step must match."""
    out, out_histories, respawned = [], [], []
    for v, history in zip(vehicles, histories):
        new_x = v.pos.x + v.dir * v.speed * dt
        if 0.0 <= new_x <= road.length:
            out.append(replace(v, pos=RoadPoint(new_x, v.pos.y)))
            out_histories.append((history + (v.speed,))[-window:])
        else:
            speed = float(rng.uniform(*speed_range))
            out.append(replace(v, pos=RoadPoint(road.entry_x(v.dir), v.pos.y),
                               speed=speed, generation=v.generation + 1))
            out_histories.append((speed,))
            respawned.append(v.id)
    return out, out_histories, respawned


def reference_neighbors(vehicles, rng_range):
    return [sum(1 for o in vehicles if o.id != v.id
                and math.hypot(v.pos.x - o.pos.x, v.pos.y - o.pos.y)
                <= rng_range)
            for v in vehicles]


def step_one(vehicle, dt=1.0):
    fleet = Fleet([vehicle])
    respawned = step(fleet, ROAD, dt, np.random.default_rng(0), SPEEDS)
    return fleet, respawned


def test_step_advances_by_speed():
    fleet, respawned = step_one(make_vehicle(0, 100.0, speed=20.0))
    assert fleet.pos(0).x == pytest.approx(120.0)
    assert fleet.age.tolist() == [1]  # history (20.0, 20.0)
    assert fleet.avg_speeds(10).tolist() == [avg_speed((20.0, 20.0), 10)]
    assert respawned == []


def test_step_respawns_exiting_vehicle():
    v = make_vehicle(3, 995.0, speed=10.0, generation=2)
    fleet, respawned = step_one(v)
    assert respawned == [3]
    assert fleet.pos(0) == RoadPoint(0.0, v.pos.y)  # entry end of +x lane
    speed = fleet.speed.item(0)
    assert 10.0 <= speed <= 15.0
    assert fleet.age.tolist() == [0]  # history cleared to (speed,)
    assert fleet.avg_speeds(10).tolist() == [speed]
    assert fleet.generation.tolist() == [3]


def test_step_respawn_minus_direction_enters_at_far_end():
    fleet, respawned = step_one(make_vehicle(1, 5.0, y=2.0, direction=-1,
                                             speed=10.0))
    assert respawned == [1]
    assert fleet.pos(0).x == 1000.0


def test_step_zero_dt_is_identity():
    v = make_vehicle(0, 100.0, speed=20.0)
    fleet, respawned = step_one(v, dt=0.0)
    assert respawned == []
    assert (fleet.pos(0), fleet.speed.tolist(), fleet.age.tolist(),
            fleet.generation.tolist()) == (v.pos, [20.0], [0], [0])


def test_step_rejects_negative_dt():
    with pytest.raises(ValueError):
        step(Fleet([]), ROAD, -1.0, np.random.default_rng(0),
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
    uav = AirPoint(500.0, 0.0, 100.0)
    v = make_vehicle(0, 500.0, y=0.0, speed=10.0)
    # from the disc center the exit distance is exactly the radius
    xi = residual_path_geometric(uav, v.pos.x, v.pos.y, v.dir, 10.0, 10.0,
                                 200.0)
    assert xi == pytest.approx(200.0 - 100.0)


def test_residual_path_geometric_outside_disc():
    uav = AirPoint(500.0, 0.0, 100.0)
    v = make_vehicle(0, 900.0, y=0.0, speed=10.0)
    xi = residual_path_geometric(uav, v.pos.x, v.pos.y, v.dir, 10.0, 10.0,
                                 200.0)
    assert xi == pytest.approx(-100.0)  # zero exit distance minus travel


def test_neighbors_collinear_oracle():
    vehicles = [make_vehicle(0, 0.0, y=0.0), make_vehicle(1, 100.0, y=0.0),
                make_vehicle(2, 300.0, y=0.0)]
    assert neighbor_table(Fleet(vehicles), 150.0).tolist() == [1, 1, 0]


def test_neighbors_singleton_empty():
    fleet = Fleet([make_vehicle(0, 10.0)])
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
                             speed=s, generation=i % 3)
                for i, (x, s, d) in enumerate(layout)]
    histories = [(v.speed,) for v in vehicles]
    fleet = Fleet(vehicles)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(slots):
        respawned = step(fleet, ROAD, dt, rng, SPEEDS)
        vehicles, histories, ref_respawned = reference_step(
            vehicles, histories, ROAD, dt, ref_rng, SPEEDS, window)
        assert respawned == ref_respawned
    rows = range(len(vehicles))
    assert [(fleet.ids.item(i), fleet.pos(i), fleet.dir.item(i),
             fleet.speed.item(i), fleet.generation.item(i)) for i in rows] == \
        [(v.id, v.pos, v.dir, v.speed, v.generation) for v in vehicles]
    assert fleet.avg_speeds(window).tolist() == [avg_speed(history, window)
                                                 for history in histories]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
    assert neighbor_table(Fleet(vehicles), 150.0).tolist() == \
        reference_neighbors(vehicles, 150.0)


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
    fleet = Fleet(vehicles)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        step(fleet, ROAD, 1.0, rng, SPEEDS)
    assert fleet.ids.tolist() == list(range(len(layout)))
    assert all(0.0 <= x <= ROAD.length for x in fleet.x.tolist())
