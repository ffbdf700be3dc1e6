"""Mobility model: kinematics, respawn policy, averages and residuals."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.mobility import (Fleet, RoadModel, avg_speed, neighbor_table,
                               residual_path, residual_path_geometric, step)
from uavclust.model import AirPoint, RoadPoint

from conftest import make_vehicle

ROAD = RoadModel(length=1000.0, lane_offsets=(-2.0, 2.0))
SPEEDS = (10.0, 15.0)


def reference_step(vehicles, road, dt, rng, speed_range, window):
    """Per-Vehicle step loop: the oracle the array step must match."""
    out, respawned = [], []
    for v in vehicles:
        new_x = v.pos.x + v.dir * v.speed * dt
        if 0.0 <= new_x <= road.length:
            history = (v.speed_history + (v.speed,))[-window:]
            out.append(replace(v, pos=RoadPoint(new_x, v.pos.y),
                               speed_history=history))
        else:
            speed = float(rng.uniform(*speed_range))
            out.append(replace(v, pos=RoadPoint(road.entry_x(v.dir), v.pos.y),
                               speed=speed, speed_history=(speed,),
                               generation=v.generation + 1))
            respawned.append(v.id)
    return out, respawned


def reference_neighbors(vehicles, rng_range):
    return {v.id: {o.id for o in vehicles if o.id != v.id
                   and math.hypot(v.pos.x - o.pos.x, v.pos.y - o.pos.y)
                   <= rng_range}
            for v in vehicles}


def step_one(vehicle, dt=1.0, window=10):
    fleet = Fleet([vehicle])
    respawned = step(fleet, ROAD, dt, np.random.default_rng(0), SPEEDS)
    return fleet.records(window)[0], respawned


def test_step_advances_by_speed():
    nv, respawned = step_one(make_vehicle(0, 100.0, speed=20.0))
    assert nv.pos.x == pytest.approx(120.0)
    assert nv.speed_history == (20.0, 20.0)
    assert respawned == []


def test_step_respawns_exiting_vehicle():
    v = make_vehicle(3, 995.0, speed=10.0, history=[9.0, 10.0], generation=2)
    nv, respawned = step_one(v)
    assert respawned == [3]
    assert nv.pos.x == 0.0  # entry end of the +x lane
    assert nv.pos.y == v.pos.y
    assert 10.0 <= nv.speed <= 15.0
    assert nv.speed_history == (nv.speed,)  # history cleared
    assert nv.generation == 3


def test_step_respawn_minus_direction_enters_at_far_end():
    nv, respawned = step_one(make_vehicle(1, 5.0, y=2.0, direction=-1,
                                          speed=10.0))
    assert respawned == [1]
    assert nv.pos.x == 1000.0


def test_step_zero_dt_is_identity():
    v = make_vehicle(0, 100.0, speed=20.0)
    assert step_one(v, dt=0.0) == (v, [])


def test_step_rejects_negative_dt():
    with pytest.raises(ValueError):
        step(Fleet([]), ROAD, -1.0, np.random.default_rng(0),
             SPEEDS)


def test_avg_speed_constant_history():
    assert avg_speed([15.0] * 5, 10) == pytest.approx(15.0)


def test_avg_speed_window_shorter_than_history():
    assert avg_speed([10.0, 12.0, 14.0], 3) == pytest.approx(12.0)
    assert avg_speed([10.0, 12.0, 14.0, 16.0], 3) == pytest.approx(14.0)


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
    xi = residual_path_geometric(uav, v.pos, v.dir, 10.0, 10.0, 200.0)
    assert xi == pytest.approx(200.0 - 100.0)


def test_residual_path_geometric_outside_disc():
    uav = AirPoint(500.0, 0.0, 100.0)
    v = make_vehicle(0, 900.0, y=0.0, speed=10.0)
    xi = residual_path_geometric(uav, v.pos, v.dir, 10.0, 10.0, 200.0)
    assert xi == pytest.approx(-100.0)  # zero exit distance minus travel


def test_neighbors_collinear_oracle():
    vehicles = [make_vehicle(0, 0.0, y=0.0), make_vehicle(1, 100.0, y=0.0),
                make_vehicle(2, 300.0, y=0.0)]
    table = neighbor_table(Fleet(vehicles), 150.0)
    assert table == {0: {1}, 1: {0}, 2: set()}


def test_neighbors_singleton_empty():
    fleet = Fleet([make_vehicle(0, 10.0)])
    assert neighbor_table(fleet, 150.0) == {0: set()}
    with pytest.raises(ValueError):
        neighbor_table(fleet, 0.0)


# (x, speed, direction, history); histories may be longer than the
# averaging window or not constant.
VEHICLE = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=40.0),
    st.sampled_from([1, -1]),
    st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=15))


@given(st.lists(VEHICLE, max_size=25), st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=80),
       st.sampled_from([1.0, 0.5, 2.5]))
@settings(deadline=None, max_examples=60)
def test_step_matches_reference_loop(layout, seed, window, slots, dt):
    vehicles = [make_vehicle(i, x, y=-2.0 if d > 0 else 2.0, direction=d,
                             speed=s, history=h, generation=i % 3)
                for i, (x, s, d, h) in enumerate(layout)]
    fleet = Fleet(vehicles)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(slots):
        respawned = step(fleet, ROAD, dt, rng, SPEEDS)
        vehicles, ref_respawned = reference_step(vehicles, ROAD, dt, ref_rng,
                                                 SPEEDS, window)
        assert respawned == ref_respawned
    records = fleet.records(window)
    assert [(r.id, r.pos, r.dir, r.speed, r.generation) for r in records] == \
        [(v.id, v.pos, v.dir, v.speed, v.generation) for v in vehicles]
    for r, v in zip(records, vehicles):
        assert r.speed_history == v.speed_history[-window:]
        assert avg_speed(r.speed_history, window) == \
            avg_speed(v.speed_history, window)
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
    table = neighbor_table(Fleet(vehicles), 150.0)
    assert table == reference_neighbors(vehicles, 150.0)


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
    records = fleet.records(10)
    assert len(records) == len(layout)
    assert all(0.0 <= v.pos.x <= ROAD.length for v in records)
    assert all(len(v.speed_history) <= 10 for v in records)
