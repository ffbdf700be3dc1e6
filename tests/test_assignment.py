"""UAV-vehicle assignment: argmax-SNR partition and tie handling."""
import numpy as np
import pytest

from uavclust import channel
from uavclust.assignment import assign
from uavclust.mobility import Fleet
from uavclust.model import AirPoint, UavNode

from conftest import make_vehicle

NOISE = channel.dbm_to_watts(-114.0)
G0 = 1e-5


def make_uav(uid, x, *, h=100.0, power=1.0):
    return UavNode(id=uid, pos=AirPoint(x, 0.0, h), coverage_radius=500.0,
                   tx_power=power)


def test_single_uav_takes_everyone():
    uavs = [make_uav(0, 500.0)]
    vehicles = [make_vehicle(i, 100.0 * i) for i in range(5)]
    assert assign(Fleet(vehicles), uavs, G0, NOISE).tolist() == [0] * 5


def test_closest_uav_wins():
    uavs = [make_uav(0, 100.0), make_uav(1, 900.0)]
    vehicles = [make_vehicle(0, 50.0), make_vehicle(1, 950.0)]
    assert assign(Fleet(vehicles), uavs, G0, NOISE).tolist() == [0, 1]


def test_tie_breaks_to_lowest_uav_id():
    # vehicle exactly midway between identical UAVs
    uavs = [make_uav(1, 400.0), make_uav(0, 600.0)]
    vehicles = [make_vehicle(0, 500.0, y=0.0)]
    assert assign(Fleet(vehicles), uavs, G0, NOISE).tolist() == [0]


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        assign(Fleet([]), [make_uav(0, 500.0)], G0, NOISE)
    with pytest.raises(ValueError):
        assign(Fleet([make_vehicle(0, 10.0)]), [], G0, NOISE)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        num_u = int(rng.integers(1, 5))
        num_v = int(rng.integers(1, 20))
        uavs = [make_uav(j, float(rng.uniform(0, 1000)),
                         power=float(rng.uniform(0.5, 2.0)))
                for j in range(num_u)]
        vehicles = [make_vehicle(i, float(rng.uniform(0, 1000)),
                                 y=float(rng.choice([-2.0, 2.0])))
                    for i in range(num_v)]
        column = assign(Fleet(vehicles), uavs, G0, NOISE)
        for v in vehicles:
            snrs = {}
            for u in uavs:
                d = channel.a2g_distance(u.pos.x, u.pos.y, u.pos.h,
                                         v.pos.x, v.pos.y)
                snrs[u.id] = u.tx_power * (G0 / d ** 2) / NOISE
            best = max(snrs.values())
            expect = min(uid for uid, s in snrs.items() if s == best)
            assert column[v.id] == expect
        assert len(column) == num_v
