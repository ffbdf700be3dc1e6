"""UAV-vehicle assignment: argmax-SNR partition and tie handling."""
import numpy as np
import pytest

from uavclust import channel
from uavclust.assignment import assign
from uavclust.mobility import Fleet

from conftest import fleet_of, make_vehicle
from oracle import reference_assign

NOISE = channel.dbm_to_watts(-114.0)
G0 = 1e-5


def make_uav(uid, x, *, h=100.0, power=1.0):
    return uid, x, h, power


def hover(uavs):
    """assign's (hover x, altitude, power) lists, by UAV id, of make_uav
    tuples whose ids are 0 .. len(uavs) - 1."""
    ordered = sorted(uavs)
    assert [u[0] for u in ordered] == list(range(len(uavs)))
    return tuple(list(column) for column in zip(*ordered))[1:]


def test_single_uav_takes_everyone():
    uavs = [make_uav(0, 500.0)]
    vehicles = [make_vehicle(i, 100.0 * i) for i in range(5)]
    column = assign(fleet_of(vehicles), *hover(uavs), G0, NOISE)
    assert column.tolist() == [0] * 5


def test_closest_uav_wins():
    uavs = [make_uav(0, 100.0), make_uav(1, 900.0)]
    vehicles = [make_vehicle(0, 50.0), make_vehicle(1, 950.0)]
    column = assign(fleet_of(vehicles), *hover(uavs), G0, NOISE)
    assert column.tolist() == [0, 1]


def test_tie_breaks_to_lowest_uav_id():
    # vehicle exactly midway between identical UAVs
    uavs = [make_uav(1, 400.0), make_uav(0, 600.0)]
    vehicles = [make_vehicle(0, 500.0, y=0.0)]
    column = assign(fleet_of(vehicles), *hover(uavs), G0, NOISE)
    assert column.tolist() == [0]


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        assign(fleet_of([]), *hover([make_uav(0, 500.0)]), G0, NOISE)
    with pytest.raises(ValueError):
        assign(fleet_of([make_vehicle(0, 10.0)]), [], 100.0, 1.0, G0, NOISE)


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
        column = assign(fleet_of(vehicles), *hover(uavs), G0, NOISE)
        for v in vehicles:
            snrs = {}
            for uid, x, h, power in uavs:
                d = channel.a2g_distance(x, 0.0, h, v.x, v.y)
                snrs[uid] = power * (G0 / d ** 2) / NOISE
            best = max(snrs.values())
            expect = min(uid for uid, s in snrs.items() if s == best)
            assert column[v.id] == expect
        assert len(column) == num_v


def random_block(rng, runs, vehicles):
    """A (runs, vehicles) fleet on the two lanes of a 1000 m road."""
    shape = (runs, vehicles)
    return Fleet(rng.uniform(0.0, 1000.0, shape),
                 rng.choice([-2.0, 2.0], shape), np.ones(shape, dtype=int),
                 np.full(shape, 10.0))


def test_array_pass_matches_scalar_reference_on_random_fleets():
    # random hover points, altitudes, powers and id orders, on one-run
    # fleets and (runs, vehicles) blocks
    rng = np.random.default_rng(7)
    for _ in range(200):
        ids = rng.permutation(int(rng.integers(1, 6))).tolist()
        uavs = [make_uav(uid, float(rng.uniform(0, 1000)),
                         h=float(rng.uniform(50.0, 150.0)),
                         power=float(rng.uniform(0.5, 2.0))) for uid in ids]
        runs, vehicles = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        fleet = random_block(rng, runs, vehicles)
        if runs == 1:
            fleet = Fleet(fleet.x[0], fleet.y[0], fleet.dir[0], fleet.speed[0])
        column = assign(fleet, *hover(uavs), G0, NOISE)
        assert column.shape == fleet.x.shape
        assert column.tolist() == reference_assign(fleet, *hover(uavs),
                                                   G0, NOISE).tolist()


def test_one_altitude_or_power_is_every_uavs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        count = int(rng.integers(1, 6))
        uav_x = rng.uniform(0.0, 1000.0, count)
        fleet = random_block(rng, 2, int(rng.integers(1, 40)))
        column = assign(fleet, uav_x, [120.0] * count, [2.0] * count,
                        G0, NOISE).tolist()
        assert assign(fleet, uav_x, 120.0, 2.0, G0, NOISE).tolist() == column
        assert reference_assign(fleet, uav_x.tolist(), 120.0, 2.0, G0,
                                NOISE).tolist() == column


def test_vehicles_midway_between_hover_points_go_to_the_lowest_id():
    # hover points 250 m apart (exact in binary), ids out of road order:
    # each midpoint ties its two neighbours exactly
    ids = [2, 0, 3, 1]
    uavs = [make_uav(uid, 125.0 + 250.0 * k) for k, uid in enumerate(ids)]
    vehicles = [make_vehicle(i, x, y=y) for i, (x, y) in enumerate(
        (x, y) for x in (250.0, 500.0, 750.0) for y in (-2.0, 2.0))]
    fleet = fleet_of(vehicles)
    column = assign(fleet, *hover(uavs), G0, NOISE).tolist()
    assert column == [0, 0, 0, 0, 1, 1]
    assert column == reference_assign(fleet, *hover(uavs), G0,
                                      NOISE).tolist()


# (UAV 0's x, UAV 1's x, vehicle x, vehicle y) of vehicles near the
# midpoint whose SNRs tie or differ in the last bit, in the scalar form
# and the array pass in opposite ways
ROUNDING_APART = [
    (961.6571936637868, 980.7371998012386, 971.1971967325128, -2.0),
    (73.19007239096598, 256.86746722710274, 165.02876980903437, 2.0),
    (26.48454890397234, 760.7887845834825, 393.63666674372746, -2.0)]


@pytest.mark.parametrize("case", ROUNDING_APART)
def test_near_ties_are_decided_as_the_scalar_reference(case):
    x0, x1, x, y = case
    uavs = [make_uav(0, x0), make_uav(1, x1)]
    fleet = fleet_of([make_vehicle(0, x, y=y)])
    assert assign(fleet, *hover(uavs), G0, NOISE).tolist() == \
        reference_assign(fleet, *hover(uavs), G0, NOISE).tolist()


def test_unequal_powers_match_scalar_reference():
    # acceptance criterion 2's instances: up to 5 UAVs of powers 0.5-2.0
    # on a 100 m high centerline, up to 50 vehicles
    rng = np.random.default_rng(2024)
    for _ in range(300):
        uavs = [make_uav(j, float(rng.uniform(0, 1000)),
                         power=float(rng.uniform(0.5, 2.0)))
                for j in range(int(rng.integers(1, 6)))]
        fleet = random_block(rng, 1, int(rng.integers(1, 51)))
        assert assign(fleet, *hover(uavs), G0, NOISE).tolist() == \
            reference_assign(fleet, *hover(uavs), G0, NOISE).tolist()
    # a UAV of four times the power wins a vehicle nearer the other UAV
    uavs = [make_uav(0, 400.0), make_uav(1, 600.0, power=4.0)]
    fleet = fleet_of([make_vehicle(0, 450.0)])
    assert assign(fleet, *hover(uavs), G0, NOISE).tolist() == [1]
