"""Engine behavior: scripted scenarios, departures and determinism."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust import channel, engine, trace
from uavclust.backup import build_backup_list
from uavclust.chselect import cluster_avg_speed
from uavclust.config import SimConfig, validate
from uavclust.engine import MIN_V2V_DISTANCE, Simulation, place_uavs, run
from uavclust.mobility import (neighbor_table, residual_path,
                               residual_path_geometric)
from uavclust.seeding import pcg64_states, run_seeds

from conftest import fleet_of, make_vehicle
from oracle import v2v_gain, v2v_snr
from test_golden import GRID
from test_seeding import EDGE_KEYS
from test_ziggurat import SLOW_KEYS

SCHEMES = ("proposed", "vmasc", "random")
DENSE = {"num_vehicles": 100, "snr_fading": "instantaneous"}


def reference_link_snrs(cfg, fading_seed, t, ch_vehicle, members):
    """Per-link default_rng loop: the oracle the batched link sampling
    must match."""
    snrs = []
    for v in members:
        if v.id == ch_vehicle.id:
            continue
        d = max(MIN_V2V_DISTANCE, math.hypot(ch_vehicle.x - v.x,
                                             ch_vehicle.y - v.y))
        lo, hi = sorted((ch_vehicle.id, v.id))
        rng = np.random.default_rng((fading_seed, int(round(t * 1000)),
                                     lo, hi))
        shadow = channel.sample_shadowing(rng, cfg.shadow_std_db)
        gain = channel.v2v_large_scale(d, shadow, cfg.v2v_loss_const,
                                       cfg.v2v_loss_exp)
        if cfg.snr_fading == "instantaneous":
            gain = v2v_gain(gain, channel.sample_fast_fading(rng))
        snrs.append(v2v_snr(cfg.vehicle_tx_power, gain, cfg.noise_power))
    return snrs


def reference_key_snr(cfg, key, d):
    """One link sample's SNR at distance d, drawn from its own
    default_rng(key): the per-key form of reference_link_snrs."""
    rng = np.random.default_rng(key)
    shadow = channel.sample_shadowing(rng, cfg.shadow_std_db)
    gain = channel.v2v_large_scale(d, shadow, cfg.v2v_loss_const,
                                   cfg.v2v_loss_exp)
    if cfg.snr_fading == "instantaneous":
        gain = v2v_gain(gain, channel.sample_fast_fading(rng))
    return v2v_snr(cfg.vehicle_tx_power, gain, cfg.noise_power)


class CamSnapshots(Simulation):
    """Keeps what each CAM batch saw: its time, vehicle positions and
    clusters."""

    def __init__(self, *args):
        super().__init__(*args)
        self.snapshots = []

    def _cam_batch(self, t):
        f, row = self.traffic.fleet, self.row
        by_id = {vid: make_vehicle(vid, x, y=y) for vid, (x, y) in enumerate(
            zip(f.x[row].tolist(), f.y[row].tolist()))}
        self.snapshots.append((t, by_id, {
            u: (s.ch, np.flatnonzero(self.member_of == u).tolist())
            for u, s in self.clusters.items()}))
        super()._cam_batch(t)


def check_snrs_against_reference(cfg, monkeypatch):
    """Asserts every CH cam_batch payload against reference_link_snrs;
    returns (payloads with an snr, payloads without one)."""
    sims = []

    def tracked(*args):
        sims.append(CamSnapshots(*args))
        return sims[-1]

    monkeypatch.setattr(engine, "Simulation", tracked)
    batches = {(e.time, e.ids[0]): e.payload
               for e in run(cfg, seeds=run_seeds(cfg.seed, 0, cfg.scheme))
               if e.kind == "cam_batch" and len(e.ids) == 2}
    [sim] = sims
    with_snr = without_snr = 0
    for t, by_id, clusters in sim.snapshots:
        for uav, (ch, members) in clusters.items():
            if ch is None:
                continue
            payload = batches.pop((t, uav))
            snrs = reference_link_snrs(cfg, sim.seeds.fading, t, by_id[ch],
                                       [by_id[m] for m in members])
            if snrs:
                assert payload["snr"] == sum(snrs) / len(snrs)
                with_snr += 1
            else:
                assert "snr" not in payload
                without_snr += 1
    assert not batches
    return with_snr, without_snr


def kinds(events):
    return [e.kind for e in events]


def test_place_uavs_equally_spaced():
    uavs = place_uavs(SimConfig())
    assert [u.pos.x for u in uavs] == pytest.approx([166.6667, 500.0, 833.3333],
                                                    abs=1e-3)
    assert all(u.pos.h == 100.0 for u in uavs)


def test_static_vehicles_one_round_no_departures():
    cfg = dataclasses.replace(SimConfig(), total_time=70.0)
    # three tight platoons parked under the three UAVs
    vehicles = [make_vehicle(i, base + 10.0 * j, speed=0.0)
                for i, (base, j) in enumerate(
                    (b, j) for b in (150.0, 480.0, 810.0) for j in range(4))]
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of(vehicles))
    ks = kinds(events)
    assert ks.count("clustering_round") == 1
    assert ks.count("ch_selected") == 3  # one per nonempty cluster
    assert ks.count("beacon_missed") == 0
    assert ks.count("ch_departed") == 0
    assert ks.count("vehicle_respawn") == 0
    selected = [e for e in events if e.kind == "ch_selected"]
    assert all(not e.payload["degraded"] for e in selected)
    assert ks.count("beacon_ok") == 3 * 6  # beacons at t=10..60


def _single_cluster_config(**overrides):
    return dataclasses.replace(
        SimConfig(), num_uavs=1, num_vehicles=2, uav_coverage_radius=200.0,
        eps_neighbors=0, total_time=70.0, **overrides)


def test_coverage_departure_replaced_from_backup():
    cfg = _single_cluster_config()
    # CH drifts past the coverage edge before the first beacon; the
    # other member is the whole backup list.
    vehicles = [make_vehicle(0, 690.0, speed=2.0),
                make_vehicle(1, 500.0, speed=2.0)]
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of(vehicles))
    seated = [e for e in events if e.kind == "ch_selected"]
    assert seated[0].ids == (0, 0)  # tie on v_d breaks to the lowest id
    at_t10 = [e for e in events if e.time == 10.0 and e.kind != "cam_batch"]
    assert [e.kind for e in at_t10] == ["beacon_missed", "ch_departed",
                                       "ch_replaced_from_backup"]
    assert at_t10[1].payload["reason"] == "coverage"
    assert at_t10[2].ids == (0, 1)  # top backup entry takes over
    later = [e for e in events if e.time > 10.0 and e.kind == "beacon_ok"]
    assert len(later) == 5  # replacement CH stays reachable


def test_respawn_departure_detected_at_beacon():
    cfg = _single_cluster_config(eps_distance=1e9)  # force degraded pick
    vehicles = [make_vehicle(0, 980.0, speed=20.0),
                make_vehicle(1, 500.0, speed=2.0)]
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of(vehicles))
    seated = [e for e in events if e.kind == "ch_selected"]
    assert seated[0].ids == (0, 0)
    assert seated[0].payload["degraded"]
    respawns = [e for e in events if e.kind == "vehicle_respawn"]
    assert respawns and respawns[0].ids == (0,)
    departed = [e for e in events if e.kind == "ch_departed"]
    assert departed[0].payload["reason"] == "respawn"
    assert departed[0].time == 10.0


def test_respawn_mark_cleared_by_seating():
    # the lone vehicle is CH from t = 0, respawns at t = 65 and stays
    # covered; the t = 70 round seats it again, so the beacon at t = 80
    # has no departure to report
    cfg = dataclasses.replace(_single_cluster_config(), num_vehicles=1,
                              uav_coverage_radius=1000.0, total_time=100.0)
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of([make_vehicle(0, 355.0, speed=10.0)]))
    assert [e.time for e in events if e.kind == "vehicle_respawn"] == [65.0]
    assert [(e.time, e.ids) for e in events if e.kind == "ch_selected"] == \
        [(0.0, (0, 0)), (70.0, (0, 0))]
    assert kinds(events).count("ch_departed") == 0
    assert [e.time for e in events if e.kind == "beacon_ok"] == \
        [10.0 * k for k in range(1, 10) if k != 7]


def test_cluster_emptied_unsets_ch():
    cfg = _single_cluster_config()
    # lone member exits coverage; nobody is left to replace it
    vehicles = [make_vehicle(0, 690.0, speed=2.0)]
    cfg = dataclasses.replace(cfg, num_vehicles=1)
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of(vehicles))
    assert kinds(events).count("ch_departed") == 1
    assert kinds(events).count("ch_replaced_from_backup") == 0
    assert kinds(events).count("ch_reselected_full") == 0


class DepartureRecords(Simulation):
    """Keeps, after each CH departure, its time, cluster, the CH seated
    in its place and the members left."""

    def __init__(self, *args):
        super().__init__(*args)
        self.departures = []

    def _handle_departure(self, t, state):
        super()._handle_departure(t, state)
        left = np.flatnonzero(self.member_of == state.uav.id).tolist()
        self.departures.append((t, state.uav.id, state.ch, left))


# the golden variants, and CAM and beacon periods off their defaults
BACKUP_CASES = {**{v: overrides for v, (overrides, _) in GRID.items()},
                "cam_interval_20": {"cam_interval": 20.0},
                "beacon_interval_30_with_backup": {
                    "beacon_interval": 30.0, "benchmarks_use_backup": True}}


@pytest.mark.parametrize("variant", list(BACKUP_CASES))
def test_backup_list_never_runs_dry(variant, monkeypatch):
    # every non-CH member is on the backup list between rounds, so a
    # departure either empties the cluster or seats a backup entry
    cfg = validate(dataclasses.replace(SimConfig(), seed=1,
                                       **BACKUP_CASES[variant]))
    sims = []

    def tracked(*args):
        sims.append(DepartureRecords(*args))
        return sims[-1]

    monkeypatch.setattr(engine, "Simulation", tracked)
    traces = engine.run_block(cfg, [{s: run_seeds(1, 0, s) for s in SCHEMES}])[0]
    keepers = [sim for sim in sims if sim.keeps_backup]
    assert [sim.config.scheme for sim in keepers] == (
        list(SCHEMES) if cfg.benchmarks_use_backup else ["proposed"])
    for sim in keepers:
        events = traces[sim.config.scheme]
        assert "ch_reselected_full" not in kinds(events)
        departed = [i for i, e in enumerate(events) if e.kind == "ch_departed"]
        assert len(departed) == len(sim.departures) > 0
        for i, (t, uav, ch, left) in zip(departed, sim.departures):
            assert events[i].time == t and events[i].ids[0] == uav
            if left:
                replaced = events[i + 1]
                assert (replaced.kind, replaced.time, replaced.ids) == (
                    "ch_replaced_from_backup", t, (uav, ch))
                assert ch in left
            else:
                assert ch is None


def eager_backup_list(sim, state, members):
    """The backup list of members around the current CH, ranked at once
    from the current event slot: what each rebuild built before ranking
    was deferred to the first pop."""
    cfg, uav, row = sim.config, state.uav, sim.row
    fleet, members = sim.traffic.fleet, np.array(members)
    speed = np.array(sim.traffic.avg_speed[row])[members]
    v_d = np.abs(speed - cluster_avg_speed(speed))
    if cfg.residual_mode == "geometric":
        residual = residual_path_geometric(
            uav.pos, fleet.x[row][members], fleet.y[row][members],
            fleet.dir[row][members],
            speed, cfg.cluster_interval, uav.coverage_radius)
    else:
        residual = residual_path(uav.coverage_radius, speed,
                                 cfg.cluster_interval)
    others = members != state.ch
    return build_backup_list(
        members[others], v_d[others],
        neighbor_table(fleet, cfg.neighbor_range)[row][members][others],
        residual[others],
        (cfg.weight_speed, cfg.weight_neighbors, cfg.weight_path),
        raw_scores=cfg.backup_raw_scores)


class EagerBackups(Simulation):
    """Ranks each rebuilt backup list eagerly (eager_backup_list) and
    checks that every pop takes from it, or from what earlier pops left
    of it; popped receives the (list, remainder) of each pop_replacement
    call of the run."""

    def __init__(self, popped, *args):
        super().__init__(*args)
        self.popped = popped
        self.eager = {}
        self.fresh_pops = self.remainder_pops = 0

    def _rebuild_backup(self, state, members):
        super()._rebuild_backup(state, members)
        if self.keeps_backup:
            self.eager[state.uav.id] = (eager_backup_list(self, state,
                                                          members), True)

    def _handle_departure(self, t, state):
        calls = len(self.popped)
        super()._handle_departure(t, state)
        if len(self.popped) == calls:
            return
        [(backup, remainder)] = self.popped[calls:]
        expected, fresh = self.eager[state.uav.id]
        assert list(backup) == list(expected)
        self.eager[state.uav.id] = (remainder, False)
        if fresh:
            self.fresh_pops += 1
        else:
            self.remainder_pops += 1


# with beacons between CAM batches a list is first popped a slot after
# its rebuild, and a remainder is popped again before the next one; at
# I = 35 the rows move enough in between to reorder a geometric ranking
RANKING_CASES = {**BACKUP_CASES,
                 "beacon_interval_5": {"beacon_interval": 5.0},
                 "geometric_beacon_interval_5": {
                     "beacon_interval": 5.0, "residual_mode": "geometric",
                     "num_vehicles": 35}}


@pytest.mark.parametrize("variant", list(RANKING_CASES))
def test_backup_ranked_at_first_pop_equals_eager_ranking(variant,
                                                         monkeypatch):
    cfg = validate(dataclasses.replace(SimConfig(), seed=1,
                                       **RANKING_CASES[variant]))
    popped, sims = [], []
    real_pop = engine.pop_replacement

    def recording(backup, present):
        chosen, remainder = real_pop(backup, present)
        popped.append((backup, remainder))
        return chosen, remainder

    def tracked(*args):
        sims.append(EagerBackups(popped, *args))
        return sims[-1]

    monkeypatch.setattr(engine, "pop_replacement", recording)
    monkeypatch.setattr(engine, "Simulation", tracked)
    engine.run_block(cfg, [{s: run_seeds(1, 0, s) for s in SCHEMES}])
    keepers = [sim for sim in sims if sim.keeps_backup]
    assert keepers and all(sim.fresh_pops > 0 for sim in keepers)
    assert len(popped) == sum(sim.fresh_pops + sim.remainder_pops
                              for sim in keepers)
    if cfg.beacon_interval < cfg.cam_interval:
        assert any(sim.remainder_pops > 0 for sim in keepers)


def run_without_slots(cfg, vehicles, monkeypatch):
    """Runs cfg from the vehicles, failing if any slot is surveyed or
    stepped."""
    def no_slot(*args, **kwargs):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(engine, "step", no_slot)
    monkeypatch.setattr(engine.Traffic, "survey", no_slot)
    return run(cfg, seeds=run_seeds(1, 0, cfg.scheme),
               initial_fleet=fleet_of(vehicles))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_negative_initial_speed_is_rejected_before_any_slot(scheme,
                                                            monkeypatch):
    # every scheme keeps a backup list here, whose ranking would reject
    # the speed only at a first pop, if ever; a parked row (speed 0.0)
    # stays valid (test_static_vehicles_one_round_no_departures)
    cfg = validate(dataclasses.replace(SimConfig(), num_vehicles=2,
                                       scheme=scheme,
                                       benchmarks_use_backup=True))
    vehicles = [make_vehicle(0, 100.0, speed=0.0),
                make_vehicle(1, 500.0, speed=-1.0)]
    with pytest.raises(ValueError, match="initial_fleet: speeds"):
        run_without_slots(cfg, vehicles, monkeypatch)


@pytest.mark.parametrize("x, speed, message", [
    (math.nan, 10.0, "positions"), (math.inf, 10.0, "positions"),
    (-math.inf, 10.0, "positions"), (500.0, math.nan, "speeds"),
    (500.0, math.inf, "speeds")])
def test_non_finite_initial_fleet_is_rejected_before_any_slot(
        x, speed, message, monkeypatch):
    # unchecked, a NaN x is assigned to no UAV and fails the round with
    # a TypeError, and an inf x or a NaN or inf speed runs to the end
    cfg = validate(dataclasses.replace(SimConfig(), num_vehicles=2))
    vehicles = [make_vehicle(0, 100.0), make_vehicle(1, x, speed=speed)]
    with pytest.raises(ValueError, match=f"initial_fleet: {message}"):
        run_without_slots(cfg, vehicles, monkeypatch)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_y_is_rejected_before_any_slot(y, monkeypatch):
    # unchecked, a NaN y is assigned to no UAV and fails the round with
    # a TypeError
    cfg = validate(dataclasses.replace(SimConfig(), num_vehicles=2))
    vehicles = [make_vehicle(0, 100.0), make_vehicle(1, 500.0, y=y)]
    with pytest.raises(ValueError, match="initial_fleet: positions"):
        run_without_slots(cfg, vehicles, monkeypatch)


# the one UAV hovers over x = 500, so a parked vehicle at x = 700 on
# y = 0 is at planar distance exactly uav_coverage_radius = 200
ON_CIRCLE_X = 700.0


def test_ch_on_coverage_circle_stays_seated():
    cfg = dataclasses.replace(_single_cluster_config(), num_vehicles=1)
    vehicles = [make_vehicle(0, ON_CIRCLE_X, y=0.0, speed=0.0)]
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of(vehicles))
    assert [e.ids for e in events if e.kind == "ch_selected"] == [(0, 0)]
    assert kinds(events).count("ch_departed") == 0
    assert kinds(events).count("beacon_ok") == 6  # beacons at t=10..60


def test_member_on_coverage_circle_survives_departure_sweep():
    cfg = _single_cluster_config()
    # the CH (lowest id on a v_d tie) is parked outside coverage and
    # departs at the first beacon; the member on the circle is kept
    # through the sweep and takes over from the backup list
    vehicles = [make_vehicle(0, 750.0, y=0.0, speed=0.0),
                make_vehicle(1, ON_CIRCLE_X, y=0.0, speed=0.0)]
    events = run(cfg, seeds=run_seeds(1, 0, "proposed"),
                 initial_fleet=fleet_of(vehicles))
    at_t10 = [e for e in events if e.time == 10.0 and e.kind != "cam_batch"]
    assert [(e.kind, e.ids) for e in at_t10] == [
        ("beacon_missed", (0, 0)), ("ch_departed", (0, 0)),
        ("ch_replaced_from_backup", (0, 1))]
    later = [e for e in events if e.time > 10.0 and e.kind == "beacon_ok"]
    assert len(later) == 5


def test_same_seed_reproduces_trace():
    cfg = SimConfig()
    a = run(cfg, seeds=run_seeds(1, 0, "proposed"))
    b = run(cfg, seeds=run_seeds(1, 0, "proposed"))
    assert a == b


def test_different_runs_differ():
    cfg = SimConfig()
    a = run(cfg, seeds=run_seeds(1, 0, "proposed"))
    b = run(cfg, seeds=run_seeds(1, 1, "proposed"))
    assert a != b


def test_benchmark_schemes_share_mobility():
    cfg = SimConfig()
    traces = {}
    for scheme in ("proposed", "vmasc", "random"):
        events = run(dataclasses.replace(cfg, scheme=scheme),
                     seeds=run_seeds(1, 0, scheme))
        traces[scheme] = [(e.time, e.ids) for e in events
                          if e.kind == "vehicle_respawn"]
    assert traces["proposed"] == traces["vmasc"] == traces["random"]


def test_default_run_emits_only_known_kinds():
    from uavclust.trace import EVENT_KINDS
    events = run(SimConfig(), seeds=run_seeds(1, 0, "proposed"))
    assert set(kinds(events)) <= set(EVENT_KINDS)
    rounds = [e for e in events if e.kind == "clustering_round"]
    assert len(rounds) == 10  # 700 s / 70 s


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cam_batch_snr_matches_per_link_reference(scheme, monkeypatch):
    # the golden dense cell: fast fading is drawn, and some CAM slots
    # find a CH alone in its cluster
    cfg = validate(dataclasses.replace(SimConfig(), seed=1, scheme=scheme,
                                       total_time=140.0, **DENSE))
    with_snr, without_snr = check_snrs_against_reference(cfg, monkeypatch)
    assert with_snr > 0 and without_snr > 0


U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=40, deadline=None)
@given(prefix=U64, keys=st.lists(st.tuples(U64, U64, U64), max_size=6),
       sigma=st.floats(0.0, 20.0),
       mode=st.sampled_from(["large_scale", "instantaneous"]))
@example(prefix=7, keys=EDGE_KEYS + SLOW_KEYS[7], sigma=4.0,
         mode="instantaneous")
@example(prefix=7, keys=EDGE_KEYS + SLOW_KEYS[7], sigma=4.0,
         mode="large_scale")
@example(prefix=2**63 + 12345, keys=SLOW_KEYS[2**63 + 12345], sigma=0.0,
         mode="instantaneous")
def test_link_snrs_match_per_key_streams(prefix, keys, sigma, mode):
    # the batch sampler, fast paths and slow-path fallbacks together,
    # against one default_rng per key
    cfg = validate(dataclasses.replace(SimConfig(), shadow_std_db=sigma,
                                       snr_fading=mode))
    sim = Simulation(cfg, run_seeds(1, 0, cfg.scheme),
                     engine.Traffic(cfg, 0))
    dist = [MIN_V2V_DISTANCE + 7.25 * k for k in range(len(keys))]
    states = pcg64_states(prefix, *[[key[i] for key in keys]
                                    for i in range(3)])
    assert sim._link_snrs(states, dist) == [
        reference_key_snr(cfg, (prefix, *key), d)
        for key, d in zip(keys, dist)]


@pytest.mark.parametrize("mode", ["large_scale", "instantaneous"])
def test_link_snrs_equal_the_per_link_expression_on_many_links(mode):
    # a batch of dense-road link keys and distances, bit for bit against
    # one default_rng and one scalar SNR expression per key
    cfg = validate(dataclasses.replace(SimConfig(), snr_fading=mode))
    sim = Simulation(cfg, run_seeds(1, 0, cfg.scheme),
                     engine.Traffic(cfg, 0))
    rng = np.random.default_rng(22)
    t_ms = (10000 * rng.integers(0, 70, 3000)).tolist()
    lo, hi = np.sort(rng.integers(0, 100, (2, 3000)), axis=0).tolist()
    dist = np.maximum(MIN_V2V_DISTANCE, rng.uniform(0.0, 300.0, 3000)).tolist()
    states = pcg64_states(7, t_ms, lo, hi)
    assert sim._link_snrs(states, dist) == [
        reference_key_snr(cfg, key, d)
        for key, d in zip(zip([7] * 3000, t_ms, lo, hi), dist)]


def reference_failure(cfg, keys, dist):
    """The exception type reference_key_snr raises first over the keys,
    in order, or None."""
    for key, d in zip(keys, dist):
        try:
            reference_key_snr(cfg, key, d)
        except (OverflowError, ValueError) as exc:
            return type(exc)
    return None


def test_a_failing_link_raises_as_the_per_key_reference():
    # at 10^4 dB a draw overflows 10 ** (z / 10) or underflows it to 0;
    # batches of one to three links, so some fail by underflow alone
    cfg = validate(dataclasses.replace(SimConfig(), shadow_std_db=1e4))
    sim = Simulation(cfg, run_seeds(1, 0, cfg.scheme),
                     engine.Traffic(cfg, 0))
    raised = []
    for first in range(0, 60, 3):
        for size in (1, 3):
            keys = [(7, 10000, k, k + 1) for k in range(first, first + size)]
            dist = [MIN_V2V_DISTANCE] * size
            expected = reference_failure(cfg, keys, dist)
            states = pcg64_states(7, *[[key[i] for key in keys]
                                       for i in (1, 2, 3)])
            if expected is None:
                sim._link_snrs(states, dist)
                continue
            with pytest.raises(expected):
                sim._link_snrs(states, dist)
            raised.append((size, expected))
    assert {(1, OverflowError), (1, ValueError),
            (3, OverflowError), (3, ValueError)} <= set(raised)


def first_reference_failure(sims):
    """The exception type that reference_link_snrs raises first over the
    snapshots of sims, scheme by scheme, or None."""
    for sim in sims:
        for t, by_id, clusters in sim.snapshots:
            for ch, members in clusters.values():
                if ch is None:
                    continue
                try:
                    reference_link_snrs(sim.config, sim.seeds.fading, t,
                                        by_id[ch], [by_id[m] for m in members])
                except (OverflowError, ValueError) as exc:
                    return type(exc)
    return None


def test_degenerate_shadowing_fails_as_the_per_link_reference(monkeypatch):
    # at 10^4 dB most draws overflow 10 ** (z / 10) (OverflowError) or
    # underflow it to 0, which v2v_large_scale rejects (ValueError); the
    # first failing link in the per-link order decides which is raised
    raised = []
    for seed in range(1, 9):
        cfg = validate(dataclasses.replace(SimConfig(), seed=seed,
                                           shadow_std_db=1e4,
                                           total_time=70.0))
        sims = []

        def tracked(*args):
            sims.append(CamSnapshots(*args))
            return sims[-1]

        monkeypatch.setattr(engine, "Simulation", tracked)
        with pytest.raises((OverflowError, ValueError)) as failure:
            engine.run_block(cfg, [{s: run_seeds(seed, 0, s)
                                    for s in SCHEMES}])
        assert failure.type is first_reference_failure(sims)
        raised.append(failure.type)
    assert set(raised) == {OverflowError, ValueError}


@pytest.mark.parametrize("overrides, runs, drawn_keys, recorded_links", [
    ({}, 5, 2221, 3505), (DENSE, 1, 7307, 8038)])
def test_each_link_key_is_drawn_once(overrides, runs, drawn_keys,
                                     recorded_links, monkeypatch):
    # the schemes of a run index record many of the same links, so a
    # block seeds only its distinct keys (fading seed, t_ms, lo, hi)
    cfg = validate(dataclasses.replace(SimConfig(), seed=1, **overrides))
    sims, drawn = [], []
    real = engine.pcg64_states

    def counted(*columns):
        drawn.extend(zip(*(np.asarray(c).tolist() for c in columns)))
        return real(*columns)

    def tracked(*args):
        sims.append(CamSnapshots(*args))
        return sims[-1]

    monkeypatch.setattr(engine, "pcg64_states", counted)
    monkeypatch.setattr(engine, "Simulation", tracked)
    engine.run_block(cfg, [{s: run_seeds(1, k, s) for s in SCHEMES}
                           for k in range(runs)])
    links = [(sim.seeds.fading, int(round(t * 1000)), *sorted((ch, vid)))
             for sim in sims for t, _, clusters in sim.snapshots
             for ch, members in clusters.values()
             for vid in members if vid != ch]
    assert sorted(drawn) == sorted(set(links))
    assert (len(drawn), len(links)) == (drawn_keys, recorded_links)


# trace-body sha256 (length-prefixed, as in test_golden) of the default
# 700 s scenario at I = 100 with fast fading, seed 1, run 0; pinned
# before the neighbor table was shared within a slot.
DENSE_700S = {
    "proposed": "44f6fe3c00ba4347e92292361860b0b7adff3608e3fe4597ca8c159914b83157",
    "vmasc": "3958009c942c6b760a03455e8d6b9aa4fb60b2da866fc2d229903b0e5315cf8e",
    "random": "c97a44fdbff7d6862c47e8217a183cb169d1741aa3a9280b0eac4fb2e9391a09",
}


# neighbor tables of one 700 s run: one per round (10) when it runs the
# proposed selection, the one reader of every row's count, else none; a
# backup ranking counts only its own members' neighbors
ROUNDS = 10
NEIGHBOR_TABLES = {"proposed": ROUNDS, "vmasc": 0, "random": 0}


def run_counting_neighbor_tables(cfg, monkeypatch):
    calls = []
    real = engine.neighbor_table

    def counted(fleet, rng_range):
        calls.append(rng_range)
        return real(fleet, rng_range)

    monkeypatch.setattr(engine, "neighbor_table", counted)
    return run(cfg, seeds=run_seeds(1, 0, cfg.scheme)), len(calls)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_neighbor_table_per_event_slot(scheme, monkeypatch):
    # at most one per event slot: one per round, and only for proposed
    cfg = validate(dataclasses.replace(SimConfig(), seed=1, scheme=scheme,
                                       **DENSE))
    events, tables = run_counting_neighbor_tables(cfg, monkeypatch)
    assert tables == NEIGHBOR_TABLES[scheme]
    body = trace.format_events(events).encode()
    digest = hashlib.sha256(len(body).to_bytes(8, "big") + body).hexdigest()
    assert digest == DENSE_700S[scheme]


def test_benchmark_with_backup_list_builds_neighbor_tables(monkeypatch):
    # a backup list adds no table: its rankings count their members only
    for scheme in SCHEMES:
        cfg = validate(dataclasses.replace(
            SimConfig(), seed=1, scheme=scheme, benchmarks_use_backup=True,
            **DENSE))
        events, tables = run_counting_neighbor_tables(cfg, monkeypatch)
        assert tables == NEIGHBOR_TABLES[scheme]
        assert any(e.kind == "ch_replaced_from_backup" for e in events)


def paired_matches_separate(cfg, initial_fleet=None):
    seeds = {s: run_seeds(cfg.seed, 0, s) for s in SCHEMES}
    paired = engine.run_block(cfg, [seeds], initial_fleet)[0]
    assert list(paired) == list(SCHEMES)
    for scheme in SCHEMES:
        alone = run(dataclasses.replace(cfg, scheme=scheme),
                    seeds=seeds[scheme], initial_fleet=initial_fleet)
        assert paired[scheme] == alone
    return paired


@pytest.mark.parametrize("variant", list(GRID))
def test_paired_run_matches_separate_runs(variant):
    overrides, _ = GRID[variant]
    paired = paired_matches_separate(
        validate(dataclasses.replace(SimConfig(), seed=1, **overrides)))
    assert all(any(e.kind == "vehicle_respawn" for e in events)
               for events in paired.values())


# both directions, spread speeds: respawns, departures and backups
GIVEN_VEHICLES = [make_vehicle(i, 40.0 + 80.0 * i, y=-2.0 if i % 2 else 2.0,
                               direction=-1 if i % 2 else 1,
                               speed=11.0 + 0.5 * i)
                  for i in range(12)]


def test_paired_run_matches_separate_runs_from_given_vehicles():
    paired = paired_matches_separate(validate(SimConfig()),
                                     fleet_of(GIVEN_VEHICLES))
    assert any(e.kind == "ch_departed" for e in paired["proposed"])


def blocks_match_paired_runs(cfg, initial_fleet=None, runs=5):
    """Runs run indices 0..runs-1 in blocks of 1, 2, 3 and 5 and checks
    every run index's traces against a block of it alone."""
    plans = [{s: run_seeds(cfg.seed, k, s) for s in SCHEMES}
             for k in range(runs)]
    paired = [engine.run_block(cfg, [plan], initial_fleet)[0]
              for plan in plans]
    for size in (1, 2, 3, 5):
        blocks = [engine.run_block(cfg, plans[k:k + size], initial_fleet)
                  for k in range(0, runs, size)]
        assert [traces for block in blocks for traces in block] == paired
    return paired


@pytest.mark.parametrize("variant", list(GRID))
def test_block_matches_paired_runs(variant):
    overrides, _ = GRID[variant]
    paired = blocks_match_paired_runs(
        validate(dataclasses.replace(SimConfig(), seed=1, **overrides)))
    assert len({str(traces) for traces in paired}) == len(paired)


def test_block_matches_paired_runs_from_given_vehicles():
    paired = blocks_match_paired_runs(validate(SimConfig()),
                                      fleet_of(GIVEN_VEHICLES))
    assert all(any(e.kind == "ch_departed" for e in traces["proposed"])
               for traces in paired)


def test_block_runs_must_list_the_same_schemes():
    plans = [{s: run_seeds(1, 0, s) for s in SCHEMES},
             {s: run_seeds(1, 1, s) for s in reversed(SCHEMES)}]
    with pytest.raises(ValueError, match="same schemes"):
        engine.run_block(SimConfig(), plans)


def test_paired_run_needs_one_mobility_seed():
    seeds = {"proposed": run_seeds(1, 0, "proposed"),
             "vmasc": run_seeds(1, 1, "vmasc")}
    with pytest.raises(ValueError, match="mobility seed"):
        engine.run_block(SimConfig(), [seeds])


def test_paired_run_needs_one_fading_seed():
    # the schemes sample each shared link key once, from one stream
    seeds = {"proposed": run_seeds(1, 0, "proposed"),
             "vmasc": dataclasses.replace(run_seeds(1, 0, "vmasc"),
                                          fading=12345)}
    with pytest.raises(ValueError, match="fading seed"):
        engine.run_block(SimConfig(), [seeds])
