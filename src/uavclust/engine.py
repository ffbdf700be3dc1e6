"""Time-stepped simulation loop.

A run's vehicles are the rows of one mobility.Fleet, which init_fleet
draws from the mobility stream; a vehicle's id is its row.

Event schedule per run (_schedule): clustering rounds every
cluster_interval (assignment, CH selection, backup list rebuild), CAM
batches every cam_interval (backup rebuild, CH-member link recording),
beacon checks every beacon_interval (CH departure detection and
replacement); no other slot has a phase.  Each event slot's phases read
every fleet row's average speed, neighbor count and position, measured
once per slot (Traffic.survey); the neighbor count only when some scheme
of the run keeps a backup list, its one reader.  Between two event slots
the fleet advances in one block (mobility.step with a slot count), and
the rows respawned in each slot of it are reported at that slot's end.
A backup rebuild only records the survey it is ranked from; the list is
ranked at the first pop after the rebuild (_handle_departure), since
most lists are never popped.  The recorded CH-member links are sampled
after the last slot, each distinct link key of a run index once, in a
few numpy passes over all of their streams (_sample_cam_links).
Everything is driven by private RNG streams (mobility, scheme, and per
link sample the stream of its key (fading seed, t_ms, lo, hi)) so a
(config, seed) pair reproduces a byte-identical event trace.

run_paired, the one simulation loop, runs the schemes of one run index
in lockstep over the one Traffic they share; run() is its one-scheme
case.  Both take the run seeds explicitly.
"""
from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import channel
from .assignment import assign
from .backup import build_backup_list, pop_replacement
from .chselect import cluster_avg_speed, select_ch, select_ch_random, select_ch_vmasc
from .config import SimConfig, validate
from .mobility import (Fleet, neighbor_table, residual_path,
                       residual_path_geometric, step)
from .model import AirPoint, UavNode, left_sum
from .seeding import (RunSeeds, pcg64_state, pcg64_states, pcg64_words,
                      ziggurat_exponential, ziggurat_normal)
from .trace import SimEvent

# Distance floor for V2V links: the point-mass mobility model lets
# vehicles overlap, which would blow up the d^-eta path loss.
MIN_V2V_DISTANCE = 10.0

# Link keys sampled per batch of numpy passes: bounds the batch's
# temporaries (about 200 bytes per key) at no measurable cost.
LINK_CHUNK = 2048


def place_uavs(config: SimConfig) -> List[UavNode]:
    """Static hover points equally spaced along the road centerline."""
    spacing = config.road_length / config.num_uavs
    return [UavNode(id=j,
                    pos=AirPoint((j + 0.5) * spacing, 0.0, config.uav_altitude),
                    coverage_radius=config.uav_coverage_radius,
                    tx_power=config.uav_tx_power)
            for j in range(config.num_uavs)]


def init_fleet(config: SimConfig, rng: np.random.Generator) -> Fleet:
    """Uniform initial placement: per vehicle a lane (the first runs +x,
    the second -x), then x, then speed, one scalar draw each."""
    lanes, xs, speeds = [], [], []
    for _ in range(config.num_vehicles):
        lanes.append(int(rng.integers(0, 2)))
        xs.append(float(rng.uniform(0.0, config.road_length)))
        speeds.append(float(rng.uniform(config.v_min, config.v_max_vehicle)))
    return Fleet(xs, [config.lane_offsets[lane] for lane in lanes],
                 [1 if lane == 0 else -1 for lane in lanes], speeds)


def _outside_coverage(uav: UavNode, fleet: Fleet, i: int) -> bool:
    """Whether fleet row i is beyond the UAV's planar coverage radius;
    a vehicle exactly on the circle is covered."""
    return math.hypot(uav.pos.x - fleet.x.item(i),
                      uav.pos.y - fleet.y.item(i)) > uav.coverage_radius


@dataclass
class _ClusterState:
    uav: UavNode
    ch: Optional[int] = None
    ch_respawned: bool = False
    tenure: int = 0
    # a keeper's backup list: the inputs of its last rebuild until the
    # first pop after it ranks them, then the ranked remainder
    ranking: Optional[tuple] = None
    backup: Optional[np.ndarray] = None


class Traffic:
    """What the schemes of one run index share: UAVs and fleet, and what
    survey measured at the current event slot: every row's average
    speed, its neighbor count if asked for, at a round the UAV
    assignment, and the slot's position array, held by reference.
    Survey and step replace these arrays and never write them, so a
    backup ranking may hold them until it runs.  A given initial_fleet
    is copied, never stepped, and must hold finite positions and speeds
    in [0, inf)."""

    def __init__(self, config: SimConfig, mobility_seed: int,
                 initial_fleet: Optional[Fleet] = None):
        if initial_fleet is not None and not np.isfinite(initial_fleet.x).all():
            raise ValueError("initial_fleet: positions must be finite")
        if initial_fleet is not None and not np.all(
                (0.0 <= initial_fleet.speed) & (initial_fleet.speed < math.inf)):
            raise ValueError("initial_fleet: speeds must be in [0, inf)")
        self.config = config
        self.rng = np.random.default_rng(mobility_seed)
        self.uavs = place_uavs(config)
        self.fleet = (init_fleet(config, self.rng) if initial_fleet is None
                      else copy.deepcopy(initial_fleet))
        self.avg_speed = self.nbr_count = self.assignment = self.x = None

    def survey(self, with_neighbors: bool, with_assignment: bool) -> None:
        """Measure the fleet at an event slot, before its phases run."""
        cfg = self.config
        self.x = self.fleet.x
        self.avg_speed = self.fleet.avg_speeds(cfg.avg_window)
        if with_neighbors:
            self.nbr_count = neighbor_table(self.fleet, cfg.neighbor_range)
        if with_assignment:
            self.assignment = assign(self.fleet, self.uavs, cfg.ref_gain,
                                     cfg.noise_power)


class Simulation:
    """One scheme's run over a Traffic that the other schemes of its run
    index may share; run_paired drives it.

    member_of holds each fleet row's cluster: its UAV id, or -1.  A
    vehicle's id is its fleet row, so a cluster's members, read from
    the column, come in ascending id order.  Between
    phases a cluster has a CH exactly when it has members: a round or a
    departure that leaves members seats one, and a respawn removes only
    non-CH members.  A respawned CH stays seated, marked ch_respawned,
    until the next beacon check reports it or a new CH is seated.
    """

    def __init__(self, config: SimConfig, seeds: RunSeeds, traffic: Traffic):
        self.config = validate(config)
        self.seeds = seeds
        self.traffic = traffic
        self.fleet, self.uavs = self.traffic.fleet, self.traffic.uavs
        self.scheme_rng = np.random.default_rng(self.seeds.scheme)
        # whether this scheme keeps a backup list; exactly then its
        # phases read the neighbor counts (_features)
        self.keeps_backup = (config.scheme == "proposed"
                             or config.benchmarks_use_backup)
        self._link_gen = np.random.Generator(np.random.PCG64(0))
        self.clusters: Dict[int, _ClusterState] = {
            u.id: _ClusterState(uav=u) for u in self.uavs}
        self.member_of = np.full(len(self.fleet.x), -1, dtype=np.int64)
        self.events: List[SimEvent] = []
        self.round_index = 0
        # per cam_batch with CH-member links: (payload, t_ms, CH, the
        # other members, their distances to the CH)
        self._cam_links: List[Tuple[dict, int, int, np.ndarray,
                                    np.ndarray]] = []

    # -- helpers ---------------------------------------------------------

    def _link_rng(self, state: int, inc: int) -> np.random.Generator:
        """Fading stream for one link at one time: the run's one link
        generator, set to the PCG64 state ``(state, inc)`` that
        ``np.random.default_rng((fading seed, t_ms, lo, hi))`` starts
        from (see pcg64_states).  Only links whose draws leave the
        ziggurat fast path read it (_link_snrs).

        Keyed by (fading seed, time, endpoints) so schemes sharing a
        fading seed see identical draws for identical link samples:
        the common-random-numbers side of the paired-seed design.
        """
        self._link_gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return self._link_gen

    def _members(self, state: _ClusterState) -> np.ndarray:
        return (self.member_of == state.uav.id).nonzero()[0]

    def _features(self, uav: UavNode, members: np.ndarray, avg_speed,
                  nbr_count, x):
        """(v_d, neighbor count, residual path) of each member, from
        one event slot's survey (Traffic): the inputs of the proposed
        selection and of the backup ranking.  A row keeps its y and dir
        for the whole run, so they are read from the fleet."""
        cfg, fleet = self.config, self.fleet
        speed = avg_speed[members]
        v_d = np.abs(speed - cluster_avg_speed(speed))
        if cfg.residual_mode == "geometric":
            residual = residual_path_geometric(
                uav.pos, x[members], fleet.y[members], fleet.dir[members],
                speed, cfg.cluster_interval, uav.coverage_radius)
        else:
            residual = residual_path(uav.coverage_radius, speed,
                                     cfg.cluster_interval)
        return v_d, nbr_count[members], residual

    def _select_for_scheme(self, state: _ClusterState, members: np.ndarray):
        """Run the configured selector; returns (chosen id, degraded)."""
        cfg, traffic = self.config, self.traffic
        if cfg.scheme == "proposed":
            return select_ch(members, *self._features(
                state.uav, members, traffic.avg_speed, traffic.nbr_count,
                traffic.x), cfg.eps_distance, cfg.eps_neighbors)
        if cfg.scheme == "vmasc":
            return select_ch_vmasc(members, traffic.avg_speed[members]), False
        return select_ch_random(members, self.scheme_rng), False

    def _rebuild_backup(self, state: _ClusterState,
                        members: np.ndarray) -> None:
        """Record what the backup list of the members around the current
        CH is ranked from; _handle_departure ranks it at the first pop
        after this rebuild, since most lists are never popped."""
        if self.keeps_backup:
            state.ranking = (members, state.ch, self.traffic.avg_speed,
                             self.traffic.nbr_count, self.traffic.x)
            state.backup = None

    def _rank_backup(self, uav: UavNode, members: np.ndarray, ch: int,
                     *survey) -> np.ndarray:
        """The backup list of members around CH ch, best first, from
        one event slot's survey (_features)."""
        cfg = self.config
        others = members != ch
        v_d, nbr_count, residual = self._features(uav, members, *survey)
        return build_backup_list(
            members[others], v_d[others], nbr_count[others], residual[others],
            (cfg.weight_speed, cfg.weight_neighbors, cfg.weight_path),
            raw_scores=cfg.backup_raw_scores)

    def _seat_ch(self, state: _ClusterState, vid: int) -> None:
        state.ch = vid
        state.ch_respawned = False
        state.tenure += 1

    # -- scheduled phases ------------------------------------------------

    def _clustering_round(self, t: float) -> None:
        cfg = self.config
        self.member_of = self.traffic.assignment.copy()
        self.events.append(SimEvent(t, "clustering_round",
                                    payload={"round": self.round_index}))
        self.round_index += 1
        for state in self.clusters.values():
            state.ch = None
            members = self._members(state)
            if not len(members):
                continue
            chosen, degraded = self._select_for_scheme(state, members)
            self._seat_ch(state, chosen)
            self.events.append(SimEvent(t, "ch_selected",
                                        ids=(state.uav.id, chosen),
                                        payload={"scheme": cfg.scheme,
                                                 "degraded": degraded}))
            self._rebuild_backup(state, members)

    def _cam_batch(self, t: float) -> None:
        """CAM round: rebuild backups and record each CH-member link.

        The links' SNR is sampled after the run (_sample_cam_links); it
        never feeds back into the simulation.
        """
        t_ms = int(round(t * 1000))
        fleet = self.fleet
        for state in self.clusters.values():
            u = state.uav
            members = self._members(state)
            if not len(members):
                continue
            self._rebuild_backup(state, members)
            ch = state.ch
            payload = {"members": len(members), "tenure": state.tenure}
            others = members[members != ch]
            if len(others):
                ch_x, ch_y = fleet.x.item(ch), fleet.y.item(ch)
                dist = np.array([
                    max(MIN_V2V_DISTANCE, math.hypot(ch_x - x, ch_y - y))
                    for x, y in zip(fleet.x[others].tolist(),
                                    fleet.y[others].tolist())])
                self._cam_links.append((payload, t_ms, ch, others, dist))
            self.events.append(SimEvent(t, "cam_batch",
                                        ids=(u.id, ch), payload=payload))

    def _link_snrs(self, states: np.ndarray,
                   dist: List[float]) -> List[float]:
        """SNR of each link, in link order: its stream starts from its
        column of states (pcg64_states), its distance is in dist.

        A link's stream draws its shadowing from its first output word
        and its fast fading from the second.  Where numpy's ziggurat
        takes a word on its fast path, the draws of all links are made
        at once (seeding.ziggurat_normal, ziggurat_exponential); the few
        links with a slow-path draw take theirs from their own stream
        (_link_rng).  Every link then takes the one SNR expression.
        """
        cfg = self.config
        first, second = pcg64_words(states, 2)
        z, fast = ziggurat_normal(first)
        z = 0.0 + cfg.shadow_std_db * z  # Generator.normal(0.0, std)
        if cfg.snr_fading == "instantaneous":
            fading, fast_fading = ziggurat_exponential(second)
            fast &= fast_fading
        else:
            fading = np.ones(len(z))  # 1.0 * gain is exactly gain
        for k in np.flatnonzero(~fast).tolist():
            link_rng = self._link_rng(*pcg64_state(states, k))
            z[k] = link_rng.normal(0.0, cfg.shadow_std_db)
            if cfg.snr_fading == "instantaneous":
                fading[k] = link_rng.exponential(1.0)
        p, noise = cfg.vehicle_tx_power, cfg.noise_power
        loss, eta = cfg.v2v_loss_const, cfg.v2v_loss_exp
        large_scale = channel.v2v_large_scale
        # channel.sample_shadowing, v2v_gain and v2v_snr's float math; the
        # powers stay scalar (np.power differs from ** in last bits).  No
        # draw can fail, so v2v_large_scale's checks fail in link order.
        return [p * (f * large_scale(d, 10.0 ** (x / 10.0), loss, eta)) / noise
                for x, f, d in zip(z.tolist(), fading.tolist(), dist)]

    def _beacon_check(self, t: float) -> None:
        fleet = self.fleet
        for state in self.clusters.values():
            u, i = state.uav, state.ch
            if i is None:
                continue
            reason = None
            if state.ch_respawned:
                reason = "respawn"
            elif _outside_coverage(u, fleet, i):
                reason = "coverage"
            if reason is None:
                self.events.append(SimEvent(t, "beacon_ok", ids=(u.id, i)))
                continue
            self.events.append(SimEvent(t, "beacon_missed", ids=(u.id, i)))
            self.events.append(SimEvent(t, "ch_departed", ids=(u.id, i),
                                        payload={"reason": reason}))
            self._handle_departure(t, state)

    def _handle_departure(self, t: float, state: _ClusterState) -> None:
        """Replace a departed CH from the backup list, or rerun the
        scheme's selector.

        The backup procedure starts by checking the collected CAMs for
        members that drifted out of coverage and drops them; the
        benchmark selectors have no such step and may seat a stale
        member, which then departs at the next beacon.

        A backup keeper's list never runs dry while its cluster has
        members: between rounds, every non-CH member is on the backup
        list, because each rebuild lists all of them and membership
        only shrinks until the next round.
        """
        u, fleet = state.uav, self.fleet
        self.member_of[state.ch] = -1
        state.ch = None
        members = self._members(state)
        if self.keeps_backup:
            gone = np.array([_outside_coverage(u, fleet, m)
                             for m in members.tolist()], dtype=bool)
            self.member_of[members[gone]] = -1
            members = members[~gone]
        if not len(members):
            return
        if self.keeps_backup:
            if state.backup is None:
                state.backup = self._rank_backup(u, *state.ranking)
            chosen, state.backup = pop_replacement(
                state.backup, self.member_of[state.backup] == u.id)
            kind, payload = "ch_replaced_from_backup", {}
        else:
            chosen, degraded = self._select_for_scheme(state, members)
            kind, payload = "ch_reselected_full", {"degraded": degraded}
        self._seat_ch(state, chosen)
        payload["tenure"] = state.tenure
        self.events.append(SimEvent(t, kind, ids=(u.id, chosen),
                                    payload=payload))

    # -- main loop -------------------------------------------------------

    def _respawn(self, t: float, respawned: List[int]) -> None:
        seated = {state.ch: state for state in self.clusters.values()}
        for vid in respawned:
            self.events.append(SimEvent(t, "vehicle_respawn", ids=(vid,)))
            # a respawn is a new vehicle: it leaves its old cluster.  A
            # respawned CH stays seated until the beacon check reports
            # the mark.
            if vid in seated:
                seated[vid].ch_respawned = True
            else:
                self.member_of[vid] = -1


def _schedule(config: SimConfig) -> List[Tuple[int, int, bool, bool, bool]]:
    """(slot, slots to the next event slot or the end, is_round, is_cam,
    is_beacon) of every event slot, in slot order: rounds every
    cluster_interval from slot 0, and off the rounds, CAM batches every
    cam_interval and beacon checks every beacon_interval."""
    dt, n = config.slot_duration, config.num_slots
    k_cluster, k_cam, k_beacon = (int(round(interval / dt)) for interval in (
        config.cluster_interval, config.cam_interval, config.beacon_interval))
    slots = sorted({*range(0, n, k_cluster), *range(0, n, k_cam),
                    *range(k_beacon, n, k_beacon)})
    return [(k, end - k, k % k_cluster == 0,
             k % k_cluster != 0 and k % k_cam == 0,
             k % k_cluster != 0 and k % k_beacon == 0)
            for k, end in zip(slots, slots[1:] + [n])]


def run_paired(config: SimConfig, seeds: Dict[str, RunSeeds],
               initial_fleet: Optional[Fleet] = None
               ) -> Dict[str, List[SimEvent]]:
    """Each scheme's event trace from one lockstep run over one Traffic;
    seeds maps the schemes to run seeds with one mobility and one fading
    seed (seeding.run_seeds of one run index).  An event slot's
    phases read the fleet before it steps, so each scheme sees the slots
    a run of its own would.  Between two event slots the fleet steps in
    one block, and each slot of it that respawned rows is reported at
    that slot's end."""
    shared = {(s.mobility, s.fading) for s in seeds.values()}
    if len(shared) != 1:
        raise ValueError("run_paired: the schemes must share one mobility "
                         "seed and one fading seed")
    cfg = validate(config)
    traffic = Traffic(cfg, shared.pop()[0], initial_fleet)
    sims = [Simulation(replace(cfg, scheme=scheme), s, traffic)
            for scheme, s in seeds.items()]
    dt = cfg.slot_duration
    speed_range = (cfg.v_min, cfg.v_max_vehicle)
    with_neighbors = any(sim.keeps_backup for sim in sims)
    for k, slots, is_round, is_cam, is_beacon in _schedule(cfg):
        t = k * dt
        traffic.survey(with_neighbors, with_assignment=is_round)
        for sim in sims:
            if is_round:
                sim._clustering_round(t)
            elif is_cam:
                sim._cam_batch(t)
            if is_beacon:
                sim._beacon_check(t)
        for slot, respawned in step(traffic.fleet, cfg.road_length, dt,
                                    traffic.rng, speed_range, slots):
            for sim in sims:
                sim._respawn((k + slot) * dt + dt, respawned)
    _sample_cam_links(sims)
    return {scheme: sim.events for scheme, sim in zip(seeds, sims)}


def _sample_cam_links(sims: List[Simulation]) -> None:
    """Set each recorded cam_batch payload's "snr" to the mean SNR of
    its CH-member links, in member order.

    The schemes of a run index share the fleet and the fading seed, so
    a link key (t_ms, lo, hi) has one distance and one stream in every
    scheme that records it.  Each distinct key is sampled once, in the
    order keys were first recorded (scheme by scheme, as if each scheme
    sampled its own), LINK_CHUNK keys per batch of numpy passes.
    """
    batches = [batch for sim in sims for batch in sim._cam_links]
    if not batches:
        return
    payloads, t_ms, ch, others, dist = zip(*batches)
    counts = [len(o) for o in others]
    key_number, t_ms, lo, hi, dist = _distinct_links(
        np.repeat(t_ms, counts), np.repeat(ch, counts),
        np.concatenate(others), np.concatenate(dist), len(sims[0].fleet.x))
    snrs = np.empty(len(dist))
    for start in range(0, len(dist), LINK_CHUNK):
        part = slice(start, start + LINK_CHUNK)
        states = pcg64_states(sims[0].seeds.fading, t_ms[part], lo[part],
                              hi[part])
        snrs[part] = sims[0]._link_snrs(states, dist[part].tolist())
    snrs = snrs[key_number].tolist()
    for payload, end, count in zip(payloads, itertools.accumulate(counts),
                                   counts):
        payload["snr"] = left_sum(snrs[end - count:end]) / count


def _distinct_links(t_ms, ch, others, dist, n: int):
    """The distinct link keys (t_ms, lo, hi) among the links given by
    their time, CH, member and distance, numbered in first-recorded
    order: each link's key number, then each key's t_ms, lo, hi and
    distance (the same for every link of a key)."""
    lo, hi = np.minimum(ch, others), np.maximum(ch, others)
    dims = (t_ms.max() + 1, n, n)
    number: Dict[int, int] = {}
    key_number = np.fromiter(
        (number.setdefault(k, len(number))
         for k in np.ravel_multi_index((t_ms, lo, hi), dims).tolist()),
        dtype=np.intp, count=len(t_ms))
    keys = np.fromiter(number, dtype=np.int64, count=len(number))
    key_dist = np.empty(len(keys))
    key_dist[key_number] = dist
    return (key_number, *np.unravel_index(keys, dims), key_dist)


def run(config: SimConfig, seeds: RunSeeds,
        initial_fleet: Optional[Fleet] = None) -> List[SimEvent]:
    """Execute one run and return its complete event trace."""
    return run_paired(config, {config.scheme: seeds},
                      initial_fleet)[config.scheme]
