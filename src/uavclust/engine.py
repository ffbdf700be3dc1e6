"""Time-stepped simulation loop.

A run's vehicles are the rows of one mobility.Fleet, which init_fleet
draws from the mobility stream; a vehicle's id is its row.

Slot schedule per run: clustering rounds every cluster_interval
(assignment, CH selection, backup list build), CAM batches every
cam_interval (backup rebuild, CH-member link recording), beacon checks
every beacon_interval (CH departure detection and replacement).  Each
event slot's phases read every fleet row's average speed and neighbor
count, measured once per slot (Traffic.survey); the neighbor count only
when some scheme of the run keeps a backup list, its one reader.  The
recorded CH-member links are sampled after the last slot.  Everything
is driven by private RNG streams (mobility, scheme, and one fading
stream per link sample) so a (config, seed) pair reproduces a
byte-identical event trace.

run_paired, the one simulation loop, runs the schemes of one run index
in lockstep over the one Traffic they share; run() is its one-scheme
case.  Both take the run seeds explicitly.
"""
from __future__ import annotations

import copy
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
from .seeding import RunSeeds, pcg64_states
from .trace import SimEvent

# Distance floor for V2V links: the point-mass mobility model lets
# vehicles overlap, which would blow up the d^-eta path loss.
MIN_V2V_DISTANCE = 10.0


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
    backup: Optional[np.ndarray] = None  # a keeper's, set with its CH


class Traffic:
    """What the schemes of one run index share: UAVs and fleet, and what
    survey measured at the current event slot: every row's average
    speed, its neighbor count if asked for, and at a round the UAV
    assignment.  A given initial_fleet is copied, never stepped."""

    def __init__(self, config: SimConfig, mobility_seed: int,
                 initial_fleet: Optional[Fleet] = None):
        self.config = config
        self.rng = np.random.default_rng(mobility_seed)
        self.uavs = place_uavs(config)
        self.fleet = (init_fleet(config, self.rng) if initial_fleet is None
                      else copy.deepcopy(initial_fleet))
        self.avg_speed = self.nbr_count = self.assignment = None

    def survey(self, with_neighbors: bool, with_assignment: bool) -> None:
        """Measure the fleet at an event slot, before its phases run."""
        cfg = self.config
        self.avg_speed = self.fleet.avg_speeds(cfg.avg_window)
        if with_neighbors:
            self.nbr_count = neighbor_table(self.fleet, cfg.neighbor_range)
        if with_assignment:
            self.assignment = assign(self.fleet, self.uavs, cfg.ref_gain,
                                     cfg.noise_power)

    def step(self) -> List[int]:
        """Advance the fleet one slot; returns the respawned rows."""
        cfg = self.config
        return step(self.fleet, cfg.road_length, cfg.slot_duration, self.rng,
                    (cfg.v_min, cfg.v_max_vehicle))


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
        # per CH-member cam_batch: (payload, [(t_ms, lo, hi, distance)])
        self._cam_links: List[Tuple[dict, List[Tuple[int, int, int, float]]]] = []

    # -- helpers ---------------------------------------------------------

    def _link_rng(self, state: int, inc: int) -> np.random.Generator:
        """Fading stream for one link at one time: the run's one link
        generator, set to the PCG64 state ``(state, inc)`` that
        ``np.random.default_rng((fading seed, t_ms, lo, hi))`` starts
        from (see pcg64_states).

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

    def _features(self, state: _ClusterState, members: np.ndarray):
        """(v_d, neighbor count, residual path) of each member: the
        inputs of the proposed selection and of the backup ranking."""
        cfg, fleet, uav = self.config, self.fleet, state.uav
        speed = self.traffic.avg_speed[members]
        v_d = np.abs(speed - cluster_avg_speed(speed))
        if cfg.residual_mode == "geometric":
            residual = residual_path_geometric(
                uav.pos, fleet.x[members], fleet.y[members],
                fleet.dir[members], speed, cfg.cluster_interval,
                uav.coverage_radius)
        else:
            residual = residual_path(uav.coverage_radius, speed,
                                     cfg.cluster_interval)
        return v_d, self.traffic.nbr_count[members], residual

    def _select_for_scheme(self, state: _ClusterState, members: np.ndarray):
        """Run the configured selector; returns (chosen id, degraded)."""
        cfg = self.config
        if cfg.scheme == "proposed":
            return select_ch(members, *self._features(state, members),
                             cfg.eps_distance, cfg.eps_neighbors)
        if cfg.scheme == "vmasc":
            return select_ch_vmasc(members,
                                   self.traffic.avg_speed[members]), False
        return select_ch_random(members, self.scheme_rng), False

    def _rebuild_backup(self, state: _ClusterState,
                        members: np.ndarray) -> None:
        if not self.keeps_backup:
            return
        cfg = self.config
        others = members != state.ch
        v_d, nbr_count, residual = self._features(state, members)
        state.backup = build_backup_list(
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
            ch_x, ch_y = fleet.x.item(ch), fleet.y.item(ch)
            links = []
            for vid, x, y in zip(members.tolist(), fleet.x[members].tolist(),
                                 fleet.y[members].tolist()):
                if vid == ch:
                    continue
                d = max(MIN_V2V_DISTANCE, math.hypot(ch_x - x, ch_y - y))
                links.append((t_ms, min(ch, vid), max(ch, vid), d))
            payload = {"members": len(members), "tenure": state.tenure}
            if links:
                self._cam_links.append((payload, links))
            self.events.append(SimEvent(t, "cam_batch",
                                        ids=(u.id, ch), payload=payload))

    def _sample_cam_links(self) -> None:
        """Set each recorded cam_batch payload's "snr" to the mean SNR
        of its CH-member links, in member order.

        All link streams of the run are seeded in one batch: one
        default_rng per link would cost several times the draws.
        """
        cfg = self.config
        keys = np.fromiter((k for _, links in self._cam_links
                            for link in links for k in link[:3]),
                           dtype=np.uint64)
        t_ms, lo, hi = keys.reshape(-1, 3).T
        states = pcg64_states(self.seeds.fading, t_ms, lo, hi)
        for payload, links in self._cam_links:
            snrs = []
            for *_, d in links:
                link_rng = self._link_rng(*next(states))
                shadow = channel.sample_shadowing(link_rng,
                                                  cfg.shadow_std_db)
                gain = channel.v2v_large_scale(d, shadow, cfg.v2v_loss_const,
                                               cfg.v2v_loss_exp)
                if cfg.snr_fading == "instantaneous":
                    gain = channel.v2v_gain(
                        gain, channel.sample_fast_fading(link_rng))
                snrs.append(channel.v2v_snr(cfg.vehicle_tx_power, gain,
                                            cfg.noise_power))
            payload["snr"] = left_sum(snrs) / len(snrs)

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
        if self.keeps_backup:
            gone = [m for m in self._members(state).tolist()
                    if _outside_coverage(u, fleet, m)]
            self.member_of[gone] = -1
        members = self._members(state)
        if not len(members):
            return
        if self.keeps_backup:
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
        for vid in respawned:
            self.events.append(SimEvent(t, "vehicle_respawn", ids=(vid,)))
            # a respawn is a new vehicle: it leaves its old cluster.  A
            # respawned CH stays seated until the beacon check reports
            # the mark.
            for state in self.clusters.values():
                if state.ch == vid:
                    state.ch_respawned = True
                    break
            else:
                self.member_of[vid] = -1


def run_paired(config: SimConfig, seeds: Dict[str, RunSeeds],
               initial_fleet: Optional[Fleet] = None
               ) -> Dict[str, List[SimEvent]]:
    """Each scheme's event trace from one lockstep run over one Traffic;
    seeds maps the schemes to run seeds with one mobility seed.  A slot's
    phases read the fleet before it steps, so each scheme sees the slots
    a run of its own would."""
    mobility = {s.mobility for s in seeds.values()}
    if len(mobility) != 1:
        raise ValueError("run_paired: the schemes must share one mobility seed")
    cfg = validate(config)
    traffic = Traffic(cfg, mobility.pop(), initial_fleet)
    sims = [Simulation(replace(cfg, scheme=scheme), s, traffic)
            for scheme, s in seeds.items()]
    dt = cfg.slot_duration
    k_cluster = int(round(cfg.cluster_interval / dt))
    k_cam = int(round(cfg.cam_interval / dt))
    k_beacon = int(round(cfg.beacon_interval / dt))
    with_neighbors = any(sim.keeps_backup for sim in sims)
    for k in range(cfg.num_slots):
        t = k * dt
        is_round = k % k_cluster == 0
        is_cam = not is_round and k % k_cam == 0
        is_beacon = k > 0 and not is_round and k % k_beacon == 0
        if is_round or is_cam or is_beacon:
            traffic.survey(with_neighbors, with_assignment=is_round)
        for sim in sims:
            if is_round:
                sim._clustering_round(t)
            elif is_cam:
                sim._cam_batch(t)
            if is_beacon:
                sim._beacon_check(t)
        respawned = traffic.step()
        for sim in sims:
            sim._respawn(t + dt, respawned)
    for sim in sims:
        sim._sample_cam_links()
    return {scheme: sim.events for scheme, sim in zip(seeds, sims)}


def run(config: SimConfig, seeds: RunSeeds,
        initial_fleet: Optional[Fleet] = None) -> List[SimEvent]:
    """Execute one run and return its complete event trace."""
    return run_paired(config, {config.scheme: seeds},
                      initial_fleet)[config.scheme]
