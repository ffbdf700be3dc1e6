"""Time-stepped simulation loop.

Slot schedule per run: clustering rounds every cluster_interval
(assignment, CH selection, backup list build), CAM batches every
cam_interval (fresh averages, neighbor sets, backup rebuild, CH-member
link recording), beacon checks every beacon_interval (CH departure
detection and replacement).  The recorded CH-member links are sampled
after the last slot.  Everything is driven by private RNG streams
(mobility, scheme, and one fading stream per link sample) so a
(config, seed) pair reproduces a byte-identical event trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import channel
from .assignment import assign
from .backup import BackupCandidate, BackupEntry, build_backup_list, pop_replacement
from .chselect import cluster_avg_speed, select_ch, select_ch_random, select_ch_vmasc
from .config import SimConfig, validate
from .mobility import (Fleet, RoadModel, avg_speed, neighbor_table,
                       residual_path, residual_path_geometric, step)
from .model import AirPoint, Cam, RoadPoint, UavNode, Vehicle
from .seeding import RunSeeds, pcg64_states, run_seeds
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


def init_vehicles(config: SimConfig, road: RoadModel,
                  rng: np.random.Generator) -> List[Vehicle]:
    """Uniform initial placement, lane chosen per vehicle."""
    vehicles = []
    for i in range(config.num_vehicles):
        lane = int(rng.integers(0, 2))
        x = float(rng.uniform(0.0, road.length))
        speed = float(rng.uniform(config.v_min, config.v_max_vehicle))
        vehicles.append(Vehicle(id=i,
                                pos=RoadPoint(x, road.lane_offsets[lane]),
                                dir=road.lane_dir(lane),
                                speed=speed,
                                speed_history=(speed,)))
    return vehicles


@dataclass
class _ClusterState:
    uav: UavNode
    members: Set[int] = field(default_factory=set)
    ch: Optional[int] = None
    ch_generation: int = 0
    tenure: int = 0
    backup: List[BackupEntry] = field(default_factory=list)


class Simulation:
    """One deterministic run; use run() for the one-shot entry point."""

    def __init__(self, config: SimConfig, seeds: Optional[RunSeeds] = None,
                 initial_vehicles: Optional[Sequence[Vehicle]] = None):
        self.config = validate(config)
        self.seeds = seeds or run_seeds(config.seed, 0, config.scheme)
        self.mobility_rng, self.scheme_rng = self.seeds.rngs()
        self.fading_seed = self.seeds.fading
        self._link_gen = np.random.Generator(np.random.PCG64(0))
        self.road = RoadModel(config.road_length, tuple(config.lane_offsets))
        self.uavs = place_uavs(config)
        if initial_vehicles is None:
            initial_vehicles = init_vehicles(config, self.road,
                                             self.mobility_rng)
        self.fleet = Fleet(initial_vehicles)
        self.clusters: Dict[int, _ClusterState] = {
            u.id: _ClusterState(uav=u) for u in self.uavs}
        self.events: List[SimEvent] = []
        self.round_index = 0
        # this slot's neighbor table, built on first use, dropped by step
        self._nbrs: Optional[Dict[int, FrozenSet[int]]] = None
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

    def _neighbors(self) -> Dict[int, FrozenSet[int]]:
        if self._nbrs is None:
            self._nbrs = neighbor_table(self.fleet, self.config.neighbor_range)
        return self._nbrs

    def _build_cams(self, member_ids: Sequence[int], cluster_id: int,
                    by_id: Dict[int, Vehicle],
                    nbr_table: Dict[int, Set[int]]) -> List[Cam]:
        cams = []
        state = self.clusters.get(cluster_id)
        ch = state.ch if state else None
        for vid in sorted(member_ids):
            v = by_id[vid]
            cams.append(Cam(vehicle_id=vid, cluster_id=cluster_id,
                            is_ch=(vid == ch), pos=v.pos, dir=v.dir,
                            speed=v.speed,
                            avg_speed=avg_speed(v.speed_history, self.config.avg_window),
                            neighbors=frozenset(nbr_table[vid])))
        return cams

    def _residual_fn(self, uav: UavNode):
        cfg = self.config
        horizon = cfg.cluster_interval
        if cfg.residual_mode == "geometric":
            return lambda cam: residual_path_geometric(
                uav.pos, cam.pos, cam.dir, cam.avg_speed, horizon,
                uav.coverage_radius)
        return lambda cam: residual_path(uav.coverage_radius, cam.avg_speed,
                                         horizon)

    def _uses_backup(self) -> bool:
        return (self.config.scheme == "proposed"
                or self.config.benchmarks_use_backup)

    def _select_for_scheme(self, cams: List[Cam], state: _ClusterState):
        """Run the configured selector; returns (chosen id, degraded)."""
        cfg = self.config
        if cfg.scheme == "proposed":
            v_cl = cluster_avg_speed([c.avg_speed for c in cams])
            decision = select_ch(cams, v_cl, state.uav.coverage_radius,
                                 cfg.cluster_interval, cfg.eps_distance,
                                 cfg.eps_neighbors,
                                 residual_fn=self._residual_fn(state.uav))
            return decision.chosen, decision.degraded
        if cfg.scheme == "vmasc":
            return select_ch_vmasc(cams), False
        return select_ch_random([c.vehicle_id for c in cams],
                                self.scheme_rng), False

    def _rebuild_backup(self, cams: List[Cam], state: _ClusterState) -> None:
        if not self._uses_backup() or state.ch is None:
            state.backup = []
            return
        cfg = self.config
        v_cl = cluster_avg_speed([c.avg_speed for c in cams])
        residual = self._residual_fn(state.uav)
        candidates = [BackupCandidate(vehicle=c.vehicle_id,
                                      v_d=abs(c.avg_speed - v_cl),
                                      neighbor_count=len(c.neighbors),
                                      residual=residual(c))
                      for c in cams if c.vehicle_id != state.ch]
        state.backup = build_backup_list(
            candidates,
            (cfg.weight_speed, cfg.weight_neighbors, cfg.weight_path),
            raw_scores=cfg.backup_raw_scores)

    def _seat_ch(self, state: _ClusterState, vid: int,
                 by_id: Dict[int, Vehicle]) -> None:
        state.ch = vid
        state.ch_generation = by_id[vid].generation
        state.tenure += 1

    # -- scheduled phases ------------------------------------------------

    def _clustering_round(self, t: float, by_id: Dict[int, Vehicle]) -> None:
        cfg = self.config
        matrix = assign(list(by_id.values()), self.uavs, cfg.ref_gain,
                        cfg.noise_power)
        self.events.append(SimEvent(t, "clustering_round",
                                    payload={"round": self.round_index}))
        self.round_index += 1
        for u in sorted(self.uavs, key=lambda n: n.id):
            state = self.clusters[u.id]
            members = matrix.members_of(u.id)
            state.members = set(members)
            state.ch = None
            state.backup = []
            if not members:
                continue
            cams = self._build_cams(members, u.id, by_id, self._neighbors())
            chosen, degraded = self._select_for_scheme(cams, state)
            self._seat_ch(state, chosen, by_id)
            self.events.append(SimEvent(t, "ch_selected", ids=(u.id, chosen),
                                        payload={"scheme": cfg.scheme,
                                                 "degraded": degraded}))
            self._rebuild_backup(cams, state)

    def _cam_batch(self, t: float, by_id: Dict[int, Vehicle]) -> None:
        """CAM round: rebuild backups and record each CH-member link.

        The links' SNR is sampled after the run (_sample_cam_links); it
        never feeds back into the simulation.
        """
        t_ms = int(round(t * 1000))
        for u in sorted(self.uavs, key=lambda n: n.id):
            state = self.clusters[u.id]
            if not state.members:
                continue
            cams = self._build_cams(sorted(state.members), u.id, by_id,
                                    self._neighbors())
            self._rebuild_backup(cams, state)
            if state.ch is None:
                self.events.append(SimEvent(t, "cam_batch", ids=(u.id,),
                                            payload={"members": len(cams)}))
                continue
            ch_vehicle = by_id[state.ch]
            links = []
            for cam in cams:
                if cam.vehicle_id == state.ch:
                    continue
                d = max(MIN_V2V_DISTANCE,
                        math.hypot(ch_vehicle.pos.x - cam.pos.x,
                                   ch_vehicle.pos.y - cam.pos.y))
                lo, hi = sorted((state.ch, cam.vehicle_id))
                links.append((t_ms, lo, hi, d))
            payload = {"members": len(cams), "tenure": state.tenure}
            if links:
                self._cam_links.append((payload, links))
            self.events.append(SimEvent(t, "cam_batch",
                                        ids=(u.id, state.ch), payload=payload))

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
        states = pcg64_states(self.fading_seed, t_ms, lo, hi)
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
            payload["snr"] = sum(snrs) / len(snrs)

    def _beacon_check(self, t: float, by_id: Dict[int, Vehicle]) -> None:
        for u in sorted(self.uavs, key=lambda n: n.id):
            state = self.clusters[u.id]
            if state.ch is None:
                continue
            ch_vehicle = by_id[state.ch]
            reason = None
            if ch_vehicle.generation != state.ch_generation:
                reason = "respawn"
            elif u.pos.planar_distance(ch_vehicle.pos) > u.coverage_radius:
                reason = "coverage"
            if reason is None:
                self.events.append(SimEvent(t, "beacon_ok",
                                            ids=(u.id, state.ch)))
                continue
            self.events.append(SimEvent(t, "beacon_missed",
                                        ids=(u.id, state.ch)))
            self.events.append(SimEvent(t, "ch_departed",
                                        ids=(u.id, state.ch),
                                        payload={"reason": reason}))
            self._handle_departure(t, state, by_id)

    def _handle_departure(self, t: float, state: _ClusterState,
                          by_id: Dict[int, Vehicle]) -> None:
        """Replace a departed CH from the backup list, or rerun the
        scheme's selector.

        The backup procedure starts by checking the collected CAMs for
        members that drifted out of coverage and drops them; the
        benchmark selectors have no such step and may seat a stale
        member, which then departs at the next beacon.
        """
        u = state.uav
        state.members.discard(state.ch)
        if self._uses_backup():
            state.members = {m for m in state.members
                             if u.pos.planar_distance(by_id[m].pos)
                             <= u.coverage_radius}
        state.ch = None
        if not state.members:
            state.backup = []
            return
        if self._uses_backup():
            chosen, remaining = pop_replacement(state.backup, state.members)
            state.backup = remaining
            if chosen is not None:
                self._seat_ch(state, chosen, by_id)
                self.events.append(SimEvent(t, "ch_replaced_from_backup",
                                            ids=(u.id, chosen),
                                            payload={"tenure": state.tenure}))
                return
        cams = self._build_cams(sorted(state.members), u.id, by_id,
                                self._neighbors())
        chosen, degraded = self._select_for_scheme(cams, state)
        self._seat_ch(state, chosen, by_id)
        state.backup = []
        self.events.append(SimEvent(t, "ch_reselected_full",
                                    ids=(u.id, chosen),
                                    payload={"degraded": degraded,
                                             "tenure": state.tenure}))

    # -- main loop -------------------------------------------------------

    def _check_partition(self) -> None:
        seen: Set[int] = set()
        for state in self.clusters.values():
            overlap = seen & state.members
            if overlap:
                raise AssertionError(f"cluster partition violated: {overlap}")
            seen |= state.members

    def run(self) -> List[SimEvent]:
        cfg = self.config
        dt = cfg.slot_duration
        k_cluster = int(round(cfg.cluster_interval / dt))
        k_cam = int(round(cfg.cam_interval / dt))
        k_beacon = int(round(cfg.beacon_interval / dt))
        for k in range(cfg.num_slots):
            t = k * dt
            is_round = k % k_cluster == 0
            is_cam = not is_round and k % k_cam == 0
            is_beacon = k > 0 and not is_round and k % k_beacon == 0
            if is_round or is_cam or is_beacon:
                # Vehicle records exist only on event slots, built once
                # from the fleet arrays and shared by the slot's phases.
                by_id = {v.id: v for v in self.fleet.records(cfg.avg_window)}
            if is_round:
                self._clustering_round(t, by_id)
            elif is_cam:
                self._cam_batch(t, by_id)
            if is_beacon:
                self._beacon_check(t, by_id)
            self._check_partition()
            respawned = step(self.fleet, self.road, dt, self.mobility_rng,
                             (cfg.v_min, cfg.v_max_vehicle))
            self._nbrs = None
            for vid in respawned:
                self.events.append(SimEvent(t + dt, "vehicle_respawn",
                                            ids=(vid,)))
                # a respawn is a new vehicle: it leaves its old cluster.
                # A respawned CH stays seated until the beacon check
                # notices the identity change.
                for state in self.clusters.values():
                    if vid in state.members and vid != state.ch:
                        state.members.discard(vid)
        self._sample_cam_links()
        return self.events


def run(config: SimConfig, seeds: Optional[RunSeeds] = None,
        initial_vehicles: Optional[Sequence[Vehicle]] = None) -> List[SimEvent]:
    """Execute one run and return its complete event trace."""
    return Simulation(config, seeds=seeds,
                      initial_vehicles=initial_vehicles).run()
