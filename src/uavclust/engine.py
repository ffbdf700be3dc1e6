"""Time-stepped simulation loop.

Slot schedule per run: clustering rounds every cluster_interval
(assignment, CH selection, backup list build), CAM batches every
cam_interval (fresh averages, neighbor sets, backup rebuild, CH-member
link recording), beacon checks every beacon_interval (CH departure
detection and replacement).  The recorded CH-member links are sampled
after the last slot.  Everything is driven by private RNG streams
(mobility, scheme, and one fading stream per link sample) so a
(config, seed) pair reproduces a byte-identical event trace.

run_paired runs the schemes of one run index in lockstep over the one
Traffic they share; run() is the one-scheme case of the same loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import channel
from .assignment import AssignmentMatrix, assign
from .backup import BackupCandidate, BackupEntry, build_backup_list, pop_replacement
from .chselect import cluster_avg_speed, select_ch, select_ch_random, select_ch_vmasc
from .config import SimConfig, validate
from .mobility import (Fleet, RoadModel, neighbor_table, residual_path,
                       residual_path_geometric, step)
from .model import AirPoint, Cam, RoadPoint, UavNode, Vehicle, left_sum
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
                                speed=speed))
    return vehicles


@dataclass
class _ClusterState:
    uav: UavNode
    members: Set[int] = field(default_factory=set)
    ch: Optional[int] = None
    ch_generation: int = 0
    tenure: int = 0
    backup: List[BackupEntry] = field(default_factory=list)


class Traffic:
    """What the schemes of one run index share: road, UAVs and fleet, and
    the slot's neighbor table and UAV assignment, built on first use and
    dropped by step."""

    def __init__(self, config: SimConfig, mobility_seed: int,
                 initial_vehicles: Optional[Sequence[Vehicle]] = None):
        self.config = config
        self.rng = np.random.default_rng(mobility_seed)
        self.road = RoadModel(config.road_length, tuple(config.lane_offsets))
        self.uavs = place_uavs(config)
        if initial_vehicles is None:
            initial_vehicles = init_vehicles(config, self.road, self.rng)
        self.fleet = Fleet(initial_vehicles)
        self._nbrs: Optional[Dict[int, FrozenSet[int]]] = None
        self._assignment: Optional[AssignmentMatrix] = None

    def neighbors(self) -> Dict[int, FrozenSet[int]]:
        if self._nbrs is None:
            self._nbrs = neighbor_table(self.fleet, self.config.neighbor_range)
        return self._nbrs

    def assignment(self) -> AssignmentMatrix:
        if self._assignment is None:
            self._assignment = assign(self.fleet, self.uavs, self.config.ref_gain,
                                      self.config.noise_power)
        return self._assignment

    def step(self) -> List[int]:
        """Advance the fleet one slot; returns the respawned ids."""
        cfg = self.config
        respawned = step(self.fleet, self.road, cfg.slot_duration, self.rng,
                         (cfg.v_min, cfg.v_max_vehicle))
        self._nbrs = self._assignment = None
        return respawned


class Simulation:
    """One scheme's run over a Traffic that the other schemes of its run
    index may share (see run_paired); run() runs it alone."""

    def __init__(self, config: SimConfig, seeds: Optional[RunSeeds] = None,
                 traffic: Optional[Traffic] = None):
        self.config = validate(config)
        self.seeds = seeds or run_seeds(config.seed, 0, config.scheme)
        self.traffic = traffic or Traffic(self.config, self.seeds.mobility)
        self.fleet, self.uavs = self.traffic.fleet, self.traffic.uavs
        self.scheme_rng = np.random.default_rng(self.seeds.scheme)
        self.fading_seed = self.seeds.fading
        self._link_gen = np.random.Generator(np.random.PCG64(0))
        self.clusters: Dict[int, _ClusterState] = {
            u.id: _ClusterState(uav=u) for u in self.uavs}
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

    def _build_cams(self, member_ids: Iterable[int]) -> List[Cam]:
        fleet, window = self.fleet, self.config.avg_window
        nbr_table = self.traffic.neighbors()
        cams = []
        for vid in sorted(member_ids):
            i = fleet.row[vid]
            cams.append(Cam(vehicle_id=vid, pos=fleet.pos(i),
                            dir=fleet.dir.item(i),
                            avg_speed=fleet.avg_speed_of(i, window),
                            neighbors=nbr_table[vid]))
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

    def _seat_ch(self, state: _ClusterState, vid: int) -> None:
        state.ch = vid
        state.ch_generation = self.fleet.generation.item(self.fleet.row[vid])
        state.tenure += 1

    # -- scheduled phases ------------------------------------------------

    def _clustering_round(self, t: float) -> None:
        cfg = self.config
        matrix = self.traffic.assignment()
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
            cams = self._build_cams(members)
            chosen, degraded = self._select_for_scheme(cams, state)
            self._seat_ch(state, chosen)
            self.events.append(SimEvent(t, "ch_selected", ids=(u.id, chosen),
                                        payload={"scheme": cfg.scheme,
                                                 "degraded": degraded}))
            self._rebuild_backup(cams, state)

    def _cam_batch(self, t: float) -> None:
        """CAM round: rebuild backups and record each CH-member link.

        The links' SNR is sampled after the run (_sample_cam_links); it
        never feeds back into the simulation.
        """
        t_ms = int(round(t * 1000))
        for u in sorted(self.uavs, key=lambda n: n.id):
            state = self.clusters[u.id]
            if not state.members:
                continue
            cams = self._build_cams(state.members)
            self._rebuild_backup(cams, state)
            if state.ch is None:
                self.events.append(SimEvent(t, "cam_batch", ids=(u.id,),
                                            payload={"members": len(cams)}))
                continue
            ch_pos = self.fleet.pos(self.fleet.row[state.ch])
            links = []
            for cam in cams:
                if cam.vehicle_id == state.ch:
                    continue
                d = max(MIN_V2V_DISTANCE,
                        math.hypot(ch_pos.x - cam.pos.x, ch_pos.y - cam.pos.y))
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
            payload["snr"] = left_sum(snrs) / len(snrs)

    def _beacon_check(self, t: float) -> None:
        fleet = self.fleet
        for u in sorted(self.uavs, key=lambda n: n.id):
            state = self.clusters[u.id]
            if state.ch is None:
                continue
            i = fleet.row[state.ch]
            reason = None
            if fleet.generation.item(i) != state.ch_generation:
                reason = "respawn"
            elif u.pos.planar_distance(fleet.pos(i)) > u.coverage_radius:
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
            self._handle_departure(t, state)

    def _handle_departure(self, t: float, state: _ClusterState) -> None:
        """Replace a departed CH from the backup list, or rerun the
        scheme's selector.

        The backup procedure starts by checking the collected CAMs for
        members that drifted out of coverage and drops them; the
        benchmark selectors have no such step and may seat a stale
        member, which then departs at the next beacon.
        """
        u, fleet = state.uav, self.fleet
        state.members.discard(state.ch)
        if self._uses_backup():
            state.members = {m for m in state.members
                             if u.pos.planar_distance(fleet.pos(fleet.row[m]))
                             <= u.coverage_radius}
        state.ch = None
        if not state.members:
            state.backup = []
            return
        if self._uses_backup():
            chosen, remaining = pop_replacement(state.backup, state.members)
            state.backup = remaining
            if chosen is not None:
                self._seat_ch(state, chosen)
                self.events.append(SimEvent(t, "ch_replaced_from_backup",
                                            ids=(u.id, chosen),
                                            payload={"tenure": state.tenure}))
                return
        cams = self._build_cams(state.members)
        chosen, degraded = self._select_for_scheme(cams, state)
        self._seat_ch(state, chosen)
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

    def _respawn(self, t: float, respawned: List[int]) -> None:
        for vid in respawned:
            self.events.append(SimEvent(t, "vehicle_respawn", ids=(vid,)))
            # a respawn is a new vehicle: it leaves its old cluster.
            # A respawned CH stays seated until the beacon check
            # notices the identity change.
            for state in self.clusters.values():
                if vid in state.members and vid != state.ch:
                    state.members.discard(vid)

    def run(self) -> List[SimEvent]:
        _run_lockstep([self])
        return self.events


def _run_lockstep(sims: Sequence[Simulation]) -> None:
    """Run every Simulation over their one Traffic.  A slot's phases read
    the fleet before it steps, so each sees the slots a run of its own
    would.  Respawns only remove members, so the partition is checked
    after each event slot's phases, not after every step."""
    traffic = sims[0].traffic
    cfg = traffic.config
    dt = cfg.slot_duration
    k_cluster = int(round(cfg.cluster_interval / dt))
    k_cam = int(round(cfg.cam_interval / dt))
    k_beacon = int(round(cfg.beacon_interval / dt))
    for k in range(cfg.num_slots):
        t = k * dt
        is_round = k % k_cluster == 0
        is_cam = not is_round and k % k_cam == 0
        is_beacon = k > 0 and not is_round and k % k_beacon == 0
        for sim in sims:
            if is_round:
                sim._clustering_round(t)
            elif is_cam:
                sim._cam_batch(t)
            if is_beacon:
                sim._beacon_check(t)
            if is_round or is_cam or is_beacon:
                sim._check_partition()
        respawned = traffic.step()
        for sim in sims:
            sim._respawn(t + dt, respawned)
    for sim in sims:
        sim._sample_cam_links()


def run_paired(config: SimConfig, seeds: Dict[str, RunSeeds],
               initial_vehicles: Optional[Sequence[Vehicle]] = None
               ) -> Dict[str, List[SimEvent]]:
    """Each scheme's event trace, as run() gives it, from one lockstep
    run; seeds maps the schemes to run seeds with one mobility seed."""
    mobility = {s.mobility for s in seeds.values()}
    if len(mobility) != 1:
        raise ValueError("run_paired: the schemes must share one mobility seed")
    traffic = Traffic(validate(config), mobility.pop(), initial_vehicles)
    sims = {scheme: Simulation(replace(config, scheme=scheme),
                               s, traffic=traffic)
            for scheme, s in seeds.items()}
    _run_lockstep(list(sims.values()))
    return {scheme: sim.events for scheme, sim in sims.items()}


def run(config: SimConfig, seeds: Optional[RunSeeds] = None,
        initial_vehicles: Optional[Sequence[Vehicle]] = None) -> List[SimEvent]:
    """Execute one run and return its complete event trace."""
    seeds = seeds or run_seeds(config.seed, 0, config.scheme)
    return run_paired(config, {config.scheme: seeds},
                      initial_vehicles)[config.scheme]
