"""Time-stepped simulation loop over blocks of run indices.

A run's vehicles are the rows of one mobility.Fleet, which init_fleet
draws from the mobility stream; a vehicle's id is its row.  run_block,
the one simulation loop, runs the run indices of a block in lockstep:
one Traffic holds their fleets as (runs, vehicles) arrays, and one
Simulation per (run, scheme) holds that scheme's clusters and events;
run is its case of one run index and one scheme.  Every stream is a
run's own (mobility, scheme) or a run's and a link's (fading: the
stream of the key (fading seed, t_ms, lo, hi)), so a (config, seed)
pair reproduces byte-identical traces whatever block a run index ran
in.

Event schedule per run (_schedule): clustering rounds every
cluster_interval (assignment, CH selection, backup list rebuild), CAM
batches every cam_interval (backup rebuild, CH-member link recording),
beacon checks every beacon_interval (CH departure detection and
replacement); no other slot has a phase.  Each event slot's phases read
what Traffic.survey measured there for the whole block, and at rounds
and CAM batches each (run, scheme) groups its member_of row into member
lists; selections, rankings, departures and backup pops run in plain
Python over them, cluster by cluster.  Between two event slots the fleet
advances in one step of several slots, whose respawned rows leave their
clusters in one masked write (_respawn).  A backup rebuild only records
the survey it is ranked from; the list is ranked at the first pop after
it (_handle_departure), since most lists are never popped.  Neighbor
counts are made only where read: every row's at rounds, for the
proposed selection, and a cluster's own members' at its first pop.  Each
CAM batch records its clusters' CH-member links where it handles them
(Simulation._cam_batch); after the last slot the links of the whole
block are sampled, each distinct link key once, in a few numpy passes
(_sample_cam_links).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import channel
from .assignment import assign
from .backup import build_backup_list, pop_replacement
from .chselect import cluster_avg_speed, select_ch, select_ch_random, select_ch_vmasc
from .config import SimConfig, validate
from .mobility import (Fleet, neighbor_counts, neighbor_table,
                       residual_path, residual_path_geometric, step, within)
from .model import AirPoint, UavNode
from .seeding import (RunSeeds, pcg64_state, pcg64_states, pcg64_words,
                      ziggurat_exponential, ziggurat_normal)
from .trace import NO_PAYLOAD, SimEvent, make_event

# Distance floor for V2V links: the point-mass mobility model lets
# vehicles overlap, which would blow up the d^-eta path loss.
MIN_V2V_DISTANCE = 10.0

# Link keys sampled per batch of numpy passes: bounds the batch's
# temporaries (about 200 bytes per key) at no measurable cost.
LINK_CHUNK = 2048

# the ch_departed payloads, by reason: read-only, because they are
# shared by every such event
_DEPARTED = {reason: MappingProxyType({"reason": reason})
             for reason in ("coverage", "respawn")}

# Fleet rows (runs x vehicles) per block, and at least one run: a block
# holds its (runs, I, I) neighbor arrays and, until they are written,
# the events of its run indices (about 0.25 MB each at I = 12).
BLOCK_ROWS = 64


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


@dataclass
class _ClusterState:
    uav: UavNode
    ch: Optional[int] = None
    ch_respawned: bool = False
    tenure: int = 0
    # a keeper's backup list: the inputs of its last rebuild until the
    # first pop after it ranks them, then the ranked remainder
    ranking: Optional[tuple] = None
    backup: Optional[List[int]] = None


class Traffic:
    """What the runs of a block share with their schemes: UAVs, one
    mobility stream per run, the fleet as (runs, vehicles) arrays, and
    what survey measured at the current event slot: every row's average
    speed (lists per run), at a round the UAV assignment and, if asked
    for, every row's neighbor count (lists per run; None at any other
    slot), at a beacon check whether each UAV covers it (outside, (runs,
    UAVs, vehicles)), and the slot's position array, held by reference.
    Survey and step replace these and never write them, so a backup
    ranking, or cams, may hold them until it runs.  cams holds the t_ms
    and position array of every CAM batch so far, which run_block
    appends; link_gen is the block's one generator for the slow-path
    draws of link streams (Simulation._link_rng).  A given initial_fleet
    starts every run, is copied, never stepped, and must hold finite
    positions and speeds in [0, inf)."""

    def __init__(self, config: SimConfig, *mobility_seeds: int,
                 initial_fleet: Optional[Fleet] = None):
        if initial_fleet is not None and not (
                np.isfinite(initial_fleet.x).all()
                and np.isfinite(initial_fleet.y).all()):
            raise ValueError("initial_fleet: positions must be finite")
        if initial_fleet is not None and not np.all(
                (0.0 <= initial_fleet.speed) & (initial_fleet.speed < math.inf)):
            raise ValueError("initial_fleet: speeds must be in [0, inf)")
        self.config = config
        self.rngs = [np.random.default_rng(seed) for seed in mobility_seeds]
        self.uavs = place_uavs(config)
        # each UAV's hover x, y and coverage radius, one row per UAV
        self._hover = np.array([[u.pos.x, u.pos.y, u.coverage_radius]
                                for u in self.uavs]).T[:, :, None]
        fleets = [init_fleet(config, rng) if initial_fleet is None
                  else initial_fleet for rng in self.rngs]
        self.fleet = Fleet(*(np.stack([getattr(f, column) for f in fleets])
                             for column in ("x", "y", "dir", "speed")))
        self.fleet.age = np.stack([f.age for f in fleets])
        self.avg_speed = self.nbr_count = self.assignment = None
        self.outside = self.x = None
        self.cams: List[Tuple[int, np.ndarray]] = []
        self.link_gen = np.random.Generator(np.random.PCG64(0))
        # the ids of events: one tuple per (UAV, vehicle) and per vehicle,
        # shared by every event of the block that names them
        vehicles = self.fleet.x.shape[1]
        self.cluster_ids = [[(u.id, v) for v in range(vehicles)]
                            for u in self.uavs]
        self.vehicle_ids = [(v,) for v in range(vehicles)]

    def survey(self, with_neighbors: bool, with_assignment: bool,
               with_coverage: bool) -> None:
        """Measure the fleet at an event slot, before its phases run."""
        cfg, fleet = self.config, self.fleet
        self.x = fleet.x
        self.avg_speed = fleet.avg_speeds(cfg.avg_window).tolist()
        self.nbr_count = (neighbor_table(fleet, cfg.neighbor_range).tolist()
                          if with_neighbors else None)
        if with_assignment:
            self.assignment = assign(fleet, self.uavs, cfg.ref_gain,
                                     cfg.noise_power)
        if with_coverage:
            self.outside = self._outside()

    def _outside(self) -> np.ndarray:
        """Whether each row is beyond each UAV's planar coverage radius,
        (runs, UAVs, vehicles); a vehicle exactly on the circle is
        covered (mobility.within)."""
        x, y = self.fleet.x, self.fleet.y
        ux, uy, radius = self._hover
        return ~within(ux - x[:, None, :], uy - y[:, None, :], radius)


class Simulation:
    """One scheme's run over row `row` of a Traffic that the other
    schemes and runs of its block share; run_block drives it.

    member_of holds each of its run's fleet rows' cluster: its UAV id,
    or -1; run_block makes it a row of the block's member_of array.  A
    vehicle's id is its fleet row, so a cluster's members, read from the
    column, come in ascending id order.  Between phases a cluster has a
    CH exactly when it has members, and its CH is one of them: a round
    or a departure that leaves members seats one, and a respawn removes
    only non-CH members.  A respawned CH stays seated, marked
    ch_respawned, until the next beacon check reports it or a new CH is
    seated.  members holds each cluster's member list as run_block last
    grouped them, at a round or CAM batch.  config must be validated.
    """

    def __init__(self, config: SimConfig, seeds: RunSeeds, traffic: Traffic,
                 row: int = 0):
        self.config = config
        self.seeds = seeds
        self.traffic = traffic
        self.row = row
        self.y, self.dir = traffic.fleet.y[row], traffic.fleet.dir[row]
        self.scheme_rng = np.random.default_rng(self.seeds.scheme)
        # whether this scheme keeps a backup list, ranked by neighbor
        # counts among other features (_rank_backup)
        self.keeps_backup = (config.scheme == "proposed"
                             or config.benchmarks_use_backup)
        # the ch_selected payloads, by degraded
        self._selected = [MappingProxyType({"scheme": config.scheme,
                                            "degraded": degraded})
                          for degraded in (False, True)]
        self.clusters: Dict[int, _ClusterState] = {
            u.id: _ClusterState(uav=u) for u in traffic.uavs}
        self.member_of = np.full(traffic.fleet.x.shape[-1], -1, dtype=np.int64)
        self.members: List[List[int]] = []
        self.events: List[SimEvent] = []
        self.round_index = 0
        # (payload, index in traffic.cams, CH, members) of each cam_batch
        # event with CH-member links: every member but the CH is one
        self.cam_links: List[Tuple[dict, int, int, List[int]]] = []

    # -- helpers ---------------------------------------------------------

    def _link_rng(self, state: int, inc: int) -> np.random.Generator:
        """Fading stream for one link at one time: the block's one link
        generator (Traffic.link_gen), set to the PCG64 state ``(state,
        inc)`` that ``np.random.default_rng((fading seed, t_ms, lo, hi))``
        starts from (see pcg64_states).  Only links whose draws leave the
        ziggurat fast path read it (_link_snrs).

        Keyed by (fading seed, time, endpoints) so schemes sharing a
        fading seed see identical draws for identical link samples:
        the common-random-numbers side of the paired-seed design.
        """
        link_gen = self.traffic.link_gen
        link_gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return link_gen

    def _features(self, uav: UavNode, members: List[int], avg_speed, x,
                  nbr_count: List[int]):
        """(v_d, neighbor count, residual path) lists of the members,
        from one event slot's survey of the block (Traffic) and the
        members' neighbor counts: the inputs of the proposed selection
        and of the backup ranking.  A row keeps its y and dir for the
        whole run."""
        cfg, row = self.config, self.row
        speed = [avg_speed[row][k] for k in members]
        v_cl = cluster_avg_speed(speed)
        if cfg.residual_mode == "geometric":
            residual = residual_path_geometric(
                uav.pos, x[row][members], self.y[members], self.dir[members],
                np.array(speed), cfg.cluster_interval, uav.coverage_radius)
        else:
            residual = residual_path(uav.coverage_radius, np.array(speed),
                                     cfg.cluster_interval)
        return [abs(v - v_cl) for v in speed], nbr_count, residual.tolist()

    def _select_for_scheme(self, state: _ClusterState, members: List[int]):
        """Run the configured selector; returns (chosen id, degraded)."""
        cfg, traffic = self.config, self.traffic
        if cfg.scheme == "proposed":
            return select_ch(members, *self._features(
                state.uav, members, traffic.avg_speed, traffic.x,
                [traffic.nbr_count[self.row][k] for k in members]),
                cfg.eps_distance, cfg.eps_neighbors)
        if cfg.scheme == "vmasc":
            speeds = traffic.avg_speed[self.row]
            return select_ch_vmasc(members, [speeds[k] for k in members]), False
        return select_ch_random(members, self.scheme_rng), False

    def _rebuild_backup(self, state: _ClusterState,
                        members: List[int]) -> None:
        """Record what the backup list of the members around the current
        CH is ranked from; _handle_departure ranks it at the first pop
        after this rebuild, since most lists are never popped."""
        if self.keeps_backup:
            state.ranking = (members, state.ch, self.traffic.avg_speed,
                             self.traffic.x)
            state.backup = None

    def _rank_backup(self, uav: UavNode, members: List[int], ch: int,
                     avg_speed, x) -> List[int]:
        """The backup list of members around CH ch, best first, from
        one event slot's survey (_features).  Only the members' neighbor
        counts are made, here, from the slot's positions x."""
        cfg = self.config
        counts = neighbor_counts(x[self.row], self.y, members,
                                 cfg.neighbor_range).tolist()
        others = [k for k, vid in enumerate(members) if vid != ch]
        return build_backup_list(
            *([column[k] for k in others] for column in (
                members, *self._features(uav, members, avg_speed, x, counts))),
            (cfg.weight_speed, cfg.weight_neighbors, cfg.weight_path),
            raw_scores=cfg.backup_raw_scores)

    def _seat_ch(self, state: _ClusterState, vid: int) -> None:
        state.ch = vid
        state.ch_respawned = False
        state.tenure += 1

    # -- scheduled phases ------------------------------------------------

    def _clustering_round(self, t: float) -> None:
        """Seat a CH in every cluster of the assignment that run_block
        wrote to member_of."""
        events = self.events
        events.append(make_event((t, "clustering_round", (),
                                  {"round": self.round_index})))
        self.round_index += 1
        for state, members, ids in zip(self.clusters.values(), self.members,
                                       self.traffic.cluster_ids):
            state.ch = None
            if not members:
                continue
            chosen, degraded = self._select_for_scheme(state, members)
            self._seat_ch(state, chosen)
            events.append(make_event((t, "ch_selected", ids[chosen],
                                      self._selected[degraded])))
            self._rebuild_backup(state, members)

    def _cam_batch(self, t: float) -> None:
        """CAM round: rebuild backups, emit each cluster's cam_batch and
        record its CH-member links at the last of traffic.cams.

        Their SNR is sampled after the run (_sample_cam_links); it never
        feeds back into the simulation.
        """
        events = self.events
        cam = len(self.traffic.cams) - 1
        for state, members, ids in zip(self.clusters.values(), self.members,
                                       self.traffic.cluster_ids):
            count = len(members)
            if not count:
                continue
            self._rebuild_backup(state, members)
            payload = {"members": count, "tenure": state.tenure}
            if count > 1:
                self.cam_links.append((payload, cam, state.ch, members))
            events.append(make_event((t, "cam_batch", ids[state.ch],
                                      payload)))

    def _link_snrs(self, states: np.ndarray,
                   dist: List[float]) -> List[float]:
        """SNR of each link, in link order: its stream starts from its
        column of states (pcg64_states), its distance is in dist.

        A link's stream draws its shadowing from its first output word
        and its fast fading from the second.  Where numpy's ziggurat
        takes a word on its fast path, the draws of all links are made
        at once (seeding.ziggurat_normal, ziggurat_exponential); the few
        links with a slow-path draw take theirs from their own stream
        (_link_rng).  The SNRs of all links are then made in array passes.
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
        # the shadowing draw's dB-to-ratio 10 ** (z / 10) and the path
        # loss d ** -eta are libm pow, as ** is (np.power differs in last
        # bits); then fading times large-scale gain and p * gain / noise
        n = len(z)
        try:
            mu = np.fromiter(map(math.pow, [10.0] * n, (z / 10.0).tolist()),
                             dtype=float, count=n)
            failed = not mu.all()  # a zero shadowing factor
        except OverflowError:
            failed = True
        if failed:
            # the per-link expression raises at the first failing link
            large_scale = channel.v2v_large_scale
            return [p * (f * large_scale(d, 10.0 ** (x / 10.0), loss, eta))
                    / noise for x, f, d in zip(z.tolist(), fading.tolist(), dist)]
        path = np.fromiter(map(math.pow, dist, [-eta] * n), dtype=float, count=n)
        return (p * (fading * (mu * loss * path)) / noise).tolist()

    def _beacon_check(self, t: float) -> None:
        outside = self.traffic.outside[self.row]
        events = self.events
        for state, cluster_ids in zip(self.clusters.values(),
                                      self.traffic.cluster_ids):
            i = state.ch
            if i is None:
                continue
            ids = cluster_ids[i]
            if state.ch_respawned:
                reason = "respawn"
            elif outside[ids]:
                reason = "coverage"
            else:
                events.append(make_event((t, "beacon_ok", ids, NO_PAYLOAD)))
                continue
            events.append(make_event((t, "beacon_missed", ids, NO_PAYLOAD)))
            events.append(make_event((t, "ch_departed", ids,
                                      _DEPARTED[reason])))
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
        only shrinks until the next round: its members are those of its
        last grouping that member_of still places in it.
        """
        u, member_of = state.uav, self.member_of
        member_of[state.ch] = -1
        state.ch = None
        members = [vid for vid in self.members[u.id] if member_of[vid] == u.id]
        if self.keeps_backup:
            outside = self.traffic.outside[self.row, u.id]
            member_of[[vid for vid in members if outside[vid]]] = -1
            members = [vid for vid in members if not outside[vid]]
        if not members:
            return
        if self.keeps_backup:
            if state.backup is None:
                state.backup = self._rank_backup(u, *state.ranking)
            chosen, state.backup = pop_replacement(
                state.backup, [member_of[vid] == u.id for vid in state.backup])
            kind, payload = "ch_replaced_from_backup", {}
        else:
            chosen, degraded = self._select_for_scheme(state, members)
            kind, payload = "ch_reselected_full", {"degraded": degraded}
        self._seat_ch(state, chosen)
        payload["tenure"] = state.tenure
        self.events.append(make_event((t, kind,
                                       self.traffic.cluster_ids[u.id][chosen],
                                       payload)))


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


def _respawn(sims: List[Simulation], member_of: np.ndarray, t_at,
             respawned) -> None:
    """Report the rows respawned in each slot of one fleet step, at that
    slot's end (t_at(slot)), in every scheme of their run, and take them
    out of their clusters in one masked write of the block's member_of
    (runs, schemes, vehicles); a respawned CH stays seated and marked
    (ch_respawned) until the next beacon check.

    respawned is mobility.step's list of (slot, flat rows) of the block
    fleet.  A respawn is a new vehicle, so only the set of rows matters
    to the clusters: no phase runs between two event slots."""
    runs, schemes, vehicles = member_of.shape
    vehicle_ids = sims[0].traffic.vehicle_ids
    for slot, rows in respawned:
        t = t_at(slot)
        for row in rows:
            run, vid = divmod(row, vehicles)
            event = make_event((t, "vehicle_respawn", vehicle_ids[vid],
                                NO_PAYLOAD))
            for sim in sims[run * schemes:(run + 1) * schemes]:
                sim.events.append(event)
    hit = {row for _, rows in respawned for row in rows}
    hit_run, hit_row = np.divmod(np.fromiter(hit, dtype=np.int64,
                                             count=len(hit)), vehicles)
    member_of[hit_run, :, hit_row] = -1
    # put the seated CHs among them back
    for sim in sims:
        first = sim.row * vehicles
        for state in sim.clusters.values():
            if state.ch is not None and first + state.ch in hit:
                state.ch_respawned = True
                sim.member_of[state.ch] = state.uav.id


def run_block(config: SimConfig, plans: Sequence[Dict[str, RunSeeds]],
              initial_fleet: Optional[Fleet] = None
              ) -> List[Dict[str, List[SimEvent]]]:
    """Each run index's scheme traces, from one lockstep run of the
    block of run indices given by their seed plans (cli.seed_plan rows).

    Every plan maps the same schemes, in the same order, to run seeds
    with one mobility and one fading seed (seeding.run_seeds of one run
    index).  An event slot's phases read the fleet before it steps, so
    each scheme sees the slots a run of its own would.  Between two
    event slots the fleet steps in one block, and each slot of it that
    respawned rows is reported at that slot's end."""
    schemes = list(plans[0])
    if any(list(plan) != schemes for plan in plans):
        raise ValueError("run_block: every run must list the same schemes")
    shared = [{(s.mobility, s.fading) for s in plan.values()} for plan in plans]
    if any(len(pair) != 1 for pair in shared):
        raise ValueError("run_block: the schemes must share one mobility "
                         "seed and one fading seed")
    cfg = validate(config)
    traffic = Traffic(cfg, *(pair.pop()[0] for pair in shared),
                      initial_fleet=initial_fleet)
    sims = [Simulation(replace(cfg, scheme=scheme), plan[scheme], traffic, b)
            for b, plan in enumerate(plans) for scheme in schemes]
    runs, vehicles = traffic.fleet.x.shape
    member_of = np.full((runs, len(schemes), vehicles), -1, dtype=np.int64)
    rows = member_of.reshape(len(sims), vehicles)
    for sim, row in zip(sims, rows):
        sim.member_of = row
    dt = cfg.slot_duration
    speed_range = (cfg.v_min, cfg.v_max_vehicle)
    # the proposed selection reads every row's count at rounds; a backup
    # ranking makes its members' own (Simulation._rank_backup)
    with_neighbors = any(sim.config.scheme == "proposed" for sim in sims)
    for k, slots, is_round, is_cam, is_beacon in _schedule(cfg):
        t = k * dt
        traffic.survey(with_neighbors and is_round, is_round, is_beacon)
        if is_round:
            member_of[:] = traffic.assignment[:, None, :]
        if is_cam:
            traffic.cams.append((int(round(t * 1000)), traffic.x))
        if is_round or is_cam:
            for sim, row in zip(sims, rows.tolist()):
                sim.members = [[] for _ in traffic.uavs]
                for vid, uav in enumerate(row):
                    if uav >= 0:
                        sim.members[uav].append(vid)
        for sim in sims:
            if is_round:
                sim._clustering_round(t)
            elif is_cam:
                sim._cam_batch(t)
        if is_beacon:
            for sim in sims:
                sim._beacon_check(t)
        respawned = step(traffic.fleet, cfg.road_length, dt, traffic.rngs,
                         speed_range, slots)
        if respawned:
            _respawn(sims, member_of, lambda slot: (k + slot) * dt + dt,
                     respawned)
    _sample_cam_links(sims, traffic)
    return [{scheme: sim.events for scheme, sim in
             zip(schemes, sims[b * len(schemes):(b + 1) * len(schemes)])}
            for b in range(runs)]


def _sample_cam_links(sims: List[Simulation], traffic: Traffic) -> None:
    """Set each recorded cam_batch payload's "snr" to the mean SNR of
    its CH-member links, in member order.

    The schemes of a run index share the fleet and the fading seed, so a
    link key (run, CAM batch, lo, hi) has one distance and one stream,
    that of (fading seed, t_ms, lo, hi), in every scheme that records
    it.  Each distinct key is sampled once, in the order keys were first
    recorded, the links taken simulation by simulation (run by run, and
    each run's scheme by scheme), LINK_CHUNK keys per batch of numpy
    passes (Simulation._link_snrs).  A key's distance is math.hypot of
    its endpoints' offsets in traffic.cams' position array, floored at
    MIN_V2V_DISTANCE; the sign of the offsets does not matter, so it is
    the same from either endpoint.
    """
    keys: Dict[Tuple[int, int, int, int], int] = {}
    number = [keys.setdefault((sim.row, cam, ch, vid) if ch < vid
                              else (sim.row, cam, vid, ch), len(keys))
              for sim in sims for _, cam, ch, members in sim.cam_links
              for vid in members if vid != ch]
    if not number:
        return
    run, cam, lo, hi = np.fromiter(chain.from_iterable(keys), dtype=np.int64,
                                   count=4 * len(keys)).reshape(-1, 4).T
    t_ms, xs = zip(*traffic.cams)
    x, y = np.stack(xs), traffic.fleet.y
    dx = x[cam, run, lo] - x[cam, run, hi]
    dy = y[run, lo] - y[run, hi]
    dist = np.maximum(MIN_V2V_DISTANCE, np.fromiter(
        map(math.hypot, dx.tolist(), dy.tolist()), dtype=float,
        count=len(dx)))
    schemes = len(sims) // len(y)
    fading = np.array([s.seeds.fading for s in sims[::schemes]],
                      dtype=np.uint64)[run]
    key_t_ms = np.array(t_ms)[cam]
    snrs = np.empty(len(dist))
    for start in range(0, len(dist), LINK_CHUNK):
        part = slice(start, start + LINK_CHUNK)
        states = pcg64_states(fading[part], key_t_ms[part], lo[part], hi[part])
        snrs[part] = sims[0]._link_snrs(states, dist[part].tolist())
    _set_mean_snrs([link[0] for s in sims for link in s.cam_links],
                   snrs[number])


def _set_mean_snrs(payloads: List[dict], snrs: np.ndarray) -> None:
    """Set each payload's "snr" to the mean of its payload["members"] - 1
    consecutive link SNRs.  Each mean is the left fold from 0.0 (as
    model.left_sum) of one row of a zero-padded matrix, made for all
    payloads at once by np.add.accumulate, over the count."""
    counts = np.array([p["members"] - 1 for p in payloads])
    starts = np.cumsum(counts) - counts
    row = np.repeat(np.arange(len(counts)), counts)
    folds = np.zeros((len(counts), int(counts.max()) + 1))
    folds[row, np.arange(len(snrs)) - starts[row] + 1] = snrs
    np.add.accumulate(folds, axis=1, out=folds)
    means = folds[np.arange(len(counts)), counts] / counts
    for payload, snr in zip(payloads, means.tolist()):
        payload["snr"] = snr


def run(config: SimConfig, seeds: RunSeeds,
        initial_fleet: Optional[Fleet] = None) -> List[SimEvent]:
    """Execute one run and return its complete event trace: run_block
    of one run index and one scheme."""
    return run_block(config, [{config.scheme: seeds}],
                     initial_fleet)[0][config.scheme]
