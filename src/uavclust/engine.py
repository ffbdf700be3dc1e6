"""Time-stepped simulation loop over blocks of run indices.

A run's vehicles are the rows of one mobility.Fleet, which init_fleet
draws from the mobility stream; a vehicle's id is its row.  run_block,
the one simulation loop, runs the run indices of a block in lockstep:
one Traffic holds their fleets as (runs, vehicles) arrays, and one
Simulation per (run, scheme) holds that scheme's clusters and events;
run_paired and run are its one-run cases.  Every stream is a run's own
(mobility, scheme) or a run's and a link's (fading: the stream of the
key (fading seed, t_ms, lo, hi)), so a (config, seed) pair reproduces
byte-identical traces whatever block a run index ran in.

Event schedule per run (_schedule): clustering rounds every
cluster_interval (assignment, CH selection, backup list rebuild), CAM
batches every cam_interval (backup rebuild, CH-member link recording),
beacon checks every beacon_interval (CH departure detection and
replacement); no other slot has a phase.  Each event slot's phases read
what Traffic.survey measured there for the whole block, and the members
of every cluster of the block from one grouping of its member_of rows
(_cluster_members); selections, departures and backup pops stay scalar,
in cluster order per (run, scheme).  Between two event slots the fleet
advances in one step of several slots, whose respawned rows leave their
clusters in one masked write (_respawn).  A backup rebuild only records
the survey it is ranked from; the list is ranked at the first pop after
it (_handle_departure), since most lists are never popped.  The
recorded CH-member links are sampled after the last slot, each distinct
link key once, in a few numpy passes (_sample_cam_links).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import channel
from .assignment import assign
from .backup import build_backup_list, pop_replacement
from .chselect import cluster_avg_speed, select_ch, select_ch_random, select_ch_vmasc
from .config import SimConfig, validate
from .mobility import (Fleet, neighbor_table, residual_path,
                       residual_path_geometric, step)
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
    backup: Optional[np.ndarray] = None


class Traffic:
    """What the runs of a block share with their schemes: UAVs, one
    mobility stream per run, the fleet as (runs, vehicles) arrays, and
    what survey measured at the current event slot: every row's average
    speed, its neighbor count if asked for, at a round the UAV
    assignment, at a beacon check whether each UAV covers it (outside,
    (runs, UAVs, vehicles)), and the slot's position array, held by
    reference.  Survey and step replace these arrays and never write
    them, so a backup ranking may hold them until it runs.  A given
    initial_fleet starts every run, is copied, never stepped, and must
    hold finite positions and speeds in [0, inf)."""

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
        self.avg_speed = fleet.avg_speeds(cfg.avg_window)
        if with_neighbors:
            self.nbr_count = neighbor_table(fleet, cfg.neighbor_range)
        if with_assignment:
            self.assignment = assign(fleet, self.uavs, cfg.ref_gain,
                                     cfg.noise_power)
        if with_coverage:
            self.outside = self._outside()

    def _outside(self) -> np.ndarray:
        """Whether each row is beyond each UAV's planar coverage radius,
        (runs, UAVs, vehicles); a vehicle exactly on the circle is
        covered.  np.hypot and math.hypot may round apart in the last
        bit: pairs this close to the circle take the scalar expression."""
        x, y = self.fleet.x, self.fleet.y
        ux, uy, radius = self._hover
        dist = np.hypot(ux - x[:, None, :], uy - y[:, None, :])
        outside = dist > radius
        close = np.abs(dist - radius) <= 1e-9 * radius
        for run, u, i in zip(*close.nonzero()) if close.any() else ():
            uav = self.uavs[u]
            outside[run, u, i] = math.hypot(
                uav.pos.x - x[run, i],
                uav.pos.y - y[run, i]) > uav.coverage_radius
        return outside


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
    seated.  At rounds and CAM batches, members holds each cluster's
    members, in cluster order, as run_block grouped them.
    """

    def __init__(self, config: SimConfig, seeds: RunSeeds, traffic: Traffic,
                 row: int = 0):
        self.config = validate(config)
        self.seeds = seeds
        self.traffic = traffic
        self.row = row
        self.y, self.dir = traffic.fleet.y[row], traffic.fleet.dir[row]
        self.scheme_rng = np.random.default_rng(self.seeds.scheme)
        # whether this scheme keeps a backup list; exactly then its
        # phases read the neighbor counts (_features)
        self.keeps_backup = (config.scheme == "proposed"
                             or config.benchmarks_use_backup)
        # the ch_selected payloads, by degraded
        self._selected = [MappingProxyType({"scheme": config.scheme,
                                            "degraded": degraded})
                          for degraded in (False, True)]
        self._link_gen = np.random.Generator(np.random.PCG64(0))
        self.clusters: Dict[int, _ClusterState] = {
            u.id: _ClusterState(uav=u) for u in traffic.uavs}
        self.member_of = np.full(traffic.fleet.x.shape[-1], -1, dtype=np.int64)
        self.members: List[np.ndarray] = []
        self.events: List[SimEvent] = []
        self.round_index = 0
        # the payloads of its cam_batch events with CH-member links
        self.cam_payloads: List[dict] = []

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

    def _features(self, uav: UavNode, members: np.ndarray, avg_speed,
                  nbr_count, x):
        """(v_d, neighbor count, residual path) of each member, from
        one event slot's survey of the block (Traffic): the inputs of
        the proposed selection and of the backup ranking.  A row keeps
        its y and dir for the whole run."""
        cfg, row = self.config, self.row
        speed = avg_speed[row][members]
        v_d = np.abs(speed - cluster_avg_speed(speed))
        if cfg.residual_mode == "geometric":
            residual = residual_path_geometric(
                uav.pos, x[row][members], self.y[members], self.dir[members],
                speed, cfg.cluster_interval, uav.coverage_radius)
        else:
            residual = residual_path(uav.coverage_radius, speed,
                                     cfg.cluster_interval)
        return v_d, nbr_count[row][members], residual

    def _select_for_scheme(self, state: _ClusterState, members: np.ndarray):
        """Run the configured selector; returns (chosen id, degraded)."""
        cfg, traffic = self.config, self.traffic
        if cfg.scheme == "proposed":
            return select_ch(members, *self._features(
                state.uav, members, traffic.avg_speed, traffic.nbr_count,
                traffic.x), cfg.eps_distance, cfg.eps_neighbors)
        if cfg.scheme == "vmasc":
            return select_ch_vmasc(
                members, traffic.avg_speed[self.row][members]), False
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
        """Seat a CH in every cluster of the assignment that run_block
        wrote to member_of."""
        events = self.events
        events.append(make_event((t, "clustering_round", (),
                                  {"round": self.round_index})))
        self.round_index += 1
        for state, members, ids in zip(self.clusters.values(), self.members,
                                       self.traffic.cluster_ids):
            state.ch = None
            if not len(members):
                continue
            chosen, degraded = self._select_for_scheme(state, members)
            self._seat_ch(state, chosen)
            events.append(make_event((t, "ch_selected", ids[chosen],
                                      self._selected[degraded])))
            self._rebuild_backup(state, members)

    def _cam_batch(self, t: float) -> None:
        """CAM round: rebuild backups and emit each cluster's cam_batch.

        run_block records the CH-member links, whose SNR is sampled
        after the run (_sample_cam_links); it never feeds back into the
        simulation.
        """
        events = self.events
        for state, members, ids in zip(self.clusters.values(), self.members,
                                       self.traffic.cluster_ids):
            count = len(members)
            if not count:
                continue
            self._rebuild_backup(state, members)
            payload = {"members": count, "tenure": state.tenure}
            if count > 1:
                self.cam_payloads.append(payload)
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
        # the shadowing draw's dB-to-ratio, then fading times large-scale
        # gain and p * gain / noise; the powers stay scalar (np.power
        # differs from ** in last bits).  No draw can fail, so
        # v2v_large_scale's checks fail in link order.
        return [p * (f * large_scale(d, 10.0 ** (x / 10.0), loss, eta)) / noise
                for x, f, d in zip(z.tolist(), fading.tolist(), dist)]

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
        only shrinks until the next round.
        """
        u = state.uav
        self.member_of[state.ch] = -1
        state.ch = None
        members = (self.member_of == u.id).nonzero()[0]
        if self.keeps_backup:
            gone = self.traffic.outside[self.row, u.id, members]
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


def _cluster_members(member_of: np.ndarray, clusters: int
                     ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """Group the members of every cluster of every simulation of a
    block, from its member_of rows (one per simulation), with one stable
    argsort.  Returns each (simulation, cluster) group's member ids,
    ascending, simulation-major; then, for every assigned row in that
    order, its group number (simulation * clusters + UAV id) and id."""
    sims, vehicles = member_of.shape
    groups = sims * clusters
    key = np.where(member_of < 0, groups,
                   member_of + clusters * np.arange(sims)[:, None]).ravel()
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=groups + 1)[:groups])
    assigned = order[:ends[-1]]
    ids = assigned % vehicles
    bounds = [0, *ends.tolist()]
    return ([ids[a:b] for a, b in zip(bounds, bounds[1:])], key[assigned],
            ids)


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
    clusters = len(traffic.uavs)
    member_of = np.full((runs, len(schemes), vehicles), -1, dtype=np.int64)
    rows = member_of.reshape(len(sims), vehicles)
    for sim, row in zip(sims, rows):
        sim.member_of = row
    states = [state for sim in sims for state in sim.clusters.values()]
    links = []
    dt = cfg.slot_duration
    speed_range = (cfg.v_min, cfg.v_max_vehicle)
    with_neighbors = any(sim.keeps_backup for sim in sims)
    for k, slots, is_round, is_cam, is_beacon in _schedule(cfg):
        t = k * dt
        traffic.survey(with_neighbors, is_round, is_beacon)
        if is_round:
            member_of[:] = traffic.assignment[:, None, :]
        if is_round or is_cam:
            groups, group_of, ids = _cluster_members(rows, clusters)
            for r, sim in enumerate(sims):
                sim.members = groups[r * clusters:(r + 1) * clusters]
        for sim in sims:
            if is_round:
                sim._clustering_round(t)
            elif is_cam:
                sim._cam_batch(t)
        if is_cam:
            # each member of a cluster other than its CH is a CH-member
            # link, recorded with the slot's positions
            chs = np.array([-1 if s.ch is None else s.ch for s in states])
            link = ids != chs[group_of]
            if link.any():
                links.append((int(round(t * 1000)), traffic.x,
                              group_of[link] // clusters,
                              chs[group_of[link]], ids[link]))
        if is_beacon:
            for sim in sims:
                sim._beacon_check(t)
        respawned = step(traffic.fleet, cfg.road_length, dt, traffic.rngs,
                         speed_range, slots)
        if respawned:
            _respawn(sims, member_of, lambda slot: (k + slot) * dt + dt,
                     respawned)
    _sample_cam_links(sims, links, traffic.fleet.y)
    return [{scheme: sim.events for scheme, sim in
             zip(schemes, sims[b * len(schemes):(b + 1) * len(schemes)])}
            for b in range(runs)]


def _sample_cam_links(sims: List[Simulation], links, y: np.ndarray) -> None:
    """Set each recorded cam_batch payload's "snr" to the mean SNR of
    its CH-member links, in member order.

    links holds, per CAM slot with links, its t_ms, position array and
    the simulation, CH and member of each of its links; y is the block
    fleet's y.  The links are sampled run by run (_run_link_snrs), each
    run's scheme by scheme, as if each scheme sampled its own.
    """
    if not links:
        return
    t_ms, xs, sim, ch, member = zip(*links)
    slot = np.repeat(np.arange(len(links)), [len(s) for s in sim])
    sim, ch, member = (np.concatenate(a) for a in (sim, ch, member))
    order = np.argsort(sim, kind="stable")
    slot, sim = slot[order], sim[order]
    lo, hi = np.minimum(ch, member)[order], np.maximum(ch, member)[order]
    x, t_ms = np.stack(xs), np.array(t_ms)
    schemes = len(sims) // len(y)
    snrs = np.empty(len(sim))
    bounds = np.searchsorted(sim, range(0, len(sims) + 1, schemes)).tolist()
    for run, (first, end) in enumerate(zip(bounds, bounds[1:])):
        if first < end:
            part = slice(first, end)
            snrs[part] = _run_link_snrs(sims[run * schemes], t_ms, x[:, run],
                                        y[run], slot[part], lo[part], hi[part])
    _set_mean_snrs([p for s in sims for p in s.cam_payloads], snrs)


def _run_link_snrs(sampler: Simulation, t_ms: np.ndarray, x: np.ndarray,
                   y: np.ndarray, slot: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """The SNR of each CH-member link of one run, given by its CAM slot
    (an index into t_ms and into x, the (slots, vehicles) positions) and
    its endpoints lo < hi.

    The schemes of a run index share the fleet and the fading seed, so
    a link key (t_ms, lo, hi) has one distance and one stream in every
    scheme that records it.  Each distinct key is sampled once, in the
    order keys were first recorded, LINK_CHUNK keys per batch of numpy
    passes, through the sampler's _link_snrs.  A key's distance is
    math.hypot of its endpoints' offsets, floored at MIN_V2V_DISTANCE;
    the sign of the offsets does not matter, so it is the same from
    either endpoint.
    """
    dims = (len(t_ms), len(y), len(y))
    keys, first, key_number = np.unique(
        np.ravel_multi_index((slot, lo, hi), dims), return_index=True,
        return_inverse=True)
    # renumber the keys in the order they were first recorded
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    key_slot, key_lo, key_hi = np.unravel_index(keys[order], dims)
    dx = x[key_slot, key_lo] - x[key_slot, key_hi]
    dy = y[key_lo] - y[key_hi]
    dist = np.maximum(MIN_V2V_DISTANCE, np.fromiter(
        map(math.hypot, dx.tolist(), dy.tolist()), dtype=float,
        count=len(dx)))
    key_t_ms = t_ms[key_slot]
    snrs = np.empty(len(dist))
    for start in range(0, len(dist), LINK_CHUNK):
        part = slice(start, start + LINK_CHUNK)
        states = pcg64_states(sampler.seeds.fading, key_t_ms[part],
                              key_lo[part], key_hi[part])
        snrs[part] = sampler._link_snrs(states, dist[part].tolist())
    return snrs[rank[key_number]]


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


def run_paired(config: SimConfig, seeds: Dict[str, RunSeeds],
               initial_fleet: Optional[Fleet] = None
               ) -> Dict[str, List[SimEvent]]:
    """Each scheme's event trace from one lockstep run over one fleet:
    run_block of one run index."""
    return run_block(config, [seeds], initial_fleet)[0]


def run(config: SimConfig, seeds: RunSeeds,
        initial_fleet: Optional[Fleet] = None) -> List[SimEvent]:
    """Execute one run and return its complete event trace."""
    return run_paired(config, {config.scheme: seeds},
                      initial_fleet)[config.scheme]
