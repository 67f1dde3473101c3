"""The per-AP shard engine: rooms of churning users on the sim event loop.

A shard is a set of rooms one worker executes.  Each room gets its own
:class:`~repro.sim.Environment`; a single driver process replays the
room's precomputed churn schedule (:func:`~repro.scenario.population.
room_schedule`) interleaved with per-tick delivery evaluation, so the
venue scales as *rooms × ticks* rather than *users × frames*.

Scale comes from archetype pooling: every user follows one of the venue's
viewer archetypes, so per-tick visibility, compressed cell demands, and
pairwise viewport IoU are computed once per *archetype* (via the
vectorized kernels — :func:`~repro.pointcloud.compute_visibility_batch`
and :func:`~repro.core.similarity.pairwise_iou_matrix`) and shared by
reference across the hundreds of users mapped to them.  Multicast groups
are archetype clusters: same-archetype users have identical viewports
(IoU 1), and archetypes whose IoU clears ``venue.min_group_iou`` merge by
deterministic union-find over the ``(-iou, i, j)``-sorted pair list.

Everything a room does is a pure function of ``(venue, room_index)`` —
never of which shard or worker runs it — which is what makes the shard
planner's merge bit-identical across shard counts
(``tests/scenario/test_churn_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.similarity import pairwise_iou_matrix
from ..geometry import Frustum
from ..mac.scheduler import FrameDemands, UserDemand, plan_frame
from ..net import transport as _transport
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.stream import ExactSum
from ..pointcloud import (
    CellGrid,
    DEFAULT_COMPRESSION,
    QUALITIES,
    VisibilityConfig,
    compute_visibility_batch,
    synthesize_video,
)
from ..sim import Environment
from ..traces import generate_user_study
from .population import ARRIVE, DEPART, room_schedule, room_sessions
from .spec import VenueSpec
from .systems import capacity_model
from ..core.rates import CapacityRateProvider

__all__ = ["ArchetypeLibrary", "ShardEngine", "run_shard"]

# Rooms are numbered into disjoint frame-id ranges so (unit, frame) span
# keys never collide when one shard traces several rooms.
FRAME_STRIDE = 1_000_000

# Tick evaluation sorts after same-instant churn: arrivals and departures
# at time t are admitted/released before the tick at t is evaluated.
_TICK = 2

_C_ARRIVALS = _metrics.counter(
    "scenario.users_arrived", unit="users", layer="scenario",
    help="arrivals admitted into a room (capacity permitting)",
)
_C_REJECTED = _metrics.counter(
    "scenario.admission_rejected", unit="users", layer="scenario",
    help="arrivals turned away because the room was at capacity",
)
_C_DEPARTURES = _metrics.counter(
    "scenario.users_departed", unit="users", layer="scenario",
    help="admitted users whose dwell time expired inside the scenario",
)
_C_TICKS = _metrics.counter(
    "scenario.room_ticks", unit="ticks", layer="scenario",
    help="per-room delivery evaluation instants processed",
)
_G_OCCUPANCY = _metrics.gauge(
    "scenario.room_occupancy", unit="users", layer="scenario",
    help="active users in the room currently being simulated (last write "
         "wins; per-room levels live in the trace's scenario.* events via "
         "the room/ap correlation fields)",
)

_EV_ARRIVAL = _trace.event_type(
    "scenario.user_arrival", layer="scenario",
    help="a user entered a room and was admitted",
    fields=("user", "active", "capacity"),
)
_EV_REJECTED = _trace.event_type(
    "scenario.user_rejected", layer="scenario",
    help="a user arrived at a full room and was turned away",
    fields=("user", "active", "capacity"),
)
_EV_DEPARTURE = _trace.event_type(
    "scenario.user_departure", layer="scenario",
    help="an admitted user's dwell ended and they left the room",
    fields=("user", "active"),
)
_EV_ROOM_TICK = _trace.event_type(
    "scenario.room_tick", layer="scenario",
    help="one delivery evaluation of a room: plan the active population's "
         "frame and record the airtime/fps it sustains",
    fields=("tick", "active", "groups_planned", "airtime_s", "fps", "frame"),
)


class ArchetypeLibrary:
    """Shared per-archetype content, visibility, and similarity caches.

    One library serves every room in a shard: content is cached per
    quality, and per-``(quality, tick)`` the archetype demands (compressed
    cell bytes), visibility maps, and multicast clustering are computed
    once with the vectorized kernels and reused by every room playing that
    quality.
    """

    def __init__(self, venue: VenueSpec) -> None:
        self.venue = venue
        # One behaviour trace per archetype; seeded by the venue seed so
        # archetype k means the same viewer everywhere in the venue.
        self.study = generate_user_study(
            num_users=venue.archetypes,
            duration_s=venue.duration_s,
            seed=venue.seed,
        )
        self._content: dict[str, tuple] = {}
        self._ticks: dict[tuple[str, int], tuple] = {}

    def _content_for(self, quality: str):
        if quality not in self._content:
            video = synthesize_video(
                quality,
                num_frames=150,
                points_per_frame=6000,
                seed=self.venue.seed,
            )
            grid = CellGrid.covering(
                video.bounds, self.venue.cell_size, margin=0.05
            )
            self._content[quality] = (video, grid)
        return self._content[quality]


    def tick_content(self, quality: str, tick: int):
        """``(cell_bytes per archetype, clusters)`` for one (quality, tick).

        ``cell_bytes`` is a tuple of per-archetype ``{cell id: bytes}``
        dicts (shared by reference into every user's demand); ``clusters``
        is the multicast partition of archetype indices under the venue's
        IoU threshold (singletons included), or ``None`` when grouping is
        off.
        """
        key = (quality, tick)
        if key not in self._ticks:
            video, grid = self._content_for(quality)
            occ = grid.occupancy(video[tick % len(video)])
            t = tick * self.venue.tick_s
            frustums = Frustum.many(
                trace.pose_at(t) for trace in self.study.traces
            )
            results = compute_visibility_batch(
                occ, frustums, VisibilityConfig()
            )
            level = QUALITIES[quality]
            scale = level.points_per_frame / video.quality.points_per_frame
            cell_bytes = [
                vis.priced_cells(
                    DEFAULT_COMPRESSION, level.points_per_frame, scale=scale
                )
                for vis in results
            ]
            clusters = None
            if self.venue.grouping != "none":
                clusters = self._cluster(
                    [vis.visible_set for vis in results]
                )
            self._ticks[key] = (tuple(cell_bytes), clusters)
        return self._ticks[key]

    def _cluster(self, maps: list[frozenset]) -> tuple[tuple[int, ...], ...]:
        """Union-find archetype clustering over the pairwise IoU matrix.

        Pairs are processed in sorted ``(-iou, i, j)`` order; connectivity
        under a fixed threshold is order-independent, but the sort keeps
        the walk itself deterministic and inspectable.
        """
        n = len(maps)
        iou = pairwise_iou_matrix(maps)
        pairs = sorted(
            (-float(iou[i, j]), i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if iou[i, j] >= self.venue.min_group_iou
        )
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        groups: dict[int, list[int]] = {}
        for a in range(n):
            groups.setdefault(find(a), []).append(a)
        return tuple(
            tuple(groups[root]) for root in sorted(groups)
        )


class _TickStats:
    """Constant-size fold of a room's per-tick delivery results.

    The streaming-observability replacement for the per-room tick *list*
    the engine used to retain: every tick folds into exact sums
    (:class:`~repro.obs.stream.ExactSum`) the moment it is evaluated, so a
    room's memory footprint is independent of its duration while the
    derived aggregates (mean/min fps, total airtime) stay bit-identical
    across shard counts and to a retained-list fold.
    """

    __slots__ = (
        "ticks", "active_ticks", "fps_sum", "min_fps", "airtime",
        "max_airtime_s",
    )

    def __init__(self) -> None:
        self.ticks = 0
        self.active_ticks = 0
        self.fps_sum = ExactSum()
        self.min_fps: float | None = None
        self.airtime = ExactSum()
        self.max_airtime_s = 0.0

    def fold(self, active: int, airtime_s: float, fps: float) -> None:
        """Fold one evaluated tick in (idle ticks count, but not to fps)."""
        self.ticks += 1
        self.airtime.add(airtime_s)
        if airtime_s > self.max_airtime_s:
            self.max_airtime_s = airtime_s
        if active > 0:
            self.active_ticks += 1
            self.fps_sum.add(fps)
            if self.min_fps is None or fps < self.min_fps:
                self.min_fps = fps

    def to_jsonable(self) -> dict:
        return {
            "ticks": self.ticks,
            "active_ticks": self.active_ticks,
            "fps_sum": self.fps_sum.value(),
            "min_fps": self.min_fps,
            "max_airtime_s": self.max_airtime_s,
        }


@dataclass
class _RoomState:
    """Mutable per-room simulation state the driver process updates."""

    active: dict[int, int]  # user id -> archetype (sorted iteration only)
    admitted: set[int]
    arrivals: int = 0
    rejected: int = 0
    departures: int = 0
    peak_active: int = 0


class ShardEngine:
    """Executes one shard: its rooms, sequentially, each on its own loop."""

    def __init__(self, venue: VenueSpec, room_indices: tuple[int, ...]) -> None:
        if not room_indices:
            raise ValueError("a shard needs at least one room")
        self.venue = venue
        self.room_indices = tuple(sorted(room_indices))
        self.library = ArchetypeLibrary(venue)

    def run(self) -> dict:
        """Run every room in the shard; rooms report in venue order."""
        rooms = [self._run_room(ri) for ri in self.room_indices]
        return {"rooms": rooms}

    # -- one room --------------------------------------------------------------

    def _run_room(self, room_index: int) -> dict:
        venue = self.venue
        room = venue.rooms[room_index]
        sessions = room_sessions(venue, room_index)
        schedule = room_schedule(sessions, venue.duration_s)
        by_id = {s.user_id: s for s in sessions}

        timeline: list[tuple[float, int, int]] = list(schedule)
        timeline.extend(
            (tick * venue.tick_s, _TICK, tick)
            for tick in range(venue.num_ticks)
        )
        timeline.sort()

        state = _RoomState(active={}, admitted=set())
        stats = _TickStats()

        recorder = _trace.active()
        if recorder is not None:
            recorder.set_context(room=room.name, ap=room.ap)
        try:
            env = Environment()

            def driver(env):
                for at, kind, payload in timeline:
                    if at > env.now:
                        yield env.timeout(at - env.now)
                    if kind == ARRIVE:
                        self._on_arrival(room, state, by_id[payload])
                    elif kind == DEPART:
                        self._on_departure(state, payload)
                    else:
                        stats.fold(
                            *self._on_tick(room_index, room, state, payload)
                        )

            env.process(driver(env))
            env.run()
        finally:
            if recorder is not None:
                recorder.context.pop("room", None)
                recorder.context.pop("ap", None)

        return {
            "room": room.name,
            "ap": room.ap,
            "room_index": room_index,
            "sessions": len(sessions),
            "arrivals": state.arrivals,
            "rejected": state.rejected,
            "departures": state.departures,
            "peak_active": state.peak_active,
            "tick_stats": stats.to_jsonable(),
            "mean_fps": (
                stats.fps_sum.value() / stats.active_ticks
                if stats.active_ticks
                else venue.target_fps
            ),
            "total_airtime_s": stats.airtime.value(),
        }

    def _on_arrival(self, room, state: _RoomState, session) -> None:
        if len(state.active) >= room.capacity:
            state.rejected += 1
            _C_REJECTED.inc()
            _EV_REJECTED.emit(
                user=session.user_id,
                active=len(state.active),
                capacity=room.capacity,
            )
            return
        state.active[session.user_id] = session.archetype
        state.admitted.add(session.user_id)
        state.arrivals += 1
        state.peak_active = max(state.peak_active, len(state.active))
        _C_ARRIVALS.inc()
        _G_OCCUPANCY.set(len(state.active))
        _EV_ARRIVAL.emit(
            user=session.user_id,
            active=len(state.active),
            capacity=room.capacity,
        )

    def _on_departure(self, state: _RoomState, user_id: int) -> None:
        if user_id not in state.active:
            return  # the arrival was rejected; nothing to release
        del state.active[user_id]
        state.departures += 1
        _C_DEPARTURES.inc()
        _G_OCCUPANCY.set(len(state.active))
        _EV_DEPARTURE.emit(user=user_id, active=len(state.active))

    def _on_tick(
        self, room_index: int, room, state: _RoomState, tick: int
    ) -> tuple[int, float, float]:
        venue = self.venue
        _C_TICKS.inc()
        frame = room_index * FRAME_STRIDE + tick
        uids = sorted(state.active)
        if not uids:
            _EV_ROOM_TICK.emit(
                tick=tick, active=0, groups_planned=0,
                airtime_s=0.0, fps=venue.target_fps, frame=frame,
            )
            return (0, 0.0, venue.target_fps)

        cell_bytes, clusters = self.library.tick_content(room.quality, tick)
        rates = CapacityRateProvider(
            model=capacity_model(venue.wlan),
            num_users=len(uids),
            multicast_rate_fraction=(
                venue.multicast_rate_fraction
                if venue.grouping != "none"
                else 1.0
            ),
        )
        unicast = rates.unicast_rate_mbps(0, 0)
        frame_demands = FrameDemands(
            UserDemand(
                user_id=uid,
                cell_bytes=cell_bytes[state.active[uid]],
                unicast_rate_mbps=unicast,
            )
            for uid in uids
        )

        groups: list[tuple[tuple[int, ...], float]] = []
        if clusters is not None:
            multicast_rates: dict[tuple[int, ...], float] = {}

            def multicast_rate(members: tuple[int, ...]) -> float:
                if members not in multicast_rates:
                    multicast_rates[members] = rates.multicast_rate_mbps(
                        members, 0
                    )
                return multicast_rates[members]

            def group_time(members: tuple[int, ...]) -> float:
                if len(members) < 2:
                    return frame_demands.unicast_time_s(members)
                return frame_demands.group_time_s(
                    members, multicast_rate(members)
                )

            by_cluster: dict[int, list[int]] = {}
            cluster_of = {
                arch: ci
                for ci, members in enumerate(clusters)
                for arch in members
            }
            for uid in uids:
                by_cluster.setdefault(
                    cluster_of[state.active[uid]], []
                ).append(uid)
            for ci in sorted(by_cluster):
                members = tuple(sorted(by_cluster[ci]))
                if len(members) < 2:
                    continue
                # The paper's admission principle, at cluster granularity:
                # serve the cluster by whichever partition delivers the
                # frame faster — one cluster-wide multicast (members eat
                # residual unicast legs), per-archetype multicasts
                # (identical viewports, residual-free), or pure unicast.
                by_arch: dict[int, list[int]] = {}
                for uid in members:
                    by_arch.setdefault(state.active[uid], []).append(uid)
                split = [
                    tuple(sorted(by_arch[arch])) for arch in sorted(by_arch)
                ]
                t_whole = group_time(members)
                t_split = sum(group_time(sub) for sub in split)
                t_solo = frame_demands.unicast_time_s(members)
                if venue.grouping == "qoe":
                    # QoE-aware admission: if plain unicast already fits
                    # this cluster's fair share of the frame deadline, the
                    # users cannot perceive any multicast speedup — skip
                    # the beam complexity entirely.
                    deadline_share = (
                        (1.0 / venue.target_fps) * (len(members) / len(uids))
                    )
                    if t_solo <= deadline_share:
                        continue
                best = min(t_whole, t_split, t_solo)
                if best == t_solo:
                    continue
                chosen = [members] if best == t_whole else split
                for sub in chosen:
                    if len(sub) >= 2:
                        groups.append((sub, multicast_rate(sub)))

        plan = plan_frame(frame_demands, groups, frame=frame)
        airtime = plan.total_time_s()
        fps = plan.achievable_fps(venue.target_fps)
        _EV_ROOM_TICK.emit(
            tick=tick, active=len(uids), groups_planned=len(groups),
            airtime_s=airtime, fps=fps, frame=frame,
        )
        if _trace._RECORDER is not None:
            _transport._EV_FRAME_OUTCOME.emit(
                airtime_s=airtime,
                users=len(uids),
                lost=0,
                packets=0,
                arq_rounds=0,
                retx_overhead=0.0,
                deadline_s=1.0 / venue.target_fps,
                frame=frame,
                delivered_users=uids,
                lost_users=[],
            )
        return (len(uids), airtime, fps)


def run_shard(venue: VenueSpec, room_indices: tuple[int, ...]) -> dict:
    """Convenience wrapper: build an engine for one shard and run it."""
    return ShardEngine(venue, room_indices).run()
