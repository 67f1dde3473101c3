"""The multi-user volumetric streaming session simulator.

Ties every substrate together on the discrete-event engine: per-user
visibility-aware demands, viewport prediction for prefetching, multicast
grouping on viewport similarity, beam-level (or calibrated) link rates,
cross-layer rate adaptation, and client playback with stall accounting.

Two entry points:

* :func:`measure_max_fps` — the steady-state measurement Table 1 reports:
  for each frame, how long does delivering it to every user take, and what
  frame rate does that sustain?  No buffers, no adaptation — exactly the
  "maximum achievable frame rate" benchmark.
* :class:`StreamingSession` — the full closed-loop simulation with buffers,
  prediction, adaptation and QoE accounting, used for the research-agenda
  ablations (Abl-B/C/D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..geometry import Frustum, frustum_planes
from ..mac.scheduler import FramePlan, UserDemand, plan_frame
from ..net import TransportConfig, TransportSimulator
from ..pointcloud import (
    CellGrid,
    CompressionModel,
    DEFAULT_COMPRESSION,
    FrameOccupancy,
    PointCloudVideo,
    QUALITIES,
    VisibilityConfig,
    VisibilityResult,
    compute_visibility,
    compute_visibility_batch,
    compute_visibility_planes,
)
from ..prediction.base import ViewportPredictor
from ..prediction.blockage import BlockageForecaster
from ..sim import Environment
from ..traces import UserStudy
from .adaptation import AdaptationInputs, AdaptationPolicy, FixedQualityPolicy
from .client import BufferedFrame, ClientBuffer
from .grouping import (
    exhaustive_grouping,
    greedy_similarity_grouping,
    no_grouping,
    qoe_aware_grouping,
)
from ..obs import trace as _trace
from .qoe import (
    ADAPTATION_DECISION,
    FRAME_PLAYED,
    FRAMES_PLAYED,
    PLAYBACK_STATE,
    QOE_SAMPLE,
    QUALITY_SWITCHES,
    QoEReport,
    STALL_SECONDS,
    UserSessionStats,
)
from .rates import RateProvider

__all__ = ["SessionConfig", "StreamingSession", "measure_max_fps"]


@dataclass
class SessionConfig:
    """Everything that defines one streaming experiment."""

    video: PointCloudVideo
    study: UserStudy
    rates: RateProvider
    cell_size: float = 0.5
    visibility: VisibilityConfig = field(default_factory=VisibilityConfig)
    grouping: str = "none"  # "none" | "greedy" | "qoe" | "exhaustive"
    adaptation: AdaptationPolicy = field(
        default_factory=lambda: FixedQualityPolicy("high")
    )
    predictor: ViewportPredictor | None = None  # None -> oracle poses
    blockage_forecaster: BlockageForecaster | None = None
    compression: CompressionModel = DEFAULT_COMPRESSION
    target_fps: float = 30.0
    duration_s: float | None = None
    startup_frames: int = 2
    adaptation_interval_s: float = 1.0
    max_buffer_frames: int = 30
    beam_switch_overhead_s: float = 0.0
    min_group_iou: float = 0.05
    # Packet-level delivery model; the "ideal" default keeps the fluid
    # transfer-time math (and every pre-existing result) unchanged.
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if self.grouping not in ("none", "greedy", "qoe", "exhaustive"):
            raise ValueError(f"unknown grouping policy {self.grouping!r}")
        if self.target_fps <= 0:
            raise ValueError("target_fps must be positive")
        if self.startup_frames < 1:
            raise ValueError("startup_frames must be >= 1")

    @property
    def session_length_s(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return self.study.num_samples / self.study.rate_hz

    @property
    def num_frames(self) -> int:
        return int(round(self.session_length_s * self.target_fps))


class _OracleTable:
    """One study's oracle (predictor-free) visibility of one video.

    An oracle pose depends only on the trace and the frame's display time,
    and a visibility result only on that pose, the frame's occupancy and
    the :class:`VisibilityConfig`, not on any adaptation or grouping
    policy.  So every session that replays a study with the same video,
    grid, visibility config, ``target_fps`` and frame count reads one
    table (:func:`_oracle_key`) from ``UserStudy._oracle``: the ``(F, U)``
    oracle planes and one :class:`VisibilityResult` per culled (frame,
    user).  The table lives as long as the study.
    """

    def __init__(self, video: PointCloudVideo) -> None:
        # Held so that the id(video) in this table's key stays this video's.
        self.video = video
        self.planes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.rows: dict[int, dict[int, VisibilityResult]] = {}  # frame -> user


def _oracle_key(config: SessionConfig, grid: CellGrid, num_frames: int) -> tuple:
    """The value key of a session's oracle table on its study."""
    return (
        id(config.video),
        float(grid.cell_size),
        grid.bounds.lo.tobytes(),
        grid.bounds.hi.tobytes(),
        config.visibility,
        float(config.target_fps),
        int(num_frames),
    )


class _DemandBuilder:
    """Computes per-user frame demands (visibility + compression).

    With no predictor every viewer's pose is the oracle pose at its frame's
    display time, known for the whole session up front, so the oracle
    state lives on the study in an :class:`_OracleTable` that every session
    replaying it shares.  On first use the table's planes interpolate all
    ``num_frames`` frames of every trace with :meth:`Trace.poses_at` and
    build them in one :func:`frustum_planes` call, ``(F, U, ...)`` arrays
    that each frame then slices.  Each frame's visibility fills lazily:
    one :func:`compute_visibility_planes` call over only the users the
    frame still misses, so the first session culls each (frame, user) once
    and later sessions cull nothing.  A predictor's poses depend on the
    request time, so that path builds each frame's frusta from
    :meth:`pose_for` and memoizes nothing.
    """

    def __init__(self, config: SessionConfig, num_frames: int) -> None:
        self.config = config
        self.num_frames = num_frames
        margin = 0.05
        self.grid = CellGrid.covering(
            config.video.bounds, config.cell_size, margin=margin
        )
        self._oracle: _OracleTable | None = None

    def occupancy(self, frame_index: int) -> FrameOccupancy:
        """The frame's occupancy, memoized on the frame itself, so sessions
        over the same video share it."""
        video = self.config.video
        return self.grid.occupancy(video[frame_index % len(video)])

    def pose_for(self, user_index: int, frame_index: int, now_s: float):
        """Pose used to compute the demand: predicted or oracle."""
        trace = self.config.study.traces[user_index]
        display_t = frame_index / self.config.target_fps
        predictor = self.config.predictor
        horizon = display_t - now_s
        if predictor is None or horizon <= 0:
            return trace.pose_at(display_t)
        now_index = trace.index_at(now_s)
        history = trace.window(now_index, int(round(trace.rate_hz)))
        return predictor.predict(history, horizon)

    def oracle_table(self) -> _OracleTable:
        """This session's oracle table on its study, made on first use."""
        if self._oracle is None:
            memo = self.config.study._oracle
            key = _oracle_key(self.config, self.grid, self.num_frames)
            table = memo.get(key)
            if table is None:
                table = memo[key] = _OracleTable(self.config.video)
            self._oracle = table
        return self._oracle

    def oracle_planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every frame's oracle eyes ``(F, U, 3)``, plane normals
        ``(F, U, 6, 3)`` and offsets ``(F, U, 6)``, built on first use."""
        table = self.oracle_table()
        if table.planes is None:
            ts = np.arange(self.num_frames) / self.config.target_fps
            poses = [trace.poses_at(ts) for trace in self.config.study.traces]
            eyes = np.stack([p for p, _ in poses], axis=1)  # (F, U, 3)
            quats = np.stack([q for _, q in poses], axis=1)  # (F, U, 4)
            table.planes = (eyes, *frustum_planes(eyes, quats))
        return table.planes

    def _visibility(
        self, users: Sequence[int], frame_index: int, now_s: float
    ) -> list[VisibilityResult]:
        """The listed users' visibility of one frame, culled as one batch."""
        config = self.config.visibility
        if self.config.predictor is None:
            rows = self.oracle_table().rows.setdefault(frame_index, {})
            missing = [u for u in users if u not in rows]
            if missing:
                eyes, normals, offsets = self.oracle_planes()
                index = (frame_index, missing)
                results = compute_visibility_planes(
                    self.occupancy(frame_index),
                    eyes[index], normals[index], offsets[index], config,
                )
                rows.update(zip(missing, results))
            return [rows[u] for u in users]
        poses = [self.pose_for(u, frame_index, now_s) for u in users]
        return compute_visibility_batch(
            self.occupancy(frame_index), Frustum.many(poses), config
        )

    def demands(
        self,
        users: Sequence[int],
        frame_index: int,
        qualities: Sequence[str],
        now_s: float,
        unicast_rates_mbps: Sequence[float],
    ) -> list[UserDemand]:
        """Every listed user's demand for one frame, in ``users`` order.

        ``qualities`` and ``unicast_rates_mbps`` align with ``users``.  All
        users are culled in one batch over the frame's shared occupancy.
        """
        results = self._visibility(users, frame_index, now_s)
        compression = self.config.compression
        source_points = self.config.video.quality.points_per_frame
        demands = []
        for u, vis, quality, rate in zip(users, results, qualities, unicast_rates_mbps):
            level = QUALITIES[quality]
            cell_bytes = vis.priced_cells(
                compression,
                level.points_per_frame,
                scale=level.points_per_frame / source_points,
            )
            demands.append(UserDemand(u, cell_bytes, rate))
        return demands

    def visible_fraction(self, user_index: int, frame_index: int, now_s: float) -> float:
        # One viewer per call: each user asks about its own next playback
        # frame, so the users of one adaptation tick share no occupancy.
        if self.config.predictor is None:
            (vis,) = self._visibility([user_index], frame_index, now_s)
            return vis.visible_fraction
        occ = self.occupancy(frame_index)
        pose = self.pose_for(user_index, frame_index, now_s)
        vis = compute_visibility(occ, pose.frustum(), self.config.visibility)
        return vis.visible_fraction


def _frame_plan(
    config: SessionConfig,
    demands: list[UserDemand],
    sample_index: int,
    frame: int | None = None,
) -> FramePlan:
    """One frame's final delivery plan.

    The configured grouping policy partitions the frame's demands; when the
    config charges a beam-switch overhead, the policy's groups are planned
    again with it.  ``frame`` is a trace-only correlation field threaded
    into the policy's decision event; it never changes the partition.
    """
    rate_fn = lambda members: config.rates.multicast_rate_mbps(  # noqa: E731
        members, sample_index
    )
    if config.grouping == "none" or len(demands) < 2:
        result = no_grouping(demands, frame=frame)
    elif config.grouping == "greedy":
        result = greedy_similarity_grouping(
            demands, rate_fn, min_iou=config.min_group_iou, frame=frame
        )
    elif config.grouping == "qoe":
        result = qoe_aware_grouping(
            demands, rate_fn, target_fps=config.target_fps,
            min_iou=config.min_group_iou, frame=frame,
        )
    else:
        result = exhaustive_grouping(demands, rate_fn, frame=frame)
    plan = result.plan
    if config.beam_switch_overhead_s:
        plan = plan_frame(
            plan.frame_demands,
            groups=plan.groups,
            beam_switch_overhead_s=config.beam_switch_overhead_s,
            frame=frame,
        )
    return plan


def measure_max_fps(
    config: SessionConfig,
    num_frames: int | None = None,
    stride: int = 1,
) -> np.ndarray:
    """Per-frame maximum achievable FPS (the Table 1 measurement).

    For each sampled frame: every user demands the frame at their current
    pose and the session's fixed quality; the configured grouping policy
    plans the delivery; the sustainable rate is ``1 / plan_time`` capped at
    the content frame rate.
    """
    session_frames = config.num_frames
    builder = _DemandBuilder(config, session_frames)
    total = num_frames if num_frames is not None else session_frames
    total = min(total, session_frames)
    num_users = len(config.study)
    transport = (
        None if config.transport.is_ideal else TransportSimulator(config.transport)
    )
    fps = []
    users = range(num_users)
    for f in range(0, total, stride):
        now_s = f / config.target_fps
        sample = min(f, config.study.num_samples - 1)
        rss = []
        qualities = []
        rates = []
        for u in users:
            rss.append(config.rates.rss_dbm(u, sample))
            decision = config.adaptation.decide(
                AdaptationInputs(
                    user_id=u,
                    buffer_level_s=0.0,
                    observed_throughput_mbps=0.0,
                    current_quality="high",
                    rss_dbm=rss[u],
                )
            )
            qualities.append(decision.quality)
            rates.append(config.rates.unicast_rate_mbps(u, sample))
        demands = builder.demands(users, f, qualities, now_s, rates)
        plan = _frame_plan(config, demands, sample, frame=f)
        if transport is None:
            fps.append(plan.achievable_fps(cap_fps=config.target_fps))
        else:
            pers = {u: transport.link_per(rss[u]) for u in range(num_users)}
            outcome = transport.frame_outcome(
                plan, pers, target_fps=config.target_fps, frame=f
            )
            fps.append(outcome.effective_fps(cap_fps=config.target_fps))
    return np.array(fps)


class StreamingSession:
    """Closed-loop multi-user streaming simulation."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        # Read on every process step; the config is fixed for the run.
        self.session_length_s = config.session_length_s
        self.num_frames = config.num_frames
        self.builder = _DemandBuilder(config, self.num_frames)
        self.env = Environment()
        n = len(config.study)
        self.buffers = [
            ClientBuffer(
                user_id=u,
                fps=config.target_fps,
                max_buffered_frames=config.max_buffer_frames,
            )
            for u in range(n)
        ]
        self.stats = [UserSessionStats(user_id=u) for u in range(n)]
        self.quality = ["high" if _is_fixed_high(config.adaptation) else "low"] * n
        self.prefetch_extra = [0] * n
        self.bytes_delivered = [0.0] * n
        self._playing = [False] * n
        self._stalled = [False] * n
        self.transport = (
            None
            if config.transport.is_ideal
            else TransportSimulator(config.transport)
        )
        # Cross-layer loss accounting, reset each adaptation interval.
        self._tx_attempts = [0] * n
        self._tx_failures = [0] * n
        self._airtime_actual = 0.0
        self._airtime_ideal = 0.0

    # -- helpers ---------------------------------------------------------

    def _sample_index(self) -> int:
        return min(
            int(self.env.now * self.config.study.rate_hz),
            self.config.study.num_samples - 1,
        )

    def _next_needed(self, user: int) -> int | None:
        """Next frame index user needs, or None if the window is full."""
        buf = self.buffers[user]
        candidate = buf.next_playback_index
        window = self.config.max_buffer_frames + self.prefetch_extra[user]
        while candidate < self.num_frames:
            if candidate >= buf.next_playback_index + window:
                return None
            if not buf.has_frame(candidate):
                return candidate
            candidate += 1
        return None

    def _find_work(self, live: list[bool]) -> tuple[int, list[int]] | None:
        """The most urgent frame to transmit and the (live) users who need it.

        Users whose link is in outage are ignored so they cannot
        head-of-line-block everyone else's downloads.
        """
        needed: dict[int, list[int]] = {}
        for u in range(len(self.buffers)):
            if not live[u]:
                continue
            nxt = self._next_needed(u)
            if nxt is not None:
                needed.setdefault(nxt, []).append(u)
        if not needed:
            return None
        frame = min(needed)
        return frame, needed[frame]

    # -- processes ------------------------------------------------------------

    def _server(self):
        config = self.config
        dt = 1.0 / config.target_fps
        num_users = len(self.buffers)
        while self.env.now < self.session_length_s:
            sample = self._sample_index()
            rates = [
                config.rates.unicast_rate_mbps(u, sample) for u in range(num_users)
            ]
            live = [r > 0.0 for r in rates]
            work = self._find_work(live)
            if work is None:
                yield self.env.timeout(dt / 2.0)
                continue
            frame_index, users = work
            demands = self.builder.demands(
                users,
                frame_index,
                [self.quality[u] for u in users],
                self.env.now,
                [rates[u] for u in users],
            )
            plan = _frame_plan(config, demands, sample, frame=frame_index)
            t_tx = plan.total_time_s()
            if not np.isfinite(t_tx) or t_tx > 1.0:
                yield self.env.timeout(dt)
                continue
            if self.transport is None:
                # Even an empty-payload transmission costs MAC framing time;
                # this also guarantees simulated time always advances.
                yield self.env.timeout(max(t_tx, 1e-5))
                delivered_users = None  # fluid delivery never loses a frame
            else:
                pers = {
                    u: self.transport.link_per(config.rates.rss_dbm(u, sample))
                    for u in users
                }
                t0 = self.env.now
                outcome = yield self.env.process(
                    self.transport.deliver(
                        self.env, plan, pers, config.target_fps,
                        frame=frame_index,
                    )
                )
                if self.env.now <= t0:
                    yield self.env.timeout(1e-5)
                delivered_users = {
                    u for u, ok in outcome.delivered.items() if ok
                }
                self._airtime_actual += outcome.airtime_s
                self._airtime_ideal += t_tx
                for u in users:
                    self._tx_attempts[u] += 1
                    if u not in delivered_users:
                        self._tx_failures[u] += 1
            for u, demand in zip(users, demands):
                if delivered_users is not None and u not in delivered_users:
                    continue  # lost frame: the user must re-request it
                buf = self.buffers[u]
                extra = self.prefetch_extra[u]
                if buf.can_accept(frame_index, extra_window=extra):
                    level = QUALITIES[self.quality[u]]
                    buf.deposit(
                        BufferedFrame(
                            frame_index=frame_index,
                            quality=self.quality[u],
                            nominal_points=level.points_per_frame,
                            arrived_at_s=self.env.now,
                        ),
                        extra_window=extra,
                    )
                self.bytes_delivered[u] += demand.total_bytes

    def _client(self, user: int):
        config = self.config
        dt = 1.0 / config.target_fps
        buf = self.buffers[user]
        stats = self.stats[user]
        played_this_second = 0
        second_mark = self.env.now + 1.0
        while self.env.now < self.session_length_s:
            yield self.env.timeout(dt)
            if not self._playing[user]:
                if buf.buffered_frames >= config.startup_frames:
                    self._playing[user] = True
                    if _trace._RECORDER is not None:
                        PLAYBACK_STATE.emit(
                            t=self.env.now, user=user, state="playing"
                        )
                continue
            if buf.next_playback_index >= self.num_frames:
                break  # finished the content
            frame = buf.play_next()
            if frame is None:
                stats.stall_time_s += dt
                STALL_SECONDS.inc(dt)
                if not self._stalled[user]:
                    stats.stall_count += 1
                    self._stalled[user] = True
                    if _trace._RECORDER is not None:
                        PLAYBACK_STATE.emit(
                            t=self.env.now, user=user, state="stalled"
                        )
            else:
                if self._stalled[user] and _trace._RECORDER is not None:
                    PLAYBACK_STATE.emit(
                        t=self.env.now, user=user, state="resumed"
                    )
                self._stalled[user] = False
                stats.frames_played += 1
                FRAMES_PLAYED.inc()
                played_this_second += 1
                deadline = frame.frame_index / config.target_fps + 0.5
                on_time = frame.arrived_at_s <= deadline
                if on_time:
                    stats.frames_on_time += 1
                if _trace._RECORDER is not None:
                    FRAME_PLAYED.emit(
                        t=self.env.now,
                        quality=frame.quality,
                        on_time=on_time,
                        **_trace.correlation(
                            frame=frame.frame_index, user=user
                        ),
                    )
                stats.bitrate_samples_mbps.append(
                    QUALITIES[frame.quality].bitrate_mbps
                )
            if self.env.now >= second_mark:
                stats.fps_samples.append(played_this_second)
                if _trace._RECORDER is not None:
                    QOE_SAMPLE.emit(
                        t=self.env.now, user=user, fps=played_this_second
                    )
                played_this_second = 0
                second_mark += 1.0

    def _adaptation(self):
        config = self.config
        interval = config.adaptation_interval_s
        while self.env.now < self.session_length_s:
            yield self.env.timeout(interval)
            sample = self._sample_index()
            forecast = None
            if config.blockage_forecaster is not None:
                history_needed = int(round(config.study.rate_hz))
                if sample >= history_needed:
                    forecast = config.blockage_forecaster.forecast_at(
                        config.study, sample
                    )
            if self._airtime_ideal > 0:
                retx_overhead = max(
                    0.0, self._airtime_actual / self._airtime_ideal - 1.0
                )
            else:
                retx_overhead = 0.0
            self._airtime_actual = 0.0
            self._airtime_ideal = 0.0
            for u in range(len(self.buffers)):
                throughput = self.bytes_delivered[u] * 8.0 / interval / 1e6
                self.bytes_delivered[u] = 0.0
                attempts = self._tx_attempts[u]
                residual_loss = (
                    self._tx_failures[u] / attempts if attempts else 0.0
                )
                self._tx_attempts[u] = 0
                self._tx_failures[u] = 0
                frame_hint = min(
                    self.buffers[u].next_playback_index, self.num_frames - 1
                )
                inputs = AdaptationInputs(
                    user_id=u,
                    buffer_level_s=self.buffers[u].buffer_level_s,
                    observed_throughput_mbps=throughput,
                    current_quality=self.quality[u],
                    rss_dbm=config.rates.rss_dbm(u, sample),
                    blockage_predicted=(
                        bool(forecast.will_block[u]) if forecast else False
                    ),
                    visible_fraction=self.builder.visible_fraction(
                        u, frame_hint, self.env.now
                    ),
                    residual_loss_rate=residual_loss,
                    retx_overhead=retx_overhead,
                )
                decision = config.adaptation.decide(inputs)
                if _trace._RECORDER is not None:
                    ADAPTATION_DECISION.emit(
                        t=self.env.now,
                        user=u,
                        quality=decision.quality,
                        prefetch_extra=decision.prefetch_extra_frames,
                        throughput_mbps=throughput,
                        policy=getattr(
                            config.adaptation,
                            "policy_name",
                            type(config.adaptation).__name__,
                        ),
                    )
                if decision.quality != self.quality[u]:
                    self.stats[u].quality_switches += 1
                    QUALITY_SWITCHES.inc()
                    self.quality[u] = decision.quality
                self.prefetch_extra[u] = decision.prefetch_extra_frames

    # -- entry ------------------------------------------------------------

    def run(self) -> QoEReport:
        self.env.process(self._server())
        self.env.process(self._adaptation())
        for u in range(len(self.buffers)):
            self.env.process(self._client(u))
        self.env.run(until=self.session_length_s)
        return QoEReport(
            users=self.stats, session_length_s=self.session_length_s
        )


def _is_fixed_high(policy: AdaptationPolicy) -> bool:
    return isinstance(policy, FixedQualityPolicy) and policy.quality == "high"
