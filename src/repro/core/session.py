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

from ..geometry import Frustum
from ..mac.scheduler import UserDemand, plan_frame
from ..net import TransportConfig, TransportSimulator
from ..pointcloud import (
    CellGrid,
    CompressionModel,
    DEFAULT_COMPRESSION,
    PointCloudVideo,
    QUALITIES,
    VisibilityConfig,
    VisibilityResult,
    compute_visibility,
    compute_visibility_batch,
)
from ..prediction.base import ViewportPredictor
from ..prediction.blockage import BlockageForecaster
from ..sim import Environment
from ..traces import UserStudy
from .adaptation import AdaptationInputs, AdaptationPolicy, FixedQualityPolicy
from .client import BufferedFrame, ClientBuffer
from .grouping import (
    GroupingResult,
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
    # "grid" = uniform cells of ``cell_size``; "octree" = adaptive leaves
    # targeting ``octree_points_per_leaf`` sampled points each.
    partitioner: str = "grid"
    octree_points_per_leaf: int = 300
    # Packet-level delivery model; the "ideal" default keeps the fluid
    # transfer-time math (and every pre-existing result) unchanged.
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if self.grouping not in ("none", "greedy", "qoe", "exhaustive"):
            raise ValueError(f"unknown grouping policy {self.grouping!r}")
        if self.partitioner not in ("grid", "octree"):
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
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


class _DemandBuilder:
    """Computes per-user frame demands (visibility + compression)."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        margin = 0.05
        self.grid = CellGrid.covering(
            config.video.bounds, config.cell_size, margin=margin
        )
        self._octree_cache: dict[int, object] = {}

    def occupancy(self, frame_index: int):
        """The frame's occupancy; grid occupancies are memoized on the
        frame itself, so sessions over the same video share them."""
        vf = frame_index % len(self.config.video)
        frame = self.config.video[vf]
        if self.config.partitioner == "grid":
            return self.grid.occupancy(frame)
        if vf not in self._octree_cache:
            from ..pointcloud import build_octree

            tree = build_octree(
                frame,
                root=self.config.video.bounds,
                max_points_per_leaf=self.config.octree_points_per_leaf,
            )
            self._octree_cache[vf] = tree.occupancy()
        return self._octree_cache[vf]

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
        users' frusta come from one batched plane build and are culled in
        one :func:`compute_visibility_batch` call over the frame's shared
        occupancy.
        """
        occ = self.occupancy(frame_index)
        poses = [self.pose_for(u, frame_index, now_s) for u in users]
        results = compute_visibility_batch(
            occ, Frustum.many(poses), self.config.visibility
        )
        return [
            self._demand(u, vis, quality, rate)
            for u, vis, quality, rate in zip(
                users, results, qualities, unicast_rates_mbps
            )
        ]

    def _demand(
        self,
        user_index: int,
        vis: VisibilityResult,
        quality: str,
        unicast_rate_mbps: float,
    ) -> UserDemand:
        level = QUALITIES[quality]
        scale = level.points_per_frame / self.config.video.quality.points_per_frame
        cell_bytes = {}
        for cid, frac, count in zip(vis.cell_ids, vis.fractions, vis.nominal_counts):
            points = frac * count * scale
            cell_bytes[int(cid)] = self.config.compression.cell_bytes(
                points, level.points_per_frame
            )
        return UserDemand(
            user_id=user_index,
            cell_bytes=cell_bytes,
            unicast_rate_mbps=unicast_rate_mbps,
        )

    def visible_fraction(self, user_index: int, frame_index: int, now_s: float) -> float:
        occ = self.occupancy(frame_index)
        pose = self.pose_for(user_index, frame_index, now_s)
        vis = compute_visibility(occ, pose.frustum(), self.config.visibility)
        return vis.visible_fraction


def _group_demands(
    config: SessionConfig,
    demands: list[UserDemand],
    sample_index: int,
    frame: int | None = None,
) -> GroupingResult:
    """Apply the configured grouping policy to one frame's demands.

    ``frame`` is a trace-only correlation field threaded into the policy's
    decision event; it never changes the partition.
    """
    rate_fn = lambda members: config.rates.multicast_rate_mbps(  # noqa: E731
        members, sample_index
    )
    if config.grouping == "none" or len(demands) < 2:
        return no_grouping(demands, frame=frame)
    if config.grouping == "greedy":
        return greedy_similarity_grouping(
            demands, rate_fn, min_iou=config.min_group_iou, frame=frame
        )
    if config.grouping == "qoe":
        return qoe_aware_grouping(
            demands, rate_fn, target_fps=config.target_fps,
            min_iou=config.min_group_iou, frame=frame,
        )
    return exhaustive_grouping(demands, rate_fn, frame=frame)


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
    builder = _DemandBuilder(config)
    total = num_frames if num_frames is not None else config.num_frames
    total = min(total, config.num_frames)
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
        result = _group_demands(config, demands, sample, frame=f)
        plan = result.plan
        if config.beam_switch_overhead_s:
            plan = plan_frame(
                plan.frame_demands,
                groups=plan.groups,
                beam_switch_overhead_s=config.beam_switch_overhead_s,
                frame=f,
            )
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
        self.builder = _DemandBuilder(config)
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
            result = _group_demands(config, demands, sample, frame=frame_index)
            plan = result.plan
            if config.beam_switch_overhead_s:
                plan = plan_frame(
                    plan.frame_demands,
                    groups=plan.groups,
                    beam_switch_overhead_s=config.beam_switch_overhead_s,
                    frame=frame_index,
                )
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
