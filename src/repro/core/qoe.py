"""Quality-of-experience accounting for streaming sessions.

The standard streaming QoE decomposition: delivered quality (bitrate),
re-buffering (stalls), and quality instability (switches).  The composite
score follows the widely used linear form

    QoE = mean_bitrate - lambda * stall_time_per_s - mu * switch_rate

normalized per played second so sessions of different lengths compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["QoEWeights", "UserSessionStats", "QoEReport"]

# Shared core-layer instrumentation: declared here (the QoE accounting
# module) and emitted by the session simulator and the open-loop sweeps.
FRAMES_PLAYED = _metrics.counter(
    "core.frames_played", unit="frames", layer="core",
    help="frames played out across all client buffers",
)
STALL_SECONDS = _metrics.counter(
    "core.stall_seconds", unit="s", layer="core",
    help="playback stall time accumulated across all users",
)
QUALITY_SWITCHES = _metrics.counter(
    "core.quality_switches", unit="switches", layer="core",
    help="quality-level changes committed by the adaptation policy",
)
QOE_SAMPLE = _trace.event_type(
    "core.qoe_sample", layer="core",
    help="one frame-rate QoE sample (per user per played second in the "
         "closed loop; per frame with user -1 in open-loop sweeps)",
    fields=("user", "fps", "frame"),
)
FRAME_PLAYED = _trace.event_type(
    "core.frame_played", layer="core",
    help="a client buffer played out one frame (the end of the frame's "
         "cross-layer span); on_time compares arrival against the playback "
         "deadline",
    fields=("user", "frame", "quality", "on_time"),
)
PLAYBACK_STATE = _trace.event_type(
    "core.playback_state", layer="core",
    help="a client's playback state changed (playing, stalled, resumed)",
    fields=("user", "state"),
)
ADAPTATION_DECISION = _trace.event_type(
    "core.adaptation_decision", layer="core",
    help="the adaptation policy committed a quality/prefetch decision for "
         "one user; policy names which strategy decided (see "
         "docs/POLICIES.md)",
    fields=("user", "quality", "prefetch_extra", "throughput_mbps", "policy"),
)


@dataclass(frozen=True)
class QoEWeights:
    """Weights of the composite QoE score."""

    stall_penalty_mbps: float = 500.0  # one second of stall ≈ losing 500 Mbps quality
    switch_penalty_mbps: float = 30.0

    def __post_init__(self) -> None:
        if self.stall_penalty_mbps < 0 or self.switch_penalty_mbps < 0:
            raise ValueError("penalties must be non-negative")


@dataclass
class UserSessionStats:
    """Per-user streaming outcome over one session."""

    user_id: int
    frames_played: int = 0
    frames_on_time: int = 0
    stall_time_s: float = 0.0
    stall_count: int = 0
    quality_switches: int = 0
    bitrate_samples_mbps: list[float] = field(default_factory=list)
    fps_samples: list[float] = field(default_factory=list)

    @property
    def mean_bitrate_mbps(self) -> float:
        if not self.bitrate_samples_mbps:
            return 0.0
        return float(np.mean(self.bitrate_samples_mbps))

    @property
    def mean_fps(self) -> float:
        if not self.fps_samples:
            return 0.0
        return float(np.mean(self.fps_samples))

    def score(self, weights: QoEWeights, session_length_s: float) -> float:
        """Composite QoE (Mbps-equivalent, higher is better)."""
        if session_length_s <= 0:
            raise ValueError("session_length_s must be positive")
        per_s_stall = self.stall_time_s / session_length_s
        per_s_switch = self.quality_switches / session_length_s
        return (
            self.mean_bitrate_mbps
            - weights.stall_penalty_mbps * per_s_stall
            - weights.switch_penalty_mbps * per_s_switch
        )


@dataclass
class QoEReport:
    """Session-level QoE: all users plus aggregates."""

    users: list[UserSessionStats]
    session_length_s: float
    weights: QoEWeights = field(default_factory=QoEWeights)

    def __post_init__(self) -> None:
        if not self.users:
            raise ValueError("a report needs at least one user")

    @property
    def mean_fps(self) -> float:
        return float(np.mean([u.mean_fps for u in self.users]))

    @property
    def min_fps(self) -> float:
        return float(np.min([u.mean_fps for u in self.users]))

    @property
    def mean_bitrate_mbps(self) -> float:
        return float(np.mean([u.mean_bitrate_mbps for u in self.users]))

    @property
    def total_stall_time_s(self) -> float:
        return float(sum(u.stall_time_s for u in self.users))

    @property
    def total_quality_switches(self) -> int:
        return int(sum(u.quality_switches for u in self.users))

    def mean_score(self) -> float:
        return float(
            np.mean([u.score(self.weights, self.session_length_s) for u in self.users])
        )

    def summary(self) -> dict[str, float]:
        """Flat dict for tabular experiment output."""
        return {
            "users": float(len(self.users)),
            "mean_fps": self.mean_fps,
            "min_fps": self.min_fps,
            "mean_bitrate_mbps": self.mean_bitrate_mbps,
            "stall_time_s": self.total_stall_time_s,
            "quality_switches": float(self.total_quality_switches),
            "qoe_score": self.mean_score(),
        }
