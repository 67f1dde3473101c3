"""Trace analytics: the motion statistics a user-study release reports.

Characterizes 6DoF traces the way the ViVo/paper user studies do —
translational speed, roaming extent, angular velocity, viewing distance —
individually and aggregated per device group, so synthetic and (future)
real traces can be compared on the same footing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Quaternion
from .trace import Device, Trace
from .userstudy import UserStudy

__all__ = ["TraceStatistics", "trace_statistics", "study_statistics"]


@dataclass(frozen=True)
class TraceStatistics:
    """Motion summary of one trace."""

    user_id: int
    device: Device
    duration_s: float
    mean_speed_mps: float
    p95_speed_mps: float
    position_spread_m: float
    mean_angular_speed_dps: float
    mean_viewing_distance_m: float


def _angular_speeds_dps(trace: Trace) -> np.ndarray:
    """Per-sample angular speed in degrees/second."""
    if len(trace) < 2:
        return np.zeros(1)
    angles = []
    prev = Quaternion.from_array(trace.orientations[0])
    for q in trace.orientations[1:]:
        current = Quaternion.from_array(q)
        angles.append(prev.angle_to(current))
        prev = current
    return np.rad2deg(np.array(angles)) * trace.rate_hz


def trace_statistics(
    trace: Trace, content_center: np.ndarray | None = None
) -> TraceStatistics:
    """Compute the motion summary of one trace.

    ``content_center`` anchors the viewing-distance statistic (defaults to
    the origin, where the synthetic study places the content).
    """
    center = (
        np.zeros(3) if content_center is None
        else np.asarray(content_center, dtype=np.float64)
    )
    speeds = np.linalg.norm(trace.velocities(), axis=1)
    distances = np.linalg.norm(trace.positions[:, :2] - center[:2], axis=1)
    return TraceStatistics(
        user_id=trace.user_id,
        device=trace.device,
        duration_s=trace.duration,
        mean_speed_mps=float(np.mean(speeds)),
        p95_speed_mps=float(np.percentile(speeds, 95)),
        position_spread_m=trace.position_spread(),
        mean_angular_speed_dps=float(np.mean(_angular_speeds_dps(trace))),
        mean_viewing_distance_m=float(np.mean(distances)),
    )


def study_statistics(
    study: UserStudy, content_center: np.ndarray | None = None
) -> dict[Device, dict[str, float]]:
    """Per-device aggregate motion statistics over a study.

    Returns ``{device: {metric: mean over that device's users}}`` — the
    table that substantiates the paper's "headset users move relatively
    more freely" observation.
    """
    out: dict[Device, dict[str, float]] = {}
    for device in Device:
        traces = study.by_device(device)
        if not traces:
            continue
        stats = [trace_statistics(t, content_center) for t in traces]
        out[device] = {
            "users": float(len(stats)),
            "mean_speed_mps": float(np.mean([s.mean_speed_mps for s in stats])),
            "p95_speed_mps": float(np.mean([s.p95_speed_mps for s in stats])),
            "position_spread_m": float(
                np.mean([s.position_spread_m for s in stats])
            ),
            "mean_angular_speed_dps": float(
                np.mean([s.mean_angular_speed_dps for s in stats])
            ),
            "mean_viewing_distance_m": float(
                np.mean([s.mean_viewing_distance_m for s in stats])
            ),
        }
    return out
