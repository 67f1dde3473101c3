"""The headline scaling question: how many users sustain 30 FPS?

The paper's abstract and §3 frame everything around this number: vanilla
802.11ac supports one user, 802.11ad three to four, ViVo adds "one or
two", and the proposed multicast/cross-layer design should push further.
This runner sweeps the user count for each system configuration and
reports the largest count that still sustains (near-)30 FPS at high
quality — the single-row summary of the whole reproduction.
"""

from __future__ import annotations

import numpy as np

from ..core import SessionConfig, measure_max_fps
from ..runner import Experiment, RunSpec, register
from ..scenario import SCALING_SYSTEM_SPECS, session_config_for
from .common import (
    DEFAULT_SEED,
    default_study,
    default_video,
    format_table,
)

__all__ = ["run_one", "fps_by_system", "max_users", "SCALING_SYSTEMS"]

# Labels come from the declarative system ladder the scenario layer owns;
# the tuple is kept for callers that match on names.
SCALING_SYSTEMS = tuple(s.label for s in SCALING_SYSTEM_SPECS)


def _mean_fps(config: SessionConfig, num_frames: int) -> float:
    return float(np.mean(measure_max_fps(config, num_frames=num_frames, stride=3)))


def run_one(spec: RunSpec) -> dict:
    """One user count across all five system configurations.

    The multicast row runs on the same calibrated 802.11ad capacity model
    as the unicast rows so user counts compare apples to apples;
    ``multicast_rate_fraction`` (default 0.8, about one MCS step) charges
    the group-minimum-MCS penalty of the custom-beam multicast, the
    penalty level the Fig. 3d/3e beam experiments measure.
    """
    n = int(spec.get("num_users"))
    quality = str(spec.get("quality"))
    num_frames = int(spec.get("num_frames"))
    duration_s = float(spec.get("duration_s"))
    multicast_rate_fraction = float(spec.get("multicast_rate_fraction"))
    seed = spec.seed

    video = default_video(quality)
    study = default_study(num_users=n, duration_s=duration_s, seed=seed)
    fps: dict[str, float] = {}
    for system in SCALING_SYSTEM_SPECS:
        config = session_config_for(
            system, video, study, quality, duration_s, multicast_rate_fraction
        )
        fps[system.label] = _mean_fps(config, num_frames)
    return {
        "num_users": n,
        "fps": [{"system": s, "mean_fps": fps[s]} for s in SCALING_SYSTEMS],
    }


def _decompose(params: dict) -> list[RunSpec]:
    return [
        RunSpec.make(
            "scaling",
            seed=params["seed"],
            num_users=n,
            quality=params["quality"],
            num_frames=params["num_frames"],
            duration_s=params["duration_s"],
            multicast_rate_fraction=params["multicast_rate_fraction"],
        )
        for n in params["user_counts"]
    ]


def _merge(params: dict, runs: list) -> dict:
    return {"rows": [result for _, result in runs]}


def fps_by_system(merged: dict) -> dict[str, dict[int, float]]:
    """Per system: user count -> mean FPS."""
    fps: dict[str, dict[int, float]] = {s: {} for s in SCALING_SYSTEMS}
    for row in merged["rows"]:
        for entry in row["fps"]:
            fps[entry["system"]][int(row["num_users"])] = float(entry["mean_fps"])
    return fps


def max_users(merged: dict, system: str) -> int:
    """Largest user count at which ``system`` sustains ~30 FPS, i.e. a mean
    of at least 29 FPS (0 if none)."""
    counts = fps_by_system(merged)[system]
    return max((n for n, f in counts.items() if f >= 29.0), default=0)


def _format(merged: dict) -> str:
    fps = fps_by_system(merged)
    counts = sorted(fps[SCALING_SYSTEMS[0]])
    headers = ["System"] + [str(n) for n in counts] + ["max@30"]
    rows = [
        [system]
        + [round(fps[system][n], 1) for n in counts]
        + [max_users(merged, system)]
        for system in SCALING_SYSTEMS
    ]
    return format_table(headers, rows)


EXPERIMENT = register(
    Experiment(
        name="scaling",
        title="Scaling — max users at ~30 FPS (550K quality)",
        run_one=run_one,
        decompose=_decompose,
        merge=_merge,
        format_result=_format,
        default_params={
            "user_counts": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
            "quality": "high",
            "num_frames": 24,
            "duration_s": 5.0,
            "multicast_rate_fraction": 0.8,
            "seed": DEFAULT_SEED,
        },
        small_params={
            "user_counts": (1, 2),
            "num_frames": 4,
            "duration_s": 2.0,
        },
    )
)

