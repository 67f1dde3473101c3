"""Fig. 2a: viewport similarity (IoU) over time for two user pairs.

The paper plots the per-frame IoU (50 cm cells) of two illustrative pairs:
one pair that watches "exactly the same content most of the time" and one
whose similarity "is low initially [but] increases to 1 towards the end".
The runner selects both regimes from the synthetic study by search — the
most-similar pair and the most strongly converging pair — rather than
hard-coding user ids.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core import compute_visibility_maps, iou_series
from ..pointcloud import VisibilityConfig
from ..runner import Experiment, RunSpec, register
from .common import DEFAULT_SEED, default_study, default_video, grid_for

__all__ = ["run_one", "stable_mean", "converging_gain", "converging_ends"]


def run_one(spec: RunSpec) -> dict:
    """The whole pair search is one unit (every pair shares the maps).

    Returns both pairs and their per-frame IoU series (index = frame).
    """
    return _compute(
        num_users=int(spec.get("num_users")),
        num_frames=int(spec.get("num_frames")),
        cell_size=float(spec.get("cell_size")),
        seed=spec.seed,
    )


def stable_mean(merged: dict) -> float:
    """Mean IoU of the stable pair."""
    return float(np.mean(merged["stable_iou"]))


def converging_gain(merged: dict) -> float:
    """Late-window mean minus early-window mean of the converging pair."""
    series = np.asarray(merged["converging_iou"], dtype=np.float64)
    k = max(1, len(series) // 5)
    return float(np.mean(series[-k:]) - np.mean(series[:k]))


def converging_ends(merged: dict) -> tuple[float, float]:
    """Mean IoU of the converging pair over its first and last 60 frames."""
    series = np.asarray(merged["converging_iou"], dtype=np.float64)
    return float(np.mean(series[:60])), float(np.mean(series[-60:]))


def _format(merged: dict) -> str:
    early, late = converging_ends(merged)
    return (
        f"stable pair {tuple(merged['stable_pair'])}: "
        f"mean IoU {stable_mean(merged):.3f}\n"
        f"converging pair {tuple(merged['converging_pair'])}: "
        f"{early:.2f} -> {late:.2f}"
    )


EXPERIMENT = register(
    Experiment(
        name="fig2a",
        title="Fig. 2a — pairwise IoU over time",
        run_one=run_one,
        format_result=_format,
        default_params={
            "num_users": 16,
            "num_frames": 300,
            "cell_size": 0.5,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_users": 8, "num_frames": 90},
    )
)


def _compute(
    num_users: int,
    num_frames: int,
    cell_size: float,
    seed: int,
) -> dict:
    # Fig. 2a runs 300 frames = 10 s at 30 Hz.
    duration = num_frames / 30.0
    study = default_study(num_users=num_users, duration_s=duration, seed=seed)
    video = default_video("high")
    grid = grid_for(video, cell_size)
    maps = compute_visibility_maps(
        study, video, grid, config=VisibilityConfig(), num_frames=num_frames
    )

    user_ids = list(maps.user_ids)
    best_stable: tuple[float, tuple[int, int]] | None = None
    best_converging: tuple[float, tuple[int, int]] | None = None
    series_cache: dict[tuple[int, int], np.ndarray] = {}
    for a, b in combinations(user_ids, 2):
        series = iou_series(maps, [a, b])
        series_cache[(a, b)] = series
        mean = float(np.mean(series))
        n = len(series)
        k = max(1, n // 5)
        gain = float(np.mean(series[-k:]) - np.mean(series[:k]))
        late = float(np.mean(series[-k:]))
        if best_stable is None or mean > best_stable[0]:
            best_stable = (mean, (a, b))
        # Converging pair: must end high, score by the rise.
        score = gain + 0.2 * late
        if best_converging is None or score > best_converging[0]:
            best_converging = (score, (a, b))
    if best_stable is None or best_converging is None:
        raise RuntimeError("fig2a needs at least two users to pick IoU pairs")
    # If the search degenerately picked the same pair, take the runner-up
    # converging pair.
    if best_converging[1] == best_stable[1]:
        candidates = sorted(
            (
                (float(np.mean(s[-len(s) // 5 :]) - np.mean(s[: len(s) // 5])), p)
                for p, s in series_cache.items()
                if p != best_stable[1]
            ),
            reverse=True,
        )
        best_converging = candidates[0]

    stable, converging = best_stable[1], best_converging[1]
    return {
        "stable_pair": [int(u) for u in stable],
        "stable_iou": [float(x) for x in series_cache[stable]],
        "converging_pair": [int(u) for u in converging],
        "converging_iou": [float(x) for x in series_cache[converging]],
    }
