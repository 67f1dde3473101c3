"""Fig. 2a: viewport similarity (IoU) over time for two user pairs.

The paper plots the per-frame IoU (50 cm cells) of two illustrative pairs:
one pair that watches "exactly the same content most of the time" and one
whose similarity "is low initially [but] increases to 1 towards the end".
The runner selects both regimes from the synthetic study by search — the
most-similar pair and the most strongly converging pair — rather than
hard-coding user ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..core import compute_visibility_maps, iou_series
from ..pointcloud import VisibilityConfig
from ..runner import Experiment, RunSpec, register, run_experiment
from .common import DEFAULT_SEED, default_study, default_video, grid_for

__all__ = ["Fig2aResult", "run_fig2a", "run_one"]


@dataclass(frozen=True)
class Fig2aResult:
    """Two IoU time series (index = frame) plus who the pairs are."""

    stable_pair: tuple[int, int]
    stable_iou: np.ndarray
    converging_pair: tuple[int, int]
    converging_iou: np.ndarray

    @property
    def stable_mean(self) -> float:
        return float(np.mean(self.stable_iou))

    @property
    def converging_gain(self) -> float:
        """Late-window mean minus early-window mean of the converging pair."""
        n = len(self.converging_iou)
        k = max(1, n // 5)
        return float(
            np.mean(self.converging_iou[-k:]) - np.mean(self.converging_iou[:k])
        )


def run_one(spec: RunSpec) -> dict:
    """The whole pair search is one unit (every pair shares the maps)."""
    result = _compute(
        num_users=int(spec.get("num_users")),
        num_frames=int(spec.get("num_frames")),
        cell_size=float(spec.get("cell_size")),
        seed=spec.seed,
    )
    return {
        "stable_pair": [int(u) for u in result.stable_pair],
        "stable_iou": [float(x) for x in result.stable_iou],
        "converging_pair": [int(u) for u in result.converging_pair],
        "converging_iou": [float(x) for x in result.converging_iou],
    }


def _result_from_merged(merged: dict) -> Fig2aResult:
    return Fig2aResult(
        stable_pair=tuple(merged["stable_pair"]),
        stable_iou=np.array(merged["stable_iou"], dtype=np.float64),
        converging_pair=tuple(merged["converging_pair"]),
        converging_iou=np.array(merged["converging_iou"], dtype=np.float64),
    )


def _format(merged: dict) -> str:
    result = _result_from_merged(merged)
    return (
        f"stable pair {result.stable_pair}: mean IoU {result.stable_mean:.3f}\n"
        f"converging pair {result.converging_pair}: "
        f"{np.mean(result.converging_iou[:60]):.2f} -> "
        f"{np.mean(result.converging_iou[-60:]):.2f}"
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


def run_fig2a(
    num_users: int = 16,
    num_frames: int = 300,
    cell_size: float = 0.5,
    seed: int = DEFAULT_SEED,
) -> Fig2aResult:
    """Select and return the two representative pair series."""
    merged = run_experiment(
        "fig2a",
        {
            "num_users": num_users,
            "num_frames": num_frames,
            "cell_size": cell_size,
            "seed": seed,
        },
    )
    return _result_from_merged(merged)


def _compute(
    num_users: int,
    num_frames: int,
    cell_size: float,
    seed: int,
) -> Fig2aResult:
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

    return Fig2aResult(
        stable_pair=best_stable[1],
        stable_iou=series_cache[best_stable[1]],
        converging_pair=best_converging[1],
        converging_iou=series_cache[best_converging[1]],
    )
