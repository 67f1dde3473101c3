"""Viewport similarity: visibility maps and intersection-over-union (Fig. 2).

The paper defines the viewport similarity of a user group as the IoU of
their *visibility maps* — the sets of cells each user can see after frustum
and occlusion culling.  This module computes visibility maps over a study
and the IoU series/CDFs the multicast grouper and Fig. 2 consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..geometry import Frustum, frustum_planes
from ..pointcloud import (
    CellGrid,
    PointCloudVideo,
    VisibilityConfig,
    compute_visibility_batch,
    compute_visibility_planes,
)
from ..prediction.base import ViewportPredictor
from ..traces import Trace, UserStudy

__all__ = [
    "group_iou",
    "membership_matrix",
    "pairwise_iou_matrix",
    "VisibilityMaps",
    "compute_visibility_maps",
    "iou_series",
    "pairwise_iou_samples",
    "group_iou_samples",
    "predicted_visibility_iou",
]


def group_iou(maps: list[frozenset | set]) -> float:
    """Intersection-over-union of a group of visibility maps.

    Matches the paper's Fig. 1 example: maps {1,3,5,6,7,8} and {1,2,3,4,5,7}
    share 4 cells out of 8 total -> IoU 0.5.  A group in which every map is
    empty has IoU 1.0 (all users agree nothing is visible).
    """
    if not maps:
        raise ValueError("need at least one visibility map")
    union = set().union(*maps)
    if not union:
        return 1.0
    inter = set(maps[0])
    for m in maps[1:]:
        inter &= set(m)
    return len(inter) / len(union)


def membership_matrix(
    maps: list[frozenset | set],
) -> tuple[np.ndarray, tuple]:
    """Boolean cell-membership matrix for a list of visibility maps.

    Row ``i`` marks which cells of the sorted union universe map ``i``
    contains; the universe is returned alongside so callers can map columns
    back to cell ids.
    """
    universe = sorted(set().union(*maps)) if maps else []
    index = {cell: i for i, cell in enumerate(universe)}
    memb = np.zeros((len(maps), len(universe)), dtype=bool)
    for i, m in enumerate(maps):
        if m:
            memb[i, [index[cell] for cell in m]] = True
    return memb, tuple(universe)


def pairwise_iou_matrix(maps: list[frozenset | set]) -> np.ndarray:
    """IoU of every pair of visibility maps, as a symmetric (U, U) matrix.

    Vectorized equivalent of calling :func:`group_iou` on every pair: the
    intersection/union counts come from one integer matmul over the
    membership matrix, and the final integer-ratio division is bit-identical
    to the scalar ``len(inter) / len(union)`` (both are correctly rounded
    float64 quotients of the same integers).  An empty union yields 1.0,
    matching :func:`group_iou`.
    """
    if not maps:
        raise ValueError("need at least one visibility map")
    memb, _ = membership_matrix(maps)
    m = memb.astype(np.int64)
    inter = m @ m.T
    sizes = np.diagonal(inter)
    union = sizes[:, None] + sizes[None, :] - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


@dataclass(frozen=True)
class VisibilityMaps:
    """Per-user, per-frame visibility maps over one study session.

    ``maps[user_index][frame_index]`` is the frozenset of visible cell ids.
    User indexing follows ``study.traces`` order, not user ids.
    """

    maps: tuple[tuple[frozenset, ...], ...]
    user_ids: tuple[int, ...]
    cell_size: float

    @property
    def num_users(self) -> int:
        return len(self.maps)

    @property
    def num_frames(self) -> int:
        return len(self.maps[0]) if self.maps else 0

    def user_index(self, user_id: int) -> int:
        try:
            return self.user_ids.index(user_id)
        except ValueError:
            raise KeyError(f"no user {user_id}") from None

    def of_user(self, user_id: int) -> tuple[frozenset, ...]:
        return self.maps[self.user_index(user_id)]


def compute_visibility_maps(
    study: UserStudy,
    video: PointCloudVideo,
    grid: CellGrid,
    users: list[int] | None = None,
    config: VisibilityConfig | None = None,
    num_frames: int | None = None,
) -> VisibilityMaps:
    """Visibility maps for (a subset of) study users over the video.

    Frame ``f`` pairs the video's frame ``f`` with each trace's pose at the
    same timestamp (traces and video are both 30 Hz in the study).  The
    video loops if the trace outlasts it.
    """
    config = config or VisibilityConfig()
    traces: list[Trace] = (
        study.traces if users is None else [study.user(u) for u in users]
    )
    total = num_frames if num_frames is not None else study.num_samples
    total = min(total, study.num_samples)

    # Frame ``f`` is sample ``f`` of every trace, so all viewers' planes
    # come from one ``(F, U)`` plane build.  Occupancy per video frame is
    # user-independent (and memoized on the frame); each frame culls every
    # viewer in one batch.
    eyes = np.stack([trace.positions[:total] for trace in traces], axis=1)
    normals, offsets = frustum_planes(
        eyes, np.stack([trace.orientations[:total] for trace in traces], axis=1)
    )
    per_user: list[list[frozenset]] = [[] for _ in traces]
    for f in range(total):
        occupancy = grid.occupancy(video[f % len(video)])
        results = compute_visibility_planes(
            occupancy, eyes[f], normals[f], offsets[f], config
        )
        for ui, result in enumerate(results):
            per_user[ui].append(result.visible_set)
    return VisibilityMaps(
        maps=tuple(tuple(user_maps) for user_maps in per_user),
        user_ids=tuple(t.user_id for t in traces),
        cell_size=grid.cell_size,
    )


def iou_series(maps: VisibilityMaps, user_ids: list[int]) -> np.ndarray:
    """IoU of a fixed user group at every frame (Fig. 2a's time series)."""
    rows = [maps.of_user(u) for u in user_ids]
    return np.array(
        [group_iou([row[f] for row in rows]) for f in range(maps.num_frames)]
    )


def pairwise_iou_samples(
    maps: VisibilityMaps, user_ids: list[int] | None = None
) -> np.ndarray:
    """IoU samples over all user pairs and all frames (Fig. 2b's CDF input).

    Computed through :func:`pairwise_iou_matrix` — one vectorized all-pairs
    kernel per frame instead of a scalar ``group_iou`` per (pair, frame) —
    but emitted in the same pair-major, frame-minor order as the scalar
    loop, with bit-identical values.
    """
    ids = list(user_ids) if user_ids is not None else list(maps.user_ids)
    if len(ids) < 2:
        raise ValueError("need at least two users for pairwise IoU")
    rows = [maps.of_user(u) for u in ids]
    num_frames = maps.num_frames
    if num_frames == 0:
        return np.zeros(0)
    stacked = np.stack(
        [pairwise_iou_matrix([row[f] for row in rows]) for f in range(num_frames)]
    )
    samples = [
        stacked[:, ia, ib] for ia, ib in combinations(range(len(ids)), 2)
    ]
    return np.concatenate(samples)


def group_iou_samples(
    maps: VisibilityMaps,
    group_size: int,
    user_ids: list[int] | None = None,
    max_groups: int | None = 200,
    seed: int = 0,
) -> np.ndarray:
    """IoU samples over user groups of a given size (Fig. 2b, HM(3) curve).

    The number of size-k subsets explodes combinatorially, so at most
    ``max_groups`` randomly chosen groups are evaluated (deterministic via
    ``seed``).
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    ids = list(user_ids) if user_ids is not None else list(maps.user_ids)
    if len(ids) < group_size:
        raise ValueError("not enough users for the requested group size")
    groups = list(combinations(ids, group_size))
    if max_groups is not None and len(groups) > max_groups:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(groups), size=max_groups, replace=False)
        groups = [groups[i] for i in chosen]
    samples = [iou_series(maps, list(g)) for g in groups]
    return np.concatenate(samples)


def predicted_visibility_iou(
    predictor: ViewportPredictor,
    trace: Trace,
    video: PointCloudVideo,
    grid: CellGrid,
    horizon_s: float = 0.5,
    stride: int = 5,
    min_history_s: float = 1.0,
    config: VisibilityConfig | None = None,
) -> float:
    """Mean IoU between predicted and actual visibility maps.

    This is the streaming-relevant prediction accuracy: 1.0 means every
    prefetched cell was the right one.  Each instant culls the predicted
    and the true pose in one batch over the frame's occupancy.
    """
    config = config or VisibilityConfig()
    rate = trace.rate_hz
    start = int(round(min_history_s * rate))
    horizon_samples = int(round(horizon_s * rate))
    ious = []
    for end in range(start, len(trace) - horizon_samples, stride):
        history = trace.window(end, start)
        predicted = predictor.predict(history, horizon_s)
        actual = trace.pose(end + horizon_samples)
        frame_index = (end + horizon_samples) % len(video)
        occupancy = grid.occupancy(video[frame_index])
        vis_pred, vis_true = compute_visibility_batch(
            occupancy, Frustum.many([predicted, actual]), config
        )
        ious.append(group_iou([vis_pred.visible_set, vis_true.visible_set]))
    if not ious:
        raise ValueError("trace too short for the horizon")
    return float(sum(ious) / len(ious))
