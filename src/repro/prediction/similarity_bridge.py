"""Bridge between prediction and visibility: IoU of predicted vs. true maps.

Lives in its own module to keep :mod:`repro.prediction.metrics` free of a
circular import with :mod:`repro.core.similarity` (core depends on
prediction for the session simulator).
"""

from __future__ import annotations

from ..pointcloud import CellGrid, PointCloudVideo, VisibilityConfig, compute_visibility
from ..traces import Pose, Trace
from .base import ViewportPredictor

__all__ = ["predicted_visibility_iou"]


def _iou(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


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

    This is the streaming-relevant accuracy: 1.0 means every prefetched
    cell was the right one.
    """
    config = config or VisibilityConfig()
    rate = trace.rate_hz
    start = int(round(min_history_s * rate))
    horizon_samples = int(round(horizon_s * rate))
    ious = []
    for end in range(start, len(trace) - horizon_samples, stride):
        history = trace.window(end, start)
        predicted: Pose = predictor.predict(history, horizon_s)
        actual = trace.pose(end + horizon_samples)
        frame_index = (end + horizon_samples) % len(video)
        occupancy = grid.occupancy(video[frame_index])
        vis_pred = compute_visibility(occupancy, predicted.frustum(), config)
        vis_true = compute_visibility(occupancy, actual.frustum(), config)
        ious.append(_iou(vis_pred.visible_set, vis_true.visible_set))
    if not ious:
        raise ValueError("trace too short for the horizon")
    return float(sum(ious) / len(ious))
