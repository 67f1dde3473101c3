"""Prediction accuracy metrics.

Three views of "how good is a viewport prediction":

* raw pose error (meters / radians) — what predictor papers report;
* **visibility IoU** — overlap between the visibility map computed from the
  predicted pose and from the true pose.  This is the metric that matters
  for streaming: it measures how much of the prefetched content was right
  (:func:`repro.core.similarity.predicted_visibility_iou`, next to the IoU
  it reuses);
* per-study evaluation sweeps that aggregate either metric over users/time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces import Pose, Trace, UserStudy
from .base import ViewportPredictor
from .multiuser import JointViewportPredictor

__all__ = [
    "pose_errors",
    "PredictorEvaluation",
    "evaluate_predictor",
    "evaluate_joint_predictor",
]


def pose_errors(predicted: Pose, actual: Pose) -> tuple[float, float]:
    """(position error meters, orientation error radians)."""
    return predicted.distance_to(actual), predicted.angular_distance_to(actual)


@dataclass(frozen=True)
class PredictorEvaluation:
    """Aggregated prediction accuracy over a sweep."""

    position_errors_m: np.ndarray
    orientation_errors_rad: np.ndarray

    @property
    def mean_position_error_m(self) -> float:
        return float(np.mean(self.position_errors_m))

    @property
    def mean_orientation_error_deg(self) -> float:
        return float(np.rad2deg(np.mean(self.orientation_errors_rad)))


def evaluate_predictor(
    predictor: ViewportPredictor,
    trace: Trace,
    horizon_s: float = 0.5,
    stride: int = 3,
    min_history_s: float = 1.0,
) -> PredictorEvaluation:
    """Sweep a single-user predictor over one trace."""
    start = int(round(min_history_s * trace.rate_hz))
    horizon_samples = int(round(horizon_s * trace.rate_hz))
    pos_errs, ori_errs = [], []
    for end in range(start, len(trace) - horizon_samples, stride):
        history = trace.window(end, start)
        predicted = predictor.predict(history, horizon_s)
        actual = trace.pose(end + horizon_samples)
        pe, oe = pose_errors(predicted, actual)
        pos_errs.append(pe)
        ori_errs.append(oe)
    if not pos_errs:
        raise ValueError("trace too short for the horizon")
    return PredictorEvaluation(
        position_errors_m=np.array(pos_errs),
        orientation_errors_rad=np.array(ori_errs),
    )


def evaluate_joint_predictor(
    predictor: JointViewportPredictor,
    study: UserStudy,
    horizon_s: float = 0.5,
    stride: int = 5,
    min_history_s: float = 1.0,
) -> PredictorEvaluation:
    """Sweep the joint predictor over all users of a study."""
    rate = study.rate_hz
    start = int(round(min_history_s * rate))
    horizon_samples = int(round(horizon_s * rate))
    n = study.num_samples
    pos_errs, ori_errs = [], []
    for end in range(start, n - horizon_samples, stride):
        histories = [t.window(end, start) for t in study.traces]
        result = predictor.predict(histories, horizon_s)
        for trace, predicted in zip(study.traces, result.poses):
            actual = trace.pose(end + horizon_samples)
            pe, oe = pose_errors(predicted, actual)
            pos_errs.append(pe)
            ori_errs.append(oe)
    if not pos_errs:
        raise ValueError("study too short for the horizon")
    return PredictorEvaluation(
        position_errors_m=np.array(pos_errs),
        orientation_errors_rad=np.array(ori_errs),
    )
