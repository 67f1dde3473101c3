"""Prediction metric tests."""

import typing

import numpy as np
import pytest

from repro.core import group_iou, predicted_visibility_iou
from repro.geometry import Quaternion
from repro.pointcloud import VisibilityConfig, compute_visibility
from repro.prediction import (
    LastValuePredictor,
    LinearRegressionPredictor,
    evaluate_predictor,
    pose_errors,
)
from repro.traces import Device, Pose, Trace, generate_trace


def test_pose_errors():
    a = Pose(0.0, np.zeros(3), Quaternion.identity())
    b = Pose(0.0, np.array([3.0, 4.0, 0]), Quaternion.from_euler(0.5, 0, 0))
    pe, oe = pose_errors(a, b)
    assert pe == pytest.approx(5.0)
    assert oe == pytest.approx(0.5, abs=1e-9)


def test_evaluate_predictor_output_shapes():
    tr = generate_trace(0, Device.PHONE, duration_s=5.0, seed=1)
    ev = evaluate_predictor(LastValuePredictor(), tr, horizon_s=0.5, stride=5)
    assert len(ev.position_errors_m) == len(ev.orientation_errors_rad)
    assert ev.mean_position_error_m >= 0
    assert ev.mean_orientation_error_deg >= 0


def test_evaluate_predictor_too_short_raises():
    tr = generate_trace(0, Device.PHONE, duration_s=0.5, seed=1)
    with pytest.raises(ValueError):
        evaluate_predictor(LastValuePredictor(), tr, horizon_s=5.0)


def test_longer_horizon_is_harder():
    tr = generate_trace(0, Device.HEADSET, duration_s=8.0, seed=2)
    short = evaluate_predictor(LastValuePredictor(), tr, horizon_s=0.2)
    long = evaluate_predictor(LastValuePredictor(), tr, horizon_s=1.5)
    assert long.mean_position_error_m > short.mean_position_error_m


def test_predicted_visibility_iou_bounds(small_video, grid_50cm):
    tr = generate_trace(0, Device.PHONE, duration_s=4.0, seed=3)
    iou = predicted_visibility_iou(
        LinearRegressionPredictor(), tr, small_video, grid_50cm, horizon_s=0.3,
        stride=10,
    )
    assert 0.0 <= iou <= 1.0
    # Short-horizon prediction of a slow phone user should be quite accurate.
    assert iou > 0.5


def test_oracle_has_perfect_visibility_iou(small_video, grid_50cm):
    """Predicting with zero horizon reproduces the actual visibility map."""

    class ZeroHorizonOracle:
        def predict(self, history, horizon_s):
            last = history.pose(len(history) - 1)
            return last

    tr = generate_trace(0, Device.PHONE, duration_s=3.0, seed=4)
    iou = predicted_visibility_iou(
        ZeroHorizonOracle(), tr, small_video, grid_50cm, horizon_s=0.0, stride=10
    )
    assert iou == pytest.approx(1.0)


def test_predicted_visibility_iou_annotations_resolve():
    hints = typing.get_type_hints(predicted_visibility_iou)
    assert hints["trace"] is Trace


def test_predicted_visibility_iou_matches_one_viewer_calls(small_video, grid_50cm):
    """The batched pair cull gives the mean of per-instant one-viewer IoUs."""
    tr = generate_trace(0, Device.HEADSET, duration_s=4.0, seed=5)
    predictor = LinearRegressionPredictor()
    config = VisibilityConfig()
    rate = tr.rate_hz
    start, horizon = int(round(1.0 * rate)), int(round(0.5 * rate))
    ious = []
    for end in range(start, len(tr) - horizon, 5):
        predicted = predictor.predict(tr.window(end, start), 0.5)
        occ = grid_50cm.occupancy(small_video[(end + horizon) % len(small_video)])
        a = compute_visibility(occ, predicted.frustum(), config)
        b = compute_visibility(occ, tr.pose(end + horizon).frustum(), config)
        ious.append(group_iou([a.visible_set, b.visible_set]))
    expected = float(sum(ious) / len(ious))
    assert predicted_visibility_iou(predictor, tr, small_video, grid_50cm) == expected
