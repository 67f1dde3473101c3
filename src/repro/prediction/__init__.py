"""Viewport prediction: single-user, joint multi-user, blockage forecasting."""

from .base import ViewportPredictor, validate_horizon
from .blockage import (
    BlockageForecast,
    BlockageForecaster,
    ForecastScore,
    score_forecasts,
)
from .linear import LastValuePredictor, LinearRegressionPredictor
from .metrics import (
    PredictorEvaluation,
    evaluate_joint_predictor,
    evaluate_predictor,
    pose_errors,
)
from .mlp import MlpRegressor, MlpViewportPredictor
from .multiuser import JointPredictionResult, JointViewportPredictor

__all__ = [
    "ViewportPredictor",
    "validate_horizon",
    "BlockageForecast",
    "BlockageForecaster",
    "ForecastScore",
    "score_forecasts",
    "LastValuePredictor",
    "LinearRegressionPredictor",
    "PredictorEvaluation",
    "evaluate_joint_predictor",
    "evaluate_predictor",
    "pose_errors",
    "MlpRegressor",
    "MlpViewportPredictor",
    "JointPredictionResult",
    "JointViewportPredictor",
]
