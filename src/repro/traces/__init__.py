"""6DoF viewport traces: pose containers, behaviour models, the user study."""

from .analytics import TraceStatistics, study_statistics, trace_statistics
from .behavior import AttentionModel, BehaviorParams, device_profile, generate_trace
from .pose import Pose
from .trace import Device, Trace
from .userstudy import UserStudy, generate_user_study

__all__ = [
    "TraceStatistics",
    "study_statistics",
    "trace_statistics",
    "AttentionModel",
    "BehaviorParams",
    "device_profile",
    "generate_trace",
    "Pose",
    "Device",
    "Trace",
    "UserStudy",
    "generate_user_study",
]
