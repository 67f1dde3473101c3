"""Core system: similarity, grouping, adaptation, rates, the session simulator."""

from .adaptation import (
    AdaptationDecision,
    AdaptationInputs,
    AdaptationPolicy,
    BufferPolicy,
    CrossLayerPolicy,
    FixedQualityPolicy,
    ProactivePrefetchPolicy,
    ThroughputPolicy,
    quality_below,
)
from .bandwidth import (
    BufferAwareEstimator,
    CrossLayerBandwidthPredictor,
    EwmaThroughputPredictor,
)
from .client import BufferedFrame, ClientBuffer
from .grouping import (
    GroupingResult,
    exhaustive_grouping,
    greedy_similarity_grouping,
    no_grouping,
    qoe_aware_grouping,
)
from .mpc import MpcPolicy
from .multiap import (
    ApAssignment,
    MultiApDeployment,
    assign_groups,
    concurrent_frame_time,
    coordinated_frame_time,
    single_ap_frame_time,
)
from .qoe import QoEReport, QoEWeights, UserSessionStats
from .rates import CapacityRateProvider, ChannelRateProvider, RateProvider
from .policies import PolicyInfo, adaptation_policy_catalog, grouping_strategy_catalog
from .session import SessionConfig, StreamingSession, measure_max_fps
from .similarity import (
    VisibilityMaps,
    compute_visibility_maps,
    group_iou,
    group_iou_samples,
    iou_series,
    pairwise_iou_samples,
    predicted_visibility_iou,
)
from .utility import (
    AllocationResult,
    UserAllocationInput,
    UtilityModel,
    UtilityOptimalPolicy,
    allocate_qualities,
    allocate_qualities_dp,
    allocate_qualities_greedy,
    assignment_utility,
    quality_rate_table,
)

__all__ = [
    "AdaptationDecision",
    "AdaptationInputs",
    "AdaptationPolicy",
    "BufferPolicy",
    "CrossLayerPolicy",
    "FixedQualityPolicy",
    "ProactivePrefetchPolicy",
    "ThroughputPolicy",
    "quality_below",
    "BufferAwareEstimator",
    "CrossLayerBandwidthPredictor",
    "EwmaThroughputPredictor",
    "BufferedFrame",
    "ClientBuffer",
    "GroupingResult",
    "exhaustive_grouping",
    "greedy_similarity_grouping",
    "no_grouping",
    "qoe_aware_grouping",
    "MpcPolicy",
    "ApAssignment",
    "MultiApDeployment",
    "assign_groups",
    "concurrent_frame_time",
    "coordinated_frame_time",
    "single_ap_frame_time",
    "QoEReport",
    "QoEWeights",
    "UserSessionStats",
    "CapacityRateProvider",
    "ChannelRateProvider",
    "RateProvider",
    "PolicyInfo",
    "adaptation_policy_catalog",
    "grouping_strategy_catalog",
    "SessionConfig",
    "StreamingSession",
    "measure_max_fps",
    "AllocationResult",
    "UserAllocationInput",
    "UtilityModel",
    "UtilityOptimalPolicy",
    "allocate_qualities",
    "allocate_qualities_dp",
    "allocate_qualities_greedy",
    "assignment_utility",
    "quality_rate_table",
    "VisibilityMaps",
    "compute_visibility_maps",
    "group_iou",
    "group_iou_samples",
    "iou_series",
    "pairwise_iou_samples",
    "predicted_visibility_iou",
]
