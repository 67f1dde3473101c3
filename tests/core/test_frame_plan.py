"""``core.session._frame_plan``: one frame's final plan for every grouping.

The helper runs the configured grouping policy and, when the config charges
a beam-switch overhead, plans the policy's groups again with it.  These
tests hold it to the two steps written out with the public pieces.
"""

import pytest

from repro.core import CapacityRateProvider, FixedQualityPolicy, SessionConfig
from repro.core.grouping import (
    exhaustive_grouping,
    greedy_similarity_grouping,
    no_grouping,
    qoe_aware_grouping,
)
from repro.core.session import _frame_plan
from repro.mac import AD_MODEL, UserDemand, plan_frame
from repro.pointcloud import VisibilityConfig

GROUPINGS = ("none", "greedy", "qoe", "exhaustive")
SAMPLE = 3
OVERHEAD_S = 0.002


def _config(video, study, grouping, overhead_s=0.0):
    return SessionConfig(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=AD_MODEL, num_users=len(study)),
        visibility=VisibilityConfig.vanilla(),
        grouping=grouping,
        adaptation=FixedQualityPolicy("high"),
        beam_switch_overhead_s=overhead_s,
    )


def _demands():
    """Two pairs of users with heavily shared cells, one loner."""
    shared_a = {c: 40_000.0 for c in range(10)}
    shared_b = {c: 35_000.0 for c in range(20, 30)}
    return [
        UserDemand(0, {**shared_a, 10: 5_000.0}, 900.0),
        UserDemand(1, {**shared_a, 11: 6_000.0}, 1100.0),
        UserDemand(2, {**shared_b, 30: 4_000.0}, 800.0),
        UserDemand(3, {**shared_b, 31: 7_000.0}, 1000.0),
        UserDemand(4, {c: 30_000.0 for c in range(40, 48)}, 1200.0),
    ]


def _policy_plan(config, demands):
    rate_fn = lambda members: config.rates.multicast_rate_mbps(  # noqa: E731
        members, SAMPLE
    )
    if config.grouping == "none":
        return no_grouping(demands).plan
    if config.grouping == "greedy":
        return greedy_similarity_grouping(
            demands, rate_fn, min_iou=config.min_group_iou
        ).plan
    if config.grouping == "qoe":
        return qoe_aware_grouping(
            demands, rate_fn, target_fps=config.target_fps,
            min_iou=config.min_group_iou,
        ).plan
    return exhaustive_grouping(demands, rate_fn).plan


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_frame_plan_is_the_policy_plan_without_overhead(
    grouping, small_video, small_study
):
    config = _config(small_video, small_study, grouping)
    demands = _demands()
    plan = _frame_plan(config, demands, SAMPLE, frame=7)
    expected = _policy_plan(config, demands)
    assert plan == expected
    assert plan.beam_switch_overhead_s == 0.0
    assert plan.total_time_s() == expected.total_time_s()


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_frame_plan_replans_the_policy_groups_with_the_overhead(
    grouping, small_video, small_study
):
    config = _config(small_video, small_study, grouping, overhead_s=OVERHEAD_S)
    demands = _demands()
    plan = _frame_plan(config, demands, SAMPLE, frame=7)
    policy = _policy_plan(config, demands)
    expected = plan_frame(
        demands, groups=policy.groups, beam_switch_overhead_s=OVERHEAD_S
    )
    assert plan == expected
    assert plan.groups == policy.groups
    assert plan.beam_switch_overhead_s == OVERHEAD_S
    assert plan.total_time_s() == expected.total_time_s()
    assert plan.total_time_s() > policy.total_time_s()


def test_frame_plan_groups_something_for_shared_viewports(small_video, small_study):
    config = _config(small_video, small_study, "exhaustive")
    plan = _frame_plan(config, _demands(), SAMPLE)
    assert plan.groups
    assert plan.total_time_s() < no_grouping(_demands()).plan.total_time_s()


def test_frame_plan_serves_a_lone_demand_by_unicast(small_video, small_study):
    config = _config(small_video, small_study, "exhaustive")
    demands = _demands()[:1]
    plan = _frame_plan(config, demands, SAMPLE)
    assert plan.groups == []
    assert plan == no_grouping(demands).plan
