"""The groupers score candidates with the plan fold, not a plan apiece.

Each grouper scores every candidate partition with
``mac.scheduler.plan_time_s`` and builds a ``FramePlan`` only for the one
it keeps.  The loops below are test-local copies of the groupers as they
were when every candidate went through ``plan_frame``; the groupers must
return the same partition and the same total, bitwise, and leave the
same counts and trace events.  The merge candidates' IoUs, counted over
the rows' cell masks, must equal ``group_iou`` bitwise too.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import grouping
from repro.core.grouping import (
    _merge_candidates,
    _partitions,
    _record,
    exhaustive_grouping,
    greedy_similarity_grouping,
    qoe_aware_grouping,
)
from repro.core.qoe import QoEWeights
from repro.core.similarity import group_iou
from repro.mac.scheduler import FrameDemands, UserDemand, plan_frame
from repro.obs import metrics
from repro.obs.trace import recording

from ..mac.test_frame_demands import _mixed_demands, frames, same


# -- the plan-per-candidate loops, as they were --------------------------------


def _plan_per_candidate(frame_demands, rate_fn):
    rates = {}

    def plan_for(partition):
        multicast_groups = []
        for g in partition:
            if len(g) > 1:
                if g not in rates:
                    rates[g] = rate_fn(g)
                multicast_groups.append((g, rates[g]))
        return plan_frame(frame_demands, groups=multicast_groups)

    return plan_for


def _candidates(groups, frame_demands, min_iou):
    maps = {
        u: frozenset(d.cell_bytes) for u, d in frame_demands.demands.items()
    }
    candidates = []
    for ga, gb in combinations(groups, 2):
        iou = group_iou([maps[u] for u in ga + gb])
        if iou >= min_iou:
            candidates.append((iou, ga, gb))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    return candidates


def old_greedy(demands, rate_fn, min_iou=0.05, frame=None):
    demand_list = list(demands)
    groups = [(d.user_id,) for d in demand_list]
    frame_demands = FrameDemands(demand_list)
    plan_for = _plan_per_candidate(frame_demands, rate_fn)
    best_plan = plan_for(groups)
    best_time = best_plan.total_time_s()
    improved = True
    while improved and len(groups) > 1:
        improved = False
        for _, ga, gb in _candidates(groups, frame_demands, min_iou):
            merged = tuple(sorted(ga + gb))
            trial = [g for g in groups if g not in (ga, gb)] + [merged]
            trial_plan = plan_for(trial)
            trial_time = trial_plan.total_time_s()
            if trial_time < best_time - 1e-12:
                groups = trial
                best_plan, best_time = trial_plan, trial_time
                improved = True
                break
    return _record(
        grouping.GroupingResult(plan=best_plan, policy="greedy-similarity"),
        frame=frame,
    )


def _old_predicted_qoe(plan, demand_list, target_fps, weights):
    fps = plan.achievable_fps(cap_fps=target_fps)
    stall_fraction = max(0.0, 1.0 - fps / target_fps)
    score = 0.0
    for d in demand_list:
        bitrate_mbps = d.total_bytes * 8.0 * fps / 1e6
        score += bitrate_mbps - weights.stall_penalty_mbps * stall_fraction
    return score / max(1, len(demand_list))


def old_qoe_aware(demands, rate_fn, target_fps=30.0, min_iou=0.05, frame=None):
    weights = QoEWeights()
    demand_list = sorted(demands, key=lambda d: d.user_id)
    groups = [(d.user_id,) for d in demand_list]
    frame_demands = FrameDemands(demand_list)
    plan_for = _plan_per_candidate(frame_demands, rate_fn)
    best_plan = plan_for(groups)
    best_qoe = _old_predicted_qoe(best_plan, demand_list, target_fps, weights)
    improved = True
    while improved and len(groups) > 1:
        improved = False
        best_merge = None
        for _, ga, gb in _candidates(groups, frame_demands, min_iou):
            merged = tuple(sorted(ga + gb))
            trial = [g for g in groups if g not in (ga, gb)] + [merged]
            trial_plan = plan_for(trial)
            trial_qoe = _old_predicted_qoe(
                trial_plan, demand_list, target_fps, weights
            )
            if trial_qoe > best_qoe + 1e-12 and (
                best_merge is None or trial_qoe > best_merge[2]
            ):
                best_merge = (trial, trial_plan, trial_qoe)
        if best_merge is not None:
            groups, best_plan, best_qoe = best_merge
            improved = True
    return _record(
        grouping.GroupingResult(plan=best_plan, policy="qoe-aware"), frame=frame
    )


def old_exhaustive(demands, rate_fn, frame=None):
    demand_list = list(demands)
    plan_for = _plan_per_candidate(FrameDemands(demand_list), rate_fn)
    best_plan, best_time = None, 0.0
    for partition in _partitions([d.user_id for d in demand_list]):
        plan = plan_for([tuple(sorted(block)) for block in partition])
        plan_time = plan.total_time_s()
        if best_plan is None or plan_time < best_time:
            best_plan, best_time = plan, plan_time
    return _record(
        grouping.GroupingResult(plan=best_plan, policy="exhaustive"), frame=frame
    )


# -- running both under the recorder -----------------------------------------

COUNTERS = (
    "mac.frame_plans_built",
    "mac.multicast_groups_planned",
    "core.grouping_decisions",
)


def _recorded(run):
    """``run()``'s result, counter deltas, trace events and the groups
    ``rate_fn`` was asked about, in order."""
    asked = []

    def rate_fn(members):
        asked.append(members)
        # Pure, and different per group so the rates matter.
        return 120.0 + 35.0 * len(members) + 7.0 * (sum(members) % 5)

    was_enabled = metrics.REGISTRY.enabled
    metrics.enable()
    counters = [metrics.REGISTRY.get(name) for name in COUNTERS]
    try:
        before = [c.value for c in counters]
        with recording(events=["mac.frame_plan", "core.group_decision"]) as rec:
            result = run(rate_fn)
        deltas = [c.value - b for c, b in zip(counters, before)]
    finally:
        if not was_enabled:
            metrics.disable()
    events = [(e.t, e.seq, e.event, e.fields) for e in rec.events]
    return result, deltas, events, asked


GROUPERS = [
    pytest.param(greedy_similarity_grouping, old_greedy, {"min_iou": 0.0},
                 id="greedy"),
    pytest.param(greedy_similarity_grouping, old_greedy, {}, id="greedy-iou"),
    pytest.param(qoe_aware_grouping, old_qoe_aware, {"min_iou": 0.0},
                 id="qoe-aware"),
    pytest.param(qoe_aware_grouping, old_qoe_aware, {"target_fps": 240.0},
                 id="qoe-aware-240fps"),
    pytest.param(exhaustive_grouping, old_exhaustive, {}, id="exhaustive"),
]


def assert_same_search(grouper, old, kwargs, demands):
    new_result, new_deltas, new_events, new_asked = _recorded(
        lambda rate_fn: grouper(demands, rate_fn, frame=4, **kwargs)
    )
    old_result, old_deltas, old_events, old_asked = _recorded(
        lambda rate_fn: old(demands, rate_fn, frame=4, **kwargs)
    )
    assert new_result.groups == old_result.groups
    assert new_result.plan.groups == old_result.plan.groups
    assert new_result.plan.solo_users == old_result.plan.solo_users
    assert same(new_result.total_time_s, old_result.total_time_s)
    assert new_deltas == old_deltas
    assert new_events == old_events
    assert new_asked == old_asked


@pytest.mark.parametrize("grouper, old, kwargs", GROUPERS)
@given(demands=frames())
@settings(max_examples=60, deadline=None)
def test_groupers_match_the_plan_per_candidate_loop(grouper, old, kwargs, demands):
    assert_same_search(grouper, old, kwargs, demands)


@pytest.mark.parametrize("grouper, old, kwargs", GROUPERS)
def test_groupers_match_the_loop_on_the_mixed_frame(grouper, old, kwargs):
    assert_same_search(grouper, old, kwargs, _mixed_demands())


@pytest.mark.parametrize("grouper, old, kwargs", GROUPERS)
def test_groupers_match_the_loop_on_a_300_cell_frame(grouper, old, kwargs):
    rng = np.random.default_rng(17)
    demands = [
        UserDemand(
            user_id=u,
            cell_bytes={
                int(c): float(rng.uniform(2e3, 2e5))
                for c in rng.choice(90, size=60, replace=False)
            },
            unicast_rate_mbps=float(rng.uniform(200, 900)),
        )
        for u in range(5)
    ]
    assert_same_search(grouper, old, kwargs, demands)


# -- the grouping IoU ----------------------------------------------------------


def _scalar_iou(frame_demands, ga, gb):
    demands = frame_demands.demands
    return group_iou([frozenset(demands[u].cell_bytes) for u in ga + gb])


@given(frames(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_iou_paths_match_group_iou(demands, random):
    uids = [d.user_id for d in demands]
    random.shuffle(uids)
    groups, i = [], 0
    while i < len(uids):
        size = random.randint(1, len(uids) - i)
        groups.append(tuple(uids[i:i + size]))
        i += size
    frame_demands = FrameDemands(demands)
    # At min_iou 0.0 every pair is a candidate, in the scalar loop's order.
    candidates = _merge_candidates(groups, frame_demands, 0.0)
    assert candidates == _candidates(groups, frame_demands, 0.0)
    assert len(candidates) == len(groups) * (len(groups) - 1) // 2
    for iou, ga, gb in candidates:
        assert same(iou, _scalar_iou(frame_demands, ga, gb))
