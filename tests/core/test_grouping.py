"""Multicast grouping policy tests."""

import pytest

from repro.core import (
    exhaustive_grouping,
    greedy_similarity_grouping,
    no_grouping,
)
from repro.mac import UserDemand


def demand(uid, cells, rate=400.0):
    return UserDemand(
        user_id=uid, cell_bytes={c: 1e5 for c in cells}, unicast_rate_mbps=rate
    )


def flat_rate(rate):
    return lambda members: rate


def test_no_grouping_is_pure_unicast():
    ds = [demand(0, range(5)), demand(1, range(5))]
    result = no_grouping(ds)
    assert result.groups == []
    assert result.policy == "unicast"
    assert result.plan.solo_users == [0, 1]


def test_greedy_merges_identical_viewports():
    ds = [demand(0, range(10)), demand(1, range(10)), demand(2, range(10))]
    result = greedy_similarity_grouping(ds, flat_rate(400.0))
    assert result.groups == [(0, 1, 2)]
    assert result.total_time_s < no_grouping(ds).total_time_s


def test_greedy_leaves_disjoint_users_alone():
    ds = [demand(0, range(0, 5)), demand(1, range(10, 15))]
    result = greedy_similarity_grouping(ds, flat_rate(400.0))
    assert result.groups == []


def test_greedy_respects_min_iou():
    # Overlap of 1 cell out of 9 -> IoU ~0.11; min_iou=0.5 forbids merging.
    ds = [demand(0, range(0, 5)), demand(1, range(4, 9))]
    result = greedy_similarity_grouping(ds, flat_rate(4000.0), min_iou=0.5)
    assert result.groups == []


def test_greedy_skips_merge_when_multicast_rate_is_poor():
    """A dragged-down common MCS must not be grouped into a loss."""
    ds = [demand(0, range(10), rate=1000.0), demand(1, range(10), rate=1000.0)]
    result = greedy_similarity_grouping(ds, flat_rate(50.0))
    assert result.groups == []
    assert result.total_time_s == pytest.approx(no_grouping(ds).total_time_s)


def test_greedy_partial_overlap_grouping():
    shared = set(range(8))
    ds = [
        demand(0, shared | {100}),
        demand(1, shared | {101}),
        demand(2, {200, 201}),  # unrelated viewport
    ]
    result = greedy_similarity_grouping(ds, flat_rate(400.0))
    assert (0, 1) in result.groups
    assert all(2 not in g for g in result.groups)


def test_exhaustive_matches_or_beats_greedy():
    shared_a = set(range(6))
    shared_b = set(range(20, 26))
    ds = [
        demand(0, shared_a),
        demand(1, shared_a | {7}),
        demand(2, shared_b),
        demand(3, shared_b | {30}),
    ]
    rate_fn = flat_rate(380.0)
    greedy = greedy_similarity_grouping(ds, rate_fn)
    optimal = exhaustive_grouping(ds, rate_fn)
    assert optimal.total_time_s <= greedy.total_time_s + 1e-12
    assert optimal.policy == "exhaustive"


def test_exhaustive_finds_two_groups():
    a = set(range(10))
    b = set(range(20, 30))
    ds = [demand(0, a), demand(1, a), demand(2, b), demand(3, b)]
    result = exhaustive_grouping(ds, flat_rate(400.0))
    groups = sorted(result.groups)
    assert groups == [(0, 1), (2, 3)]


def test_exhaustive_user_cap():
    ds = [demand(i, range(3)) for i in range(12)]
    with pytest.raises(ValueError):
        exhaustive_grouping(ds, flat_rate(400.0))


def test_rate_fn_receives_sorted_members():
    seen = []

    def rate_fn(members):
        seen.append(members)
        return 400.0

    ds = [demand(0, range(5)), demand(1, range(5))]
    greedy_similarity_grouping(ds, rate_fn)
    assert all(m == tuple(sorted(m)) for m in seen)


def test_single_user_grouping_noop():
    ds = [demand(0, range(5))]
    assert greedy_similarity_grouping(ds, flat_rate(1.0)).groups == []
    assert exhaustive_grouping(ds, flat_rate(1.0)).groups == []


def test_achievable_fps_reported():
    ds = [demand(0, range(5), rate=4000.0)]
    result = no_grouping(ds)
    assert result.achievable_fps == 30.0


def _mixed_demands():
    import numpy as np

    rng = np.random.default_rng(5)
    demands = []
    for u in range(6):
        cells = rng.choice(40, size=int(rng.integers(8, 20)), replace=False)
        demands.append(UserDemand(
            user_id=u,
            cell_bytes={int(c): float(rng.uniform(2e4, 2e5)) for c in cells},
            unicast_rate_mbps=float(rng.uniform(200, 900)),
        ))
    return demands


@pytest.mark.parametrize(
    "grouper, kwargs",
    [(greedy_similarity_grouping, {"min_iou": 0.0}), (exhaustive_grouping, {})],
)
def test_groupers_time_each_candidate_plan_once(monkeypatch, grouper, kwargs):
    """The best plan's airtime is kept, not recomputed per comparison;
    the chosen partition and its airtime are pinned from before."""
    from repro.core import grouping as grouping_module
    from repro.mac.scheduler import FramePlan

    plans, timed = [0], [0]
    original_plan_frame = grouping_module.plan_frame
    original_total = FramePlan.total_time_s

    def counting_plan_frame(*args, **kw):
        plans[0] += 1
        return original_plan_frame(*args, **kw)

    def counting_total(self):
        timed[0] += 1
        return original_total(self)

    monkeypatch.setattr(grouping_module, "plan_frame", counting_plan_frame)
    monkeypatch.setattr(FramePlan, "total_time_s", counting_total)
    result = grouper(
        _mixed_demands(), lambda members: 150.0 + 40.0 * len(members), **kwargs
    )
    assert timed[0] == plans[0]
    monkeypatch.undo()
    assert result.groups == [(0, 2, 3, 4)]
    assert result.total_time_s == 0.14685376953197218
