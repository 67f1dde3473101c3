"""Golden equivalence: the small-frame path, the matrix path, the plan fold.

A frame whose distinct rows hold at most ``_SMALL_FRAME_CELLS`` cells is
priced over the rows' dicts and sets in Python floats; a larger one over
the bytes matrix.  Both must equal each other and the scalar references
(``overlap_bytes``, ``multicast_frame_time``) *bitwise*, whichever side of
the size rule a frame falls on, so each test calls both private paths
directly.  ``plan_time_s`` scores a partition without building a plan and
must equal ``plan_frame(...).total_time_s()`` and ``plan_time_reference``
bitwise, with the same counts and ``mac.frame_plan`` events.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.grouping import greedy_similarity_grouping
from repro.mac import scheduler
from repro.mac.scheduler import (
    FrameDemands,
    FramePlan,
    UserDemand,
    multicast_frame_time,
    overlap_bytes,
    plan_frame,
    plan_time_reference,
    plan_time_s,
)
from repro.obs import metrics
from repro.obs.trace import recording

from .test_frame_demands import EDGE_CASES, demand, frames_with_groups, same


def assert_paths_agree(demands, members, rate):
    """Both private paths, the dispatcher and the scalar references give
    the same bits for one group of one frame."""
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    group = [by_id[u] for u in members]
    rows = frame_demands._rows(members)
    expected_overlap = overlap_bytes(group)
    assert same(frame_demands._overlap_small(rows)[1], expected_overlap)
    assert same(frame_demands._overlap(rows)[1], expected_overlap)
    assert same(frame_demands.overlap_bytes(members), expected_overlap)
    expected = multicast_frame_time(group, rate)
    assert same(frame_demands._multicast_time_small(members, rate), expected)
    assert same(frame_demands._multicast_time_matrix(members, rate), expected)
    assert same(frame_demands.group_time_s(members, rate), expected)


@given(frames_with_groups())
@settings(max_examples=200, deadline=None)
def test_small_and_matrix_paths_match_the_references(case):
    demands, groups = case
    for members, rate in groups:
        assert_paths_agree(demands, members, rate)


@pytest.mark.parametrize(
    "demands, members, rate",
    EDGE_CASES + [
        pytest.param(
            [demand(u, m, 300.0 + u) for u, m in enumerate(
                [{9: 4e4, 3: 1e4, 6: 2e4}] * 2 + [{3: 3e4, 4: 5e3}]
            )],
            (0, 1, 2), 250.0, id="shared-by-reference",
        ),
        pytest.param(
            [
                demand(0, {5: np.float64(1e16), 1: np.float64(1.0), 2: 3.0}),
                demand(1, {2: np.float64(2.5), 8: np.float64(7.0)}),
            ],
            (1, 0), 100.0, id="numpy-float64-values",
        ),
    ],
)
def test_edge_cases_agree_on_both_paths(demands, members, rate):
    assert_paths_agree(demands, members, rate)


def _frame_of(num_cells, rng):
    """Six users over distinct rows holding ``num_cells`` cells in all,
    drawn from an overlapping universe and inserted out of sorted order."""
    sizes = [num_cells // 6 + (1 if i < num_cells % 6 else 0) for i in range(6)]
    universe = int(1.5 * max(sizes)) + 1
    demands = []
    for uid, size in enumerate(sizes):
        cells = rng.choice(universe, size=size, replace=False)
        demands.append(demand(
            uid,
            {int(c): float(rng.uniform(2e3, 2e5)) for c in cells},
            float(rng.uniform(200, 900)),
        ))
    return demands


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_frames_on_each_side_of_the_size_rule(offset):
    num_cells = scheduler._SMALL_FRAME_CELLS + offset
    demands = _frame_of(num_cells, np.random.default_rng(num_cells))
    frame_demands = FrameDemands(demands)
    assert sum(len(m) for m in frame_demands.mappings) == num_cells
    assert frame_demands.small is (offset <= 0)
    for members in [(0, 1), (2, 4, 5), (0, 1, 2, 3, 4, 5), (3,)]:
        assert_paths_agree(demands, members, 320.0)


def test_users_sharing_a_mapping_count_its_cells_once():
    """The size rule counts distinct rows: a mapping held by reference by
    every user is one row however many users hold it."""
    cells = {c: 1e4 for c in range(scheduler._SMALL_FRAME_CELLS)}
    assert FrameDemands([demand(u, cells) for u in range(8)]).small
    more = {**cells, -1: 1e4}
    assert not FrameDemands([demand(u, more) for u in range(8)]).small


# -- the plan fold -----------------------------------------------------------


def _recorded(build):
    """``build()``'s result, the counter deltas and ``mac.frame_plan``
    events it leaves."""
    was_enabled = metrics.REGISTRY.enabled
    metrics.enable()
    counters = [
        metrics.REGISTRY.get(name)
        for name in ("mac.frame_plans_built", "mac.multicast_groups_planned")
    ]
    try:
        before = [c.value for c in counters]
        with recording(events=["mac.frame_plan"]) as recorder:
            result = build()
        deltas = [c.value - b for c, b in zip(counters, before)]
    finally:
        if not was_enabled:
            metrics.disable()
    return result, deltas, [(e.event, e.fields) for e in recorder.events]


@given(frames_with_groups())
@settings(max_examples=200, deadline=None)
def test_fold_equals_the_plan_and_the_reference(case):
    demands, groups = case
    planned, plan_deltas, plan_events = _recorded(
        lambda: plan_frame(FrameDemands(demands), groups).total_time_s()
    )
    scored, fold_deltas, fold_events = _recorded(
        lambda: plan_time_s(FrameDemands(demands), groups)
    )
    expected = plan_time_reference({d.user_id: d for d in demands}, groups)
    assert same(scored, planned)
    assert same(scored, expected)
    assert fold_deltas == plan_deltas == [1, len(groups)]
    assert fold_events == plan_events
    assert len(fold_events) == 1


def test_fold_keeps_the_plan_checks():
    frame_demands = FrameDemands([demand(0, {1: 1e4}), demand(1, {1: 2e4})])
    with pytest.raises(ValueError, match=r"group \(0, 1\).*non-negative"):
        plan_time_s(frame_demands, [((0, 1), -1.0)])
    with pytest.raises(ValueError, match="user 0 appears in two groups"):
        plan_time_s(frame_demands, [((0, 1), 300.0), ((0,), 300.0)])
    with pytest.raises(KeyError, match="7"):
        plan_time_s(frame_demands, [((0, 7), 300.0)])


# -- NaN rates and duplicate users ---------------------------------------------


def test_nan_unicast_rate_is_rejected_naming_the_user():
    with pytest.raises(ValueError, match="user 3"):
        demand(3, {1: 1e4}, rate=float("nan"))


def test_nan_multicast_rate_is_rejected_naming_the_group():
    demands = [demand(0, {1: 1e4}), demand(1, {1: 2e4})]
    nan = float("nan")
    with pytest.raises(ValueError, match=r"group \(0, 1\)"):
        plan_frame(demands, [((0, 1), nan)])
    with pytest.raises(ValueError, match=r"group \(0, 1\)"):
        FramePlan(demands={d.user_id: d for d in demands}, groups=[((0, 1), nan)])
    with pytest.raises(ValueError, match=r"group \(0, 1\)"):
        plan_time_s(FrameDemands(demands), [((0, 1), nan)])
    with pytest.raises(ValueError, match=r"group \(0, 1\)"):
        greedy_similarity_grouping(demands, lambda members: nan)


def test_duplicate_user_id_is_rejected_naming_it():
    demands = [
        UserDemand(0, {1: 1e4}, 300.0),
        UserDemand(0, {2: 5e4}, 300.0),
    ]
    with pytest.raises(ValueError, match="user 0 has two demands"):
        plan_frame(demands)
    with pytest.raises(ValueError, match="user 0 has two demands"):
        FrameDemands(demands)
