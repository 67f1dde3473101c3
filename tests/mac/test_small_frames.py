"""Golden equivalence: the frame-pricing path and the plan fold.

:class:`~repro.mac.scheduler.FrameDemands` prices a group over its rows'
dicts and sets in Python floats.  Both ways into that pricing, the direct
``_multicast_time_s`` and the memoised ``group_time_s``, must equal the
scalar references (``overlap_bytes``, ``multicast_frame_time``)
*bitwise*, on small frames and on frames of hundreds of cells alike.
``plan_time_s`` scores a partition without building a plan and must
equal ``plan_frame(...).total_time_s()`` and ``plan_time_reference``
bitwise, with the same counts and ``mac.frame_plan`` events.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.grouping import greedy_similarity_grouping
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
from repro.pointcloud import QUALITIES

from .test_frame_demands import EDGE_CASES, demand, frames_with_groups, same


def assert_prices_agree(demands, members, rate):
    """The overlap, the direct and the memoised group airtime equal the
    scalar references' bits for one group of one frame."""
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    group = [by_id[u] for u in members]
    rows = frame_demands._rows(members)
    assert same(frame_demands._overlap(rows)[1], overlap_bytes(group))
    expected = multicast_frame_time(group, rate)
    assert same(frame_demands._multicast_time_s(members, rate), expected)
    assert same(frame_demands.group_time_s(members, rate), expected)


@given(frames_with_groups())
@settings(max_examples=200, deadline=None)
def test_pricing_path_matches_the_references(case):
    demands, groups = case
    for members, rate in groups:
        assert_prices_agree(demands, members, rate)


def _transport_frame():
    """``loss_sweep``'s frame: six users, each holding its own copy of one
    64-cell mapping, all in one group."""
    frame_bytes = QUALITIES["high"].bitrate_mbps * 1e6 / 8.0 / 30.0
    cells = {c: frame_bytes / 64 for c in range(64)}
    return [demand(u, dict(cells), 310.0) for u in range(6)]


def _venue_tick():
    """The ``frame_plan`` kernel's tick: 480 users over eight archetype
    rows of 150-300 cells (in sorted order), and the group of the users
    of the first three archetypes."""
    rng = np.random.default_rng(0)
    archetypes = []
    for _ in range(8):
        cells = np.sort(rng.choice(600, size=int(rng.integers(150, 300)),
                                   replace=False))
        archetypes.append({
            int(c): float(b)
            for c, b in zip(cells, rng.uniform(2e3, 2e4, size=len(cells)))
        })
    demands = [demand(u, archetypes[u % 8], 350.0) for u in range(480)]
    members = tuple(u for u in range(480) if u % 8 in (0, 1, 2))
    return demands, members


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
        pytest.param(
            _transport_frame(), tuple(range(6)), 310.0, id="transport-frame",
        ),
        pytest.param(*_venue_tick(), 280.0, id="venue-tick"),
    ],
)
def test_edge_cases_agree_on_both_paths(demands, members, rate):
    assert_prices_agree(demands, members, rate)


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
