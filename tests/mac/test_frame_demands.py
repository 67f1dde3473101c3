"""Golden equivalence: the frame demand matrix vs. the scalar references.

:class:`~repro.mac.scheduler.FrameDemands` prices groups and plans from
one per-frame bytes matrix and a memo; ``overlap_bytes``,
``multicast_frame_time``, ``unicast_frame_time`` and
``plan_time_reference`` are the set-and-dict definitions it must
reproduce *bitwise*: every sum runs left to right in the same order
(overlaps in sorted cell order, residuals and totals in each mapping's
insertion order), so no tolerance is needed or used.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import greedy_similarity_grouping, qoe_aware_grouping
from repro.mac.scheduler import (
    FrameDemands,
    FramePlan,
    UserDemand,
    multicast_frame_time,
    overlap_bytes,
    plan_frame,
    plan_time_reference,
    unicast_frame_time,
)
from repro.obs.trace import recording


def same(a: float, b: float) -> bool:
    """Bitwise float equality (``inf`` included, ``0.0`` vs ``-0.0`` not)."""
    return float(a).hex() == float(b).hex()


def demand(uid, cells, rate=400.0):
    return UserDemand(user_id=uid, cell_bytes=cells, unicast_rate_mbps=rate)


# -- strategies --------------------------------------------------------------

byte_values = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
).map(lambda x: x + 0.0)  # never -0.0
rates = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=2000.0))


@st.composite
def frames(draw):
    """Demands over a small cell universe: cells inserted in random (not
    sorted) order, some users holding an earlier user's mapping by
    reference, empty mappings and dead links included."""
    num_users = draw(st.integers(1, 7))
    mappings: list[dict[int, float]] = []
    demands = []
    for uid in range(num_users):
        if mappings and draw(st.booleans()):
            cells = mappings[draw(st.integers(0, len(mappings) - 1))]
        else:
            ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=14))
            cells = {c: draw(byte_values) for c in ids}
            mappings.append(cells)
        demands.append(demand(uid, cells, draw(rates)))
    return demands


@st.composite
def frames_with_groups(draw):
    """A frame plus a random partition of part of its users into groups
    (members in random order), each with a multicast rate."""
    demands = draw(frames())
    uids = draw(st.permutations([d.user_id for d in demands]))
    groups = []
    i = 0
    while i < len(uids) and draw(st.booleans()):
        size = draw(st.integers(1, len(uids) - i))
        groups.append((tuple(uids[i:i + size]), draw(rates)))
        i += size
    return demands, groups


# -- group, overlap and unicast airtime --------------------------------------


@given(frames_with_groups())
@settings(max_examples=200, deadline=None)
def test_group_airtime_bitwise_matches_scalar_references(case):
    demands, groups = case
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    for members, rate in groups:
        group = [by_id[u] for u in members]
        assert same(frame_demands.overlap_bytes(members), overlap_bytes(group))
        assert same(
            frame_demands.group_time_s(members, rate),
            multicast_frame_time(group, rate),
        )
        assert same(frame_demands.unicast_time_s(members), unicast_frame_time(group))


@given(frames_with_groups(), st.sampled_from([0.0, 1e-4, 3e-3]))
@settings(max_examples=200, deadline=None)
def test_plan_total_bitwise_matches_the_scalar_loop(case, overhead):
    demands, groups = case
    frame_demands = FrameDemands(demands)
    plan = plan_frame(frame_demands, groups, beam_switch_overhead_s=overhead)
    expected = plan_time_reference(
        {d.user_id: d for d in demands}, groups, overhead
    )
    assert same(plan.total_time_s(), expected)
    # The same plan from the demand list, and once more over the memo.
    assert same(
        plan_frame(demands, groups, beam_switch_overhead_s=overhead).total_time_s(),
        expected,
    )
    again = plan_frame(frame_demands, groups, beam_switch_overhead_s=overhead)
    assert same(again.total_time_s(), expected)


@pytest.mark.parametrize(
    "demands, members, rate",
    [
        pytest.param(
            [demand(0, {}), demand(1, {1: 5e4, 2: 1e4})], (0, 1), 300.0,
            id="empty-mapping",
        ),
        pytest.param(
            [demand(0, {}), demand(1, {})], (1, 0), 300.0, id="all-empty",
        ),
        pytest.param(
            [demand(0, {1: 5e4, 2: 1e4}), demand(1, {3: 2e4, 4: 7e3})],
            (0, 1), 300.0, id="disjoint-members",
        ),
        pytest.param(
            [demand(0, {1: 5e4, 2: 1e4}), demand(1, {1: 2e4, 4: 7e3}, rate=0.0)],
            (0, 1), 300.0, id="zero-unicast-rate",
        ),
        pytest.param(
            [demand(0, {1: 5e4, 2: 1e4}), demand(1, {1: 2e4, 2: 7e3})],
            (1, 0), 0.0, id="zero-multicast-rate",
        ),
        pytest.param(
            [demand(0, {7: 3e4, 2: 1e4, 5: 2e4}, rate=0.0)], (0,), 0.0,
            id="lone-dead-member",
        ),
        pytest.param([demand(0, {1: 1e4})], (), 300.0, id="no-members"),
    ],
)
def test_edge_cases_match_scalar_references(demands, members, rate):
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    group = [by_id[u] for u in members]
    assert same(frame_demands.overlap_bytes(members), overlap_bytes(group))
    assert same(
        frame_demands.group_time_s(members, rate),
        multicast_frame_time(group, rate),
    )
    assert same(frame_demands.unicast_time_s(members), unicast_frame_time(group))


def test_zero_rates_give_inf_like_the_reference():
    dead = [demand(0, {1: 5e4, 2: 1e4}), demand(1, {1: 2e4, 4: 7e3}, rate=0.0)]
    assert FrameDemands(dead).group_time_s((0, 1), 300.0) == float("inf")
    assert FrameDemands(dead).unicast_time_s((1,)) == float("inf")
    shared = [demand(0, {1: 5e4}), demand(1, {1: 2e4})]
    assert FrameDemands(shared).group_time_s((0, 1), 0.0) == float("inf")


def test_one_mapping_shared_by_several_users_is_one_row():
    archetype_a = {9: 4e4, 3: 1e4, 6: 2e4}
    archetype_b = {3: 3e4, 4: 5e3}
    demands = [
        demand(uid, archetype_a if uid % 3 else archetype_b, 300.0 + uid)
        for uid in range(9)
    ]
    frame_demands = FrameDemands(demands)
    assert len(frame_demands.row_totals) == 2
    assert frame_demands.matrix.values.shape == (2, 4)
    assert frame_demands.matrix.cells.tolist() == [3, 4, 6, 9]
    by_id = {d.user_id: d for d in demands}
    for members in [(1, 2, 4), (0, 3), (0, 1), tuple(range(9))]:
        group = [by_id[u] for u in members]
        assert same(
            frame_demands.group_time_s(members, 250.0),
            multicast_frame_time(group, 250.0),
        )


def test_residuals_and_totals_follow_insertion_order():
    """Adding 1e16 first swallows the 1.0s; adding it last keeps them.

    The first user's mapping is inserted out of sorted cell order, so its
    total and its residual (cells 5, 1, 3 outside the shared cell 2) must
    be summed in insertion order, not sorted order.
    """
    out_of_order = {5: 1e16, 1: 1.0, 2: 1.0, 3: 1.0}
    assert (1.0 + 1.0) + 1e16 != (1e16 + 1.0) + 1.0
    demands = [demand(0, out_of_order), demand(1, {2: 1.0, 8: 2.0})]
    frame_demands = FrameDemands(demands)
    assert same(frame_demands.row_totals[0], demands[0].total_bytes)
    assert frame_demands.row_totals[0] == 1e16
    assert same(
        frame_demands.group_time_s((0, 1), 100.0),
        multicast_frame_time(demands, 100.0),
    )
    assert same(
        plan_frame(frame_demands, [((1, 0), 100.0)]).total_time_s(),
        plan_time_reference(
            {d.user_id: d for d in demands}, [((1, 0), 100.0)]
        ),
    )


def test_long_sums_are_sequential_not_pairwise():
    """``np.sum`` adds pairwise and misses these; the fold order does not."""
    rng = np.random.default_rng(7)
    cells = [int(c) for c in rng.permutation(300)[:200]]
    scales = 10.0 ** rng.integers(0, 9, size=len(cells))
    a = {c: float(v) for c, v in zip(cells, rng.uniform(1, 2, len(cells)) * scales)}
    b = {c: float(v) for c, v in zip(cells, rng.uniform(1, 2, len(cells)) * scales)}
    b[999] = 5.0  # one residual cell for the second member
    demands = [demand(0, a), demand(1, b, rate=250.0)]
    shared_max = [max(a[c], b[c]) for c in sorted(a)]
    assert float(np.sum(shared_max)) != overlap_bytes(demands)  # the trap
    frame_demands = FrameDemands(demands)
    assert same(frame_demands.overlap_bytes((0, 1)), overlap_bytes(demands))
    assert same(frame_demands.row_totals[0], demands[0].total_bytes)
    assert same(
        frame_demands.group_time_s((0, 1), 300.0),
        multicast_frame_time(demands, 300.0),
    )


# -- the memo and the frozen plan --------------------------------------------


def test_group_airtime_is_computed_once_per_members_and_rate(monkeypatch):
    demands = [demand(u, {1: 1e4 * (u + 1), 2: 5e3}) for u in range(4)]
    frame_demands = FrameDemands(demands)
    computed = []
    original = FrameDemands._multicast_time_s

    def counting(self, members, rate):
        computed.append((members, rate))
        return original(self, members, rate)

    monkeypatch.setattr(FrameDemands, "_multicast_time_s", counting)
    for partition in ([((0, 1), 300.0)], [((0, 1), 300.0), ((2, 3), 200.0)]):
        plan_frame(frame_demands, partition).total_time_s()
    frame_demands.group_time_s((0, 1), 250.0)  # another rate: priced anew
    assert computed == [((0, 1), 300.0), ((2, 3), 200.0), ((0, 1), 250.0)]


def test_frame_plan_is_frozen_over_its_frame_demands():
    demands = [demand(0, {1: 1e4}), demand(1, {1: 2e4, 2: 1e4})]
    frame_demands = FrameDemands(demands)
    plan = plan_frame(frame_demands, [((0, 1), 300.0)])
    assert plan.frame_demands is frame_demands
    assert plan.demands is frame_demands.demands
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.groups = []
    with pytest.raises(ValueError, match="this plan's demands"):
        FramePlan(demands=dict(frame_demands.demands), frame_demands=frame_demands)
    # Built without one, a plan makes its own.
    direct = FramePlan(demands={d.user_id: d for d in demands})
    assert same(direct.total_time_s(), unicast_frame_time(demands))


# -- the grouping search is unchanged ------------------------------------------


def _mixed_demands():
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


# (groups, solo, total_time_s) of every mac.frame_plan event, in order,
# pinned from the set-and-dict planner this matrix replaced.
PINNED_GREEDY_PLANS = [
    (0, 6, 0.15500776111938236), (1, 4, 0.1726449685732906),
    (1, 4, 0.16080377075056723), (1, 4, 0.15238611672045307),
    (2, 2, 0.1644197818659207), (1, 3, 0.15192146368868198),
    (2, 1, 0.1567294884431943), (2, 1, 0.15578392623839732),
    (2, 1, 0.1570008383544772), (1, 2, 0.14685376953197218),
    (2, 0, 0.1519331441977674), (1, 1, 0.15500776111938236),
    (1, 1, 0.15500776111938236),
]
PINNED_QOE_PLANS = [
    (0, 6, 0.15500776111938236), (1, 4, 0.1726449685732906),
    (1, 4, 0.16080377075056723), (1, 4, 0.15238611672045307),
    (1, 4, 0.16652129799886872), (1, 4, 0.16704142626485002),
    (1, 4, 0.15669102792242803), (1, 4, 0.14951872759469395),
    (1, 4, 0.16270142727151177), (1, 4, 0.15661784089486974),
    (1, 4, 0.15981578587389467), (1, 4, 0.1588702236690977),
    (1, 4, 0.16008713578517758), (1, 4, 0.15413190511217675),
    (1, 4, 0.15687116815869023), (1, 4, 0.15669675307889736),
    (2, 2, 0.1671559350486022), (2, 2, 0.1610322644741803),
    (2, 2, 0.1615523927401616), (2, 2, 0.15721239374682336),
    (2, 2, 0.15432675234920626), (1, 3, 0.14983606119042392),
    (1, 3, 0.15181772835615476), (2, 2, 0.15120771955420897),
    (1, 3, 0.15214302732550783), (1, 3, 0.1532862394341529),
]


@pytest.mark.parametrize(
    "grouper, pinned_groups, pinned_plans",
    [
        (greedy_similarity_grouping, [(0, 2, 3, 4)], PINNED_GREEDY_PLANS),
        (qoe_aware_grouping, [(1, 3)], PINNED_QOE_PLANS),
    ],
)
def test_groupers_emit_every_candidate_plan_event(
    grouper, pinned_groups, pinned_plans
):
    """Every evaluated candidate still builds a traced plan, in order."""
    with recording(events=["mac.frame_plan"]) as recorder:
        result = grouper(
            _mixed_demands(),
            lambda members: 150.0 + 40.0 * len(members),
            min_iou=0.0,
        )
    assert result.groups == pinned_groups
    plans = [
        (e.fields["groups"], e.fields["solo"], e.fields["total_time_s"])
        for e in recorder.events
    ]
    assert plans == pinned_plans  # bitwise airtimes, same order and count
    for event in recorder.events:
        assert event.fields["users"] == 6
        assert event.fields["user_ids"] == [0, 1, 2, 3, 4, 5]
