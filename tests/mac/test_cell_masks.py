"""Cell masks price groups and rank merges exactly as the set references do.

Each ``FrameDemands`` row has a Python-int cell mask with bit ``c`` set
for cell id ``c``.  Group overlaps AND the masks and fold over the set
bits, lowest first; residuals skip the cells whose bit is shared; merge
candidates count IoUs with ``bit_count()``.  ``overlap_bytes``,
``multicast_frame_time``, ``plan_time_reference`` and ``group_iou`` are
the set-and-dict definitions these must reproduce bitwise.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import _merge_candidates
from repro.core.similarity import group_iou
from repro.mac.scheduler import (
    FrameDemands,
    UserDemand,
    multicast_frame_time,
    overlap_bytes,
    plan_frame,
    plan_time_reference,
)

from .test_frame_demands import byte_values, demand, rates, same


def _check_group(frame_demands, by_id, members, rate):
    group = [by_id[u] for u in members]
    rows = frame_demands._rows(members)
    if rows:
        assert same(frame_demands._overlap(rows)[1], overlap_bytes(group))
    assert same(
        frame_demands.group_time_s(members, rate),
        multicast_frame_time(group, rate),
    )


def _check_candidates(demands):
    """Every pair of singleton groups: the IoU equals ``group_iou``."""
    frame_demands = FrameDemands(demands)
    groups = [(d.user_id,) for d in demands]
    maps = {d.user_id: frozenset(d.cell_bytes) for d in demands}
    candidates = _merge_candidates(groups, frame_demands, 0.0)
    assert len(candidates) == len(groups) * (len(groups) - 1) // 2
    for iou, ga, gb in candidates:
        expected = group_iou([maps[u] for u in ga + gb])
        assert same(iou, expected)


# -- masks ------------------------------------------------------------------


def test_mask_sets_bit_c_for_cell_c():
    cells = {70: 1.0, 0: 2.0, 64: 3.0, 63: 4.0, 5: 0.0}
    frame_demands = FrameDemands([demand(0, cells)])
    assert frame_demands.row_mask(0) == sum(1 << c for c in cells)


def test_numpy_int_keys_set_the_same_bits_as_python_ints():
    assert 1 << np.int64(70) == 0  # the trap the masks must not fall into
    py = {0: 1e4, 70: 2e4, 129: 5e3, 3: 7e3}
    np_keys = {np.int64(c): b for c, b in py.items()}
    frame_demands = FrameDemands([demand(0, np_keys), demand(1, py)])
    assert frame_demands.row_mask(0) == frame_demands.row_mask(1)
    assert frame_demands.row_mask(0) == (1 << 0) | (1 << 3) | (1 << 70) | (
        1 << 129
    )


def test_negative_cell_id_is_a_clear_value_error():
    for key in (-1, np.int64(-3)):
        frame_demands = FrameDemands(
            [demand(0, {2: 1.0, key: 1.0}), demand(1, {2: 1.0})]
        )
        with pytest.raises(ValueError, match="cell ids must be non-negative"):
            frame_demands.group_time_s((0, 1), 300.0)
        with pytest.raises(ValueError, match="cell ids must be non-negative"):
            _merge_candidates([(0,), (1,)], frame_demands, 0.0)


def test_masks_are_built_only_for_multi_row_groups_and_ious():
    shared = {4: 1e4, 2: 2e4}
    demands = [demand(0, shared), demand(1, shared), demand(2, {2: 5e3})]
    frame_demands = FrameDemands(demands)
    frame_demands.group_time_s((0, 1), 300.0)  # one row
    assert frame_demands._masks == [None, None]
    frame_demands.group_time_s((1, 2), 300.0)  # two rows
    assert frame_demands._masks == [(1 << 4) | (1 << 2), 1 << 2]
    other = FrameDemands(demands)
    _merge_candidates([(0,), (1,), (2,)], other, 0.0)
    assert other._masks == frame_demands._masks


# -- pricing against the references ----------------------------------------


MASK_EDGE_CASES = [
    pytest.param(
        [demand(0, {0: 3e4, 1: 1e4}), demand(1, {0: 2e4, 9: 7e3})],
        (0, 1), 300.0, id="cell-zero",
    ),
    pytest.param(
        [demand(0, {64: 3e4, 63: 1e4, 200: 5.0}),
         demand(1, {63: 2e4, 64: 7e3, 65: 1.0})],
        (1, 0), 300.0, id="word-boundary-ids",
    ),
    pytest.param(
        [demand(0, {np.int64(64): 3e4, np.int64(1): 1e4}),
         demand(1, {64: 2e4, 1: 7e3, 90: 4e3})],
        (0, 1), 250.0, id="numpy-int-keys",
    ),
    pytest.param(
        [demand(0, {}), demand(1, {5: 5e4})], (0, 1), 300.0, id="empty-row",
    ),
    pytest.param(
        [demand(0, {}), demand(1, {})], (0, 1), 300.0, id="all-empty-rows",
    ),
    pytest.param(
        [demand(0, {99: 3e4, 2: 1e4, 70: 2e4})], (0,), 300.0,
        id="single-row",
    ),
    pytest.param(
        [demand(0, {9: 0.0, 3: 0.0}), demand(1, {3: 0.0, 4: 0.0})],
        (0, 1), 300.0, id="zero-byte-cells",
    ),
]


@pytest.mark.parametrize("demands, members, rate", MASK_EDGE_CASES)
def test_mask_edge_cases_match_the_references(demands, members, rate):
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    _check_group(frame_demands, by_id, members, rate)
    groups = [(members, rate)]
    assert same(
        plan_frame(FrameDemands(demands), groups).total_time_s(),
        plan_time_reference(by_id, groups),
    )
    _check_candidates(demands)


def test_single_row_group_shared_by_reference():
    cells = {7: 3e4, 1: 1e4, 300: 2e4}
    demands = [demand(u, cells, 200.0 + u) for u in range(4)]
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    for members in [(0,), (2, 1), (0, 1, 2, 3)]:
        _check_group(frame_demands, by_id, members, 275.0)
    _check_candidates(demands)


@st.composite
def wide_frames(draw):
    """Demands over cell ids 0-199 (several 64-bit words), some rows
    shared by reference, some keyed by NumPy ints."""
    num_users = draw(st.integers(1, 6))
    mappings: list[dict] = []
    demands = []
    for uid in range(num_users):
        if mappings and draw(st.booleans()):
            cells = mappings[draw(st.integers(0, len(mappings) - 1))]
        else:
            ids = draw(st.lists(st.integers(0, 199), unique=True, max_size=20))
            if draw(st.booleans()):
                ids = [np.int64(c) for c in ids]
            cells = {c: draw(byte_values) for c in ids}
            mappings.append(cells)
        demands.append(demand(uid, cells, draw(rates)))
    return demands


@given(wide_frames(), st.data())
@settings(max_examples=150, deadline=None)
def test_wide_frames_match_the_references(demands, data):
    frame_demands = FrameDemands(demands)
    by_id = {d.user_id: d for d in demands}
    uids = list(by_id)
    for size in range(1, len(uids) + 1):
        for members in combinations(uids, size):
            _check_group(frame_demands, by_id, members, data.draw(rates))
    _check_candidates(demands)


def test_merged_group_ious_match_group_iou():
    """Candidates between multi-user groups: AND/OR of the member masks."""
    rng = np.random.default_rng(11)
    demands = [
        UserDemand(
            user_id=u,
            cell_bytes={
                int(c): float(rng.uniform(1e3, 1e5))
                for c in rng.choice(150, size=int(rng.integers(0, 40)),
                                    replace=False)
            },
            unicast_rate_mbps=400.0,
        )
        for u in range(7)
    ]
    maps = {d.user_id: frozenset(d.cell_bytes) for d in demands}
    groups = [(0, 3), (1,), (2, 5, 6), (4,)]
    candidates = _merge_candidates(groups, FrameDemands(demands), 0.0)
    assert len(candidates) == 6
    for iou, ga, gb in candidates:
        assert same(iou, group_iou([maps[u] for u in ga + gb]))


def test_frame_plan_kernel_tick_matches_the_reference():
    """The ``repro bench --kernels`` ``frame_plan`` tick: 480 viewers over
    eight archetype dicts, one three-archetype group and two one-row
    groups."""
    rng = np.random.default_rng(0)
    archetypes = []
    for _ in range(8):
        cells = np.sort(rng.choice(600, size=int(rng.integers(150, 300)),
                                   replace=False))
        archetypes.append({
            int(c): float(b)
            for c, b in zip(cells, rng.uniform(2e3, 2e4, size=len(cells)))
        })
    demands = [UserDemand(u, archetypes[u % 8], 350.0) for u in range(480)]

    def members_of(arches):
        return tuple(u for u in range(480) if u % 8 in arches)

    groups = [
        (members_of((0, 1, 2)), 280.0),
        (members_of((3,)), 280.0),
        (members_of((4,)), 280.0),
    ]
    assert same(
        plan_frame(demands, groups).total_time_s(),
        plan_time_reference({d.user_id: d for d in demands}, groups),
    )
