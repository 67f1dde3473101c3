"""Golden equivalence: vectorized similarity kernels vs. scalar references.

The batched NumPy kernels (``membership_matrix`` / ``pairwise_iou_matrix``)
and the grouping-side merge candidates' IoUs must reproduce the scalar
set-arithmetic definitions *bitwise*: each ends in the same
integer / integer division, which is correctly rounded, so no tolerance
is needed or used.
"""

import numpy as np
import pytest

from repro.core.grouping import _merge_candidates
from repro.core.similarity import (
    group_iou,
    membership_matrix,
    pairwise_iou_matrix,
)
from repro.mac.scheduler import FrameDemands, UserDemand


def _random_maps(rng, count, universe=400, density=0.25):
    maps = []
    for _ in range(count):
        size = int(rng.integers(0, int(universe * density)))
        maps.append(frozenset(int(c) for c in rng.choice(universe, size=size, replace=False)))
    return maps


def test_membership_matrix_columns_match_universe():
    maps = [frozenset({3, 7}), frozenset({7, 9}), frozenset()]
    memb, universe = membership_matrix(maps)
    assert universe == (3, 7, 9)
    assert memb.shape == (3, 3)
    assert memb.tolist() == [
        [True, True, False],
        [False, True, True],
        [False, False, False],
    ]


def test_pairwise_iou_matrix_bitwise_matches_scalar_reference():
    rng = np.random.default_rng(11)
    maps = _random_maps(rng, 24)
    matrix = pairwise_iou_matrix(maps)
    assert matrix.shape == (24, 24)
    for i in range(len(maps)):
        for j in range(len(maps)):
            scalar = group_iou([maps[i], maps[j]])
            assert matrix[i, j] == scalar  # bitwise, no tolerance
    # Diagonal: IoU of a map with itself is 1 (empty maps included, by
    # the empty-union convention group_iou also uses).
    assert np.all(np.diagonal(matrix) == 1.0)


def test_pairwise_iou_matrix_symmetry_and_empty_handling():
    maps = [frozenset({1, 2}), frozenset(), frozenset({2, 3})]
    matrix = pairwise_iou_matrix(maps)
    assert np.array_equal(matrix, matrix.T)
    assert matrix[0, 1] == 0.0  # empty vs non-empty
    assert matrix[1, 1] == 1.0  # empty vs empty: vacuous identity
    assert matrix[0, 2] == group_iou([maps[0], maps[2]])


def test_pairwise_iou_matrix_rejects_empty_input():
    with pytest.raises(ValueError):
        pairwise_iou_matrix([])


def _random_demands(rng, num_users, universe=200):
    demands = []
    for uid in range(num_users):
        size = int(rng.integers(1, 40))
        cells = rng.choice(universe, size=size, replace=False)
        demands.append(
            UserDemand(
                user_id=uid,
                cell_bytes={int(c): float(rng.uniform(10, 500)) for c in cells},
                unicast_rate_mbps=100.0,
            )
        )
    return demands


def test_merge_candidate_ious_bitwise_match_scalar_reference():
    rng = np.random.default_rng(29)
    demands = _random_demands(rng, 12)
    groups = [(0, 1), (2,), (3, 4, 5), (6,), (7, 8), (9, 10, 11)]
    # At min_iou 0.0 every pair of groups is a candidate.
    candidates = _merge_candidates(groups, FrameDemands(demands), 0.0)
    assert len(candidates) == 15
    by_id = {d.user_id: d for d in demands}
    for iou, ga, gb in candidates:
        inter_a = frozenset.intersection(
            *[frozenset(by_id[u].cell_bytes) for u in ga]
        )
        inter_b = frozenset.intersection(
            *[frozenset(by_id[u].cell_bytes) for u in gb]
        )
        union_a = frozenset.union(
            *[frozenset(by_id[u].cell_bytes) for u in ga]
        )
        union_b = frozenset.union(
            *[frozenset(by_id[u].cell_bytes) for u in gb]
        )
        inter = len(inter_a & inter_b)
        union = len(union_a | union_b)
        scalar = inter / union if union else 1.0
        assert iou == scalar  # bitwise, no tolerance
