"""Octree partitioning — the adaptive alternative to the uniform cell grid.

Production volumetric codecs (ViVo's cells, GROOT's PD-tree) partition
adaptively: dense regions split deeper so every transmitted unit carries a
comparable payload, while empty space costs nothing.  This module provides
an octree whose leaves serve the same role as :class:`CellGrid` cells —
each leaf is independently prefetchable/decodable and carries a stable id —
so the visibility, similarity and scheduling machinery runs unchanged on
either partitioner via the shared :class:`FrameOccupancy` interface.

Compared to the uniform grid at similar leaf counts, the octree:

* equalizes per-cell payload (fewer tiny cells on silhouettes);
* adapts the partition depth to content density per frame;
* keeps leaf ids stable across frames by deriving them from the spatial
  path through a *fixed* root cube, not from the content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import AABB
from .cells import OccupancyGeometry
from .cloud import PointCloudFrame

__all__ = ["Octree", "OctreeOccupancy", "build_octree"]


@dataclass(frozen=True)
class _Leaf:
    """One octree leaf: path id, bounds, sampled point count."""

    leaf_id: int
    bounds: AABB
    count: int


@dataclass(frozen=True)
class Octree:
    """An octree over a fixed root cube.

    Leaf ids encode the root-to-leaf octant path in base 8 (offset per
    depth level), so the same region of space always maps to the same id
    regardless of frame content — the property IoU similarity requires.
    """

    root: AABB
    max_depth: int
    max_points_per_leaf: int
    leaves: tuple[_Leaf, ...]
    _scale_factor: float = 1.0

    def __len__(self) -> int:
        return len(self.leaves)

    @property
    def cell_ids(self) -> np.ndarray:
        return np.array([leaf.leaf_id for leaf in self.leaves], dtype=np.int64)

    def occupancy(self) -> "OctreeOccupancy":
        """Adapt the octree to the :class:`FrameOccupancy`-like interface."""
        order = np.argsort([leaf.leaf_id for leaf in self.leaves])
        leaves = [self.leaves[i] for i in order]
        return OctreeOccupancy(
            tree=self,
            cell_ids=np.array([l.leaf_id for l in leaves], dtype=np.int64),
            counts=np.array([l.count for l in leaves], dtype=np.int64),
            scale_factor=self._scale_factor,
            _bounds_by_id={l.leaf_id: l.bounds for l in leaves},
        )

    def depth_of(self, leaf_id: int) -> int:
        """Tree depth a leaf id encodes (root leaf = 0)."""
        depth = 0
        remaining = leaf_id
        while remaining >= _LEVEL_OFFSETS[depth + 1]:
            depth += 1
            if depth >= len(_LEVEL_OFFSETS) - 1:
                break
        return depth


# Leaf-id layout: level d uses ids in [offset(d), offset(d) + 8^d).
_MAX_LEVELS = 12
_LEVEL_OFFSETS = [0]
for _d in range(1, _MAX_LEVELS + 2):
    _LEVEL_OFFSETS.append(_LEVEL_OFFSETS[-1] + 8 ** (_d - 1))


def _leaf_id(depth: int, path_index: int) -> int:
    return _LEVEL_OFFSETS[depth] + path_index


@dataclass(frozen=True)
class OctreeOccupancy(OccupancyGeometry):
    """Octree leaves exposed with the :class:`FrameOccupancy` interface.

    Duck-type compatible with what :func:`compute_visibility` needs: a
    ``grid``-like object (self) offering ``cell_bounds_array`` and
    ``cell_centers``, plus parallel ``cell_ids``/``counts`` arrays.
    """

    tree: Octree
    cell_ids: np.ndarray
    counts: np.ndarray
    scale_factor: float
    _bounds_by_id: dict = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.cell_ids)

    # -- FrameOccupancy interface ------------------------------------------

    @property
    def grid(self) -> "OctreeOccupancy":
        return self

    @property
    def total_points(self) -> float:
        return float(self.counts.sum() * self.scale_factor)

    def nominal_counts(self) -> np.ndarray:
        return self.counts * self.scale_factor

    def as_dict(self) -> dict[int, float]:
        return {
            int(c): float(n * self.scale_factor)
            for c, n in zip(self.cell_ids, self.counts)
        }

    # -- grid-like interface (used by the visibility computation) -----------

    @property
    def cell_size(self) -> float:
        """Mean leaf edge length (heterogeneous; for diagnostics only)."""
        sizes = [self._bounds_by_id[int(c)].size[0] for c in self.cell_ids]
        return float(np.mean(sizes)) if sizes else 0.0

    def cell_bounds_array(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lows = np.stack(
            [self._bounds_by_id[int(c)].lo for c in np.atleast_1d(cell_ids)]
        )
        highs = np.stack(
            [self._bounds_by_id[int(c)].hi for c in np.atleast_1d(cell_ids)]
        )
        return lows, highs

    def cell_centers(self, cell_ids: np.ndarray) -> np.ndarray:
        lows, highs = self.cell_bounds_array(cell_ids)
        return 0.5 * (lows + highs)


def _cube_around(bounds: AABB) -> AABB:
    """The smallest axis-aligned cube containing ``bounds``."""
    size = float(bounds.size.max())
    center = bounds.center
    half = 0.5 * size
    return AABB(center - half, center + half)


def build_octree(
    frame: PointCloudFrame,
    root: AABB | None = None,
    max_points_per_leaf: int = 400,
    max_depth: int = 6,
) -> Octree:
    """Build an octree over a frame by recursive occupancy splitting.

    Args:
        frame: the point-cloud frame to partition.
        root: fixed root cube; pass the *video-level* cube so leaf ids are
            stable across frames (defaults to this frame's bounding cube).
        max_points_per_leaf: sampled-point threshold above which a node
            splits (until ``max_depth``).
        max_depth: maximum subdivision depth.
    """
    if max_points_per_leaf < 1:
        raise ValueError("max_points_per_leaf must be >= 1")
    if not 0 <= max_depth <= _MAX_LEVELS:
        raise ValueError(f"max_depth must be in [0, {_MAX_LEVELS}]")
    root = _cube_around(root if root is not None else frame.bounds)
    points = frame.points

    leaves: list[_Leaf] = []

    def recurse(bounds: AABB, idx: np.ndarray, depth: int, path_index: int):
        if len(idx) == 0:
            return
        if depth >= max_depth or len(idx) <= max_points_per_leaf:
            leaves.append(
                _Leaf(
                    leaf_id=_leaf_id(depth, path_index),
                    bounds=bounds,
                    count=len(idx),
                )
            )
            return
        center = bounds.center
        pts = points[idx]
        octant = (
            (pts[:, 0] >= center[0]).astype(np.int64)
            + 2 * (pts[:, 1] >= center[1]).astype(np.int64)
            + 4 * (pts[:, 2] >= center[2]).astype(np.int64)
        )
        for o in range(8):
            sub_idx = idx[octant == o]
            if len(sub_idx) == 0:
                continue
            lo = np.where(
                [o & 1, o & 2, o & 4], center, bounds.lo
            ).astype(np.float64)
            hi = np.where(
                [o & 1, o & 2, o & 4], bounds.hi, center
            ).astype(np.float64)
            recurse(AABB(lo, hi), sub_idx, depth + 1, 8 * path_index + o)

    recurse(root, np.arange(len(points)), 0, 0)
    return Octree(
        root=root,
        max_depth=max_depth,
        max_points_per_leaf=max_points_per_leaf,
        leaves=tuple(leaves),
        _scale_factor=frame.scale_factor,
    )
