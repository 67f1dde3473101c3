"""Axis-aligned bounding boxes.

Cells of a partitioned point cloud are AABBs; frustum culling tests AABBs
against the viewport frustum.  The class carries vectorized helpers so a
whole grid of cells can be culled in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AABB"]


@dataclass(frozen=True)
class AABB:
    """An axis-aligned box described by two corners ``lo <= hi``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("AABB corners must be 3-vectors")
        if np.any(lo > hi):
            raise ValueError(f"AABB lo {lo} exceeds hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def of_points(points: np.ndarray) -> "AABB":
        """Tight bounding box of an ``(N, 3)`` point set of finite points.

        The reduction runs over one contiguous ``(3, N)`` copy: a row-wise
        min/max is a fast contiguous pass, while ``min(axis=0)`` strides
        across rows.  Min and max are exact, so the bounds are bitwise
        ``min(axis=0)`` / ``max(axis=0)``, with one exception handled below.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
            raise ValueError("need a non-empty (N, 3) point array")
        columns = np.ascontiguousarray(points.T)
        lo, hi = columns.min(axis=1), columns.max(axis=1)
        # A NaN propagates into both bounds and an infinity reaches one, so
        # finite bounds mean finite points.
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("points must be finite")
        # Which of 0.0 and -0.0 wins a tie depends on the reduction order:
        # where a zero bound's column holds both, reduce as min(axis=0) does.
        if _mixed_zeros(columns[lo == 0]):
            lo = points.min(axis=0)
        if _mixed_zeros(columns[hi == 0]):
            hi = points.max(axis=0)
        return AABB(lo, hi)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def size(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.size))

    def corners(self) -> np.ndarray:
        """All 8 corner points, shape ``(8, 3)``."""
        lo, hi = self.lo, self.hi
        xs = np.array([lo[0], hi[0]])
        ys = np.array([lo[1], hi[1]])
        zs = np.array([lo[2], hi[2]])
        return np.array([[x, y, z] for x in xs for y in ys for z in zs])

    def contains(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over an ``(N, 3)`` point array."""
        points = np.asarray(points, dtype=np.float64)
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    def intersects(self, other: "AABB") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def union(self, other: "AABB") -> "AABB":
        return AABB(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def expanded(self, margin: float) -> "AABB":
        """A copy grown by ``margin`` on every side (margin may be negative)."""
        m = np.full(3, float(margin))
        lo, hi = self.lo - m, self.hi + m
        if np.any(lo > hi):
            raise ValueError("negative margin collapses the box")
        return AABB(lo, hi)


def _mixed_zeros(values: np.ndarray) -> bool:
    """True when ``values`` holds both 0.0 and -0.0."""
    zero = values == 0
    negative = np.count_nonzero(zero & np.signbit(values))
    return 0 < negative < np.count_nonzero(zero)
