"""Spatial cell partitioning of point-cloud videos.

ViVo-style systems split the point cloud into independently prefetchable,
decodable cubic cells; the paper partitions at 25, 50 and 100 cm and computes
per-user visibility maps over those cells.  :class:`CellGrid` fixes the cell
lattice over a content volume so cell indices are stable across frames and
across users — a prerequisite for intersection-over-union similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..geometry import AABB
from .cloud import PointCloudFrame

__all__ = ["CellGrid", "FrameOccupancy", "OccupancyGeometry", "PAPER_CELL_SIZES"]

# Cell edge lengths used in the paper's Fig. 2 analysis, in meters.
PAPER_CELL_SIZES: tuple[float, ...] = (0.25, 0.50, 1.00)


@dataclass(frozen=True)
class CellGrid:
    """A fixed axis-aligned lattice of cubic cells covering ``bounds``.

    Cell ids are linear indices ``ix + nx * (iy + ny * iz)`` into the lattice,
    which stays identical for every frame and user of the same video.
    """

    bounds: AABB
    cell_size: float
    dims: tuple[int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        extent = self.bounds.size
        dims = tuple(
            max(1, int(np.ceil(e / self.cell_size - 1e-9))) for e in extent
        )
        object.__setattr__(self, "dims", dims)

    @staticmethod
    def covering(frame_or_bounds, cell_size: float, margin: float = 0.0) -> "CellGrid":
        """Grid covering a frame, video, or AABB with an optional margin."""
        if isinstance(frame_or_bounds, AABB):
            bounds = frame_or_bounds
        else:
            bounds = frame_or_bounds.bounds
        if margin:
            bounds = bounds.expanded(margin)
        return CellGrid(bounds, cell_size)

    @property
    def num_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    # -- index math --------------------------------------------------------

    def cell_index_of(self, points: np.ndarray) -> np.ndarray:
        """Linear cell index for each point in an ``(N, 3)`` array.

        Points outside the grid are clamped into the boundary cells; the
        grid is built to cover the content, so this only absorbs floating-
        point edge cases.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        rel = (points - self.bounds.lo) / self.cell_size
        ijk = np.floor(rel).astype(np.int64)
        for axis in range(3):
            ijk[:, axis] = np.clip(ijk[:, axis], 0, self.dims[axis] - 1)
        nx, ny, _ = self.dims
        return ijk[:, 0] + nx * (ijk[:, 1] + ny * ijk[:, 2])

    def ijk_of(self, cell_id: int | np.ndarray) -> np.ndarray:
        """Inverse of the linear index: ``(..., 3)`` integer coordinates."""
        cell_id = np.asarray(cell_id, dtype=np.int64)
        nx, ny, _ = self.dims
        ix = cell_id % nx
        iy = (cell_id // nx) % ny
        iz = cell_id // (nx * ny)
        return np.stack([ix, iy, iz], axis=-1)

    def cell_bounds(self, cell_id: int) -> AABB:
        """The AABB of one cell."""
        ijk = self.ijk_of(cell_id).astype(np.float64)
        lo = self.bounds.lo + ijk * self.cell_size
        return AABB(lo, lo + self.cell_size)

    def cell_bounds_array(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(lows, highs)`` corner arrays for many cells."""
        ijk = self.ijk_of(np.asarray(cell_ids)).astype(np.float64)
        lows = self.bounds.lo + ijk * self.cell_size
        return lows, lows + self.cell_size

    def cell_centers(self, cell_ids: np.ndarray) -> np.ndarray:
        lows, highs = self.cell_bounds_array(cell_ids)
        return 0.5 * (lows + highs)

    # -- occupancy ----------------------------------------------------------

    def occupancy(self, frame: PointCloudFrame) -> "FrameOccupancy":
        """Which cells a frame occupies and with how many points.

        Memoized on the (immutable) frame, keyed by this grid's cell size
        and exact bounds, so every session, viewer and study over the same
        video shares one occupancy — and its cached per-frame geometry —
        per frame and lattice.  Grids that differ in either never alias.
        """
        key = (
            float(self.cell_size),
            self.bounds.lo.tobytes(),
            self.bounds.hi.tobytes(),
        )
        occupancy = frame._occupancies.get(key)
        if occupancy is None:
            idx = self.cell_index_of(frame.points)
            cell_ids, counts = np.unique(idx, return_counts=True)
            occupancy = FrameOccupancy(
                grid=self,
                cell_ids=_read_only(cell_ids),
                counts=_read_only(counts),
                scale_factor=frame.scale_factor,
            )
            frame._occupancies[key] = occupancy
        return occupancy


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class OccupancyGeometry:
    """Per-frame cell arrays every viewer's visibility reads.

    They depend only on the occupancy, so they are computed once per
    occupancy (on first use) and shared, read-only, by every viewer, frame
    batch and session that sees it.  Mixed into :class:`FrameOccupancy` and
    :class:`~repro.pointcloud.octree.OctreeOccupancy`, which supply
    ``grid``, ``cell_ids`` and ``nominal_counts()``.
    """

    @cached_property
    def nominal(self) -> np.ndarray:
        """Nominal (full-density) point count per occupied cell, float64."""
        return _read_only(self.nominal_counts().astype(np.float64))

    @cached_property
    def frame_points(self) -> float:
        """Nominal points in the whole frame (the sum of :attr:`nominal`)."""
        return float(self.nominal.sum())

    @cached_property
    def lows_highs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lows, highs)`` corner arrays of the occupied cells."""
        lows, highs = self.grid.cell_bounds_array(self.cell_ids)
        return _read_only(lows), _read_only(highs)

    @cached_property
    def centers(self) -> np.ndarray:
        """Centers of the occupied cells."""
        lows, highs = self.lows_highs
        return _read_only(0.5 * (lows + highs))


@dataclass(frozen=True)
class FrameOccupancy(OccupancyGeometry):
    """Occupied cells of one frame on a :class:`CellGrid`.

    ``counts`` are sampled-point counts; multiply by ``scale_factor`` for
    nominal (full-density) counts used in size computations.
    """

    grid: CellGrid
    cell_ids: np.ndarray
    counts: np.ndarray
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        if len(self.cell_ids) != len(self.counts):
            raise ValueError("cell_ids and counts must align")

    def __len__(self) -> int:
        return len(self.cell_ids)

    @property
    def total_points(self) -> float:
        """Nominal point count across all occupied cells."""
        return float(self.counts.sum() * self.scale_factor)

    def nominal_counts(self) -> np.ndarray:
        return self.counts * self.scale_factor

    def count_of(self, cell_id: int) -> float:
        """Nominal point count of one cell (0 if unoccupied)."""
        pos = np.searchsorted(self.cell_ids, cell_id)
        if pos < len(self.cell_ids) and self.cell_ids[pos] == cell_id:
            return float(self.counts[pos] * self.scale_factor)
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return {
            int(c): float(n * self.scale_factor)
            for c, n in zip(self.cell_ids, self.counts)
        }
