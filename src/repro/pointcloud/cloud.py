"""Point-cloud frame container.

A frame is an ``(N, 3)`` array of points in meters, in a right-handed world
frame with +Z up and the ground at z = 0 — the convention shared by the
traces, the room model, and the mmWave channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import AABB

__all__ = ["PointCloudFrame"]


@dataclass(frozen=True)
class PointCloudFrame:
    """One frame of a volumetric video.

    Attributes:
        points: ``(N, 3)`` float array of point positions in meters.
        nominal_points: the point count this frame *represents*.  The
            experiments run on down-sampled geometry for speed; bitrate and
            decode-time computations use ``nominal_points`` so the network
            numbers match the full-density video (see DESIGN.md §1).
    """

    points: np.ndarray
    nominal_points: int = 0
    _bounds: AABB = field(init=False, repr=False)
    # Occupancy per cell lattice, filled by CellGrid.occupancy.
    _occupancies: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if len(pts) == 0:
            raise ValueError("a frame must contain at least one point")
        object.__setattr__(self, "points", pts)
        nominal = self.nominal_points or len(pts)
        if nominal < len(pts):
            raise ValueError(
                "nominal_points must be >= the sampled point count "
                f"({nominal} < {len(pts)})"
            )
        object.__setattr__(self, "nominal_points", int(nominal))
        object.__setattr__(self, "_bounds", AABB.of_points(pts))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def bounds(self) -> AABB:
        """Tight bounding box of the sampled points."""
        return self._bounds

    @property
    def scale_factor(self) -> float:
        """nominal points per sampled point (>= 1)."""
        return self.nominal_points / len(self.points)

    def transformed(self, offset: np.ndarray) -> "PointCloudFrame":
        """A copy translated by ``offset``."""
        return PointCloudFrame(
            self.points + np.asarray(offset, dtype=np.float64),
            nominal_points=self.nominal_points,
        )

    def subsample(self, fraction: float, seed: int = 0) -> "PointCloudFrame":
        """Randomly keep ``fraction`` of the points (at least one).

        ``nominal_points`` scales down proportionally, so bitrate stays
        consistent with the retained geometry.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        n = max(1, int(round(len(self.points) * fraction)))
        idx = rng.choice(len(self.points), size=n, replace=False)
        return PointCloudFrame(
            self.points[idx],
            nominal_points=max(n, int(round(self.nominal_points * fraction))),
        )
