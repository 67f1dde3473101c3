"""Ray and segment primitives for the mmWave channel model.

The 60 GHz ray tracer needs two geometric operations:

* segment-vs-vertical-cylinder intersection — a human body blocking the
  line of sight between the AP and a client is modeled as a vertical
  cylinder (the standard human-blockage abstraction in mmWave studies);
* specular reflection of a point across a wall plane — used to construct
  first-order reflected paths via the image method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vec

__all__ = ["Segment", "VerticalCylinder", "mirror_point", "Plane"]


@dataclass(frozen=True)
class Segment:
    """A finite line segment from ``a`` to ``b``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    @property
    def direction(self) -> np.ndarray:
        return vec.normalize(self.b - self.a)


@dataclass(frozen=True)
class VerticalCylinder:
    """An upright cylinder: circle of ``radius`` at ``center_xy``, z in [0, height].

    Models a standing person for blockage computations.
    """

    center_xy: np.ndarray
    radius: float
    height: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center_xy, dtype=np.float64)
        if c.shape != (2,):
            raise ValueError("center_xy must be a 2-vector")
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("radius and height must be positive")
        object.__setattr__(self, "center_xy", c)

    def blocks(self, segment: Segment) -> bool:
        """True if the segment passes through the cylinder volume."""
        return self.intersection_interval(segment) is not None

    def intersection_interval(self, segment: Segment) -> tuple[float, float] | None:
        """Parameter interval ``(t0, t1)`` of the segment inside the cylinder.

        Returns ``None`` when the segment misses.  The computation first
        intersects the segment's XY projection with the circle, then clips
        the resulting parameter interval against the z extent.
        """
        a2 = segment.a[:2] - self.center_xy
        d2 = segment.b[:2] - segment.a[:2]
        # Quadratic |a2 + t*d2|^2 = r^2.
        qa = float(np.dot(d2, d2))
        qb = 2.0 * float(np.dot(a2, d2))
        qc = float(np.dot(a2, a2)) - self.radius**2
        if qa < 1e-15:
            # Vertical segment: inside the circle or not.
            if qc > 0.0:
                return None
            t0, t1 = 0.0, 1.0
        else:
            disc = qb * qb - 4 * qa * qc
            if disc < 0.0:
                return None
            sq = np.sqrt(disc)
            t0 = (-qb - sq) / (2 * qa)
            t1 = (-qb + sq) / (2 * qa)
        # Clip to the segment.
        t0, t1 = max(t0, 0.0), min(t1, 1.0)
        if t0 >= t1:
            return None
        # Clip against z extent: z(t) = az + t*(bz-az) within [0, height].
        az, bz = segment.a[2], segment.b[2]
        dz = bz - az
        if abs(dz) < 1e-15:
            if not 0.0 <= az <= self.height:
                return None
        else:
            tz0 = (0.0 - az) / dz
            tz1 = (self.height - az) / dz
            if tz0 > tz1:
                tz0, tz1 = tz1, tz0
            t0, t1 = max(t0, tz0), min(t1, tz1)
            if t0 >= t1:
                return None
        return (t0, t1)


@dataclass(frozen=True)
class Plane:
    """An infinite plane ``normal . p = offset`` with unit ``normal``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        n = vec.normalize(np.asarray(self.normal, dtype=np.float64))
        object.__setattr__(self, "normal", n)

    def signed_distance(self, point: np.ndarray) -> float:
        return float(np.dot(self.normal, np.asarray(point)) - self.offset)

    def mirror(self, point: np.ndarray) -> np.ndarray:
        """Reflect ``point`` across the plane (image method)."""
        return mirror_point(point, self)


def mirror_point(point: np.ndarray, plane: Plane) -> np.ndarray:
    """Specular image of ``point`` across ``plane``."""
    p = np.asarray(point, dtype=np.float64)
    return p - 2.0 * plane.signed_distance(p) * plane.normal
