"""Room-scale geometric ray tracer for 60 GHz propagation.

Stand-in for the commercial Remcom Wireless InSite simulator the paper uses
(DESIGN.md §1).  Indoor 60 GHz propagation is dominated by the line-of-sight
path plus a handful of first-order specular wall reflections; diffraction is
negligible at this wavelength.  The tracer therefore enumerates:

* the LoS path, and
* one image-method reflection per wall (four side walls + ceiling),

and charges each path segment that crosses a human-body cylinder with a
blockage attenuation instead of removing it — matching measurements that
"blockage does not always cause link outage" (paper §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import Plane, Segment, VerticalCylinder

__all__ = ["Room", "PropagationPath", "trace_paths"]


@dataclass(frozen=True)
class Room:
    """A rectangular room ``[0, width] x [0, length] x [0, height]`` (meters)."""

    width: float = 8.0
    length: float = 10.0
    height: float = 3.0

    def __post_init__(self) -> None:
        if min(self.width, self.length, self.height) <= 0:
            raise ValueError("room dimensions must be positive")

    def contains(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(
            0.0 <= p[0] <= self.width
            and 0.0 <= p[1] <= self.length
            and 0.0 <= p[2] <= self.height
        )

    def reflective_planes(self) -> list[tuple[str, Plane]]:
        """The five reflecting surfaces (four walls + ceiling).

        The floor is omitted: it is typically carpeted/cluttered and
        contributes little specular energy at 60 GHz.
        """
        return [
            ("wall_x0", Plane(np.array([1.0, 0.0, 0.0]), 0.0)),
            ("wall_x1", Plane(np.array([1.0, 0.0, 0.0]), self.width)),
            ("wall_y0", Plane(np.array([0.0, 1.0, 0.0]), 0.0)),
            ("wall_y1", Plane(np.array([0.0, 1.0, 0.0]), self.length)),
            ("ceiling", Plane(np.array([0.0, 0.0, 1.0]), self.height)),
        ]


@dataclass(frozen=True)
class PropagationPath:
    """One propagation path from TX to RX.

    Attributes:
        kind: ``"los"`` or the reflecting surface's name.
        vertices: TX, optional reflection point, RX.
        length_m: total path length.
        extra_loss_db: reflection loss plus accumulated blockage loss.
        departure: unit vector leaving the TX along this path (world frame);
            the channel model evaluates the TX beam pattern along it.
    """

    kind: str
    vertices: tuple[np.ndarray, ...]
    length_m: float
    extra_loss_db: float
    departure: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least TX and RX vertices")
        v0 = np.asarray(self.vertices[0], dtype=np.float64)
        v1 = np.asarray(self.vertices[1], dtype=np.float64)
        dep = v1 - v0
        n = np.linalg.norm(dep)
        if n < 1e-12:
            raise ValueError("degenerate path")
        object.__setattr__(self, "departure", dep / n)


def _segment_blockage_db(
    segment: Segment, bodies: tuple[VerticalCylinder, ...], per_body_db: float
) -> float:
    """Total blockage attenuation a segment picks up from human bodies."""
    loss = 0.0
    for body in bodies:
        if body.blocks(segment):
            loss += per_body_db
    return loss


def trace_paths(
    tx: np.ndarray,
    rx: np.ndarray,
    room: Room,
    bodies: tuple[VerticalCylinder, ...] = (),
    reflection_loss_db: float = 8.0,
    blockage_loss_db: float = 22.0,
) -> list[PropagationPath]:
    """Enumerate LoS + first-order reflected paths between two points.

    Blocked segments are attenuated (``blockage_loss_db`` per intersected
    body), not discarded.  Reflection points falling outside the actual wall
    rectangle are rejected.
    """
    tx = np.asarray(tx, dtype=np.float64)
    rx = np.asarray(rx, dtype=np.float64)
    paths: list[PropagationPath] = []

    los = Segment(tx, rx)
    paths.append(
        PropagationPath(
            kind="los",
            vertices=(tx, rx),
            length_m=los.length,
            extra_loss_db=_segment_blockage_db(los, bodies, blockage_loss_db),
        )
    )

    for name, plane in room.reflective_planes():
        # Image method: mirror the receiver, intersect TX->image with the wall.
        image = plane.mirror(rx)
        d = image - tx
        denom = float(np.dot(plane.normal, d))
        if abs(denom) < 1e-12:
            continue  # path parallel to the wall
        t = (plane.offset - float(np.dot(plane.normal, tx))) / denom
        if not 0.0 < t < 1.0:
            continue  # reflection point not between TX and image
        hit = tx + t * d
        if not room.contains(hit):
            continue  # outside the physical wall rectangle
        seg1 = Segment(tx, hit)
        seg2 = Segment(hit, rx)
        loss = (
            reflection_loss_db
            + _segment_blockage_db(seg1, bodies, blockage_loss_db)
            + _segment_blockage_db(seg2, bodies, blockage_loss_db)
        )
        paths.append(
            PropagationPath(
                kind=name,
                vertices=(tx, hit, rx),
                length_m=seg1.length + seg2.length,
                extra_loss_db=loss,
            )
        )
    return paths
