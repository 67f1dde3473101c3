"""3D math substrate: vectors, quaternions, AABBs, frusta, and ray primitives."""

from .aabb import AABB
from .frustum import Frustum, cull_aabbs, cull_planes, frustum_planes
from .quaternion import Quaternion
from .rays import Plane, Segment, VerticalCylinder, mirror_point
from .vec import (
    azimuth_elevation,
    cross,
    distance,
    dot,
    from_azimuth_elevation,
    norm,
    normalize,
)

__all__ = [
    "AABB",
    "Frustum",
    "cull_aabbs",
    "cull_planes",
    "frustum_planes",
    "Quaternion",
    "Plane",
    "Segment",
    "VerticalCylinder",
    "mirror_point",
    "azimuth_elevation",
    "cross",
    "distance",
    "dot",
    "from_azimuth_elevation",
    "norm",
    "normalize",
]
