"""3D math substrate: vectors, quaternions, AABBs, frusta, and ray primitives."""

from .aabb import AABB
from .frustum import Frustum, cull_aabbs, frustum_planes
from .quaternion import Quaternion
from .rays import Plane, Segment, VerticalCylinder, mirror_point
from .vec import (
    angle_between,
    azimuth_elevation,
    cross,
    distance,
    dot,
    from_azimuth_elevation,
    norm,
    normalize,
    project_onto_plane,
    vec3,
)

__all__ = [
    "AABB",
    "Frustum",
    "cull_aabbs",
    "frustum_planes",
    "Quaternion",
    "Plane",
    "Segment",
    "VerticalCylinder",
    "mirror_point",
    "angle_between",
    "azimuth_elevation",
    "cross",
    "distance",
    "dot",
    "from_azimuth_elevation",
    "norm",
    "normalize",
    "project_onto_plane",
    "vec3",
]
