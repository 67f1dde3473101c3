"""View frustum construction and culling.

The paper determines visible cells by frustum culling the partitioned point
cloud against each user's 6DoF viewport ("we use frustum culling [26] to
determine the cells overlapping with the 3D viewport").  This module builds
the six frustum planes from a pose (position + orientation + FoV) and tests
AABBs and point sets against them, vectorized over many cells.

Many viewers are handled as one batch: :func:`frustum_planes` builds
every viewer's planes in closed form from stacked poses (a whole session's
at once, or one frame's), :meth:`Frustum.many` wraps them without
rebuilding, and :func:`cull_planes` tests all viewers' planes against all
cells in one ``(V, C)`` positive-vertex test (:func:`cull_aabbs` is its
adapter for a list of :class:`Frustum`).  Both are bit-identical to the
per-pose scalar references they replace
(:meth:`Frustum._build_planes_reference`, :meth:`Frustum.intersects_aabbs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .aabb import AABB
from .quaternion import Quaternion

__all__ = ["Frustum", "cull_aabbs", "cull_planes", "frustum_planes"]

# Bound on the elements of the (viewers, 6 planes, cells, 3) positive-vertex
# temporary of :func:`cull_planes`; viewers are chunked to stay under it.
_CULL_CHUNK_ELEMENTS = 1 << 18


def _check_params(h_fov: float, v_fov: float, near: float, far: float) -> None:
    if not 0 < h_fov < np.pi:
        raise ValueError("h_fov must be in (0, pi)")
    if not 0 < v_fov < np.pi:
        raise ValueError("v_fov must be in (0, pi)")
    if not 0 < near < far:
        raise ValueError("need 0 < near < far")


def frustum_planes(
    positions: np.ndarray,
    orientations: np.ndarray,
    h_fov: float = np.deg2rad(90.0),
    v_fov: float = np.deg2rad(70.0),
    near: float = 0.05,
    far: float = 20.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Planes of ``V`` frusta: ``(normals (V, 6, 3), offsets (V, 6))``.

    ``positions`` is ``(V, 3)``; ``orientations`` is ``(V, 4)`` scalar-first
    unit quaternions.  Leading axes beyond one carry over: ``(F, U, 3)``
    positions give ``(F, U, 6, 3)`` normals and ``(F, U, 6)`` offsets, and
    each row is what a call on that row alone returns.  Plane order and
    conventions are those of :class:`Frustum`.  The body basis is rotated in closed form for all
    viewers at once (the quaternion sandwich of :meth:`Quaternion.rotate`
    broadcast over the identity), and every offset's dot product goes
    through a stacked ``np.matmul`` of row by column vectors — the same
    BLAS dot ``np.dot`` calls — so each row equals the per-pose
    :meth:`Frustum._build_planes_reference` bit for bit.
    """
    p = np.asarray(positions, dtype=np.float64)
    lead = p.shape[:-1]
    p = p.reshape(-1, 3)
    q = np.asarray(orientations, dtype=np.float64).reshape(-1, 4)
    w = q[:, 0, None, None]  # (V, 1, 1)
    qv = q[:, None, 1:]  # (V, 1, 3)
    basis = np.eye(3)  # rows: local +X (forward), +Y (left), +Z (up)
    t = 2.0 * np.cross(qv, basis)
    axes = basis + w * t + np.cross(qv, t)  # (V, 3, 3)
    fwd, left, up = axes[:, 0], axes[:, 1], axes[:, 2]

    hh = 0.5 * h_fov
    hv = 0.5 * v_fov
    n_left = np.cos(hh) * -left + np.sin(hh) * fwd
    n_right = np.cos(hh) * left + np.sin(hh) * fwd
    n_top = np.cos(hv) * -up + np.sin(hv) * fwd
    n_bottom = np.cos(hv) * up + np.sin(hv) * fwd
    normals = np.stack([fwd, -fwd, n_left, n_right, n_top, n_bottom], axis=1)

    # offset_k = sign_k * (dir_k . point_k): the far plane's offset is
    # +fwd . (p + far * fwd), every other one a negated dot.
    dirs = np.stack([fwd, fwd, n_left, n_right, n_top, n_bottom], axis=1)
    points = np.stack([p + near * fwd, p + far * fwd, p, p, p, p], axis=1)
    dots = np.matmul(dirs[:, :, None, :], points[:, :, :, None])[:, :, 0, 0]
    offsets = dots * np.array([-1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    return normals.reshape(lead + (6, 3)), offsets.reshape(lead + (6,))


def cull_aabbs(
    frustums: Sequence["Frustum"], lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """``(V, C)`` frustum-AABB test of every frustum against every box:
    :func:`cull_planes` over the frusta's stacked planes."""
    if not len(frustums):
        return np.ones((0, len(lows)), dtype=bool)
    normals = np.stack([f._normals for f in frustums])  # (V, 6, 3)
    offsets = np.stack([f._offsets for f in frustums])  # (V, 6)
    return cull_planes(normals, offsets, lows, highs)


def cull_planes(
    normals: np.ndarray, offsets: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """``(V, C)`` test of ``V`` frusta, given as planes, against ``C`` boxes.

    ``normals`` is ``(V, 6, 3)`` and ``offsets`` ``(V, 6)``, as
    :func:`frustum_planes` returns them.  Row ``i`` equals
    :meth:`Frustum.intersects_aabbs` of a frustum with those planes bit
    for bit: each (viewer, plane) positive-vertex product is the same
    ``(C, 3) @ (3,)`` matrix-vector call, stacked.  Viewers are processed
    in chunks so the ``(V, 6, C, 3)`` temporary stays near 2^18 elements.
    """
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    num_viewers, num_boxes = len(normals), len(lows)
    inside = np.ones((num_viewers, num_boxes), dtype=bool)
    if not num_viewers or not num_boxes:
        return inside
    chunk = max(1, _CULL_CHUNK_ELEMENTS // (6 * num_boxes * 3))
    for start in range(0, num_viewers, chunk):
        n = normals[start : start + chunk]
        pv = np.where((n >= 0.0)[:, :, None, :], highs, lows)  # (v, 6, C, 3)
        d = np.matmul(pv, n[:, :, :, None])[..., 0]  # (v, 6, C)
        d += offsets[start : start + chunk, :, None]
        inside[start : start + chunk] = np.all(d >= 0.0, axis=1)
    return inside


@dataclass(frozen=True)
class Frustum:
    """A perspective view frustum.

    Planes are stored as ``(normal, offset)`` rows with inward-pointing
    normals: a point ``p`` is inside iff ``normal . p + offset >= 0`` for all
    six planes.  The camera looks along the pose's +X axis (see
    :meth:`Quaternion.forward`) with +Z up.
    """

    position: np.ndarray
    orientation: Quaternion
    h_fov: float = np.deg2rad(90.0)
    v_fov: float = np.deg2rad(70.0)
    near: float = 0.05
    far: float = 20.0
    _normals: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_params(self.h_fov, self.v_fov, self.near, self.far)
        object.__setattr__(
            self, "position", np.asarray(self.position, dtype=np.float64)
        )
        normals, offsets = self._build_planes()
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", offsets)

    @classmethod
    def many(
        cls,
        poses: Iterable,
        h_fov: float = np.deg2rad(90.0),
        v_fov: float = np.deg2rad(70.0),
        near: float = 0.05,
        far: float = 20.0,
    ) -> list["Frustum"]:
        """Frusta of many poses (anything with ``position`` and
        ``orientation``, e.g. :class:`repro.traces.Pose`) from one
        :func:`frustum_planes` call.

        Each frustum equals ``Frustum(pose.position, pose.orientation,
        ...)`` but takes its planes as views of the shared batch instead of
        rebuilding them.
        """
        _check_params(h_fov, v_fov, near, far)
        poses = list(poses)
        positions = [np.asarray(p.position, dtype=np.float64) for p in poses]
        quats = [
            (p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z)
            for p in poses
        ]
        normals, offsets = frustum_planes(
            np.reshape(positions, (-1, 3)), np.reshape(quats, (-1, 4)),
            h_fov, v_fov, near, far,
        )
        frustums = []
        for i, pose in enumerate(poses):
            frustum = object.__new__(cls)
            for name, value in (
                ("position", positions[i]),
                ("orientation", pose.orientation),
                ("h_fov", h_fov),
                ("v_fov", v_fov),
                ("near", near),
                ("far", far),
                ("_normals", normals[i]),
                ("_offsets", offsets[i]),
            ):
                object.__setattr__(frustum, name, value)
            frustums.append(frustum)
        return frustums

    def _build_planes(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.orientation
        normals, offsets = frustum_planes(
            self.position[None, :],
            np.array([[q.w, q.x, q.y, q.z]], dtype=np.float64),
            self.h_fov, self.v_fov, self.near, self.far,
        )
        return normals[0], offsets[0]

    def _build_planes_reference(self) -> tuple[np.ndarray, np.ndarray]:
        """Scalar reference for :func:`frustum_planes` (one pose, three
        :meth:`Quaternion.rotate` calls, one ``np.dot`` per offset).

        Kept verbatim as the golden-equivalence baseline for the batched
        planes (asserted by ``tests/geometry/test_frustum.py``) and timed
        against them by ``repro bench --kernels``.
        """
        q = self.orientation
        fwd = q.rotate(np.array([1.0, 0.0, 0.0]))
        left = q.rotate(np.array([0.0, 1.0, 0.0]))
        up = q.rotate(np.array([0.0, 0.0, 1.0]))

        hh = 0.5 * self.h_fov
        hv = 0.5 * self.v_fov
        # Inward normals of the four side planes: rotate the forward vector
        # outward by half the FoV, then tilt 90 degrees toward the axis.
        n_left = np.cos(hh) * -left + np.sin(hh) * fwd
        n_right = np.cos(hh) * left + np.sin(hh) * fwd
        n_top = np.cos(hv) * -up + np.sin(hv) * fwd
        n_bottom = np.cos(hv) * up + np.sin(hv) * fwd

        normals = np.array(
            [fwd, -fwd, n_left, n_right, n_top, n_bottom], dtype=np.float64
        )
        p = self.position
        offsets = np.array(
            [
                -np.dot(fwd, p + self.near * fwd),
                np.dot(fwd, p + self.far * fwd),
                -np.dot(n_left, p),
                -np.dot(n_right, p),
                -np.dot(n_top, p),
                -np.dot(n_bottom, p),
            ],
            dtype=np.float64,
        )
        return normals, offsets

    # -- queries -----------------------------------------------------------

    def contains_point(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(self._normals @ p + self._offsets >= 0.0))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over an ``(N, 3)`` array of points."""
        points = np.asarray(points, dtype=np.float64)
        # (6, N) signed distances.
        d = self._normals @ points.T + self._offsets[:, None]
        return np.all(d >= 0.0, axis=0)

    def intersects_aabb(self, box: AABB) -> bool:
        """Conservative frustum-AABB test (plane rejection).

        May report true for boxes slightly outside a frustum corner — the
        standard conservative behaviour of plane-based culling, which only
        over-fetches and never drops a visible cell.
        """
        return bool(self.intersects_aabbs(box.lo[None, :], box.hi[None, :])[0])

    def intersects_aabbs(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized frustum-AABB test for ``(N, 3)`` corner arrays.

        For each plane, the AABB's "positive vertex" (the corner farthest in
        the direction of the plane normal) is tested; if it is behind any
        plane, the whole box is outside.  This is also the scalar reference
        of the many-viewer :func:`cull_planes`.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        inside = np.ones(len(lows), dtype=bool)
        for n, off in zip(self._normals, self._offsets):
            pv = np.where(n >= 0.0, highs, lows)  # (N, 3) positive vertices
            inside &= pv @ n + off >= 0.0
        return inside
