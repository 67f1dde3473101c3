"""Unit quaternions for 3DoF orientation (yaw/pitch/roll of a viewport).

The 6DoF traces store orientation as unit quaternions; the behaviour models
integrate angular velocity with :meth:`Quaternion.slerp` and
:func:`Quaternion.from_euler`.  The convention is scalar-first ``(w, x, y, z)``
with right-handed rotations and the ZYX (yaw-pitch-roll) Euler order used by
most headset SDKs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Quaternion"]

_EPS = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """An immutable unit quaternion ``w + xi + yj + zk``."""

    w: float
    x: float
    y: float
    z: float

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis: np.ndarray, angle: float) -> "Quaternion":
        """Rotation of ``angle`` radians around (not necessarily unit) ``axis``."""
        axis = np.asarray(axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n < _EPS:
            return Quaternion.identity()
        axis = axis / n
        half = 0.5 * angle
        s = np.sin(half)
        return Quaternion(float(np.cos(half)), *(s * axis))

    @staticmethod
    def from_euler(yaw: float, pitch: float, roll: float) -> "Quaternion":
        """Build from ZYX Euler angles (yaw about Z, pitch about Y, roll about X)."""
        cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
        cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
        cr, sr = np.cos(roll / 2), np.sin(roll / 2)
        return Quaternion(
            float(cy * cp * cr + sy * sp * sr),
            float(cy * cp * sr - sy * sp * cr),
            float(cy * sp * cr + sy * cp * sr),
            float(sy * cp * cr - cy * sp * sr),
        )

    @staticmethod
    def look_at(forward: np.ndarray, up: np.ndarray | None = None) -> "Quaternion":
        """Orientation whose local +X axis points along ``forward``.

        The library's camera convention is: the viewport looks along the
        rotated +X axis, with +Z up.  This matches the azimuth/elevation
        convention in :mod:`repro.geometry.vec`.  The result has zero
        roll, so ``up`` is ignored.
        """
        from . import vec

        f = vec.normalize(np.asarray(forward, dtype=np.float64))
        az, el = vec.azimuth_elevation(f)
        return Quaternion.from_euler(az, -el, 0.0)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def normalized(self) -> "Quaternion":
        n = np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if n < _EPS:
            return Quaternion.identity()
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def norm(self) -> float:
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    # -- rotations ---------------------------------------------------------

    def rotate(self, v: np.ndarray) -> np.ndarray:
        """Rotate vector(s) ``v`` (shape ``(..., 3)``) by this quaternion."""
        v = np.asarray(v, dtype=np.float64)
        q = np.array([self.x, self.y, self.z])
        t = 2.0 * np.cross(q, v)
        return v + self.w * t + np.cross(q, t)

    def forward(self) -> np.ndarray:
        """The viewing direction: local +X rotated into world frame."""
        return self.rotate(np.array([1.0, 0.0, 0.0]))

    def up(self) -> np.ndarray:
        """The local +Z axis rotated into world frame."""
        return self.rotate(np.array([0.0, 0.0, 1.0]))

    def to_euler(self) -> tuple[float, float, float]:
        """Return (yaw, pitch, roll) in the same ZYX convention as from_euler."""
        w, x, y, z = self.w, self.x, self.y, self.z
        yaw = float(np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z)))
        sinp = 2 * (w * y - z * x)
        pitch = float(np.arcsin(np.clip(sinp, -1.0, 1.0)))
        roll = float(np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y)))
        return yaw, pitch, roll

    def angle_to(self, other: "Quaternion") -> float:
        """Smallest rotation angle (radians) taking ``self`` to ``other``."""
        d = abs(
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
        )
        return float(2.0 * np.arccos(np.clip(d, -1.0, 1.0)))

    def slerp(self, other: "Quaternion", t: float) -> "Quaternion":
        """Spherical linear interpolation from ``self`` (t=0) to ``other`` (t=1)."""
        d = (
            self.w * other.w
            + self.x * other.x
            + self.y * other.y
            + self.z * other.z
        )
        # Take the short arc.
        o = other
        if d < 0.0:
            d = -d
            o = Quaternion(-other.w, -other.x, -other.y, -other.z)
        d = min(1.0, max(-1.0, d))
        theta = np.arccos(d)
        if theta < 1e-9:
            # Nearly identical: linear interpolation avoids division by ~0.
            return Quaternion(
                self.w + t * (o.w - self.w),
                self.x + t * (o.x - self.x),
                self.y + t * (o.y - self.y),
                self.z + t * (o.z - self.z),
            ).normalized()
        s = np.sin(theta)
        a = np.sin((1 - t) * theta) / s
        b = np.sin(t * theta) / s
        return Quaternion(
            a * self.w + b * o.w,
            a * self.x + b * o.x,
            a * self.y + b * o.y,
            a * self.z + b * o.z,
        ).normalized()

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_array(a: np.ndarray) -> "Quaternion":
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))
