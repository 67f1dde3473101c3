"""Small 3D vector helpers used across the library.

All functions operate on ``numpy`` arrays of shape ``(3,)`` (or broadcastable
stacks of shape ``(..., 3)``) and return new arrays; nothing is mutated in
place.  The streaming simulator calls these in inner loops, so the helpers
stay thin wrappers over vectorized numpy operations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "norm",
    "normalize",
    "dot",
    "cross",
    "distance",
    "azimuth_elevation",
    "from_azimuth_elevation",
]

_EPS = 1e-12


def norm(v: np.ndarray) -> float | np.ndarray:
    """Euclidean norm along the last axis."""
    return np.linalg.norm(v, axis=-1)


def normalize(v: np.ndarray) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Zero vectors are returned unchanged rather than raising, because callers
    such as the behaviour models legitimately produce zero velocity vectors.
    """
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(n > _EPS, n, 1.0)
    return v / safe


def dot(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Dot product along the last axis."""
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product along the last axis."""
    return np.cross(np.asarray(a), np.asarray(b))


def distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Euclidean distance between points (broadcasting over stacks)."""
    return np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1)


def azimuth_elevation(v: np.ndarray) -> tuple[float, float]:
    """Decompose direction ``v`` into (azimuth, elevation) in radians.

    Azimuth is measured in the XY plane from +X toward +Y in ``(-pi, pi]``;
    elevation is measured from the XY plane toward +Z in ``[-pi/2, pi/2]``.
    This is the convention the phased-array code uses for steering angles.
    """
    v = normalize(np.asarray(v, dtype=np.float64))
    az = float(np.arctan2(v[1], v[0]))
    # atan2 against the XY-plane radius, not arcsin(z): arcsin's derivative
    # blows up at the poles, so near-vertical directions would lose the
    # tiny horizontal component to rounding and break the roundtrip with
    # from_azimuth_elevation.
    el = float(np.arctan2(v[2], np.hypot(v[0], v[1])))
    return az, el


def from_azimuth_elevation(az: float, el: float) -> np.ndarray:
    """Inverse of :func:`azimuth_elevation` — a unit direction vector."""
    ce = np.cos(el)
    return np.array([ce * np.cos(az), ce * np.sin(az), np.sin(el)])
