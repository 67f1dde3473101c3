"""Procedural volumetric-video generator (the 8i "soldier" stand-in).

The paper streams the 8i dynamic voxelized point cloud "soldier" — a captured
human figure ~1.8 m tall, 30 FPS, with versions at 330K/430K/550K points per
frame.  That dataset is a multi-gigabyte download we cannot fetch, so this
module synthesizes a deterministic animated humanoid with the same spatial
envelope and point budgets.  Everything downstream (cell occupancy, frustum
culling, visibility fractions, frame sizes) consumes only geometric
statistics, which the synthetic figure reproduces.

The humanoid is a union of simple solids (sphere head, ellipsoid torso,
capsule limbs) whose surfaces are point-sampled; a low-frequency sway and a
walk-in-place arm/leg swing animate it over time so the occupied cells change
frame to frame, like a real capture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloudFrame
from .video import PointCloudVideo, QUALITIES, QualityLevel

__all__ = ["HumanoidModel", "synthesize_video", "synthesize_frame"]


@dataclass(frozen=True)
class _BodyPart:
    """A point-sampled solid: an ellipsoid at ``center`` with ``radii``.

    Capsule-like limbs are approximated by stretched ellipsoids, which is
    plenty for cell-occupancy purposes.
    """

    name: str
    center: np.ndarray
    radii: np.ndarray
    weight: float  # fraction of the point budget allotted to this part


@dataclass(frozen=True)
class HumanoidModel:
    """Static proportions of the synthetic figure (meters).

    Default proportions approximate the 8i soldier: ~1.8 m tall with a
    ~0.6 m arm span envelope, standing at the origin on the z = 0 floor.
    """

    height: float = 1.8
    shoulder_width: float = 0.45
    torso_depth: float = 0.25

    def parts(self, phase: float) -> list[_BodyPart]:
        """Body parts at animation ``phase`` (radians of the gait cycle).

        Proportions follow the 8i soldier: arms abducted from the torso, a
        rifle-like prop held forward (+X), a wide stance — giving the
        ~1.0 x 0.9 x 1.8 m envelope that spans multiple 25-50 cm cells in
        every axis, as the real capture does.
        """
        h = self.height
        sw = self.shoulder_width
        swing = 0.3 * np.sin(phase)  # arm/leg swing amplitude in radians
        sway = 0.05 * np.sin(0.5 * phase)  # lateral body sway in meters
        abduct = 0.45 + 0.1 * np.sin(0.7 * phase)  # arm out-to-side angle

        def limb(name, top, length, radius, swing_angle, side_angle, weight):
            # A limb hangs from `top`, swung in XZ and abducted in YZ.
            direction = np.array(
                [np.sin(swing_angle), np.sin(side_angle), -1.0]
            )
            direction /= np.linalg.norm(direction)
            center = top + 0.5 * length * direction
            half = 0.5 * length
            radii = np.abs(direction) * half
            radii = np.maximum(radii, radius)
            return _BodyPart(name, center, radii, weight)

        head_c = np.array([sway, 0.0, 0.93 * h])
        torso_c = np.array([sway, 0.0, 0.62 * h])
        hip = np.array([sway, 0.0, 0.48 * h])
        shoulder_l = torso_c + np.array([0.0, 0.5 * sw, 0.12 * h])
        shoulder_r = torso_c + np.array([0.0, -0.5 * sw, 0.12 * h])
        hip_l = hip + np.array([0.0, 0.15, 0.0])
        hip_r = hip + np.array([0.0, -0.15, 0.0])
        # The prop (rifle) is held forward of the chest, along +X.
        prop_c = np.array([0.35 + sway, -0.08, 0.70 * h])

        return [
            _BodyPart("head", head_c, np.array([0.10, 0.10, 0.12]), 0.09),
            _BodyPart(
                "torso",
                torso_c,
                np.array([0.5 * self.torso_depth, 0.5 * sw, 0.28 * h]),
                0.36,
            ),
            _BodyPart("prop", prop_c, np.array([0.38, 0.045, 0.045]), 0.07),
            limb("arm_l", shoulder_l, 0.55, 0.05, swing, abduct, 0.09),
            limb("arm_r", shoulder_r, 0.55, 0.05, 0.4 - swing, -abduct, 0.09),
            limb("leg_l", hip_l, 0.85, 0.08, -0.6 * swing, 0.18, 0.15),
            limb("leg_r", hip_r, 0.85, 0.08, 0.6 * swing, -0.18, 0.15),
        ]


def _sample_ellipsoid_surface(
    rng: np.random.Generator, center: np.ndarray, radii: np.ndarray, n: int
) -> np.ndarray:
    """Sample ``n`` points on (a thin shell around) an ellipsoid surface.

    Captured point clouds are surface scans, so we sample the surface with a
    small radial jitter rather than the volume.
    """
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    jitter = 1.0 + rng.normal(scale=0.01, size=(n, 1))
    return center + u * radii * jitter


def _check_fps(fps: float) -> None:
    if not (np.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be finite and positive, got {fps!r}")


def _check_center(center) -> np.ndarray:
    """``center`` as a float64 ``(3,)`` offset, or one clear error."""
    try:
        offset = np.asarray(center, dtype=np.float64)
    except (TypeError, ValueError):
        offset = None
    if offset is None or offset.shape != (3,) or not np.all(np.isfinite(offset)):
        raise ValueError(f"center must be three finite numbers, got {center!r}")
    return offset


def synthesize_frame(
    frame_index: int,
    points: int = 8000,
    nominal_points: int = 0,
    model: HumanoidModel | None = None,
    fps: float = 30.0,
    seed: int = 8,
) -> PointCloudFrame:
    """Generate one frame of the synthetic humanoid video.

    Args:
        frame_index: position in the video; drives the gait animation.
        points: number of points actually sampled (keep modest for speed).
        nominal_points: the full-density count this frame represents
            (e.g. 550_000); defaults to ``points``.
        model: body proportions; defaults to the soldier-like figure.
        fps: video frame rate, used to convert frame index to time.
        seed: base RNG seed; combined with ``frame_index`` so every frame is
            deterministic yet distinct.
    """
    if points <= 0:
        raise ValueError("points must be positive")
    _check_fps(fps)
    model = model or HumanoidModel()
    t = frame_index / fps
    phase = 2.0 * np.pi * 0.8 * t  # ~0.8 Hz gait cycle
    rng = np.random.default_rng(np.random.SeedSequence([seed, frame_index]))

    parts = model.parts(phase)
    total_w = sum(p.weight for p in parts)
    chunks = []
    remaining = points
    for i, part in enumerate(parts):
        n = int(round(points * part.weight / total_w))
        if i == len(parts) - 1:
            n = remaining
        n = max(1, min(n, remaining)) if remaining > 0 else 0
        if n == 0:
            continue
        remaining -= n
        chunks.append(_sample_ellipsoid_surface(rng, part.center, part.radii, n))
    pts = np.concatenate(chunks, axis=0)
    # Keep the figure above the floor.
    pts[:, 2] = np.clip(pts[:, 2], 0.0, None)
    return PointCloudFrame(pts, nominal_points=nominal_points or points)


def synthesize_video(
    quality: str | QualityLevel = "high",
    num_frames: int = 300,
    points_per_frame: int = 8000,
    fps: float = 30.0,
    seed: int = 8,
    model: HumanoidModel | None = None,
    center=None,
) -> PointCloudVideo:
    """Generate a full synthetic volumetric video.

    ``quality`` selects one of the paper's three versions (``"low"`` = 330K,
    ``"medium"`` = 430K, ``"high"`` = 550K nominal points/frame), which sets
    ``nominal_points`` on every frame and hence the streaming bitrate.

    ``center`` is where the figure stands in world coordinates (``None``:
    the origin).  Each frame is moved there as soon as it is sampled, so
    the video is bitwise ``synthesize_video(...).translated(center)``
    without ever holding the untranslated copy.
    """
    offset = None if center is None else _check_center(center)
    if isinstance(quality, str):
        if quality not in QUALITIES:
            raise ValueError(
                f"unknown quality {quality!r}; expected one of {list(QUALITIES)}"
            )
        level = QUALITIES[quality]
    else:
        level = quality
    _check_fps(fps)
    frames = []
    for i in range(num_frames):
        frame = synthesize_frame(
            i,
            points=points_per_frame,
            nominal_points=level.points_per_frame,
            model=model,
            fps=fps,
            seed=seed,
        )
        frames.append(frame if offset is None else frame.transformed(offset))
    return PointCloudVideo(
        name=f"synthetic-soldier-{level.name}", frames=frames, fps=fps, quality=level
    )
