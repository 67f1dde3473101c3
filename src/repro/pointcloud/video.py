"""Volumetric video container and the paper's three quality levels.

The paper creates three versions of the soldier video by varying point
density — 330K, 430K and 550K points per frame — whose Draco-compressed
bitrates span "235 to 364 Mbps".  Those calibration points live here as
:data:`QUALITIES` and are consumed by the compression model and by Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import AABB
from .cloud import PointCloudFrame

__all__ = ["QualityLevel", "QUALITIES", "QUALITY_ORDER", "PointCloudVideo"]


@dataclass(frozen=True)
class QualityLevel:
    """One encoding quality of a volumetric video.

    Attributes:
        name: ``"low"`` / ``"medium"`` / ``"high"``.
        points_per_frame: nominal full-density point count.
        bitrate_mbps: Draco-compressed streaming bitrate at 30 FPS.  The low
            and high values are the endpoints the paper reports; medium is
            interpolated on point count.
    """

    name: str
    points_per_frame: int
    bitrate_mbps: float

    @property
    def bytes_per_frame(self) -> float:
        """Compressed frame size in bytes at 30 FPS."""
        return self.bitrate_mbps * 1e6 / 8.0 / 30.0

    @property
    def bytes_per_point(self) -> float:
        return self.bytes_per_frame / self.points_per_frame


QUALITIES: dict[str, QualityLevel] = {
    "low": QualityLevel("low", 330_000, 235.0),
    "medium": QualityLevel("medium", 430_000, 294.0),
    "high": QualityLevel("high", 550_000, 364.0),
}

QUALITY_ORDER: tuple[str, ...] = ("low", "medium", "high")


@dataclass
class PointCloudVideo:
    """An ordered sequence of point-cloud frames at a fixed frame rate."""

    name: str
    frames: list[PointCloudFrame]
    fps: float = 30.0
    quality: QualityLevel = field(default_factory=lambda: QUALITIES["high"])

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a video needs at least one frame")
        if self.fps <= 0:
            raise ValueError("fps must be positive")

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> PointCloudFrame:
        return self.frames[index]

    def __iter__(self):
        return iter(self.frames)

    @property
    def duration(self) -> float:
        """Video length in seconds."""
        return len(self.frames) / self.fps

    @property
    def bounds(self) -> AABB:
        """Union bounding box over all frames (the content volume).

        One fold over the frames' corners in frame order: bitwise the
        ``AABB.union`` chain, without its intermediate boxes.
        """
        first = self.frames[0].bounds
        lo, hi = first.lo, first.hi
        for frame in self.frames[1:]:
            box = frame.bounds
            lo = np.minimum(lo, box.lo)
            hi = np.maximum(hi, box.hi)
        return AABB(lo, hi)

    def translated(self, offset) -> "PointCloudVideo":
        """The video moved by ``offset`` (e.g. to place content in a room).

        Trace studies and the room channel share world coordinates; use
        this to put the content where the users actually look.
        """
        off = np.asarray(offset, dtype=np.float64)
        return PointCloudVideo(
            name=self.name,
            frames=[f.transformed(off) for f in self.frames],
            fps=self.fps,
            quality=self.quality,
        )

    def at_quality(self, name: str) -> "PointCloudVideo":
        """The same geometry re-labeled at another quality level.

        Quality only changes the nominal density/bitrate, not the sampled
        geometry, mirroring how the paper derives the three versions from
        one capture.
        """
        level = QUALITIES[name]
        frames = [
            PointCloudFrame(f.points, nominal_points=level.points_per_frame)
            for f in self.frames
        ]
        return PointCloudVideo(
            name=self.name.rsplit("-", 1)[0] + f"-{level.name}",
            frames=frames,
            fps=self.fps,
            quality=level,
        )
