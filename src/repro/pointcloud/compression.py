"""Draco-like compression and decode models.

The paper compresses the soldier video with Google's Draco codec.  Two
codec properties matter to the streaming experiments and are modeled here:

* **Rate**: compressed bytes per point.  Calibrated from the paper's
  reported bitrates (330K pts -> 235 Mbps, 550K pts -> 364 Mbps at 30 FPS),
  which work out to ~2.7-3.0 bytes/point — consistent with Draco geometry +
  color at typical quantization.  Denser clouds compress slightly better
  (more spatial coherence), which the linear-in-1/sqrt(density) term captures.
* **Decode throughput**: the paper picks 550K points as "the highest point
  density that can be decompressed by Draco at 30 FPS on the client
  laptops", i.e. a decode ceiling of 16.5M points/s.  The client model uses
  this to cap achievable FPS regardless of network rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CompressionModel", "DecoderModel", "DEFAULT_COMPRESSION", "DEFAULT_DECODER"]


# Per-cell metadata (id, quantization params, counts) on every coded cell.
_CELL_HEADER_BYTES = 64.0


@dataclass(frozen=True)
class CompressionModel:
    """Compressed-size model: bytes = points * bytes_per_point(points).

    ``bytes_per_point`` interpolates between the two calibration anchors from
    the paper; outside that range it extrapolates smoothly and is clamped to
    stay positive.
    """

    # Anchors: (points_per_frame, bytes_per_point) from the paper's bitrates.
    anchor_low: tuple[float, float] = (330_000.0, 235e6 / 8 / 30 / 330_000.0)
    anchor_high: tuple[float, float] = (550_000.0, 364e6 / 8 / 30 / 550_000.0)

    def bytes_per_point(self, points_per_frame: float) -> float:
        """Compressed bytes per point at a given frame density."""
        if points_per_frame <= 0:
            raise ValueError("points_per_frame must be positive")
        (n0, b0), (n1, b1) = self.anchor_low, self.anchor_high
        # Linear in 1/sqrt(n): denser clouds are more coherent and compress
        # slightly better per point.
        x0, x1 = n0**-0.5, n1**-0.5
        x = points_per_frame**-0.5
        slope = (b1 - b0) / (x1 - x0)
        return max(0.5, b0 + slope * (x - x0))

    def frame_bytes(self, points_per_frame: float) -> float:
        """Compressed size of a whole frame in bytes."""
        return points_per_frame * self.bytes_per_point(points_per_frame)

    def cell_bytes(self, cell_points: float, frame_points: float) -> float:
        """Compressed size of one cell carrying ``cell_points`` points.

        Cells are coded independently (each is "independently prefetchable
        and decodable"), with the per-point rate determined by the frame's
        overall density plus a small fixed per-cell header.
        """
        if cell_points <= 0:
            return 0.0
        return cell_points * self.bytes_per_point(frame_points) + _CELL_HEADER_BYTES

    def cells_bytes(self, cell_points: np.ndarray, frame_points: float) -> np.ndarray:
        """:meth:`cell_bytes` of every element of ``cell_points``, bitwise.

        The per-point rate depends only on ``frame_points``, so it is
        computed once for the whole array.
        """
        bpp = self.bytes_per_point(frame_points)
        return np.where(cell_points <= 0, 0.0, cell_points * bpp + _CELL_HEADER_BYTES)

    def bitrate_mbps(self, points_per_frame: float, fps: float = 30.0) -> float:
        """Streaming bitrate of a full (non-culled) video in Mbps."""
        return self.frame_bytes(points_per_frame) * 8.0 * fps / 1e6


@dataclass(frozen=True)
class DecoderModel:
    """Client-side decode throughput model.

    ``points_per_second`` is the sustained Draco decode rate of the modeled
    client (Intel i7 laptop in the paper).  550K points/frame at 30 FPS was
    the paper's decode limit, giving the 16.5M points/s default.
    """

    points_per_second: float = 550_000.0 * 30.0

    def max_fps(self, points_per_frame: float) -> float:
        """Highest frame rate the decoder sustains at this density."""
        if points_per_frame <= 0:
            raise ValueError("points_per_frame must be positive")
        return self.points_per_second / points_per_frame


DEFAULT_COMPRESSION = CompressionModel()
DEFAULT_DECODER = DecoderModel()
