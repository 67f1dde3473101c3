"""Volumetric video substrate: point clouds, cells, compression, visibility."""

from .cells import CellGrid, FrameOccupancy, PAPER_CELL_SIZES
from .cloud import PointCloudFrame
from .codec import CellCodec, EncodedCell
from .compression import (
    DEFAULT_COMPRESSION,
    DEFAULT_DECODER,
    CompressionModel,
    DecoderModel,
)
from .synthesis import HumanoidModel, synthesize_frame, synthesize_video
from .video import QUALITIES, QUALITY_ORDER, PointCloudVideo, QualityLevel
from .visibility import (
    VisibilityConfig,
    VisibilityResult,
    compute_visibility,
    compute_visibility_batch,
    compute_visibility_planes,
)

__all__ = [
    "CellGrid",
    "FrameOccupancy",
    "PAPER_CELL_SIZES",
    "PointCloudFrame",
    "CellCodec",
    "EncodedCell",
    "CompressionModel",
    "DecoderModel",
    "DEFAULT_COMPRESSION",
    "DEFAULT_DECODER",
    "HumanoidModel",
    "synthesize_frame",
    "synthesize_video",
    "QUALITIES",
    "QUALITY_ORDER",
    "PointCloudVideo",
    "QualityLevel",
    "VisibilityConfig",
    "VisibilityResult",
    "compute_visibility",
    "compute_visibility_batch",
    "compute_visibility_planes",
]
