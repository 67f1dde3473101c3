"""Compression/decode model tests — anchored to the paper's numbers."""

import pytest

from repro.pointcloud import (
    DEFAULT_COMPRESSION,
    DEFAULT_DECODER,
    CompressionModel,
    DecoderModel,
)


def test_calibration_anchor_low():
    # 330K points at 30 FPS must give the paper's 235 Mbps.
    assert DEFAULT_COMPRESSION.bitrate_mbps(330_000) == pytest.approx(235.0, rel=1e-6)


def test_calibration_anchor_high():
    assert DEFAULT_COMPRESSION.bitrate_mbps(550_000) == pytest.approx(364.0, rel=1e-6)


def test_medium_quality_in_paper_range():
    # "the bitrate of these different versions ranges from 235 to 364 Mbps"
    rate = DEFAULT_COMPRESSION.bitrate_mbps(430_000)
    assert 235.0 < rate < 364.0


def test_bytes_per_point_decreases_with_density():
    sparse = DEFAULT_COMPRESSION.bytes_per_point(100_000)
    dense = DEFAULT_COMPRESSION.bytes_per_point(800_000)
    assert dense < sparse


def test_bytes_per_point_positive_floor():
    assert DEFAULT_COMPRESSION.bytes_per_point(1e9) >= 0.5


def test_bytes_per_point_rejects_nonpositive():
    with pytest.raises(ValueError):
        DEFAULT_COMPRESSION.bytes_per_point(0)


def test_frame_bytes_scale():
    assert DEFAULT_COMPRESSION.frame_bytes(550_000) == pytest.approx(
        364e6 / 8 / 30, rel=1e-6
    )


def test_cell_bytes_additive_with_headers():
    m = DEFAULT_COMPRESSION
    whole = m.cell_bytes(10_000, 550_000)
    halves = 2 * m.cell_bytes(5_000, 550_000)
    # Splitting a cell adds one extra header.
    assert halves == pytest.approx(whole + 64.0)


def test_cell_bytes_empty_cell_is_free():
    assert DEFAULT_COMPRESSION.cell_bytes(0, 550_000) == 0.0


def test_decoder_paper_limit():
    # 550K points/frame was the highest density decodable at 30 FPS.
    assert DEFAULT_DECODER.max_fps(550_000) == pytest.approx(30.0)
    assert DEFAULT_DECODER.max_fps(1_100_000) == pytest.approx(15.0)


def test_decoder_rejects_empty_frames():
    d = DecoderModel(points_per_second=1e6)
    with pytest.raises(ValueError):
        d.max_fps(0)


def test_custom_anchors():
    m = CompressionModel(anchor_low=(100_000, 4.0), anchor_high=(400_000, 3.0))
    assert m.bytes_per_point(100_000) == pytest.approx(4.0)
    assert m.bytes_per_point(400_000) == pytest.approx(3.0)
    assert 3.0 < m.bytes_per_point(200_000) < 4.0
