"""``CompressionModel.cells_bytes`` is bitwise the per-cell ``cell_bytes``.

The session prices a user's visible cells in one array expression with the
per-point rate computed once per quality.  Every element must equal the
scalar rule exactly: ``0.0`` for a cell with no points, else
``points * bytes_per_point(frame_points) + 64.0``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pointcloud import DEFAULT_COMPRESSION, QUALITIES, CompressionModel

MODELS = [DEFAULT_COMPRESSION, CompressionModel(anchor_low=(200_000, 2.9))]


def _scalar(model, cell_points, frame_points):
    return np.array(
        [model.cell_bytes(p, frame_points) for p in cell_points], dtype=np.float64
    )


def _points(seed):
    rng = np.random.default_rng(seed)
    fractions = rng.uniform(0.0, 1.0, size=200)
    counts = rng.uniform(0.0, 40_000.0, size=200)
    fractions[::7] = 0.0  # zero-point cells
    counts[::11] = 0.0
    return fractions, counts


@pytest.mark.parametrize("model", MODELS, ids=["default", "custom"])
@pytest.mark.parametrize("quality", sorted(QUALITIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cells_bytes_matches_cell_bytes_bitwise(model, quality, seed):
    fractions, counts = _points(seed)
    frame_points = QUALITIES[quality].points_per_frame
    for source in QUALITIES.values():
        scale = frame_points / source.points_per_frame
        # The session's expression and the per-cell loop it replaced.
        got = model.cells_bytes((fractions * counts) * scale, frame_points)
        expected = _scalar(
            model, [f * n * scale for f, n in zip(fractions, counts)], frame_points
        )
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert np.any(got == 0.0) and np.all(got[got > 0] > 64.0)


def test_cells_bytes_of_zero_and_negative_points_is_zero():
    got = DEFAULT_COMPRESSION.cells_bytes(np.array([0.0, -0.0, -3.0, 1.0]), 550_000)
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    assert got[3] == DEFAULT_COMPRESSION.cell_bytes(1.0, 550_000)


def test_cells_bytes_of_no_cells_is_empty():
    got = DEFAULT_COMPRESSION.cells_bytes(np.zeros(0), 330_000)
    assert got.shape == (0,) and got.dtype == np.float64


def test_cells_bytes_rejects_a_bad_frame_density():
    with pytest.raises(ValueError, match="points_per_frame must be positive"):
        DEFAULT_COMPRESSION.cells_bytes(np.ones(3), 0)
