"""One visibility→demand assembler: ``VisibilityResult.cell_bytes``.

Every ``{cell id: bytes}`` map in the library comes from this one method
with a caller-supplied byte rule.  Each expected value here is built by a
test-local copy of a loop that used to be written at its call site:

* the session demand, quality-scaled (``points = frac * count * scale``);
* the venue shard's archetype demand (the same, with the default model);
* the cell-size sweep's summed request bytes (``f * n`` at frame density);
* the experiments' raw bytes-per-point maps (``float(f * n * bpp)``).

The assembler must return the same keys in the same order, ``==`` values
and the same value types.  The session prices its demands through
``CompressionModel.cells_bytes`` instead, into Python floats, so its
reference is the old loop's values as ``float``.  Nominal counts are made non-integer (the
synthesized clouds are scaled up to the quality's nominal points), so a
product evaluated in another order could round differently and show.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CapacityRateProvider, SessionConfig
from repro.core.session import _DemandBuilder
from repro.geometry import Frustum
from repro.mac import AD_MODEL
from repro.pointcloud import (
    DEFAULT_COMPRESSION,
    QUALITIES,
    CellGrid,
    CompressionModel,
    VisibilityConfig,
    VisibilityResult,
    compute_visibility_batch,
    synthesize_video,
)
from repro.scenario import VenueSpec
from repro.scenario.shard import ArchetypeLibrary
from repro.traces import generate_user_study

SOURCE_QUALITY = "medium"


def _session_loop(vis, quality, compression):
    level = QUALITIES[quality]
    scale = level.points_per_frame / QUALITIES[SOURCE_QUALITY].points_per_frame
    cell_bytes = {}
    for cid, frac, count in zip(vis.cell_ids, vis.fractions, vis.nominal_counts):
        points = frac * count * scale
        cell_bytes[int(cid)] = compression.cell_bytes(
            points, level.points_per_frame
        )
    return cell_bytes


def _shard_loop(vis, quality, scale):
    level = QUALITIES[quality]
    demand = {}
    for cid, frac, count in zip(vis.cell_ids, vis.fractions, vis.nominal_counts):
        points = frac * count * scale
        demand[int(cid)] = DEFAULT_COMPRESSION.cell_bytes(
            points, level.points_per_frame
        )
    return demand


def _request_bytes_loop(vis):
    per_cell = [
        DEFAULT_COMPRESSION.cell_bytes(f * n, vis.frame_nominal_points)
        for f, n in zip(vis.fractions, vis.nominal_counts)
    ]
    return float(sum(per_cell))


def _raw_loop(vis, bpp):
    return {
        int(c): float(f * n * bpp)
        for c, f, n in zip(vis.cell_ids, vis.fractions, vis.nominal_counts)
    }


def _assert_same_map(got, expected):
    assert list(got) == list(expected)
    assert list(got.values()) == list(expected.values())
    assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]


def _results(seed, cell_size, config):
    video = synthesize_video(
        SOURCE_QUALITY, num_frames=2, points_per_frame=3001, seed=seed
    )
    grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
    occ = grid.occupancy(video[1])
    assert np.any(occ.nominal != np.round(occ.nominal))
    study = generate_user_study(num_users=5, duration_s=1.0, seed=seed)
    frustums = Frustum.many(trace.pose(3) for trace in study.traces)
    results = compute_visibility_batch(occ, frustums, config)
    assert any(len(vis.cell_ids) for vis in results)
    return results


@pytest.mark.parametrize(
    "config", [VisibilityConfig(), VisibilityConfig.vanilla()],
    ids=["vivo", "vanilla"],
)
@pytest.mark.parametrize("cell_size", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cell_bytes_matches_every_old_loop(seed, cell_size, config):
    compression = CompressionModel(anchor_low=(200_000, 2.9))
    source_points = QUALITIES[SOURCE_QUALITY].points_per_frame
    for vis in _results(seed, cell_size, config):
        for quality, level in QUALITIES.items():
            scale = level.points_per_frame / source_points
            for model in (compression, DEFAULT_COMPRESSION):
                _assert_same_map(
                    vis.cell_bytes(
                        lambda p: model.cell_bytes(
                            p * scale, level.points_per_frame
                        )
                    ),
                    _session_loop(vis, quality, model),
                )
            _assert_same_map(
                vis.cell_bytes(
                    lambda p: DEFAULT_COMPRESSION.cell_bytes(
                        p * scale, level.points_per_frame
                    )
                ),
                _shard_loop(vis, quality, scale),
            )
            _assert_same_map(
                vis.cell_bytes(lambda p: float(p * level.bytes_per_point)),
                _raw_loop(vis, level.bytes_per_point),
            )
        summed = vis.cell_bytes(
            lambda p: DEFAULT_COMPRESSION.cell_bytes(p, vis.frame_nominal_points)
        )
        assert float(sum(summed.values())) == _request_bytes_loop(vis)


@pytest.mark.parametrize("cell_size", [0.25, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_priced_cells_matches_the_old_loops(seed, cell_size):
    compression = CompressionModel(anchor_low=(200_000, 2.9))
    source_points = QUALITIES[SOURCE_QUALITY].points_per_frame
    for vis in _results(seed, cell_size, VisibilityConfig()):
        for quality, level in QUALITIES.items():
            scale = level.points_per_frame / source_points
            for model in (compression, DEFAULT_COMPRESSION):
                expected = _session_loop(vis, quality, model)
                _assert_same_map(
                    vis.priced_cells(model, level.points_per_frame, scale=scale),
                    {c: float(b) for c, b in expected.items()},
                )
        unscaled = vis.priced_cells(DEFAULT_COMPRESSION, vis.frame_nominal_points)
        assert float(sum(unscaled.values())) == _request_bytes_loop(vis)


def test_cell_bytes_of_an_empty_result_is_empty():
    empty = VisibilityResult(
        cell_ids=np.zeros(0, dtype=np.int64),
        fractions=np.zeros(0),
        nominal_counts=np.zeros(0),
        frame_nominal_points=0.0,
    )
    assert empty.cell_bytes(lambda p: pytest.fail("no cell to price")) == {}


def test_session_demands_match_the_old_session_loop():
    video = synthesize_video(
        SOURCE_QUALITY, num_frames=4, points_per_frame=3001, seed=7
    )
    study = generate_user_study(num_users=4, duration_s=1.0, seed=11)
    config = SessionConfig(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=AD_MODEL, num_users=4),
        compression=CompressionModel(anchor_low=(200_000, 2.9)),
    )
    builder = _DemandBuilder(config, config.num_frames)
    users = [0, 1, 2, 3]
    qualities = ["low", "medium", "high", "low"]
    for frame in range(4):
        demands = builder.demands(users, frame, qualities, 0.0, [1.0] * 4)
        poses = [builder.pose_for(u, frame, 0.0) for u in users]
        results = compute_visibility_batch(
            builder.occupancy(frame), Frustum.many(poses), config.visibility
        )
        for demand, vis, quality in zip(demands, results, qualities):
            expected = _session_loop(vis, quality, config.compression)
            _assert_same_map(
                demand.cell_bytes, {c: float(b) for c, b in expected.items()}
            )


def test_tick_content_matches_the_old_shard_loop():
    venue = VenueSpec.uniform(
        1, 8, initial_users=4, quality="medium", duration_s=3.0, tick_s=1.0,
        seed=23, archetypes=4,
    )
    library = ArchetypeLibrary(venue)
    for quality in ("low", "high"):
        video, grid = library._content_for(quality)
        scale = QUALITIES[quality].points_per_frame / video.quality.points_per_frame
        for tick in range(3):
            cell_bytes, _ = library.tick_content(quality, tick)
            occ = grid.occupancy(video[tick % len(video)])
            frustums = Frustum.many(
                trace.pose_at(tick * venue.tick_s) for trace in library.study.traces
            )
            results = compute_visibility_batch(occ, frustums, VisibilityConfig())
            assert len(cell_bytes) == len(results)
            for got, vis in zip(cell_bytes, results):
                expected = _shard_loop(vis, quality, scale)
                _assert_same_map(got, {c: float(b) for c, b in expected.items()})
