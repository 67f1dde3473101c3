"""The study-scoped oracle visibility table.

With no predictor a viewer's visibility of a frame depends only on the
study, the video, the grid, the :class:`VisibilityConfig`, ``target_fps``
and the frame count, so every session that replays a study reads one
``_OracleTable`` on ``UserStudy._oracle``.  These tests pin that a
memo-served row equals a fresh cull bit for bit, that reuse changes no
session output, that no two differing setups share a table, and that the
table dies with its study.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core import (
    CapacityRateProvider,
    CrossLayerPolicy,
    FixedQualityPolicy,
    SessionConfig,
    StreamingSession,
    measure_max_fps,
)
from repro.core import session
from repro.core.session import _DemandBuilder, _oracle_key
from repro.experiments.common import clear_fixture_caches, study_in_room
from repro.mac import AD_MODEL
from repro.net import TransportConfig
from repro.pointcloud import (
    CellGrid,
    VisibilityConfig,
    compute_visibility_planes,
    synthesize_video,
)
from repro.prediction import LinearRegressionPredictor
from repro.traces import generate_user_study

NUM_USERS = 5


@pytest.fixture(scope="module")
def video():
    return synthesize_video("high", num_frames=12, points_per_frame=2500, seed=7)


def _study():
    """A fresh study, so that each test starts from an empty memo."""
    return generate_user_study(num_users=NUM_USERS, duration_s=1.0, seed=11)


def _config(video, study, **kwargs):
    return SessionConfig(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=AD_MODEL, num_users=len(study)),
        **kwargs,
    )


def _builder(video, study, **kwargs):
    config = _config(video, study, **kwargs)
    return _DemandBuilder(config, config.num_frames)


def _fresh_row(builder, frame, user):
    """One viewer culled alone, outside any memo."""
    eyes, normals, offsets = builder.oracle_planes()
    index = (frame, [user])
    (vis,) = compute_visibility_planes(
        builder.occupancy(frame),
        eyes[index],
        normals[index],
        offsets[index],
        builder.config.visibility,
    )
    return vis


def _assert_same(got, expected):
    for name in ("cell_ids", "fractions", "nominal_counts"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.frame_nominal_points == expected.frame_nominal_points


def test_memo_rows_equal_fresh_culls_over_partial_subsets(video):
    builder = _builder(video, _study())
    rng = np.random.default_rng(5)
    served = []
    for _ in range(60):
        frame = int(rng.integers(builder.num_frames))
        size = int(rng.integers(1, NUM_USERS + 1))
        users = rng.permutation(NUM_USERS)[:size].tolist()
        results = builder._visibility(users, frame, 0.0)
        served.extend(zip([frame] * size, users, results))
    table = builder.oracle_table()
    culled = {(f, u) for f, rows in table.rows.items() for u in rows}
    assert culled == {(f, u) for f, u, _ in served}
    for frame, user, vis in served:
        assert table.rows[frame][user] is vis
        _assert_same(vis, _fresh_row(builder, frame, user))


def test_a_fully_served_frame_culls_nothing(video, monkeypatch):
    study = _study()
    first = _builder(video, study)
    first._visibility([3, 1], 4, 0.0)
    first._visibility([0, 2, 4], 4, 0.0)

    def no_cull(*args):
        raise AssertionError("every user of this frame is already culled")

    monkeypatch.setattr(session, "compute_visibility_planes", no_cull)
    second = _builder(video, study)
    assert second.oracle_table() is first.oracle_table()
    rows = first.oracle_table().rows[4]
    users = [4, 3, 2, 1, 0]
    for user, vis in zip(users, second._visibility(users, 4, 0.0)):
        assert vis is rows[user]


def _summary(config):
    return json.dumps(StreamingSession(config).run().summary(), sort_keys=True)


def _session_kwargs(grouping):
    return dict(
        visibility=VisibilityConfig(),
        grouping=grouping,
        adaptation=CrossLayerPolicy(),
        transport=TransportConfig(mode="hybrid", seed=3).with_base_per(0.05),
    )


def test_back_to_back_sessions_equal_cold_runs(video):
    shared = _study()
    warm = [_summary(_config(video, shared, **_session_kwargs(g)))
            for g in ("none", "greedy")]
    assert len(shared._oracle) == 1
    cold = [_summary(_config(video, _study(), **_session_kwargs(g)))
            for g in ("none", "greedy")]
    assert warm == cold


def test_measure_max_fps_reads_the_session_table(video):
    shared = _study()
    kwargs = dict(visibility=VisibilityConfig(), grouping="greedy",
                  adaptation=FixedQualityPolicy("high"))
    StreamingSession(_config(video, shared, **kwargs)).run()
    warm = measure_max_fps(_config(video, shared, **kwargs), stride=2)
    cold = measure_max_fps(_config(video, _study(), **kwargs), stride=2)
    assert len(shared._oracle) == 1
    assert warm.tobytes() == cold.tobytes()


def test_a_predictor_session_adds_no_entries(video):
    study = _study()
    config = _config(
        video, study, visibility=VisibilityConfig(),
        predictor=LinearRegressionPredictor(),
    )
    StreamingSession(config).run()
    measure_max_fps(config, stride=3)
    assert study._oracle == {}


@pytest.mark.parametrize(
    "change",
    [
        dict(target_fps=15.0, duration_s=2.0),  # the same 30 frames
        dict(duration_s=0.5),
        dict(cell_size=0.25),
        dict(visibility=VisibilityConfig(occlusion=False)),
        dict(visibility=VisibilityConfig.vanilla()),
        "video",
    ],
    ids=["fps", "frames", "cell_size", "no_occlusion", "vanilla", "video"],
)
def test_differing_setups_never_share_a_table(video, change):
    study = _study()
    base = _builder(video, study)
    if change == "video":
        other_video = synthesize_video(
            "high", num_frames=12, points_per_frame=2500, seed=7
        )
        other = _builder(other_video, study)
    else:
        other = _builder(video, study, **change)
    frames = range(0, min(base.num_frames, other.num_frames), 3)
    for builder in (base, other):
        for frame in frames:
            builder._visibility(range(NUM_USERS), frame, 0.0)
    assert len(study._oracle) == 2
    assert base.oracle_table() is not other.oracle_table()
    for builder in (base, other):
        for frame in frames:
            for user in range(NUM_USERS):
                _assert_same(
                    builder.oracle_table().rows[frame][user],
                    _fresh_row(builder, frame, user),
                )


def test_equal_values_share_one_table(video):
    study = _study()
    a = _builder(video, study, target_fps=30, visibility=VisibilityConfig())
    b = _builder(video, study, target_fps=30.0, visibility=VisibilityConfig())
    assert a.oracle_table() is b.oracle_table()
    assert len(study._oracle) == 1


def test_the_key_tells_grid_bounds_apart(video):
    config = _config(video, _study())
    grid = CellGrid.covering(video.bounds, config.cell_size, margin=0.05)
    wider = CellGrid.covering(video.bounds, config.cell_size, margin=0.3)
    assert grid.cell_size == wider.cell_size
    assert _oracle_key(config, grid, 30) != _oracle_key(config, wider, 30)
    assert _oracle_key(config, grid, 30) == _oracle_key(config, grid, 30)


def test_the_table_dies_with_its_study(video):
    study = study_in_room(num_users=3, duration_s=0.5, seed=41)
    config = _config(video, study, visibility=VisibilityConfig())
    StreamingSession(config).run()
    (table,) = study._oracle.values()
    study_ref, table_ref = weakref.ref(study), weakref.ref(table)
    del study, config, table
    gc.collect()
    assert study_ref() is not None  # the fixture LRU still holds the study
    clear_fixture_caches()
    gc.collect()
    assert study_ref() is None
    assert table_ref() is None


def test_shared_results_are_read_only(video):
    builder = _builder(video, _study())
    (vis,) = builder._visibility([2], 3, 0.0)
    assert len(vis.cell_ids)
    for name in ("cell_ids", "fractions", "nominal_counts"):
        array = getattr(vis, name)
        with pytest.raises(ValueError):
            array[0] = array[0]
        with pytest.raises(ValueError):
            array += 0


def test_visible_set_is_built_on_first_read(video):
    builder = _builder(video, _study())
    (vis,) = builder._visibility([0], 0, 0.0)
    assert vis._visible_set is None
    assert vis.visible_set == frozenset(vis.cell_ids.tolist())
    assert vis._visible_set is vis.visible_set
