"""Fixture-cache hygiene: every parameter lands in the cache key.

The memoized fixtures in ``experiments.common`` sit under every runner, so
a silent cache-key alias (positional vs. keyword call, int vs. float, a
typo'd quality) would hand two different parameter points the same cached
object.  These tests pin the normalization front doors that prevent that,
plus ``clear_fixture_caches`` — the hook parallel workers rely on to
rebuild state safely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defaults import DEFAULT_SEED
from repro.experiments.common import (
    DEFAULT_SEED as COMMON_SEED,
    clear_fixture_caches,
    default_study,
    default_video,
    room_video,
    study_in_room,
)


def test_default_seed_has_one_source():
    assert COMMON_SEED is DEFAULT_SEED


def test_positional_and_keyword_calls_share_one_entry():
    a = default_video("low", 30, 1000)
    b = default_video(quality="low", points_per_frame=1000, num_frames=30)
    assert a is b


def test_numeric_normalization_prevents_aliasing():
    # bool is an int subclass and floats equal ints hash alike — both must
    # normalize to the same key as their canonical int form.
    a = default_study(num_users=4, duration_s=2, seed=DEFAULT_SEED)
    b = default_study(num_users=4, duration_s=2.0, seed=DEFAULT_SEED)
    assert a is b


def test_different_parameters_get_different_objects():
    a = default_study(num_users=4, duration_s=2.0)
    b = default_study(num_users=4, duration_s=2.0, seed=DEFAULT_SEED + 1)
    assert a is not b
    assert study_in_room(num_users=4, duration_s=2.0) is not a


def test_unknown_quality_is_rejected_not_cached():
    with pytest.raises(ValueError, match="unknown quality"):
        default_video("ultra")


def test_clear_fixture_caches_forces_rebuild():
    before = default_video("low", 30, 1000)
    assert default_video("low", 30, 1000) is before
    clear_fixture_caches()
    after = default_video("low", 30, 1000)
    assert after is not before


def test_integral_floats_and_numpy_ints_share_the_int_entry():
    video = default_video("low", 30, 1000)
    assert default_video("low", 30.0, np.int64(1000)) is video
    assert default_video("low", np.int32(30), np.float64(1000.0)) is video
    room = room_video("low", 3, 500)
    assert room_video("low", 3.0, np.int64(500)) is room
    study = study_in_room(num_users=2, duration_s=1.0)
    assert study_in_room(num_users=np.int64(2), duration_s=1.0) is study
    assert study_in_room(num_users=2.0, duration_s=1.0, seed=float(DEFAULT_SEED)) is study
    assert default_study(num_users=np.uint8(3), duration_s=1.0) is default_study(
        num_users=3.0, duration_s=1.0
    )


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: default_video("low", 30, v), "points_per_frame"),
        (lambda v: default_video("low", v, 1000), "num_frames"),
        (lambda v: room_video("low", v, 500), "num_frames"),
        (lambda v: room_video("low", 3, v), "points_per_frame"),
        (lambda v: default_study(num_users=v, duration_s=1.0), "num_users"),
        (lambda v: default_study(num_users=3, duration_s=1.0, seed=v), "seed"),
        (lambda v: study_in_room(num_users=v, duration_s=1.0), "num_users"),
        (lambda v: study_in_room(num_users=2, duration_s=1.0, seed=v), "seed"),
    ],
)
@pytest.mark.parametrize(
    "value", [2.5, 1000.9, 2.7, np.float64(3.5), float("nan"), float("inf"), "3", None]
)
def test_non_integral_counts_are_rejected_not_truncated(call, name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(value)
