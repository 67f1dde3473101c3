"""Shared fixtures and helpers for the experiment runners.

Experiments share one synthetic video and one synthetic user study; building
them is deterministic but not free, so this module memoizes them per
parameter set.  Also provides small utilities (empirical CDFs, table
formatting) used by every runner and benchmark.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from ..defaults import DEFAULT_SEED
from ..mmwave import AccessPoint, Channel, Codebook, Room
from ..pointcloud import CellGrid, PointCloudVideo, synthesize_video
from ..traces import UserStudy, generate_user_study

__all__ = [
    "DEFAULT_SEED",
    "CONTENT_CENTER",
    "AP_POSITION",
    "AP_BORESIGHT_AZ",
    "grid_for",
    "default_video",
    "room_video",
    "default_study",
    "default_channel",
    "default_codebook",
    "ideal_codebook",
    "study_in_room",
    "clear_fixture_caches",
    "empirical_cdf",
    "cdf_at",
    "format_table",
]

# Content placement inside the default 8 x 10 m room: the figure stands at
# the room center so orbiting users stay inside the walls and within the
# AP codebook's field of view.
CONTENT_CENTER = np.array([4.0, 5.0, 0.0])
AP_POSITION = np.array([4.0, 0.3, 2.0])
AP_BORESIGHT_AZ = np.pi / 2.0  # facing +Y, into the room


# The memoized fixtures are keyed through *normalizing* front doors: every
# parameter is coerced to a canonical type before it reaches the lru_cache,
# so `default_video("high")`, `default_video(quality="high")`, and
# `default_video(np.str_("high"), np.int64(150))` all land on the same
# cache entry — and no two distinct parameter sets can silently alias.
# (functools.lru_cache keys positional and keyword calls differently and
# hashes 1 == 1.0 == True together; both bite silently otherwise.)  A count
# or seed must be integral: 2.5 users raises instead of truncating to 2.
#
# The two videos are independent entries: `room_video` synthesizes its
# frames at CONTENT_CENTER rather than translating `default_video`, so a
# process that streams in the room (every session workload) holds one copy
# of the geometry, not the untranslated one too.  A process that asks for
# both synthesizes twice.


def _integral(name: str, value) -> int:
    """``value`` as an int if it is integral (ints, NumPy ints, integral
    floats), else a ``ValueError`` naming the parameter."""
    try:
        return int(operator.index(value))
    except TypeError:
        pass
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@lru_cache(maxsize=8)
def _default_video(
    quality: str, num_frames: int, points_per_frame: int
) -> PointCloudVideo:
    return synthesize_video(
        quality,
        num_frames=num_frames,
        points_per_frame=points_per_frame,
        seed=DEFAULT_SEED,
    )


def default_video(
    quality: str = "high", num_frames: int = 150, points_per_frame: int = 6000
) -> PointCloudVideo:
    """The synthetic soldier video, centered at the origin (memoized)."""
    return _default_video(
        quality,
        _integral("num_frames", num_frames),
        _integral("points_per_frame", points_per_frame),
    )


@lru_cache(maxsize=8)
def _room_video(
    quality: str, num_frames: int, points_per_frame: int
) -> PointCloudVideo:
    return synthesize_video(
        quality,
        num_frames=num_frames,
        points_per_frame=points_per_frame,
        seed=DEFAULT_SEED,
        center=CONTENT_CENTER,
    )


def room_video(
    quality: str = "high", num_frames: int = 150, points_per_frame: int = 6000
) -> PointCloudVideo:
    """The same video placed at the room center, in world coordinates.

    Bitwise ``default_video(...).translated(CONTENT_CENTER)``, synthesized
    in place so the untranslated copy is never built.  Pair this with
    :func:`study_in_room` — the users orbit and look at CONTENT_CENTER, so
    the content must be there for visibility to work.
    """
    return _room_video(
        quality,
        _integral("num_frames", num_frames),
        _integral("points_per_frame", points_per_frame),
    )


@lru_cache(maxsize=8)
def _default_study(num_users: int, duration_s: float, seed: int) -> UserStudy:
    return generate_user_study(
        num_users=num_users, duration_s=duration_s, seed=seed
    )


def default_study(
    num_users: int = 32, duration_s: float = 10.0, seed: int = DEFAULT_SEED
) -> UserStudy:
    """The synthetic 32-participant study, centered on the origin content."""
    return _default_study(
        _integral("num_users", num_users),
        float(duration_s),
        _integral("seed", seed),
    )


@lru_cache(maxsize=4)
def _study_in_room(num_users: int, duration_s: float, seed: int) -> UserStudy:
    return generate_user_study(
        num_users=num_users,
        duration_s=duration_s,
        seed=seed,
        content_center=CONTENT_CENTER,
    )


def study_in_room(
    num_users: int = 6, duration_s: float = 10.0, seed: int = DEFAULT_SEED
) -> UserStudy:
    """A study whose users orbit the content at the *room center*.

    Channel-level experiments need world coordinates consistent with the
    room and AP placement.
    """
    return _study_in_room(
        _integral("num_users", num_users),
        float(duration_s),
        _integral("seed", seed),
    )


def default_channel() -> Channel:
    """The room/AP channel used by the Fig. 3 experiments.

    Calibrated to the paper's measurement setup: with 15 dB implementation
    loss the best-beam RSS over trace positions spans roughly -78..-57 dBm,
    matching Fig. 3b's x-axis range.
    """
    from ..mmwave import LinkBudget

    ap = AccessPoint(position=AP_POSITION.copy(), boresight_az=AP_BORESIGHT_AZ)
    budget = LinkBudget(
        implementation_loss_db=8.0,
        reflection_loss_db=9.0,
        blockage_loss_db=12.0,
    )
    return Channel(ap=ap, room=Room(8.0, 10.0, 3.0), budget=budget)


@lru_cache(maxsize=2)
def default_codebook() -> Codebook:
    """The COTS codebook: 2-bit phase-quantized sector beams.

    Used by the Fig. 3b *measurement* reproduction — commodity 802.11ad
    hardware steers with coarse phase shifters, so default beams carry the
    irregular sidelobes the paper observed.
    """
    ap = AccessPoint(position=AP_POSITION.copy(), boresight_az=AP_BORESIGHT_AZ)
    return Codebook(ap.array)


@lru_cache(maxsize=2)
def ideal_codebook() -> Codebook:
    """Continuous-phase sector beams — the Remcom-simulation setting.

    The paper evaluates its custom multi-lobe beams in the Remcom channel
    simulator (Fig. 3d/3e), where beams are ideal; the corresponding
    experiments use this codebook.
    """
    ap = AccessPoint(position=AP_POSITION.copy(), boresight_az=AP_BORESIGHT_AZ)
    return Codebook(ap.array, phase_bits=None)


def clear_fixture_caches() -> None:
    """Drop every memoized fixture so the next call rebuilds from scratch.

    Runner workers (and tests proving rebuild-determinism) call this to
    show that a fresh process reconstructs bit-identical fixtures — the
    builders take only canonicalized parameters and fixed seeds, so a
    rebuild can never diverge from the parent's copy.
    """
    _default_video.cache_clear()
    _room_video.cache_clear()
    _default_study.cache_clear()
    _study_in_room.cache_clear()
    default_codebook.cache_clear()
    ideal_codebook.cache_clear()


def grid_for(video: PointCloudVideo, cell_size: float) -> CellGrid:
    """Cell grid covering the video with the standard margin."""
    return CellGrid.covering(video.bounds, cell_size, margin=0.05)


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples and their cumulative probabilities."""
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    probs = np.arange(1, len(samples) + 1) / len(samples)
    return samples, probs


def cdf_at(samples: np.ndarray, threshold: float) -> float:
    """P(sample <= threshold) of the empirical distribution."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    return float(np.mean(samples <= threshold))


def format_table(
    headers: list[str], rows: list[list], float_fmt: str = "{:.1f}"
) -> str:
    """Plain-text table (the benches print paper-comparable rows with it)."""
    rendered = [
        [float_fmt.format(c) if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
