"""Venue-scale population experiment: rooms of churning users, sharded.

The reproduction's scaling story so far asks "how many users can one AP
serve?"; this experiment asks the venue version — a stadium concourse or
conference floor of rooms, each with its own AP, capacity, content
placement, and churn (Poisson arrivals, exponential dwell, an optional
flash crowd).  Rooms are pure functions of ``(venue seed, room index)``,
so the runner fans whole *shards* of rooms out to worker processes and
the merged report is bit-identical for any ``--parallel`` or shard
count.
"""

from __future__ import annotations

from ..runner import Experiment, RunSpec, register
from ..scenario import (
    RoomSpec,
    VenueSpec,
    merge_shard_results,
    run_shard,
    shard_rooms,
)
from .common import DEFAULT_SEED, format_table

__all__ = [
    "venue_from_params",
    "room_specs_tuple",
    "run_one",
]

# Venue parameters a RunSpec carries (everything except sharding).
_VENUE_KEYS = (
    "num_rooms",
    "capacity",
    "initial_users",
    "arrival_rate_hz",
    "mean_dwell_s",
    "quality",
    "flash_crowd_room",
    "flash_crowd_at_s",
    "flash_crowd_size",
    "room_specs",
    "duration_s",
    "tick_s",
    "archetypes",
    "wlan",
    "multicast_rate_fraction",
    "grouping",
    "min_group_iou",
    "target_fps",
)

# Field order of one encoded room in the ``room_specs`` parameter (a
# RunSpec can carry scalars and nested sequences, not dicts).
_ROOM_FIELDS = (
    "name",
    "ap",
    "capacity",
    "initial_users",
    "arrival_rate_hz",
    "mean_dwell_s",
    "quality",
    "flash_crowd_at_s",
    "flash_crowd_size",
)


def room_specs_tuple(venue: VenueSpec) -> tuple[tuple, ...]:
    """Encode a venue's rooms as RunSpec-safe nested tuples."""
    return tuple(
        tuple(getattr(room, f) for f in _ROOM_FIELDS) for room in venue.rooms
    )


def venue_from_params(params) -> VenueSpec:
    """The venue a parameter set describes.

    A non-empty ``room_specs`` (encoded per :data:`_ROOM_FIELDS`, as built
    by :func:`room_specs_tuple` — the ``repro scenario --spec`` path)
    takes precedence; otherwise the uniform-venue parameters apply.
    """
    venue_kwargs = dict(
        duration_s=float(params["duration_s"]),
        tick_s=float(params["tick_s"]),
        seed=int(params["seed"]),
        archetypes=int(params["archetypes"]),
        wlan=str(params["wlan"]),
        multicast_rate_fraction=float(params["multicast_rate_fraction"]),
        grouping=str(params["grouping"]),
        min_group_iou=float(params["min_group_iou"]),
        target_fps=float(params["target_fps"]),
    )
    room_specs = params.get("room_specs") or ()
    if room_specs:
        rooms = tuple(
            RoomSpec(**dict(zip(_ROOM_FIELDS, encoded)))
            for encoded in room_specs
        )
        return VenueSpec(rooms=rooms, **venue_kwargs)
    return VenueSpec.uniform(
        num_rooms=int(params["num_rooms"]),
        capacity=int(params["capacity"]),
        initial_users=int(params["initial_users"]),
        arrival_rate_hz=float(params["arrival_rate_hz"]),
        mean_dwell_s=float(params["mean_dwell_s"]),
        quality=str(params["quality"]),
        flash_crowd_room=int(params["flash_crowd_room"]),
        flash_crowd_at_s=float(params["flash_crowd_at_s"]),
        flash_crowd_size=int(params["flash_crowd_size"]),
        **venue_kwargs,
    )


def run_one(spec: RunSpec) -> dict:
    """Execute one shard: the rooms listed in the spec, in venue order."""
    venue = venue_from_params({**{k: spec.get(k) for k in _VENUE_KEYS},
                               "seed": spec.seed})
    rooms = tuple(int(r) for r in spec.get("rooms"))
    return run_shard(venue, rooms)


def _decompose(params) -> list[RunSpec]:
    room_specs = params.get("room_specs") or ()
    num_rooms = len(room_specs) if room_specs else int(params["num_rooms"])
    shards = shard_rooms(num_rooms, int(params["num_shards"]))
    return [
        RunSpec.make(
            "venue_scale",
            seed=params["seed"],
            shard=shard_index,
            rooms=rooms,
            **{k: params[k] for k in _VENUE_KEYS},
        )
        for shard_index, rooms in enumerate(shards)
    ]


def _merge(params, runs) -> dict:
    return merge_shard_results([result for _, result in runs])


def _format(merged) -> str:
    rows = []
    for room in merged["rooms"]:
        rows.append([
            room["room"],
            room["ap"],
            room["sessions"],
            room["peak_active"],
            room["rejected"],
            round(room["mean_fps"], 1),
            round(room["total_airtime_s"] * 1e3, 1),
        ])
    table = format_table(
        ["room", "ap", "sessions", "peak", "rejected", "fps", "airtime ms"],
        rows,
    )
    v = merged["venue"]
    fps = "n/a" if v["mean_fps"] is None else f"{v['mean_fps']:.1f}"
    worst = (
        "n/a" if v["worst_tick_fps"] is None else f"{v['worst_tick_fps']:.1f}"
    )
    summary = (
        f"venue: {v['rooms']} rooms, {v['sessions']} sessions "
        f"({v['rejected']} rejected), peak {v['peak_active']} concurrent, "
        f"mean {fps} FPS (worst tick {worst})"
    )
    return f"{table}\n{summary}"


EXPERIMENT = register(
    Experiment(
        name="venue_scale",
        title="Venue scale — sharded multi-room population simulation",
        run_one=run_one,
        decompose=_decompose,
        merge=_merge,
        format_result=_format,
        default_params={
            "num_rooms": 10,
            "capacity": 1000,
            "initial_users": 900,
            "arrival_rate_hz": 20.0,
            "mean_dwell_s": 6.0,
            "quality": "high",
            "flash_crowd_room": 0,
            "flash_crowd_at_s": 5.0,
            "flash_crowd_size": 50,
            "room_specs": (),
            "duration_s": 10.0,
            "tick_s": 1.0,
            "archetypes": 8,
            "wlan": "ad",
            "multicast_rate_fraction": 0.8,
            "grouping": "greedy",
            "min_group_iou": 0.05,
            "target_fps": 30.0,
            "num_shards": 4,
            "seed": DEFAULT_SEED,
        },
        small_params={
            "num_rooms": 2,
            "capacity": 100,
            "initial_users": 90,
            "arrival_rate_hz": 2.0,
            # Big enough to overflow the room at the burst instant even
            # after pre-burst departures, so the smoke exercises admission
            # rejections.
            "flash_crowd_size": 60,
            "flash_crowd_at_s": 2.5,
            "duration_s": 5.0,
            "num_shards": 2,
        },
    )
)

