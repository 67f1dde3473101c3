"""``repro scenario`` — run a venue-scale scenario from the command line.

Two ways to describe the venue:

* uniform flags (``--rooms``, ``--capacity``, ``--initial``, ...) build
  identical rooms, optionally with a flash crowd in one of them;
* ``--spec venue.json`` loads a full :class:`~repro.scenario.VenueSpec`
  (the shape ``VenueSpec.to_jsonable`` writes), so rooms can differ in
  capacity, content quality, and churn.

Either way the venue routes through the registered ``venue_scale``
experiment, so sharding, the multiprocessing executor, result caching,
and deterministic spec-ordered merging are the same machinery ``repro
run venue_scale`` uses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .spec import VenueSpec

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Run a venue-scale sharded population scenario.",
    )
    parser.add_argument(
        "--spec", type=Path, default=None,
        help="JSON venue spec (overrides the uniform-venue flags)",
    )
    parser.add_argument("--rooms", type=int, default=4, help="uniform rooms")
    parser.add_argument(
        "--capacity", type=int, default=200, help="per-room admission limit"
    )
    parser.add_argument(
        "--initial", type=int, default=150, help="occupants per room at t=0"
    )
    parser.add_argument(
        "--arrival-rate", type=float, default=2.0,
        help="per-room Poisson arrival rate (users/s)",
    )
    parser.add_argument(
        "--dwell", type=float, default=30.0, help="mean session length (s)"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="scenario length (s)"
    )
    parser.add_argument(
        "--tick", type=float, default=1.0, help="delivery evaluation period (s)"
    )
    parser.add_argument(
        "--quality", default="high", help="content quality in every room"
    )
    parser.add_argument(
        "--wlan", choices=["ac", "ad"], default="ad",
        help="per-AP capacity calibration",
    )
    parser.add_argument(
        "--archetypes", type=int, default=8,
        help="distinct viewer archetypes the population draws from",
    )
    parser.add_argument(
        "--grouping", choices=["none", "greedy", "qoe"], default="greedy",
        help="multicast grouping policy",
    )
    parser.add_argument(
        "--flash-crowd-room", type=int, default=-1,
        help="room index receiving a flash crowd (negative = none)",
    )
    parser.add_argument(
        "--flash-crowd-at", type=float, default=0.0,
        help="flash crowd instant (s)",
    )
    parser.add_argument(
        "--flash-crowd-size", type=int, default=0,
        help="users arriving together in the flash crowd",
    )
    parser.add_argument("--seed", type=int, default=None, help="venue seed")
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (work units)"
    )
    parser.add_argument(
        "--parallel", type=int, default=1, help="worker processes"
    )
    parser.add_argument(
        "--json", type=Path, default=None, dest="json_out",
        help="also write the merged result as JSON to this path",
    )
    return parser


def _venue_from_args(args: argparse.Namespace) -> VenueSpec:
    if args.spec is not None:
        doc = json.loads(args.spec.read_text(encoding="utf-8"))
        venue = VenueSpec.from_jsonable(doc)
        if args.seed is not None:
            venue = VenueSpec.from_jsonable({**doc, "seed": args.seed})
        return venue
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return VenueSpec.uniform(
        num_rooms=args.rooms,
        capacity=args.capacity,
        initial_users=args.initial,
        arrival_rate_hz=args.arrival_rate,
        mean_dwell_s=args.dwell,
        quality=args.quality,
        flash_crowd_room=args.flash_crowd_room,
        flash_crowd_at_s=args.flash_crowd_at,
        flash_crowd_size=args.flash_crowd_size,
        duration_s=args.duration,
        tick_s=args.tick,
        archetypes=args.archetypes,
        wlan=args.wlan,
        grouping=args.grouping,
    )


def main(argv: list[str] | None = None) -> int:
    """Run ``repro scenario`` and return a process exit status."""
    args = _build_parser().parse_args(argv)
    # Imported here so `--help` stays instant.
    from ..experiments.venue_scale import EXPERIMENT, room_specs_tuple
    from ..runner import run_experiment

    try:
        venue = _venue_from_args(args)
    except (OSError, TypeError, ValueError) as exc:  # unreadable or malformed
        print(f"invalid venue spec: {exc}", file=sys.stderr)
        return 2
    overrides = {
        "room_specs": room_specs_tuple(venue),
        "duration_s": venue.duration_s,
        "tick_s": venue.tick_s,
        "seed": venue.seed,
        "archetypes": venue.archetypes,
        "wlan": venue.wlan,
        "multicast_rate_fraction": venue.multicast_rate_fraction,
        "grouping": venue.grouping,
        "min_group_iou": venue.min_group_iou,
        "target_fps": venue.target_fps,
        "num_shards": args.shards,
    }
    t0 = time.perf_counter()
    merged = run_experiment(
        "venue_scale", overrides, workers=max(1, args.parallel)
    )
    elapsed = time.perf_counter() - t0
    print(
        f"venue: {venue.num_rooms} room(s), capacity {venue.total_capacity}, "
        f"{venue.duration_s:g} s @ tick {venue.tick_s:g} s, "
        f"{args.shards} shard(s), {max(1, args.parallel)} worker(s)"
    )
    print(EXPERIMENT.format_result(merged))
    print(f"done in {elapsed:.1f} s")
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
