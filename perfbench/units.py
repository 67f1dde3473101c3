"""The benchmark's workloads: fixed lists of units over the program's public API.

A unit is one call into ``repro`` whose result is a JSON-shaped dict of
simulated output.  Every input is derived from the workload seed, and a
workload runs the same units in the same order on every pass, so a pass is
a fixed amount of work for a given seed.

``check`` validates a unit's output: against ``expected.json`` at
``PINNED_SEED`` (within the golden suite's rtol/atol), and against the
invariants the output exposes at every seed.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro.obs as obs
import repro.runner as runner
import repro.scenario as scenario
from repro.experiments import loss_sweep, policy_comparison
from repro.experiments.common import room_video
from repro.obs import metrics as obs_metrics
from repro.runner import ResultCache, RunSpec

PINNED_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The golden suite's tolerances (tests/experiments/goldens).
RTOL = 1e-6
ATOL = 1e-9

TARGET_FPS = 30.0

# Unit seeds per pass.  A unit's cost varies with its seed, so each pass
# averages over several; short units also let the reference runs between
# them follow the host's speed changes closely.
SEEDS = {"closed_loop": 8, "venue": 8, "transport": 4, "obs_pipeline": 8}

CLOSED_LOOP_USERS = 6
CLOSED_LOOP_DURATION_S = 1.5
CLOSED_LOOP_LOSS = 0.05

OBS_STACKS = ("heuristic", "qoe-aware")
OBS_USERS = 4
OBS_DURATION_S = 1.5

TRANSPORT_MODES = ("arq", "fec", "hybrid")

VENUE_ROOMS = 4
VENUE_CAPACITY = 1000


@dataclass(frozen=True)
class Unit:
    """One timed call: a stable id and a zero-argument callable."""

    uid: str
    run: Callable[[], dict]


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` unit seeds, a pure function of the workload seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(count)
    return [int(s) % 2**31 for s in state]


def canonical(output: dict) -> dict:
    """The output in plain JSON shape (string keys, lists, floats)."""
    return json.loads(json.dumps(output, sort_keys=True))


# -- unit bodies -------------------------------------------------------------


def _policy_spec(stack: str, seed: int, num_users: int, duration_s: float) -> RunSpec:
    return RunSpec.make(
        "policy_comparison",
        seed=seed,
        stack=stack,
        loss=CLOSED_LOOP_LOSS,
        num_users=num_users,
        duration_s=duration_s,
    )


def _venue(seed: int) -> scenario.VenueSpec:
    """Rooms at ``venue_scale``'s default density; room 0 gets a flash crowd."""
    return scenario.VenueSpec.uniform(
        num_rooms=VENUE_ROOMS,
        capacity=VENUE_CAPACITY,
        initial_users=900,
        arrival_rate_hz=20.0,
        mean_dwell_s=6.0,
        quality="high",
        flash_crowd_room=0,
        flash_crowd_at_s=5.0,
        flash_crowd_size=50,
        duration_s=10.0,
        tick_s=1.0,
        grouping="greedy",
        seed=seed,
    )


def _room(venue: scenario.VenueSpec, index: int) -> dict:
    return scenario.run_shard(venue, (index,))


def _transport_spec(mode: str, seed: int) -> RunSpec:
    return RunSpec.make(
        "loss_sweep",
        seed=seed,
        mode=mode,
        loss_points=loss_sweep.DEFAULT_LOSS_POINTS,
        num_users=6,
        num_frames=30,
        quality="high",
        target_fps=TARGET_FPS,
        airtime_fraction=0.8,
        num_cells=64,
    )


def _obs_pipeline(spec: RunSpec, work_dir: Path) -> dict:
    """Cache miss then cache hit through the runner, traced, then analyzed."""
    work_dir.mkdir(parents=True)
    try:
        trace_path = work_dir / "trace.jsonl"
        cache = ResultCache(work_dir / "cache")
        with obs.streaming_recording(trace_path) as recorder:
            miss = runner.run_specs([spec], cache=cache)[0]
            hit = runner.run_specs([spec], cache=cache)[0]
        report = obs.stream_analyze(trace_path)
        return {
            "result": miss.result,
            "cached": [miss.cached, hit.cached],
            "hit_matches_miss": hit.result == miss.result,
            "trace_events": recorder.recorded,
            "trace_bytes": trace_path.stat().st_size,
            "analyze": report,
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def trace_overhead(seed: int, work_dir: Path) -> float:
    """Wall time of the first seed's ``obs_pipeline`` sessions with a
    streamed trace, over their wall time without one."""
    plain = traced = 0.0
    first_seed = derive_seeds(seed, 1)[0]
    work_dir.mkdir(parents=True)
    try:
        for stack in OBS_STACKS:
            spec = _policy_spec(stack, first_seed, OBS_USERS, OBS_DURATION_S)
            start = perf_counter()
            policy_comparison.run_one(spec)
            middle = perf_counter()
            with obs.streaming_recording(work_dir / "trace.jsonl"):
                policy_comparison.run_one(spec)
            plain += middle - start
            traced += perf_counter() - middle
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return traced / plain


# -- workloads ---------------------------------------------------------------


def setup(workload: str) -> None:
    """Build the fixtures a workload's units share (timed as set-up).

    The shared fixture is the room video.  User studies are built inside
    the units: ``policy_comparison`` memoizes four studies and a pass uses
    eight seeds, so studies built here would be evicted before use.
    """
    if workload not in SEEDS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload in ("closed_loop", "obs_pipeline"):
        room_video("high")
    if workload == "obs_pipeline":
        obs_metrics.REGISTRY.enable()


def build_units(workload: str, seed: int, work_dir: Path) -> list[Unit]:
    """The fixed, ordered unit list of one pass over a workload."""
    seeds = derive_seeds(seed, SEEDS[workload])
    if workload == "closed_loop":
        return [
            Unit(
                f"{stack}/s{i}",
                partial(
                    policy_comparison.run_one,
                    _policy_spec(
                        stack, s, CLOSED_LOOP_USERS, CLOSED_LOOP_DURATION_S
                    ),
                ),
            )
            for i, s in enumerate(seeds)
            for stack in policy_comparison.POLICY_STACKS
        ]
    if workload == "venue":
        return [
            Unit(
                f"room{i % VENUE_ROOMS}/s{i}",
                partial(_room, _venue(s), i % VENUE_ROOMS),
            )
            for i, s in enumerate(seeds)
        ]
    if workload == "transport":
        return [
            Unit(
                f"{mode}/s{i}",
                partial(loss_sweep.run_one, _transport_spec(mode, s)),
            )
            for i, s in enumerate(seeds)
            for mode in TRANSPORT_MODES
        ]
    if workload == "obs_pipeline":
        units = []
        for i, s in enumerate(seeds):
            for stack in OBS_STACKS:
                uid = f"{stack}/s{i}"
                spec = _policy_spec(stack, s, OBS_USERS, OBS_DURATION_S)
                units.append(
                    Unit(
                        uid,
                        partial(
                            _obs_pipeline, spec, work_dir / uid.replace("/", "-")
                        ),
                    )
                )
        return units
    raise ValueError(f"unknown workload {workload!r}")


def frame_rates(workload: str, output: dict) -> list[float]:
    """The delivered frame rates (Table 1's quantity) a unit reports."""
    if workload == "closed_loop":
        return [float(output["session"]["mean_fps"])]
    if workload == "venue":
        return [float(room["mean_fps"]) for room in output["rooms"]]
    if workload == "transport":
        return [float(p["effective_fps"]) for p in output["points"]]
    if workload == "obs_pipeline":
        return [float(output["result"]["session"]["mean_fps"])]
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness -------------------------------------------------------------


def diff(expected: Any, actual: Any, path: str = "$") -> list[str]:
    """Mismatches between two JSON trees; floats within RTOL/ATOL."""
    numbers = (int, float)
    if (
        isinstance(expected, numbers)
        and isinstance(actual, numbers)
        and not isinstance(expected, bool)
        and not isinstance(actual, bool)
    ):
        a, e = float(actual), float(expected)
        if math.isnan(a) and math.isnan(e):
            return []
        if math.isinf(a) or math.isinf(e):
            return [] if a == e else [f"{path}: expected {e!r}, got {a!r}"]
        ok = abs(a - e) <= ATOL + RTOL * abs(e)
        return [] if ok else [f"{path}: expected {e!r}, got {a!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [
            line
            for key in sorted(expected)
            for line in diff(expected[key], actual[key], f"{path}.{key}")
        ]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [
            line
            for i, (e, a) in enumerate(zip(expected, actual))
            for line in diff(e, a, f"{path}[{i}]")
        ]
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


def _in(value: float, low: float, high: float) -> bool:
    return low <= value <= high


def _session_problems(session: dict) -> list[str]:
    problems = []
    if not 0.0 < session["mean_fps"] <= TARGET_FPS:
        problems.append(f"mean_fps {session['mean_fps']} outside (0, {TARGET_FPS}]")
    if not _in(session["min_fps"], 0.0, session["mean_fps"]):
        problems.append(f"min_fps {session['min_fps']} outside [0, mean_fps]")
    if not _in(session["late_fraction"], 0.0, 1.0):
        problems.append(f"late_fraction {session['late_fraction']} outside [0, 1]")
    if session["stall_time_s"] < 0:
        problems.append(f"negative stall_time_s {session['stall_time_s']}")
    return problems


def invariants(workload: str, output: dict) -> list[str]:
    """Properties every unit output must have, at any seed."""
    if workload == "closed_loop":
        problems = _session_problems(output["session"])
        if not output["allocation"]["utility_dominates"]:
            problems.append("DP allocation lost to the greedy fill")
        return problems
    if workload == "venue":
        problems = []
        for room in output["rooms"]:
            name = room["room"]
            if room["arrivals"] + room["rejected"] != room["sessions"]:
                problems.append(f"{name}: arrivals + rejected != sessions")
            if room["departures"] > room["arrivals"]:
                problems.append(f"{name}: more departures than arrivals")
            if not _in(room["peak_active"], 0, VENUE_CAPACITY):
                problems.append(f"{name}: peak_active beyond capacity")
            if not (0.0 < room["mean_fps"] <= TARGET_FPS):
                problems.append(f"{name}: mean_fps {room['mean_fps']}")
        return problems
    if workload == "transport":
        problems = []
        for p in output["points"]:
            if not _in(p["frame_delivery_rate"], 0.0, 1.0):
                problems.append(f"loss {p['loss']}: delivery outside [0, 1]")
            if not _in(p["effective_fps"], 0.0, TARGET_FPS):
                problems.append(f"loss {p['loss']}: fps {p['effective_fps']}")
            if p["goodput_mbps"] < 0:
                problems.append(f"loss {p['loss']}: negative goodput")
            if p["loss"] == 0.0 and p["frame_delivery_rate"] != 1.0:
                problems.append("a lossless channel dropped frames")
        return problems
    if workload == "obs_pipeline":
        problems = _session_problems(output["result"]["session"])
        if output["cached"] != [False, True]:
            problems.append(f"cache miss/hit pattern {output['cached']}")
        if not output["hit_matches_miss"]:
            problems.append("cache hit differs from the computed result")
        if output["trace_events"] <= 0 or output["trace_bytes"] <= 0:
            problems.append("empty trace")
        if not output["analyze"]["frames"]:
            problems.append("analysis found no frames")
        return problems
    raise ValueError(f"unknown workload {workload!r}")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check(
    workload: str, seed: int, uid: str, output: dict, expected: dict
) -> list[str]:
    """Every problem with one unit's output (empty when it is correct)."""
    problems = invariants(workload, output)
    if seed == PINNED_SEED:
        want = expected.get(workload, {}).get(uid)
        if want is None:
            problems.append(f"no expected output for {workload}/{uid}")
        else:
            problems.extend(diff(want, output))
    return problems
