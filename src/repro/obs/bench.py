"""``repro bench`` — a perf-trajectory harness for the experiment runner.

Runs registered experiments through the deterministic runner with the
:class:`~repro.obs.profile.PhaseProfiler` wrapped around the plan /
execute / merge phases, samples peak RSS, and writes one trajectory point
as ``BENCH_<n>.json`` (monotonically numbered, so a directory of them is
a perf history)::

    python -m repro bench loss_sweep table1 --scale small
    python -m repro bench loss_sweep --compare BENCH_1.json --tolerance 0.2
    python -m repro bench --kernels --compare BENCH_2.json

``--compare`` validates the baseline file, re-runs the measurement, and
exits non-zero when :func:`repro.obs.diff.build_diff` lists any bench
regression against it — the CI hook that keeps the runner's performance
honest across PRs.  The rule lives in :mod:`repro.obs.diff`: an
experiment's wall time regresses beyond the tolerance, a kernel's speedup
falls below the baseline's floor, and the totals (wall time, peak RSS)
regress only between points that measured the same experiments and
kernels.

``--kernels`` additionally (or, with no experiments named, exclusively)
times the vectorized hot-path kernels against their retained scalar
references — pairwise viewport IoU at venue scale, the batched occlusion
cull, the codebook gain sweep, the many-viewer frustum plane build and the
many-viewer frustum cull — and records each kernel's measured speedup plus
its ``min_speedup`` floor.  ``--compare`` gates *speedup
against the baseline's floor*, not wall time, so the kernel gate is
machine-independent: a slower CI box passes as long as the vectorized
path still beats the scalar one by the required factor.

This module is also the one place BENCH files are named, parsed and
validated (:func:`bench_points`, :func:`load_bench`,
:func:`validate_bench`).

Measurement uses ``time.perf_counter`` only (monotonic elapsed time; the
repo's D1xx lint permits it, wall-clock *timestamps* stay banned), and
the output deliberately carries no timestamp: the trajectory index ``n``
is the ordering.  Benchmarking never touches experiment results — the
runner path is exactly the one ``repro run`` uses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any, Mapping

from .profile import PhaseProfiler

__all__ = [
    "BENCH_SCHEMA",
    "KERNEL_MIN_SPEEDUP",
    "run_bench",
    "run_kernel_bench",
    "bench_points",
    "next_bench_path",
    "write_bench",
    "load_bench",
    "validate_bench",
    "main",
]

BENCH_SCHEMA = "repro.bench/1"
_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

_REQUIRED_TOP = ("schema", "scale", "workers", "experiments", "total_wall_s")
_REQUIRED_EXPERIMENT = (
    "name", "units", "cached_units", "cache_hit_rate", "wall_s",
    "units_per_s", "phases",
)
_REQUIRED_KERNEL = (
    "name", "scalar_wall_s", "vectorized_wall_s", "speedup", "min_speedup",
)

# Machine-independent speedup floors the --compare gate enforces: the
# vectorized kernel must beat its scalar reference by at least this
# factor on whatever box runs the bench.  The pairwise floor is the
# acceptance criterion for the venue-scale work (>= 5x at 1,000 users);
# the others are deliberately conservative.  A kernel the bench times must
# have a floor here (:func:`_kernel_entry` raises otherwise).
KERNEL_MIN_SPEEDUP = {
    "pairwise_similarity_1000": 5.0,
    "occlusion_mask": 1.5,
    "beam_gains": 1.5,
    "frustum_planes": 10.0,
    "frustum_cull": 2.0,
    "frame_plan": 5.0,
}


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None if unsupported."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def run_bench(
    experiment_names: list[str],
    scale: str = "small",
    workers: int = 1,
    use_cache: bool = True,
    cache_dir: str | None = None,
) -> dict[str, Any]:
    """Measure the named experiments; returns a ``repro.bench/1`` document.

    Each experiment goes through the standard decompose → run → merge
    pipeline with per-phase wall time accumulated by a
    :class:`PhaseProfiler`; units/sec and the cache hit rate come from the
    runner's own reports.
    """
    from ..runner.cache import ResultCache
    from ..runner.executor import run_specs
    from ..runner.registry import get_experiment, resolve_params

    cache = (
        ResultCache(cache_dir) if use_cache and cache_dir is not None
        else ResultCache() if use_cache
        else None
    )
    entries: list[dict[str, Any]] = []
    total_wall = 0.0
    for name in experiment_names:
        experiment = get_experiment(name)
        profiler = PhaseProfiler()
        with profiler.phase("plan"):
            params = resolve_params(experiment, None, scale=scale)
            specs = list(experiment.decompose(params))
        with profiler.phase("execute"):
            reports = run_specs(specs, workers=workers, cache=cache)
        with profiler.phase("merge"):
            experiment.merge(params, [(r.spec, r.result) for r in reports])
        wall_s = sum(profiler.wall_s(p) for p in profiler.names())
        cached = sum(1 for r in reports if r.cached)
        units = len(specs)
        entries.append(
            {
                "name": name,
                "units": units,
                "cached_units": cached,
                "cache_hit_rate": (cached / units) if units else 0.0,
                "wall_s": round(wall_s, 6),
                "units_per_s": round(units / wall_s, 6) if wall_s > 0 else 0.0,
                "phases": profiler.to_jsonable(),
            }
        )
        total_wall += wall_s
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "workers": workers,
        "experiments": entries,
        "total_wall_s": round(total_wall, 6),
    }
    peak = _peak_rss_bytes()
    if peak is not None:
        doc["peak_rss_bytes"] = peak
    validate_bench(doc)
    return doc


def run_kernel_bench(num_users: int = 1000) -> list[dict[str, Any]]:
    """Time the vectorized kernels against their scalar references.

    Returns one entry per kernel: wall seconds for the scalar reference
    path and the vectorized path over identical inputs, the measured
    speedup, and the machine-independent ``min_speedup`` floor the
    ``--compare`` gate holds future runs to.  ``num_users`` sizes the
    pairwise-similarity population (1,000 is the venue-scale acceptance
    point; tests shrink it).
    """
    from time import perf_counter

    import numpy as np

    from ..core.similarity import group_iou, pairwise_iou_matrix
    from ..geometry import cull_aabbs, frustum_planes
    from ..mac.scheduler import UserDemand, plan_frame, plan_time_reference
    from ..mmwave import Codebook, PhasedArray
    from ..pointcloud import CellGrid, VisibilityConfig, synthesize_video
    from ..pointcloud.visibility import (
        _occlusion_mask,
        _occlusion_mask_reference,
    )
    from ..traces import generate_user_study

    entries: list[dict[str, Any]] = []

    def _entry(name: str, scalar_s: float, vectorized_s: float,
               floor_name: str | None = None) -> None:
        entries.append(
            _kernel_entry(name, scalar_s, vectorized_s, floor_name)
        )

    # -- pairwise viewport IoU over a venue-scale population ----------------
    rng = np.random.default_rng(0)
    maps = []
    for _ in range(num_users):
        size = int(rng.integers(40, 120))
        maps.append(
            frozenset(
                int(c) for c in rng.choice(600, size=size, replace=False)
            )
        )
    t0 = perf_counter()
    scalar_iou = [
        [group_iou([maps[i], maps[j]]) for j in range(i + 1, len(maps))]
        for i in range(len(maps))
    ]
    t1 = perf_counter()
    matrix = pairwise_iou_matrix(maps)
    t2 = perf_counter()
    # Same numbers either way — a bench that diverged would be lying.
    if matrix[0, 1] != scalar_iou[0][0]:
        raise RuntimeError(
            "vectorized pairwise IoU diverged from the scalar reference"
        )
    # The floor is the 1,000-user acceptance point's, whatever the size.
    _entry(f"pairwise_similarity_{num_users}", t1 - t0, t2 - t1,
           floor_name="pairwise_similarity_1000")

    # -- batched occlusion cull over one frame's frustums -------------------
    video = synthesize_video("medium", num_frames=1, points_per_frame=6000,
                             seed=0)
    grid = CellGrid.covering(video.bounds, 0.5, margin=0.05)
    study = generate_user_study(num_users=8, duration_s=2.0, seed=0)
    occ = grid.occupancy(video[0])
    config = VisibilityConfig()
    cell_ids = occ.cell_ids
    nominal = occ.nominal_counts().astype(np.float64)
    lows, highs = grid.cell_bounds_array(cell_ids)
    centers = grid.cell_centers(cell_ids)
    frustums = [t.pose_at(1.0).frustum() for t in study.traces]
    repeats = 20  # single pass is ~ms-scale; repeat to swamp timer jitter
    t0 = perf_counter()
    for _ in range(repeats):
        for frustum in frustums:
            _occlusion_mask_reference(
                grid, cell_ids, nominal, frustum, config
            )
    t1 = perf_counter()
    for _ in range(repeats):
        for frustum in frustums:
            _occlusion_mask(
                centers, lows, highs, nominal, frustum, config,
                grid.cell_size,
            )
    t2 = perf_counter()
    _entry("occlusion_mask", t1 - t0, t2 - t1)

    # -- codebook gain sweep over many directions ---------------------------
    codebook = Codebook(array=PhasedArray(), num_az=64)
    directions = [
        (float(az), float(el))
        for az, el in zip(
            rng.uniform(-np.pi, np.pi, size=100),
            rng.uniform(-0.4, 0.4, size=100),
        )
    ]
    t0 = perf_counter()
    for az, el in directions:
        codebook.gains_toward_reference(az, el)
    t1 = perf_counter()
    for az, el in directions:
        codebook.gains_toward(az, el)
    t2 = perf_counter()
    _entry("beam_gains", t1 - t0, t2 - t1)

    # -- frustum planes of every pose of a study, one batch -----------------
    poses = [
        trace.pose(i)
        for trace in study.traces
        for i in range(study.num_samples)
    ]
    positions = np.array([pose.position for pose in poses])
    quats = np.array([
        (p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z)
        for p in poses
    ])
    frustums = [pose.frustum() for pose in poses]
    reference = [f._build_planes_reference() for f in frustums]
    normals, offsets = frustum_planes(positions, quats)
    if not all(
        np.array_equal(n, normals[i]) and np.array_equal(o, offsets[i])
        for i, (n, o) in enumerate(reference)
    ):
        raise RuntimeError(
            "batched frustum planes diverged from the scalar reference"
        )
    t0 = perf_counter()
    for frustum in frustums:
        frustum._build_planes_reference()
    t1 = perf_counter()
    frustum_planes(positions, quats)
    t2 = perf_counter()
    _entry("frustum_planes", t1 - t0, t2 - t1)

    # -- frustum cull of those viewers against a fine cell grid -------------
    fine = CellGrid.covering(video.bounds, 0.25, margin=0.05)
    lows, highs = fine.occupancy(video[0]).lows_highs
    if not np.array_equal(
        cull_aabbs(frustums, lows, highs),
        [f.intersects_aabbs(lows, highs) for f in frustums],
    ):
        raise RuntimeError(
            "batched frustum cull diverged from the scalar reference"
        )
    repeats = 5
    t0 = perf_counter()
    for _ in range(repeats):
        for frustum in frustums:
            frustum.intersects_aabbs(lows, highs)
    t1 = perf_counter()
    for _ in range(repeats):
        cull_aabbs(frustums, lows, highs)
    t2 = perf_counter()
    _entry("frustum_cull", t1 - t0, t2 - t1)

    # -- one venue-sized tick planned over its archetype mappings -----------
    # Hundreds of users share eight archetype ``{cell: bytes}`` dicts by
    # reference (cells in sorted order, as visibility emits them); the
    # plan multicasts one whole cluster and two per-archetype splits.
    archetypes = []
    for _ in range(8):
        cells = np.sort(rng.choice(600, size=int(rng.integers(150, 300)),
                                   replace=False))
        archetypes.append({
            int(c): float(b)
            for c, b in zip(cells, rng.uniform(2e3, 2e4, size=len(cells)))
        })
    num_viewers = 480

    def tick_demands() -> list[UserDemand]:
        return [
            UserDemand(u, archetypes[u % len(archetypes)], 350.0)
            for u in range(num_viewers)
        ]

    def members_of(arches: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            u for u in range(num_viewers) if u % len(archetypes) in arches
        )

    groups = [
        (members_of((0, 1, 2)), 280.0),
        (members_of((3,)), 280.0),
        (members_of((4,)), 280.0),
    ]
    repeats = 3
    scalar_ticks = [tick_demands() for _ in range(repeats)]
    array_ticks = [tick_demands() for _ in range(repeats)]
    scalar_total = plan_time_reference(
        {d.user_id: d for d in tick_demands()}, groups
    )
    if plan_frame(tick_demands(), groups).total_time_s() != scalar_total:
        raise RuntimeError(
            "frame-demand matrix plan diverged from the scalar reference"
        )
    t0 = perf_counter()
    for demands in scalar_ticks:
        plan_time_reference({d.user_id: d for d in demands}, groups)
    t1 = perf_counter()
    for demands in array_ticks:
        plan_frame(demands, groups).total_time_s()
    t2 = perf_counter()
    _entry("frame_plan", t1 - t0, t2 - t1)

    return entries


def _kernel_entry(
    name: str,
    scalar_s: float,
    vectorized_s: float,
    floor_name: str | None = None,
) -> dict[str, Any]:
    """One kernel row, floored by ``KERNEL_MIN_SPEEDUP[floor_name or name]``.

    A kernel without a floor is an error rather than silently borrowing
    another kernel's: its row would otherwise gate on an arbitrary ratio.
    """
    floor_name = floor_name or name
    if floor_name not in KERNEL_MIN_SPEEDUP:
        raise ValueError(
            f"kernel {name!r} has no min_speedup floor in KERNEL_MIN_SPEEDUP"
        )
    speedup = scalar_s / vectorized_s if vectorized_s > 0 else float("inf")
    return {
        "name": name,
        "scalar_wall_s": round(scalar_s, 6),
        "vectorized_wall_s": round(vectorized_s, 6),
        "speedup": round(speedup, 3),
        "min_speedup": KERNEL_MIN_SPEEDUP[floor_name],
    }


def bench_points(bench_dir: Path | str) -> list[tuple[int, Path]]:
    """Every ``BENCH_<n>.json`` under ``bench_dir`` as ``(n, path)``,
    sorted by ``n``."""
    points = []
    for child in Path(bench_dir).iterdir():
        match = _BENCH_NAME.match(child.name)
        if match:
            points.append((int(match.group(1)), child))
    return sorted(points)


def next_bench_path(out_dir: Path | str = ".") -> Path:
    """The next free ``BENCH_<n>.json`` path under ``out_dir`` (n from 1)."""
    out_dir = Path(out_dir)
    taken = [n for n, _ in bench_points(out_dir)] if out_dir.is_dir() else []
    return out_dir / f"BENCH_{max(taken, default=0) + 1}.json"


def write_bench(doc: Mapping[str, Any], out_dir: Path | str = ".") -> Path:
    """Validate and write one trajectory point; returns its path."""
    validate_bench(doc)
    path = next_bench_path(out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return path


def load_bench(path: Path | str) -> dict[str, Any]:
    """Read and validate one BENCH point; a ``ValueError`` names the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        validate_bench(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc


def validate_bench(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` listing every schema problem in ``doc``."""
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise ValueError("bench document must be a JSON object")
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if doc.get("schema") not in (None, BENCH_SCHEMA):
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    experiments = doc.get("experiments")
    if not isinstance(experiments, list):
        problems.append("'experiments' must be a list")
        experiments = []
    for i, entry in enumerate(experiments):
        if not isinstance(entry, Mapping):
            problems.append(f"experiments[{i}] must be an object")
            continue
        for key in _REQUIRED_EXPERIMENT:
            if key not in entry:
                problems.append(f"experiments[{i}] missing key {key!r}")
        wall = entry.get("wall_s")
        if isinstance(wall, (int, float)) and wall < 0:
            problems.append(f"experiments[{i}].wall_s must be non-negative")
        rate = entry.get("cache_hit_rate")
        if isinstance(rate, (int, float)) and not 0.0 <= rate <= 1.0:
            problems.append(
                f"experiments[{i}].cache_hit_rate must be in [0, 1]"
            )
    kernels = doc.get("kernels", [])
    if not isinstance(kernels, list):
        problems.append("'kernels' must be a list when present")
        kernels = []
    for i, entry in enumerate(kernels):
        if not isinstance(entry, Mapping):
            problems.append(f"kernels[{i}] must be an object")
            continue
        for key in _REQUIRED_KERNEL:
            if key not in entry:
                problems.append(f"kernels[{i}] missing key {key!r}")
        for key in ("scalar_wall_s", "vectorized_wall_s"):
            wall = entry.get(key)
            if isinstance(wall, (int, float)) and wall < 0:
                problems.append(f"kernels[{i}].{key} must be non-negative")
        floor = entry.get("min_speedup")
        if isinstance(floor, (int, float)) and floor <= 0:
            problems.append(f"kernels[{i}].min_speedup must be positive")
    if problems:
        raise ValueError("invalid bench document: " + "; ".join(problems))


def build_parser() -> argparse.ArgumentParser:
    """The ``repro bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Benchmark registered experiments through the deterministic "
            "runner and write a BENCH_<n>.json perf-trajectory point."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names to benchmark (default: every registered one)",
    )
    parser.add_argument(
        "--scale",
        choices=["default", "small"],
        default="small",
        help="parameter scale (default: small — bench is about the runner, "
             "not the physics)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory for the BENCH_<n>.json point (default: cwd)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache (hit rate reports as 0)",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also time the vectorized kernels against their scalar "
             "references; with no experiments named, bench kernels only",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="a previous BENCH_<n>.json; exit 1 on any bench regression "
             "against it (wall time beyond --tolerance, a kernel speedup "
             "below the baseline's floor)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional wall-time growth for --compare "
             "(default: 0.2 = 20%%)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro bench`` (returns a process exit status)."""
    from ..runner.registry import experiment_names
    from .diff import build_diff, check_tolerance, format_regression

    args = build_parser().parse_args(argv)
    baseline = None
    if args.compare:
        # Fail on a bad baseline before spending the measurement on it.
        try:
            check_tolerance(args.tolerance)
            baseline = load_bench(args.compare)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot compare: {exc}") from None
    if args.kernels and not args.experiments:
        names = []  # kernels-only point
    else:
        names = args.experiments or experiment_names()
    try:
        doc = run_bench(
            names,
            scale=args.scale,
            workers=args.workers,
            use_cache=not args.no_cache,
        )
    except KeyError as err:
        raise SystemExit(str(err)) from None
    if args.kernels:
        kernels = run_kernel_bench()
        doc["kernels"] = kernels
        doc["total_wall_s"] = round(
            doc["total_wall_s"]
            + sum(k["scalar_wall_s"] + k["vectorized_wall_s"] for k in kernels),
            6,
        )
    path = write_bench(doc, args.out_dir)
    for entry in doc["experiments"]:
        print(
            f"{entry['name']}: {entry['units']} unit(s) in "
            f"{entry['wall_s']:.3f}s ({entry['units_per_s']:.2f}/s, "
            f"cache hit rate {entry['cache_hit_rate'] * 100:.0f}%)"
        )
    for entry in doc.get("kernels", []):
        print(
            f"kernel {entry['name']}: scalar {entry['scalar_wall_s']:.3f}s, "
            f"vectorized {entry['vectorized_wall_s']:.3f}s -> "
            f"{entry['speedup']:.1f}x (floor {entry['min_speedup']:.1f}x)"
        )
    print(f"bench point written to {path}")
    if baseline is not None:
        regressions = build_diff(
            bench_a=baseline, bench_b=doc, tolerance=args.tolerance
        )["regressions"]
        if regressions:
            print(f"PERF REGRESSION vs {args.compare}:")
            for reg in regressions:
                print(f"  {format_regression(reg)}")
            return 1
        print(f"no regression vs {args.compare} (tolerance {args.tolerance})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
