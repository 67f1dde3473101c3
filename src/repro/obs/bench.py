"""``repro bench`` — the benchmark's trajectory points and their gate.

Runs every workload ``BENCHMARK.json`` declares through its ``command``
(``perfbench/run.py``) at perfbench's pinned seed, twice: ``--trace 0``
for the end-to-end metrics and ``--trace 1`` for the per-layer ones.  It
then times the vectorized kernels against their scalar references and
writes one ``repro.bench/2`` point as ``BENCH_<n>.json`` (monotonically
numbered, so a directory of them is a perf history)::

    python -m repro bench                                  # a full point
    python -m repro bench --compare BENCH_3.json           # ... gated
    python -m repro bench --kernels --compare BENCH_3.json # kernels only

The ``workloads`` section holds each pass's ``attempted``/``failed``
unit counts and metrics; every end-to-end metric carries the ``unit``,
``better`` and ``bound`` ``BENCHMARK.json`` declares.  The ``kernels``
section records each kernel's speedup and ``min_speedup`` floor.
``--kernels`` alone writes a kernels-only point, which is what CI runs.

``--compare`` validates the baseline first, then exits non-zero when
:func:`repro.obs.diff.build_diff` lists a bench regression against it:
an end-to-end metric worse than the baseline's ``bound``, more failed
units, or a kernel speedup (a ratio, so the gate holds on any machine)
below the baseline's floor.

This module is also the one place BENCH files are named, parsed and
validated (:func:`bench_points`, :func:`load_bench`,
:func:`validate_bench`).  ``repro.bench/1`` points (the experiment
timings of the earlier harness) still load: validation checks only the
sections a point carries.

Kernel timing uses ``time.perf_counter`` only (monotonic elapsed time;
the repo's D1xx lint permits it, wall-clock *timestamps* stay banned),
and the output deliberately carries no timestamp: the trajectory index
``n`` is the ordering.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "BENCH_SCHEMA",
    "KERNEL_MIN_SPEEDUP",
    "PERFBENCH_SEED",
    "load_benchmark",
    "run_workloads",
    "run_kernel_bench",
    "bench_points",
    "next_bench_path",
    "write_bench",
    "load_bench",
    "validate_bench",
    "main",
]

BENCH_SCHEMA = "repro.bench/2"
_SCHEMAS = ("repro.bench/1", BENCH_SCHEMA)
_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

# The checkout ``repro bench`` measures: BENCHMARK.json and perfbench/
# sit beside src/.
REPO_ROOT = Path(__file__).resolve().parents[3]
# perfbench checks unit outputs against expected.json at this seed only.
PERFBENCH_SEED = 1
# (section, --trace) of the two passes run per workload.
_PASSES = (("end_to_end", 0), ("per_layer", 1))
_RUN_KEYS = {"correct", "attempted", "failed", "metrics"}

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
    "blockage_timeline": 5.0,
    "beam_gains": 1.5,
    "frustum_planes": 10.0,
    "frustum_cull": 2.0,
    "frame_plan": 5.0,
}


def _is_num(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_count(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_benchmark() -> dict[str, Any]:
    """The ``BENCHMARK.json`` declaration of the checkout at
    :data:`REPO_ROOT`.

    A missing ``BENCHMARK.json`` or ``perfbench/run.py``, or a declaration
    without the keys the bench reads, is a ``ValueError`` naming the file.
    """
    path = REPO_ROOT / "BENCHMARK.json"
    for needed in (path, REPO_ROOT / "perfbench" / "run.py"):
        if not needed.is_file():
            raise ValueError(f"{needed}: not found beside src/repro")
    try:
        benchmark = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    missing = [
        key for key in ("command", "workloads", "run_seconds", "end_to_end")
        if key not in benchmark
    ]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    return benchmark


def run_workloads(benchmark: Mapping[str, Any]) -> dict[str, Any]:
    """Run both passes of every declared workload; the ``workloads`` section.

    Each pass is ``benchmark["command"]`` run from :data:`REPO_ROOT` for
    ``run_seconds`` at :data:`PERFBENCH_SEED`; a leading
    ``python``/``python3`` becomes this interpreter.  A pass that exits
    non-zero, whose last output line is not perfbench's result object, or
    whose end-to-end result lacks a declared metric, is a ``ValueError``
    naming the workload.
    """
    command = [
        sys.executable if part in ("python", "python3") else str(part)
        for part in benchmark["command"]
    ]
    declared = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    workloads: dict[str, Any] = {}
    for name in (workload["name"] for workload in benchmark["workloads"]):
        entry = {}
        for section, trace in _PASSES:
            where = f"workload {name!r} (--trace {trace})"
            proc = subprocess.run(
                [*command, "--workload", name,
                 "--seed", str(PERFBENCH_SEED),
                 "--seconds", str(benchmark["run_seconds"]),
                 "--trace", str(trace)],
                cwd=REPO_ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            if proc.returncode != 0:
                raise ValueError(
                    f"{where}: {' '.join(command)} exited with status "
                    f"{proc.returncode}"
                )
            run = _result(proc.stdout)
            if run is None:
                raise ValueError(
                    f"{where}: last output line is not a "
                    "{correct, attempted, failed, metrics} result"
                )
            metrics = run["metrics"]
            if section == "end_to_end":
                missing = [m for m in declared if m not in metrics]
                if missing:
                    raise ValueError(
                        f"{where}: result lacks {', '.join(missing)}"
                    )
                metrics = {
                    metric: {
                        "value": metrics[metric]["value"],
                        **{k: spec[k] for k in ("unit", "better", "bound")},
                    }
                    for metric, spec in declared.items()
                }
            entry[section] = {
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
            print(
                f"{where}: {run['attempted']} unit(s), "
                f"{run['failed']} failed", flush=True,
            )
        workloads[name] = entry
    return workloads


def _result(stdout: str) -> dict[str, Any] | None:
    """The last output line as perfbench's ``{correct, attempted, failed,
    metrics}`` object (counts, numeric metric values), else None."""
    try:
        run = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    ok = (
        isinstance(run, dict)
        and set(run) == _RUN_KEYS
        and _is_count(run["attempted"])
        and _is_count(run["failed"])
        and isinstance(run["metrics"], dict)
        and all(
            isinstance(cell, dict) and _is_num(cell.get("value"))
            for cell in run["metrics"].values()
        )
    )
    return run if ok else None


def run_kernel_bench(num_users: int = 1000) -> list[dict[str, Any]]:
    """Time the vectorized kernels against their scalar references.

    Returns one entry per kernel: wall seconds for the scalar reference
    path and the vectorized path over identical inputs, the measured
    speedup, and the machine-independent ``min_speedup`` floor the
    ``--compare`` gate holds future runs to.  ``num_users`` sizes the
    pairwise-similarity population (1,000 is the venue-scale acceptance
    point; tests shrink it).

    The rows run with BLAS held to one thread (:func:`_single_threaded_blas`),
    whatever the caller's environment, so they time the kernels and not
    BLAS thread hand-offs.
    """
    with _single_threaded_blas():
        return _time_kernels(num_users)


# (get, set) thread-count symbols, as OpenBLAS builds prefix and suffix
# them: numpy's wheels export ``scipy_openblas_set_num_threads64_``, a
# system OpenBLAS ``openblas_set_num_threads``.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _blas_thread_controls() -> list[tuple[Any, Any]]:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS.

    Libraries are found in ``/proc/self/maps``; elsewhere, or without
    OpenBLAS, the list is empty.
    """
    import ctypes

    import numpy  # noqa: F401 -- loads the BLAS numpy links

    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return []
    paths = sorted({
        fields[5]
        for fields in (line.split(maxsplit=5) for line in maps.splitlines())
        if len(fields) == 6 and "openblas" in fields[5].lower()
    })
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _single_threaded_blas() -> Iterator[None]:
    """Hold every loaded OpenBLAS to one thread inside the block.

    A threaded OpenBLAS hands mid-sized products to its worker threads:
    ``Codebook.gains_toward``'s 192x32 complex matvec is past its
    threading threshold.  On a two-core host where the worker shares a
    core with the caller, each hand-off can wait a scheduler time slice
    (about 8 ms instead of 30 us), so a timed loop of small products would
    measure the waits.  The previous thread counts are restored on exit.
    """
    controls = _blas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def _time_kernels(num_users: int) -> list[dict[str, Any]]:
    from time import perf_counter

    import numpy as np

    from ..core.similarity import group_iou, pairwise_iou_matrix
    from ..geometry import cull_aabbs, frustum_planes
    from ..mac.scheduler import UserDemand, plan_frame, plan_time_reference
    from ..mmwave import Codebook, PhasedArray, compute_blockage_timeline
    from ..mmwave.blockage import _compute_blockage_timeline_reference
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

    # -- frame occlusion kernel over one frame's frustums -------------------
    video = synthesize_video("medium", num_frames=1, points_per_frame=6000,
                             seed=0)
    grid = CellGrid.covering(video.bounds, 0.5, margin=0.05)
    study = generate_user_study(num_users=8, duration_s=2.0, seed=0)
    occ = grid.occupancy(video[0])
    config = VisibilityConfig()
    cell_ids, nominal = occ.cell_ids, occ.nominal
    frustums = [t.pose_at(1.0).frustum() for t in study.traces]
    eyes = np.array([f.position for f in frustums])
    in_view = np.ones((len(frustums), len(cell_ids)), dtype=bool)
    reference = [
        _occlusion_mask_reference(grid, cell_ids, nominal, f, config)
        for f in frustums
    ]
    if not np.array_equal(_occlusion_mask(occ, eyes, in_view, config),
                          reference):
        raise RuntimeError(
            "frame occlusion kernel diverged from the scalar reference"
        )
    repeats = 20  # single pass is ~ms-scale; repeat to swamp timer jitter
    t0 = perf_counter()
    for _ in range(repeats):
        for frustum in frustums:
            _occlusion_mask_reference(
                grid, cell_ids, nominal, frustum, config
            )
    t1 = perf_counter()
    for _ in range(repeats):
        _occlusion_mask(occ, eyes, in_view, config)
    t2 = perf_counter()
    _entry("occlusion_mask", t1 - t0, t2 - t1)

    # -- one study's blockage timeline, every link at once ------------------
    ap = np.array([4.0, 0.3, 2.0])  # the experiments' ceiling AP
    if not np.array_equal(
        compute_blockage_timeline(study, ap).blocked,
        _compute_blockage_timeline_reference(study, ap).blocked,
    ):
        raise RuntimeError(
            "batched blockage timeline diverged from the scalar reference"
        )
    repeats = 3
    t0 = perf_counter()
    for _ in range(repeats):
        _compute_blockage_timeline_reference(study, ap)
    t1 = perf_counter()
    for _ in range(repeats):
        compute_blockage_timeline(study, ap)
    t2 = perf_counter()
    _entry("blockage_timeline", t1 - t0, t2 - t1)

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
    """Raise ``ValueError`` listing every problem in the sections ``doc``
    carries.

    A ``workloads`` section must give every end-to-end metric this
    checkout's ``BENCHMARK.json`` declares, with its ``unit``, ``better``
    and ``bound``.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("bench document must be a JSON object")
    problems: list[str] = []
    schema = doc.get("schema")
    if schema not in _SCHEMAS:
        problems.append(
            f"schema is {schema!r}, expected one of "
            + ", ".join(repr(s) for s in _SCHEMAS)
        )
    elif schema == BENCH_SCHEMA and not {"workloads", "kernels"} & set(doc):
        problems.append("a repro.bench/2 point carries workloads or kernels")
    if "workloads" in doc:
        declared = [spec["name"] for spec in load_benchmark()["end_to_end"]]
        problems += _workload_problems(doc["workloads"], declared)
    if "kernels" in doc:
        problems += _kernel_problems(doc["kernels"])
    if problems:
        raise ValueError("invalid bench document: " + "; ".join(problems))


def _workload_problems(workloads: Any, declared: list[str]) -> list[str]:
    if not isinstance(workloads, Mapping) or not workloads:
        return ["'workloads' must be a non-empty object"]
    problems = []
    for name, entry in workloads.items():
        for section, _ in _PASSES:
            where = f"workloads[{name}].{section}"
            run = entry.get(section) if isinstance(entry, Mapping) else None
            if not (
                isinstance(run, Mapping)
                and isinstance(run.get("metrics"), Mapping)
            ):
                problems.append(f"{where} must be an object with metrics")
                continue
            for key in ("attempted", "failed"):
                if not _is_count(run.get(key)):
                    problems.append(f"{where}.{key} must be a count")
            metrics = run["metrics"]
            for metric, cell in metrics.items():
                if not (isinstance(cell, Mapping)
                        and _is_num(cell.get("value"))):
                    problems.append(f"{where}.{metric} has no numeric value")
                elif section == "end_to_end" and not (
                    isinstance(cell.get("unit"), str)
                    and cell.get("better") in ("lower", "higher")
                    and _is_num(cell.get("bound")) and cell["bound"] >= 0
                ):
                    problems.append(
                        f"{where}.{metric} needs a unit, better "
                        "('lower'/'higher') and a non-negative bound"
                    )
            if section == "end_to_end":
                missing = [m for m in declared if m not in metrics]
                if missing:
                    problems.append(
                        f"{where} lacks declared metric(s) "
                        + ", ".join(missing)
                    )
    return problems


def _kernel_problems(kernels: Any) -> list[str]:
    if not isinstance(kernels, list):
        return ["'kernels' must be a list when present"]
    problems = []
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
    return problems


def build_parser() -> argparse.ArgumentParser:
    """The ``repro bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Run the BENCHMARK.json workloads (end-to-end and per-layer "
            "passes) and the kernel timings, and write a BENCH_<n>.json "
            "perf-trajectory point."
        ),
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory for the BENCH_<n>.json point (default: cwd)",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="time only the vectorized kernels against their scalar "
             "references (a kernels-only point)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="a previous BENCH_<n>.json; exit 1 on any bench regression "
             "against it (an end-to-end metric worse than the baseline's "
             "bound, more failed units, a kernel speedup below the "
             "baseline's floor)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro bench`` (returns a process exit status)."""
    from .diff import build_diff, format_regression

    args = build_parser().parse_args(argv)
    baseline = None
    if args.compare:
        # Fail on a bad baseline before spending the measurement on it.
        try:
            baseline = load_bench(args.compare)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot compare: {exc}") from None
    doc: dict[str, Any] = {"schema": BENCH_SCHEMA}
    try:
        if not args.kernels:
            benchmark = load_benchmark()
            doc["seed"] = PERFBENCH_SEED
            doc["run_seconds"] = benchmark["run_seconds"]
            doc["workloads"] = run_workloads(benchmark)
        doc["kernels"] = run_kernel_bench()
        path = write_bench(doc, args.out_dir)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot bench: {exc}") from None
    for name, entry in doc.get("workloads", {}).items():
        print(f"{name}: " + ", ".join(
            f"{metric} {cell['value']:.6g} {cell['unit']}"
            for metric, cell in entry["end_to_end"]["metrics"].items()
        ))
    for entry in doc["kernels"]:
        print(
            f"kernel {entry['name']}: scalar {entry['scalar_wall_s']:.3f}s, "
            f"vectorized {entry['vectorized_wall_s']:.3f}s -> "
            f"{entry['speedup']:.1f}x (floor {entry['min_speedup']:.1f}x)"
        )
    print(f"bench point written to {path}")
    if baseline is not None:
        diff = build_diff(bench_a=baseline, bench_b=doc)
        unpaired = diff["bench"]["unpaired_workloads"]
        if unpaired:
            print(f"not compared (one point only): {', '.join(unpaired)}")
        if diff["regressions"]:
            print(f"PERF REGRESSION vs {args.compare}:")
            for reg in diff["regressions"]:
                print(f"  {format_regression(reg)}")
            return 1
        print(f"no regression vs {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
