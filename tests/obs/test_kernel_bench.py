"""`repro bench --kernels`: schema, the speedup gate, and the committed points.

The kernel gate is a *ratio* gate — current speedup vs. the baseline's
``min_speedup`` floor — so these tests never assert absolute wall times,
and the committed-point check asserts what ``BENCH_1.json`` to
``BENCH_3.json`` recorded (measured once, on the machine that produced
each point) rather than re-measuring.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    KERNEL_MIN_SPEEDUP,
    _blas_thread_controls,
    _kernel_entry,
    _single_threaded_blas,
    main as bench_main,
    run_kernel_bench,
    validate_bench,
)
from repro.obs.diff import build_diff

from .bench_points import BENCHMARK

_REPO_ROOT = Path(__file__).resolve().parents[2]


def _doc(kernels=()):
    return {"schema": BENCH_SCHEMA, "kernels": list(kernels)}


def _committed(n):
    return json.loads(
        (_REPO_ROOT / f"BENCH_{n}.json").read_text(encoding="utf-8")
    )


def _regressions(point, baseline):
    """What ``repro bench --compare`` gates on: the diff's regressions."""
    return build_diff(bench_a=baseline, bench_b=point)["regressions"]


def _kernel(name, speedup, min_speedup=5.0):
    return {
        "name": name,
        "scalar_wall_s": 1.0,
        "vectorized_wall_s": 1.0 / speedup,
        "speedup": speedup,
        "min_speedup": min_speedup,
    }


@pytest.fixture(scope="module")
def kernel_entries():
    # Tiny population: this fixture checks shape, not the 1000-user floor.
    return run_kernel_bench(num_users=48)


def test_run_kernel_bench_covers_every_gated_kernel(kernel_entries):
    names = [entry["name"] for entry in kernel_entries]
    assert names == [
        "pairwise_similarity_48", "occlusion_mask", "blockage_timeline",
        "beam_gains", "frustum_planes", "frustum_cull", "frame_plan",
    ]
    for entry in kernel_entries:
        assert entry["scalar_wall_s"] > 0
        assert entry["vectorized_wall_s"] > 0
        assert entry["speedup"] > 0
        assert entry["min_speedup"] > 0
    # The shrunk pairwise population keeps the 1,000-user floor.
    assert kernel_entries[0]["min_speedup"] == (
        KERNEL_MIN_SPEEDUP["pairwise_similarity_1000"]
    )
    for entry in kernel_entries[1:]:
        assert entry["min_speedup"] == KERNEL_MIN_SPEEDUP[entry["name"]]
    doc = _doc(kernel_entries)
    validate_bench(doc)  # must not raise


def test_validate_bench_reports_kernel_problems():
    bad = _doc([{"name": "x", "scalar_wall_s": -1.0, "min_speedup": 0.0}])
    with pytest.raises(ValueError) as err:
        validate_bench(bad)
    message = str(err.value)
    assert "kernels[0] missing key 'speedup'" in message
    assert "scalar_wall_s must be non-negative" in message
    assert "min_speedup must be positive" in message
    with pytest.raises(ValueError, match="'kernels' must be a list"):
        validate_bench({**_doc(), "kernels": "nope"})


def test_compare_gates_speedup_against_the_baseline_floor():
    baseline = _doc([_kernel("pairwise_similarity_1000", 9.0, 5.0)])
    # Slower box, but still past the floor: no regression.
    assert _regressions(
        _doc([_kernel("pairwise_similarity_1000", 5.2, 5.0)]), baseline
    ) == []
    # Below the *baseline's* floor: regression, whatever current's floor says.
    bad = _regressions(
        _doc([_kernel("pairwise_similarity_1000", 3.0, 1.0)]), baseline
    )
    assert bad == [
        {"what": "bench.kernel[pairwise_similarity_1000].speedup",
         "a": 5.0, "b": 3.0, "delta": -2.0},
    ]
    # A kernel absent from the baseline is held to its own recorded floor.
    assert _regressions(_doc([_kernel("novel", 6.0)]), baseline) == []
    assert _regressions(_doc([_kernel("novel", 1.0)]), baseline) == [
        {"what": "bench.kernel[novel].speedup",
         "a": 5.0, "b": 1.0, "delta": -4.0},
    ]
    # Points without kernel rows compare cleanly.
    assert _regressions(_doc(), _doc()) == []


def test_committed_bench_points_validate_and_record_the_win():
    seed, point = _committed(1), _committed(2)
    validate_bench(seed)
    validate_bench(point)
    assert "kernels" not in seed  # the pre-vectorization baseline
    kernels = {entry["name"]: entry for entry in point["kernels"]}
    # Floors added after BENCH_2 gate against their own recorded value
    # (test_compare_gates_speedup_against_the_baseline_floor).
    assert set(KERNEL_MIN_SPEEDUP) - set(kernels) == {
        "blockage_timeline", "frustum_planes", "frustum_cull", "frame_plan",
    }
    for name, entry in kernels.items():
        assert entry["min_speedup"] == KERNEL_MIN_SPEEDUP[name]
        assert entry["speedup"] >= entry["min_speedup"], (
            f"{name} was committed below its own floor"
        )
    # The acceptance point: >=5x on the 1,000-user pairwise microbench.
    assert kernels["pairwise_similarity_1000"]["speedup"] >= 5.0


def test_committed_bench_3_records_every_workload_and_kernel():
    point = _committed(3)
    validate_bench(point)
    assert point["schema"] == BENCH_SCHEMA
    assert list(point["workloads"]) == sorted(
        w["name"] for w in BENCHMARK["workloads"]
    )
    declared = {spec["name"]: spec for spec in BENCHMARK["end_to_end"]}
    per_layer = {spec["name"] for spec in BENCHMARK["per_layer"]}
    for name, entry in point["workloads"].items():
        metrics = entry["end_to_end"]["metrics"]
        assert set(metrics) == set(declared), name
        for metric, spec in declared.items():
            for key in ("unit", "better", "bound"):
                assert metrics[metric][key] == spec[key], (name, metric, key)
        assert set(entry["per_layer"]["metrics"]) == per_layer, name
        for section in ("end_to_end", "per_layer"):
            assert entry[section]["attempted"] > 0, (name, section)
            assert entry[section]["failed"] == 0, (name, section)
        assert metrics["ok_frac"]["value"] == 1.0, name
    kernels = {entry["name"]: entry for entry in point["kernels"]}
    assert set(kernels) == set(KERNEL_MIN_SPEEDUP)
    for name, entry in kernels.items():
        assert entry["min_speedup"] == KERNEL_MIN_SPEEDUP[name]
        assert entry["speedup"] >= entry["min_speedup"], (
            f"{name} was committed below its own floor"
        )
    # Against itself: identical, nothing to gate.
    diff = build_diff(bench_a=point, bench_b=point)
    assert diff["identical"] and diff["regressions"] == []


def test_main_kernels_only_writes_a_gateable_point(tmp_path, capsys):
    out_dir = tmp_path / "points"
    code = bench_main(["--kernels", "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel pairwise_similarity_1000" in out
    doc = json.loads(
        (out_dir / "BENCH_1.json").read_text(encoding="utf-8")
    )
    validate_bench(doc)
    assert doc["schema"] == BENCH_SCHEMA and "workloads" not in doc
    assert [k["name"] for k in doc["kernels"]] == [
        "pairwise_similarity_1000", "occlusion_mask", "blockage_timeline",
        "beam_gains", "frustum_planes", "frustum_cull", "frame_plan",
    ]

    # The fresh point gates cleanly against the committed floors (the
    # ratio gate, so this holds on any machine with working BLAS): the
    # four kernels BENCH_2 lacks gate against their own floors, and
    # BENCH_3's workloads, which this point did not measure, are listed
    # as unpaired rather than gated.
    assert _regressions(doc, _committed(2)) == []
    diff = build_diff(bench_a=_committed(3), bench_b=doc)
    assert diff["regressions"] == []
    assert diff["bench"]["unpaired_workloads"] == sorted(
        w["name"] for w in BENCHMARK["workloads"]
    )


def test_v1_baseline_compares_kernels_and_lists_workloads_unpaired():
    baseline = _committed(2)  # repro.bench/1: experiments and kernels
    point = _committed(3)
    diff = build_diff(bench_a=baseline, bench_b=point)
    assert diff["regressions"] == []
    assert diff["bench"]["unpaired_workloads"] == list(point["workloads"])
    speedups = {row["name"]: row["speedup"] for row in diff["bench"]["kernels"]}
    assert speedups["beam_gains"]["a"] == next(
        row["speedup"] for row in baseline["kernels"]
        if row["name"] == "beam_gains"
    )
    assert speedups["frame_plan"]["a"] is None  # BENCH_2 never timed it
    # A kernel below the /1 baseline's floor still regresses.
    slow = {**point, "kernels": [
        {**row, "speedup": 1.0} if row["name"] == "beam_gains" else row
        for row in point["kernels"]
    ]}
    assert [r["what"] for r in build_diff(
        bench_a=baseline, bench_b=slow)["regressions"]] == [
        "bench.kernel[beam_gains].speedup"
    ]


def test_kernel_without_a_floor_is_an_error():
    with pytest.raises(ValueError, match="'novel' has no min_speedup floor"):
        _kernel_entry("novel", 1.0, 0.5)
    entry = _kernel_entry("pairwise_similarity_48", 1.0, 0.5,
                          floor_name="pairwise_similarity_1000")
    assert entry["min_speedup"] == KERNEL_MIN_SPEEDUP["pairwise_similarity_1000"]
    assert entry["speedup"] == 2.0
    with pytest.raises(ValueError, match="no min_speedup floor"):
        _kernel_entry("pairwise_similarity_48", 1.0, 0.5)


def test_kernel_rows_hold_openblas_to_one_thread():
    """The rows time kernels, not BLAS thread hand-offs (``beam_gains``
    timed ~8 ms waits per matvec on a loaded two-core host)."""
    controls = _blas_thread_controls()
    if not controls:
        pytest.skip("numpy is not linked against OpenBLAS here")
    before = [get() for get, _ in controls]
    with _single_threaded_blas():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before
