"""`repro bench --kernels`: schema, the speedup gate, and the committed point.

The kernel gate is a *ratio* gate — current speedup vs. the baseline's
``min_speedup`` floor — so these tests never assert absolute wall times,
and the committed ``BENCH_2.json`` check asserts the recorded speedups
(measured once, on the machine that produced the point) rather than
re-measuring.
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

_REPO_ROOT = Path(__file__).resolve().parents[2]


def _doc(kernels=()):
    return {
        "schema": BENCH_SCHEMA,
        "scale": "small",
        "workers": 1,
        "experiments": [],
        "total_wall_s": 0.0,
        "kernels": list(kernels),
    }


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
    # Experiment-only documents still compare cleanly.
    assert _regressions(_doc(), _doc()) == []


def test_committed_bench_points_validate_and_record_the_win():
    seed = json.loads(
        (_REPO_ROOT / "BENCH_1.json").read_text(encoding="utf-8")
    )
    point = json.loads(
        (_REPO_ROOT / "BENCH_2.json").read_text(encoding="utf-8")
    )
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
    assert doc["experiments"] == []
    assert [k["name"] for k in doc["kernels"]] == [
        "pairwise_similarity_1000", "occlusion_mask", "blockage_timeline",
        "beam_gains", "frustum_planes", "frustum_cull", "frame_plan",
    ]

    # The fresh point gates cleanly against the committed floors (the
    # ratio gate, so this holds on any machine with working BLAS); the
    # four kernels BENCH_2 lacks gate against their own floors.
    baseline = json.loads(
        (_REPO_ROOT / "BENCH_2.json").read_text(encoding="utf-8")
    )
    assert _regressions(doc, baseline) == []


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
