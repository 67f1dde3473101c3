"""Run-to-run diffing: all-zero self-diffs, regression detection, gating."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main as trace_main, obs_main
from repro.obs.diff import (
    DIFF_SCHEMA,
    build_diff,
    format_diff,
    load_json_artifact,
)
from repro.runner.cli import main as run_main

from .bench_points import bench_point, workload


@pytest.fixture(scope="module")
def analyze_path(tmp_path_factory):
    """A real analyze artifact from a loss_sweep small trace."""
    root = tmp_path_factory.mktemp("diff")
    trace = root / "trace.jsonl"
    report = root / "analyze.json"
    assert (
        trace_main(
            ["loss_sweep", "--scale", "small", "--out", str(trace), "--quiet"]
        )
        == 0
    )
    assert (
        obs_main(["analyze", str(trace), "--json", str(report), "--quiet"])
        == 0
    )
    return report


def _walk_deltas(node):
    """Yield every {'a','b','delta'} cell in a diff document."""
    if isinstance(node, dict):
        if set(node) == {"a", "b", "delta"}:
            yield node
        else:
            for value in node.values():
                yield from _walk_deltas(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk_deltas(value)


def test_self_diff_is_all_zero_and_canonical(analyze_path, tmp_path):
    out = tmp_path / "diff.json"
    assert (
        obs_main(
            ["diff", str(analyze_path), str(analyze_path), "--json",
             str(out), "--quiet", "--fail-on-regression"]
        )
        == 0
    )
    raw = out.read_bytes()
    doc = json.loads(raw)
    assert doc["schema"] == DIFF_SCHEMA
    assert doc["identical"] is True
    assert doc["regressions"] == []
    cells = list(_walk_deltas(doc))
    assert cells, "a diff document must contain comparison cells"
    assert all(cell["delta"] == 0 for cell in cells)
    # Canonical JSON: sorted keys, tight separators, trailing newline.
    assert raw == (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def test_diff_artifacts_byte_identical_across_execution_modes(
    analyze_path, tmp_path
):
    # Serial, --parallel 4, and cache-hit runs must leave byte-identical
    # metrics artifacts — so a diff over any pairing is the same all-zero
    # document.
    cache = tmp_path / "cache"
    paths = {}
    for label, extra in (
        ("serial", ["--no-cache"]),
        ("parallel", ["--parallel", "4", "--cache-dir", str(cache)]),
        ("cachehit", ["--cache-dir", str(cache)]),
    ):
        out = tmp_path / f"metrics-{label}.json"
        assert (
            run_main(
                ["run", "loss_sweep", "--scale", "small", "--quiet",
                 "--metrics-out", str(out), *extra]
            )
            == 0
        )
        paths[label] = out
    blobs = {label: path.read_bytes() for label, path in paths.items()}
    assert blobs["serial"] == blobs["parallel"] == blobs["cachehit"]

    diffs = []
    for a, b in (("serial", "parallel"), ("parallel", "cachehit")):
        out = tmp_path / f"diff-{a}-{b}.json"
        assert (
            obs_main(
                ["diff", str(analyze_path), str(analyze_path),
                 "--metrics-a", str(paths[a]), "--metrics-b", str(paths[b]),
                 "--json", str(out), "--quiet"]
            )
            == 0
        )
        diffs.append(out.read_bytes())
    assert diffs[0] == diffs[1]
    assert json.loads(diffs[0])["identical"] is True


def _synthetic_analyze(late, lost, problem_airtime):
    seg = {
        "first_tx": {"seconds": problem_airtime, "share": 1.0},
        "arq_retx": {"seconds": 0.0, "share": 0.0},
    }
    entry = {
        "frames": late + lost,
        "airtime_s": problem_airtime,
        "segments": seg,
        "by_layer": {"net": problem_airtime},
    }
    return {
        "schema": "repro.obs.analyze/2",
        "num_events": 10,
        "units": ["u"],
        "frames": {
            "total": 10, "closed": 10, "incomplete": 0,
            "on_time": 10 - late - lost, "late": late, "lost": lost,
        },
        "blame": {"all": entry, "late": entry, "lost": entry,
                  "problem": entry},
        "by_shard": [
            {"room": "r0", "ap": "ap0", "frames": late + lost,
             "airtime_s": problem_airtime, "late": late, "lost": lost,
             "segments": seg, "by_layer": {"net": problem_airtime}},
        ],
        "worst_frames": [],
        "admission": [],
        "policies": {},
        "latency_hist": {"edges": [0.1], "counts": [10, 0],
                         "sum": problem_airtime, "count": 10},
    }


def test_synthetic_regressions_are_detected():
    a = _synthetic_analyze(late=1, lost=0, problem_airtime=0.5)
    b = _synthetic_analyze(late=3, lost=2, problem_airtime=0.9)
    doc = build_diff(a, b, tolerance=0.1)
    assert doc["identical"] is False
    whats = {reg["what"] for reg in doc["regressions"]}
    assert "frames.late" in whats
    assert "frames.lost" in whats
    assert "blame.problem.airtime_s" in whats
    assert "shard[r0/ap0].late" in whats
    late = next(r for r in doc["regressions"] if r["what"] == "frames.late")
    assert late == {"what": "frames.late", "a": 1, "b": 3, "delta": 2}
    text = format_diff(doc)
    assert "REGRESSIONS" in text


def test_improvements_are_not_regressions():
    a = _synthetic_analyze(late=3, lost=2, problem_airtime=0.9)
    b = _synthetic_analyze(late=1, lost=0, problem_airtime=0.5)
    doc = build_diff(a, b)
    assert doc["identical"] is False  # deltas exist...
    assert doc["regressions"] == []  # ...but all in the good direction


def test_tolerance_gates_continuous_regressions():
    a = _synthetic_analyze(late=1, lost=0, problem_airtime=1.0)
    b = _synthetic_analyze(late=1, lost=0, problem_airtime=1.04)
    assert not any(
        r["what"] == "blame.problem.airtime_s"
        for r in build_diff(a, b, tolerance=0.05)["regressions"]
    )
    assert any(
        r["what"] == "blame.problem.airtime_s"
        for r in build_diff(a, b, tolerance=0.01)["regressions"]
    )


def test_slo_transition_to_fail_is_a_regression():
    analyze = _synthetic_analyze(late=0, lost=0, problem_airtime=0.0)
    slo_a = {
        "schema": "repro.obs.slo/1", "ok": True,
        "results": [{"metric": "frame_loss_rate", "kind": "max",
                     "bound": 0.1, "value": 0.05, "ok": True}],
    }
    slo_b = {
        "schema": "repro.obs.slo/1", "ok": False,
        "results": [{"metric": "frame_loss_rate", "kind": "max",
                     "bound": 0.1, "value": 0.2, "ok": False}],
    }
    doc = build_diff(analyze, analyze, slo_a=slo_a, slo_b=slo_b)
    assert doc["slo"]["transitions"] == [
        {"metric": "frame_loss_rate", "from": "pass", "to": "fail"}
    ]
    assert any(r["what"] == "slo[frame_loss_rate]"
               for r in doc["regressions"])
    # The recovery direction is a transition but not a regression.
    recovered = build_diff(analyze, analyze, slo_a=slo_b, slo_b=slo_a)
    assert recovered["regressions"] == []
    assert recovered["slo"]["transitions"][0]["to"] == "pass"


def test_bench_wall_and_rss_regressions():
    analyze = _synthetic_analyze(late=0, lost=0, problem_airtime=0.0)
    doc = build_diff(
        analyze, analyze,
        bench_a=bench_point(workloads={"closed_loop": workload()}),
        bench_b=bench_point(workloads={"closed_loop": workload(
            wall_ref=90.0, peak_rss_mb=95.0, setup_s=0.31)}),
    )
    # Bounds come from the point: wall_ref 0.2, peak_rss_mb 0.05, setup_s
    # 0.25 (0.3 -> 0.31 is within it).  --tolerance plays no part.
    assert [reg["what"] for reg in doc["regressions"]] == [
        "bench.workload[closed_loop].peak_rss_mb",
        "bench.workload[closed_loop].wall_ref",
    ]
    row = doc["bench"]["workloads"]["closed_loop"]["end_to_end"]["metrics"][
        "wall_ref"]
    assert row == {"value": {"a": 60.0, "b": 90.0, "delta": 30.0},
                   "better": "lower", "bound": 0.2}
    # Per-layer metrics are deltas only: no bound, never a regression.
    per_layer = doc["bench"]["workloads"]["closed_loop"]["per_layer"]
    assert per_layer["metrics"]["sim.run.self_s"] == {
        "a": 1.5, "b": 1.5, "delta": 0.0}
    assert "wall_ref" in format_diff(doc)


def _bench_point(kernels=()):
    return bench_point(kernels=list(kernels))


def test_bench_workloads_gate_only_between_like_points():
    # A kernels-only point against a full point: the workloads measured
    # nothing comparable, so only the kernel floors gate.
    full = bench_point(workloads={"venue": workload()}, kernels=[("k", 3.0)])
    kernels_only = _bench_point([("k", 2.5)])
    doc = build_diff(bench_a=full, bench_b=kernels_only)
    assert "analyze" not in doc and "unpaired" not in doc
    assert doc["bench"]["unpaired_workloads"] == ["venue"]
    assert doc["bench"]["workloads"] == {}
    assert doc["regressions"] == [] and doc["identical"] is False
    slow = _bench_point([("k", 1.5)])
    assert [r["what"] for r in build_diff(
        bench_a=full, bench_b=slow)["regressions"]] == ["bench.kernel[k].speedup"]
    # A workload only one side measured is listed, the rest still gate.
    more = bench_point(workloads={"venue": workload(sim_fps=1.0),
                                  "transport": workload()})
    doc = build_diff(bench_a=full, bench_b=more)
    assert doc["bench"]["unpaired_workloads"] == ["transport"]
    assert [r["what"] for r in doc["regressions"]] == [
        "bench.workload[venue].sim_fps"
    ]


def test_kernel_missing_from_the_baseline_gates_on_its_own_floor():
    baseline = _bench_point([("k", 3.0)])
    # "new" is unpaired (min_speedup 2.0 recorded only in b).
    fast = _bench_point([("k", 3.0), ("new", 2.5)])
    doc = build_diff(bench_a=baseline, bench_b=fast)
    assert doc["regressions"] == []
    slow = _bench_point([("k", 3.0), ("new", 1.5)])
    assert build_diff(bench_a=baseline, bench_b=slow)["regressions"] == [
        {"what": "bench.kernel[new].speedup", "a": 2.0, "b": 1.5,
         "delta": -0.5},
    ]
    # A kernel only the baseline measured has no b speedup: nothing to gate.
    assert build_diff(bench_a=fast, bench_b=baseline)["regressions"] == []


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.01])
def test_tolerance_must_be_finite_and_non_negative(tolerance, tmp_path):
    a = _synthetic_analyze(late=0, lost=0, problem_airtime=0.1)
    b = _synthetic_analyze(late=0, lost=0, problem_airtime=0.105)
    with pytest.raises(ValueError, match="tolerance"):
        build_diff(a, b, tolerance=tolerance)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a))
    with pytest.raises(SystemExit, match="tolerance"):
        obs_main(["diff", str(path), str(path), "--quiet",
                  "--tolerance", str(tolerance)])
    # The gate NaN used to switch off: 0.1 s -> 0.105 s at zero tolerance.
    assert build_diff(a, b)["regressions"]


def test_malformed_bench_fails_validation_not_keyerror(tmp_path):
    bad = _bench_point([("k", 3.0)])
    del bad["kernels"][0]["name"]
    with pytest.raises(ValueError, match="missing key 'name'"):
        build_diff(bench_a=bad, bench_b=_bench_point([("k", 3.0)]))
    analyze = tmp_path / "analyze.json"
    analyze.write_text(json.dumps(
        _synthetic_analyze(late=0, lost=0, problem_airtime=0.1)
    ))
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as err:
        obs_main(["diff", str(analyze), str(analyze), "--quiet",
                  "--bench-a", str(bench), "--bench-b", str(bench)])
    assert str(bench) in str(err.value)
    assert "missing key 'name'" in str(err.value)


def test_unpaired_artifact_is_flagged_not_dropped():
    analyze = _synthetic_analyze(late=0, lost=0, problem_airtime=0.0)
    slo = {"schema": "repro.obs.slo/1", "ok": True, "results": []}
    doc = build_diff(analyze, analyze, slo_a=slo)
    assert doc["unpaired"] == ["slo"]
    assert doc["identical"] is False
    assert "slo" not in doc


def test_fail_on_regression_exit_code(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(
        _synthetic_analyze(late=0, lost=0, problem_airtime=0.1)
    ))
    b.write_text(json.dumps(
        _synthetic_analyze(late=5, lost=0, problem_airtime=0.1)
    ))
    assert obs_main(["diff", str(a), str(b), "--quiet"]) == 0
    assert (
        obs_main(
            ["diff", str(a), str(b), "--quiet", "--fail-on-regression"]
        )
        == 1
    )


def test_load_json_artifact_validates_schema_family(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"schema": "repro.bench/1"}')
    assert load_json_artifact(path, "repro.bench")["schema"] == "repro.bench/1"
    with pytest.raises(ValueError, match="is not 'repro.obs.analyze'"):
        load_json_artifact(path, "repro.obs.analyze")
    path.write_text("not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_json_artifact(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="expected a JSON object"):
        load_json_artifact(path)
