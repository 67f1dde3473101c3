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

    def _bench(wall, rss):
        return {
            "schema": "repro.bench/1", "scale": "small", "workers": 1,
            "total_wall_s": wall, "peak_rss_bytes": rss,
            "experiments": [
                {"name": "loss_sweep", "units": 4, "cached_units": 0,
                 "cache_hit_rate": 0.0, "wall_s": wall,
                 "units_per_s": 4 / wall, "phases": {}},
            ],
        }

    doc = build_diff(
        analyze, analyze,
        bench_a=_bench(1.0, 100_000_000),
        bench_b=_bench(1.5, 150_000_000),
        tolerance=0.2,
    )
    whats = {reg["what"] for reg in doc["regressions"]}
    assert "bench.total_wall_s" in whats
    assert "bench.peak_rss_bytes" in whats
    assert "bench[loss_sweep].wall_s" in whats


def _bench_point(wall, rss=100_000_000, names=("loss_sweep",), kernels=()):
    return {
        "schema": "repro.bench/1", "scale": "small", "workers": 1,
        "total_wall_s": wall * len(names), "peak_rss_bytes": rss,
        "experiments": [
            {"name": name, "units": 4, "cached_units": 0,
             "cache_hit_rate": 0.0, "wall_s": wall,
             "units_per_s": 4 / wall, "phases": {}}
            for name in names
        ],
        "kernels": [
            {"name": name, "scalar_wall_s": 1.0, "vectorized_wall_s": 0.5,
             "speedup": speedup, "min_speedup": 2.0}
            for name, speedup in kernels
        ],
    }


def test_bench_totals_gate_only_between_like_points():
    # A kernels-only point against a full point: the totals measured
    # different work, so only the kernel floors gate.
    full = _bench_point(1.0, kernels=[("k", 3.0)])
    kernels_only = _bench_point(1.0, names=(), rss=900_000_000,
                                kernels=[("k", 2.5)])
    doc = build_diff(bench_a=full, bench_b=kernels_only)
    assert "analyze" not in doc and "unpaired" not in doc
    assert doc["regressions"] == []
    slow = _bench_point(1.0, names=(), kernels=[("k", 1.5)])
    assert [r["what"] for r in build_diff(
        bench_a=full, bench_b=slow)["regressions"]] == ["bench.kernel[k].speedup"]
    # Like points: the totals gate too.
    fat = _bench_point(1.0, rss=200_000_000, kernels=[("k", 3.0)])
    assert [r["what"] for r in build_diff(
        bench_a=full, bench_b=fat)["regressions"]] == ["bench.peak_rss_bytes"]


def test_kernel_missing_from_the_baseline_gates_on_its_own_floor():
    baseline = _bench_point(1.0, names=(), kernels=[("k", 3.0)])
    # "new" is unpaired (min_speedup 2.0 recorded only in b).
    fast = _bench_point(1.0, names=(), kernels=[("k", 3.0), ("new", 2.5)])
    doc = build_diff(bench_a=baseline, bench_b=fast)
    assert doc["regressions"] == []
    slow = _bench_point(1.0, names=(), kernels=[("k", 3.0), ("new", 1.5)])
    assert build_diff(bench_a=baseline, bench_b=slow)["regressions"] == [
        {"what": "bench.kernel[new].speedup", "a": 2.0, "b": 1.5,
         "delta": -0.5},
    ]
    # A kernel only the baseline measured has no b speedup: nothing to gate.
    assert build_diff(bench_a=fast, bench_b=baseline)["regressions"] == []


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.01])
def test_tolerance_must_be_finite_and_non_negative(tolerance, tmp_path):
    a, b = _bench_point(1.0), _bench_point(1.05)
    with pytest.raises(ValueError, match="tolerance"):
        build_diff(bench_a=a, bench_b=b, tolerance=tolerance)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(
        _synthetic_analyze(late=0, lost=0, problem_airtime=0.1)
    ))
    with pytest.raises(SystemExit, match="tolerance"):
        obs_main(["diff", str(path), str(path), "--quiet",
                  "--tolerance", str(tolerance)])
    # The gate NaN used to switch off: 1.0 s -> 1.05 s at zero tolerance.
    assert build_diff(bench_a=a, bench_b=b)["regressions"]


def test_malformed_bench_fails_validation_not_keyerror(tmp_path):
    bad = _bench_point(1.0)
    del bad["experiments"][0]["name"]
    with pytest.raises(ValueError, match="missing key 'name'"):
        build_diff(bench_a=bad, bench_b=_bench_point(1.0))
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
