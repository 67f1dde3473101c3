"""`repro bench`: the workload runs, schema, numbering and the gate.

The workload runs are exercised with a ``BENCHMARK.json``-shaped declaration
whose ``command`` is a small fake script, so no test here runs the real
benchmark.
"""

from __future__ import annotations

import json

import pytest

import repro.obs.bench as bench_mod
from repro.obs.bench import (
    BENCH_SCHEMA,
    PERFBENCH_SEED,
    _kernel_entry,
    load_benchmark,
    main as bench_main,
    next_bench_path,
    run_workloads,
    validate_bench,
    write_bench,
)
from repro.obs.diff import build_diff

from .bench_points import BENCHMARK, bench_point, end_to_end_metrics, workload

# A stand-in for perfbench/run.py.  MODE picks its behaviour; every call
# appends its arguments to calls.jsonl in the working directory.
_FAKE = """\
import json, sys
MODE = {mode!r}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("calls.jsonl", "a") as calls:
    calls.write(json.dumps(args) + "\\n")
if MODE == "exit":
    sys.exit(3)
print("a report line perfbench prints first")
if MODE == "garbage":
    print("not json")
    sys.exit(0)
if args["--trace"] == "0":
    metrics = {metrics!r}
    if MODE == "nometric":
        del metrics["sim_fps"], metrics["ok_frac"]
else:
    metrics = {{"sim.run.calls": {{"value": 24, "unit": "count"}}}}
result = {{"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}}
if MODE == "extra":
    result["extra"] = 1
if MODE == "uncounted":
    result["attempted"] = -1
print(json.dumps(result))
"""


def _checkout(root, mode="ok", workloads=("alpha", "beta")):
    """A checkout at ``root`` whose perfbench/run.py is the fake script;
    returns its BENCHMARK.json declaration.  Tests point ``REPO_ROOT``
    at it."""
    metrics = {
        name: {"value": cell["value"], "unit": cell["unit"]}
        for name, cell in end_to_end_metrics().items()
    }
    (root / "perfbench").mkdir(parents=True, exist_ok=True)
    (root / "perfbench" / "run.py").write_text(
        _FAKE.format(mode=mode, metrics=metrics), encoding="utf-8"
    )
    benchmark = {
        **BENCHMARK,
        "command": ["python3", "perfbench/run.py"],
        "run_seconds": 2,
        "workloads": [{"name": name} for name in workloads],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark),
                                         encoding="utf-8")
    return benchmark


def _calls(root):
    lines = (root / "calls.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def test_run_workloads_records_both_passes(tmp_path, monkeypatch, capsys):
    benchmark = _checkout(tmp_path)
    monkeypatch.setattr(bench_mod, "REPO_ROOT", tmp_path)
    assert load_benchmark() == benchmark
    section = run_workloads(benchmark)
    assert list(section) == ["alpha", "beta"]
    for entry in section.values():
        e2e = entry["end_to_end"]
        assert e2e["attempted"] == 4 and e2e["failed"] == 0
        # Each end-to-end metric carries the declared unit, better, bound.
        assert e2e["metrics"] == end_to_end_metrics()
        assert entry["per_layer"]["metrics"] == {
            "sim.run.calls": {"value": 24, "unit": "count"}
        }
    # Two passes per workload, at the pinned seed, for run_seconds.
    assert [(c["--workload"], c["--trace"]) for c in _calls(tmp_path)] == [
        ("alpha", "0"), ("alpha", "1"), ("beta", "0"), ("beta", "1"),
    ]
    assert {c["--seed"] for c in _calls(tmp_path)} == {str(PERFBENCH_SEED)}
    assert {c["--seconds"] for c in _calls(tmp_path)} == {"2"}
    validate_bench({"schema": BENCH_SCHEMA, "workloads": section})
    assert "workload 'beta' (--trace 1): 4 unit(s), 0 failed" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "mode, message",
    [
        ("exit", "exited with status 3"),
        ("garbage", "last output line is not a"),
        ("extra", "last output line is not a"),
        ("uncounted", "last output line is not a"),
        ("nometric", "result lacks sim_fps, ok_frac"),
    ],
)
def test_a_bad_run_fails_naming_the_workload(tmp_path, monkeypatch, mode,
                                            message):
    benchmark = _checkout(tmp_path, mode=mode, workloads=("alpha",))
    monkeypatch.setattr(bench_mod, "REPO_ROOT", tmp_path)
    with pytest.raises(ValueError) as err:
        run_workloads(benchmark)
    assert str(err.value).startswith("workload 'alpha' (--trace 0): ")
    assert message in str(err.value)


@pytest.mark.parametrize("missing", ["BENCHMARK.json", "perfbench/run.py"])
def test_main_fails_cleanly_without_a_benchmark(tmp_path, monkeypatch,
                                                missing):
    _checkout(tmp_path)
    (tmp_path / missing).unlink()
    monkeypatch.setattr(bench_mod, "REPO_ROOT", tmp_path)
    out_dir = tmp_path / "points"
    with pytest.raises(SystemExit) as err:
        bench_main(["--out-dir", str(out_dir)])
    message = str(err.value)
    assert str(tmp_path / missing) in message and "\n" not in message
    assert not out_dir.exists()


@pytest.mark.parametrize("mode", ["exit", "garbage", "nometric"])
def test_main_writes_no_point_for_a_bad_run(tmp_path, monkeypatch, mode):
    _checkout(tmp_path, mode=mode)
    monkeypatch.setattr(bench_mod, "REPO_ROOT", tmp_path)
    out_dir = tmp_path / "points"
    with pytest.raises(SystemExit) as err:
        bench_main(["--out-dir", str(out_dir)])
    message = str(err.value)
    assert message.startswith("cannot bench: workload 'alpha'")
    assert "\n" not in message
    assert not out_dir.exists()


def test_load_benchmark_reads_the_checkout():
    benchmark = load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == [
        "closed_loop", "venue", "transport", "obs_pipeline",
    ]
    assert benchmark["command"][-1] == "perfbench/run.py"


def test_bench_points_number_monotonically(tmp_path):
    doc = bench_point(kernels=[("k", 3.0)])
    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    p1 = write_bench(doc, tmp_path)
    assert p1.name == "BENCH_1.json"
    p2 = write_bench(doc, tmp_path)
    assert p2.name == "BENCH_2.json"
    # Gaps don't confuse the numbering: next is max+1, not count+1.
    p1.unlink()
    assert next_bench_path(tmp_path).name == "BENCH_3.json"
    validate_bench(json.loads(p2.read_text(encoding="utf-8")))


def test_validate_bench_lists_every_problem():
    with pytest.raises(ValueError, match="expected one of 'repro.bench/1'"):
        validate_bench({"schema": "wrong/9", "kernels": []})
    with pytest.raises(ValueError, match="carries workloads or kernels"):
        validate_bench({"schema": BENCH_SCHEMA})
    lacking = workload()
    metrics = lacking["end_to_end"]["metrics"]
    del metrics["sim_fps"], metrics["ok_frac"]
    metrics["wall_ref"]["bound"] = -0.2
    lacking["per_layer"]["failed"] = -1
    lacking["per_layer"]["metrics"]["sim.run.calls"] = {"unit": "count"}
    with pytest.raises(ValueError) as err:
        validate_bench(bench_point(workloads={"alpha": lacking}))
    message = str(err.value)
    assert (
        "workloads[alpha].end_to_end lacks declared metric(s) "
        "sim_fps, ok_frac" in message
    )
    assert "workloads[alpha].end_to_end.wall_ref needs a unit" in message
    assert "workloads[alpha].per_layer.failed must be a count" in message
    assert "workloads[alpha].per_layer.sim.run.calls has no numeric" in message
    with pytest.raises(ValueError, match="must be a non-empty object"):
        validate_bench(bench_point(workloads={}))


def _regressions(point, baseline):
    """What ``repro bench --compare`` gates on: the diff's regressions."""
    return build_diff(bench_a=baseline, bench_b=point)["regressions"]


def test_compare_bench_flags_only_regressions():
    baseline = bench_point(workloads={"alpha": workload(), "beta": workload()})
    # wall_ref's bound is 0.2: 60 -> 71 is within it, 60 -> 73 is not.
    within = bench_point(
        workloads={"alpha": workload(wall_ref=71.0), "beta": workload()}
    )
    assert _regressions(within, baseline) == []
    slower = bench_point(
        workloads={"alpha": workload(wall_ref=73.0), "beta": workload()}
    )
    assert _regressions(slower, baseline) == [
        {"what": "bench.workload[alpha].wall_ref", "a": 60.0, "b": 73.0,
         "delta": 13.0},
    ]
    # sim_fps is better higher: a drop past its 0.2 bound regresses.
    fewer_fps = bench_point(
        workloads={"alpha": workload(), "beta": workload(sim_fps=20.0)}
    )
    assert [r["what"] for r in _regressions(fewer_fps, baseline)] == [
        "bench.workload[beta].sim_fps"
    ]
    assert _regressions(baseline, fewer_fps) == []
    # Any failed unit more than the baseline is a regression.
    failing = bench_point(
        workloads={"alpha": workload(failed=1, ok_frac=0.995),
                   "beta": workload()}
    )
    assert [r["what"] for r in _regressions(failing, baseline)] == [
        "bench.workload[alpha].end_to_end.failed"
    ]


def test_compare_reads_the_bound_from_the_baseline():
    tight = bench_point(workloads={"alpha": workload()})
    tight["workloads"]["alpha"]["end_to_end"]["metrics"]["wall_ref"][
        "bound"] = 0.01
    point = bench_point(workloads={"alpha": workload(wall_ref=61.0)})
    assert [r["what"] for r in _regressions(point, tight)] == [
        "bench.workload[alpha].wall_ref"
    ]
    # The point's own (looser) bound does not matter.
    assert _regressions(tight, point) == []


def _fake_kernels():
    return [_kernel_entry("frame_plan", 1.0, 0.1)]


def test_main_writes_a_point_and_gates_on_compare(tmp_path, monkeypatch,
                                                  capsys):
    _checkout(tmp_path)
    monkeypatch.setattr(bench_mod, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(bench_mod, "run_kernel_bench", _fake_kernels)
    out_dir = tmp_path / "points"
    assert bench_main(["--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "bench point written to" in out and "BENCH_1.json" in out
    assert "alpha: wall_ref 60 ratio" in out
    point = out_dir / "BENCH_1.json"
    doc = json.loads(point.read_text(encoding="utf-8"))
    validate_bench(doc)
    assert doc["schema"] == BENCH_SCHEMA and doc["seed"] == PERFBENCH_SEED
    assert sorted(doc["workloads"]) == ["alpha", "beta"]
    assert [k["name"] for k in doc["kernels"]] == ["frame_plan"]

    # The same measurement against its own point: exit 0.
    assert bench_main(["--out-dir", str(out_dir),
                       "--compare", str(point)]) == 0
    assert "no regression" in capsys.readouterr().out

    # A baseline whose wall_ref is far lower: the gate exits 1.
    fast = json.loads(point.read_text(encoding="utf-8"))
    fast["workloads"]["beta"]["end_to_end"]["metrics"]["wall_ref"][
        "value"] = 1.0
    baseline = tmp_path / "fast_baseline.json"
    baseline.write_text(json.dumps(fast), encoding="utf-8")
    assert bench_main(["--out-dir", str(out_dir),
                       "--compare", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "PERF REGRESSION" in out
    assert "bench.workload[beta].wall_ref: 1 -> 60" in out
    assert (out_dir / "BENCH_3.json").exists()

    # --kernels alone measures no workload: they are listed, not gated.
    assert bench_main(["--kernels", "--out-dir", str(out_dir),
                       "--compare", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "not compared (one point only): alpha, beta" in out
    kernels_only = json.loads(
        (out_dir / "BENCH_4.json").read_text(encoding="utf-8")
    )
    assert "workloads" not in kernels_only


def test_main_rejects_malformed_baseline_before_measuring(
    tmp_path, monkeypatch
):
    def _never(*args, **kwargs):
        raise AssertionError("measured against an unusable baseline")

    monkeypatch.setattr(bench_mod, "run_workloads", _never)
    monkeypatch.setattr(bench_mod, "run_kernel_bench", _never)
    lacking = workload()
    del lacking["end_to_end"]["metrics"]["wall_ref"]
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(bench_point(workloads={"alpha": lacking})),
        encoding="utf-8",
    )
    out_dir = tmp_path / "points"
    for argv in ([], ["--kernels"]):
        with pytest.raises(SystemExit) as err:
            bench_main([*argv, "--out-dir", str(out_dir),
                        "--compare", str(baseline)])
        message = str(err.value)
        assert str(baseline) in message and "\n" not in message
        assert "lacks declared metric(s) wall_ref" in message
    assert not out_dir.exists()


def test_main_rejects_unknown_experiment(tmp_path, capsys):
    # bench no longer takes experiment names: naming one is a usage
    # error, before anything is measured or written.
    out_dir = tmp_path / "points"
    with pytest.raises(SystemExit) as err:
        bench_main(["loss_sweep", "--out-dir", str(out_dir)])
    assert err.value.code == 2
    assert "unrecognized arguments: loss_sweep" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_help_lists_three_options(capsys):
    with pytest.raises(SystemExit) as err:
        bench_main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    options = sorted(
        {word.rstrip(",") for word in out.split() if word.startswith("--")}
    )
    assert options == ["--compare", "--help", "--kernels", "--out-dir"]

