"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import layers
import run
import units
from repro.obs import metrics as obs_metrics

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="module", params=run.WORKLOADS)
def passes(request, tmp_path_factory):
    """One plain pass and two traced passes over a workload at the pinned seed."""
    workload = request.param
    seed = units.PINNED_SEED
    units.setup(workload)
    unit_list = units.build_units(workload, seed, tmp_path_factory.mktemp(workload))
    executor = child.Executor(units, workload, seed)
    plain = [executor.run(unit)[2] for unit in unit_list]
    traced = [
        child.traced_pass(executor, unit_list, obs_metrics.REGISTRY)
        for _ in range(2)
    ]
    obs_metrics.REGISTRY.disable()
    return {"workload": workload, "plain": plain, "traced": traced, "executor": executor}


def test_units_pass_their_checks(passes):
    assert passes["executor"].problems == []
    assert passes["executor"].failed == 0


def test_wrapping_leaves_outputs_bit_identical(passes):
    plain = [json.dumps(o, sort_keys=True) for o in passes["plain"]]
    for traced in passes["traced"]:
        assert [json.dumps(o, sort_keys=True) for o in traced["outputs"]] == plain


def test_traced_counts_repeat_exactly(passes):
    first, second = passes["traced"]
    assert first["tracer"].calls == second["tracer"].calls
    assert first["counts"] == second["counts"]
    assert sum(first["tracer"].calls.values()) > 0


def test_self_times_and_other_sum_to_traced_wall(passes):
    traced = passes["traced"][0]
    timed = {"walls": [1.0], "cpus": [1.0], "refs": [1.0], "pass_wall": 1.0}
    setup = {"import_s": 0.0, "fixtures_s": 0.0}
    metrics = child.per_layer_metrics(passes["workload"], setup, timed, traced, 0.0)
    self_total = sum(
        metrics[f"{name}.self_s"]["value"] for name in layers.SPAN_NAMES
    )
    assert self_total + metrics["other.self_s"]["value"] == pytest.approx(
        traced["wall"], rel=1e-9
    )
    assert metrics["bench.missing_call_sites"]["value"] == 0
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()
    }


def test_every_original_is_restored():
    before, missing = layers.find_call_sites()
    assert missing == []
    with pytest.raises(RuntimeError):
        with layers.traced(layers.Tracer()):
            for owner, leaf, original, _ in before:
                assert getattr(owner, leaf) is not original
            raise RuntimeError("a unit failed")
    after, _ = layers.find_call_sites()
    assert [(o, leaf, orig) for o, leaf, orig, _ in after] == [
        (o, leaf, orig) for o, leaf, orig, _ in before
    ]


def test_span_generator_keeps_return_value_and_spans():
    tracer = layers.Tracer()

    def steps():
        got = yield 1
        yield got + 1
        return "done"

    wrapped = tracer.wrap("gen", steps)

    def driver():
        result = yield from wrapped()
        return result

    gen = driver()
    assert next(gen) == 1
    assert gen.send(5) == 6
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert tracer.calls["gen"] == 1
    assert len(tracer.spans) == 3


def test_reference_imports_nothing_from_repro():
    code = (
        "import sys; import refloop; refloop.python_work(); refloop.array_work(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(BENCH_DIR)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_diff_uses_golden_tolerances():
    assert units.diff({"a": [1.0, "x"]}, {"a": [1.0 + 1e-9, "x"]}) == []
    assert units.diff({"a": 1.0}, {"a": 1.0 + 1e-4}) != []
    assert units.diff({"a": 1}, {"a": 1, "b": 2}) != []
    assert units.diff([True], [1]) != []


def test_end_to_end_names_match_benchmark_json():
    main = {
        "wall_ref": 1.0,
        "peak_rss_mb": 1.0,
        "sim_fps": 1.0,
        "attempted": 2,
        "failed": 0,
    }
    metrics = run.end_to_end(main, [{"setup_s": 1.0, "ref_s": 1.0}])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()
    }
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    out = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", "transport",
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
