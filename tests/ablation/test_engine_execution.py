"""End-to-end study execution: bit-identity and caching.

Real (small-scale) session runs of the registered ``ablation_importance``
experiment, kept to 2-component matrices so the whole module stays a few
seconds.
"""

from __future__ import annotations

import pytest

from repro.ablation.engine import configure, generate_runs, write_report
from repro.runner import ResultCache, canonical_json, run_experiment

COMPONENTS = ("fec", "grouping")


def _run(workers: int = 1, cache: ResultCache | None = None):
    """The study's merged report and its per-unit run reports."""
    units = []
    report = run_experiment(
        "ablation_importance",
        {"components": COMPONENTS},
        scale="small",
        workers=workers,
        cache=cache,
        progress=lambda unit, completed, total: units.append(unit),
    )
    return report, units


@pytest.fixture(scope="module")
def executed():
    """One serial, uncached execution shared by the cheap assertions."""
    return _run()


def test_execute_produces_metrics_for_every_variant(executed):
    report, units = executed
    runs = {run["label"]: run for run in report["runs"]}
    assert set(runs) == {"baseline", "no-fec", "no-grouping"}
    scen = configure(components=COMPONENTS).scenario_spec()
    for run in runs.values():
        for metric in scen.metrics:
            assert metric.name in run["metrics"]
    assert sum(run["units"] for run in runs.values()) == len(units) == 3
    assert not any(unit.cached for unit in units)


def test_ablations_degrade_the_small_workload(executed):
    """Paper-level sanity: removing FEC or grouping hurts under loss."""
    report, _ = executed
    importance = report["importance"]
    assert importance["fec"]["degradation"]["qoe_score"] > 0
    assert importance["grouping"]["degradation"]["qoe_score"] > 0
    assert importance["fec"]["degradation"]["stall_time_s"] > 0
    ranking = report["ranking"]
    assert len(ranking) == 2 and ranking[0]["score"] >= ranking[1]["score"]


def test_serial_parallel_and_cache_hit_reports_are_byte_identical(
    executed, tmp_path
):
    serial_report, _ = executed
    serial = canonical_json(serial_report)

    cache = ResultCache(root=tmp_path / "cache")
    parallel_report, parallel_units = _run(workers=4, cache=cache)
    assert canonical_json(parallel_report) == serial
    assert not any(unit.cached for unit in parallel_units)

    rerun_report, rerun_units = _run(workers=1, cache=cache)
    assert sum(unit.cached for unit in rerun_units) == len(rerun_units) == 3
    assert canonical_json(rerun_report) == serial

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(parallel_report, a)
    write_report(rerun_report, b)
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_the_study():
    config = configure(components=COMPONENTS, scale="small")
    reseeded = configure(components=COMPONENTS, scale="small", seed=11)
    runs = generate_runs(reseeded)
    assert all(run.params["seed"] == 11 for run in runs)
    assert runs[0].specs[0] != generate_runs(config)[0].specs[0]
