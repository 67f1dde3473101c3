"""`repro bench`: schema, trajectory numbering, and regression gating."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    main as bench_main,
    next_bench_path,
    run_bench,
    validate_bench,
    write_bench,
)
from repro.obs.diff import build_diff


def _doc(**experiments):
    """A minimal valid bench document with the given name->wall_s entries."""
    return {
        "schema": BENCH_SCHEMA,
        "scale": "small",
        "workers": 1,
        "experiments": [
            {
                "name": name,
                "units": 4,
                "cached_units": 0,
                "cache_hit_rate": 0.0,
                "wall_s": wall_s,
                "units_per_s": 4 / wall_s if wall_s else 0.0,
                "phases": [],
            }
            for name, wall_s in experiments.items()
        ],
        "total_wall_s": sum(experiments.values()),
    }


@pytest.fixture(scope="module")
def bench_doc(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("bench-cache")
    return run_bench(
        ["loss_sweep"], scale="small", workers=1, cache_dir=str(cache_dir)
    )


def test_run_bench_produces_a_valid_schema_document(bench_doc):
    validate_bench(bench_doc)  # must not raise
    assert bench_doc["schema"] == BENCH_SCHEMA
    assert bench_doc["scale"] == "small" and bench_doc["workers"] == 1
    (entry,) = bench_doc["experiments"]
    assert entry["name"] == "loss_sweep"
    assert entry["units"] > 0 and entry["wall_s"] > 0
    assert entry["units_per_s"] == pytest.approx(
        entry["units"] / entry["wall_s"], rel=1e-3
    )
    assert 0.0 <= entry["cache_hit_rate"] <= 1.0
    assert set(entry["phases"]) == {"plan", "execute", "merge"}
    for cell in entry["phases"].values():
        assert cell["count"] == 1 and cell["wall_s"] >= 0.0
    # No wall-clock timestamp anywhere: the index n is the ordering.
    assert "timestamp" not in bench_doc and "time" not in bench_doc
    assert bench_doc.get("peak_rss_bytes", 1) > 0


def test_second_run_hits_the_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    first = run_bench(["loss_sweep"], scale="small", cache_dir=str(cache_dir))
    second = run_bench(["loss_sweep"], scale="small", cache_dir=str(cache_dir))
    assert first["experiments"][0]["cache_hit_rate"] == 0.0
    assert second["experiments"][0]["cache_hit_rate"] == 1.0


def test_bench_points_number_monotonically(tmp_path, bench_doc):
    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    p1 = write_bench(bench_doc, tmp_path)
    assert p1.name == "BENCH_1.json"
    p2 = write_bench(bench_doc, tmp_path)
    assert p2.name == "BENCH_2.json"
    # Gaps don't confuse the numbering: next is max+1, not count+1.
    p1.unlink()
    assert next_bench_path(tmp_path).name == "BENCH_3.json"
    validate_bench(json.loads(p2.read_text(encoding="utf-8")))


def test_validate_bench_lists_every_problem():
    bad = {
        "schema": "wrong/9",
        "experiments": [{"name": "x", "wall_s": -1.0, "cache_hit_rate": 2.0}],
    }
    with pytest.raises(ValueError) as err:
        validate_bench(bad)
    message = str(err.value)
    assert "missing top-level key 'scale'" in message
    assert "expected 'repro.bench/1'" in message
    assert "missing key 'units'" in message
    assert "wall_s must be non-negative" in message
    assert "cache_hit_rate must be in [0, 1]" in message


def _regressions(point, baseline, tolerance=0.2):
    """What ``repro bench --compare`` gates on: the diff's regressions."""
    return build_diff(
        bench_a=baseline, bench_b=point, tolerance=tolerance
    )["regressions"]


def test_compare_bench_flags_only_regressions():
    baseline = _doc(loss_sweep=1.0, table1=1.0)
    assert _regressions(_doc(loss_sweep=1.1, table1=0.5), baseline) == []
    bad = _regressions(_doc(loss_sweep=1.5, table1=0.5), baseline)
    assert bad == [
        {"what": "bench[loss_sweep].wall_s", "a": 1.0, "b": 1.5,
         "delta": 0.5},
    ]
    # Experiments missing from the baseline are not comparable, and
    # neither are the totals of points that measured different things.
    assert _regressions(_doc(new_exp=99.0), baseline) == []
    with pytest.raises(ValueError, match="non-negative"):
        _regressions(baseline, baseline, tolerance=-0.1)


def test_main_writes_a_point_and_gates_on_compare(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out_dir = tmp_path / "points"
    code = bench_main(
        ["loss_sweep", "--scale", "small", "--out-dir", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bench point written to" in out and "BENCH_1.json" in out
    point = out_dir / "BENCH_1.json"
    doc = json.loads(point.read_text(encoding="utf-8"))
    validate_bench(doc)

    # Same measurement vs its own baseline: within tolerance, exit 0.
    code = bench_main([
        "loss_sweep", "--scale", "small", "--out-dir", str(out_dir),
        "--compare", str(point), "--tolerance", "5.0",
    ])
    out = capsys.readouterr().out
    assert code == 0 and "no regression" in out

    # Synthetic near-zero baseline: any real run is a >=20% injected
    # wall-time regression, so the gate must exit 1.
    fast = dict(doc)
    fast["experiments"] = [
        {**entry, "wall_s": 1e-6} for entry in doc["experiments"]
    ]
    baseline_path = tmp_path / "fast_baseline.json"
    baseline_path.write_text(json.dumps(fast), encoding="utf-8")
    code = bench_main([
        "loss_sweep", "--scale", "small", "--out-dir", str(out_dir),
        "--compare", str(baseline_path),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "PERF REGRESSION" in out and "loss_sweep" in out

    assert (out_dir / "BENCH_3.json").exists()


def test_main_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit, match="unknown experiment"):
        bench_main(["not_an_experiment", "--out-dir", str(tmp_path)])


def test_main_rejects_malformed_baseline_before_measuring(
    tmp_path, monkeypatch
):
    import repro.obs.bench as bench_mod

    def _never(*args, **kwargs):
        raise AssertionError("measured against an unusable baseline")

    monkeypatch.setattr(bench_mod, "run_bench", _never)
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"schema": "repro.bench/1"}', encoding="utf-8")
    out_dir = tmp_path / "points"
    with pytest.raises(SystemExit) as err:
        bench_main(["loss_sweep", "--out-dir", str(out_dir),
                    "--compare", str(baseline)])
    message = str(err.value)
    assert str(baseline) in message and "\n" not in message
    assert "missing top-level key 'experiments'" in message
    for bad in ("nan", "-0.5"):
        with pytest.raises(SystemExit, match="tolerance"):
            bench_main(["--kernels", "--out-dir", str(out_dir),
                        "--compare", "BENCH_2.json", "--tolerance", bad])
    assert not out_dir.exists()
