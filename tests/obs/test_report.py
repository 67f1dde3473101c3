"""Run reports: self-contained rendering, sparklines, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.bench import bench_points
from repro.obs.cli import main as trace_main, obs_main
from repro.obs.report import (
    load_bench_trajectory,
    render_html,
    render_markdown,
    sparkline,
)

from .bench_points import bench_point, workload


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Analyze + SLO artifacts from one loss_sweep trace, plus BENCH points."""
    root = tmp_path_factory.mktemp("report")
    trace = root / "trace.jsonl"
    analyze = root / "analyze.json"
    slo = root / "slo.json"
    spec = root / "slo-spec.json"
    assert (
        trace_main(
            ["loss_sweep", "--scale", "small", "--out", str(trace), "--quiet"]
        )
        == 0
    )
    assert (
        obs_main(["analyze", str(trace), "--json", str(analyze), "--quiet"])
        == 0
    )
    spec.write_text(json.dumps(
        {"slos": [{"metric": "frame_loss_rate", "max": 0.9}]}
    ))
    assert (
        obs_main(
            ["check", str(trace), "--spec", str(spec), "--json", str(slo)]
        )
        == 0
    )
    bench_dir = root / "bench"
    bench_dir.mkdir()
    points = [
        # An experiment-timing point of the earlier harness...
        {"schema": "repro.bench/1", "scale": "small", "workers": 1,
         "experiments": [], "total_wall_s": 2.0,
         "peak_rss_bytes": 50_000_000},
        # ...a kernels-only point...
        bench_point(kernels=[("k", 3.0)]),
        # ...and two points that measured the workloads.
        bench_point(workloads={"venue": workload(wall_ref=80.0),
                               "transport": workload(wall_ref=20.0)}),
        bench_point(workloads={"venue": workload(wall_ref=56.0,
                                                 peak_rss_mb=64.0)}),
    ]
    for n, doc in enumerate(points, start=1):
        (bench_dir / f"BENCH_{n}.json").write_text(json.dumps(doc))
    return {"analyze": analyze, "slo": slo, "bench_dir": bench_dir}


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"
    line = sparkline([0.0, 0.5, 1.0])
    assert line[0] == "▁" and line[-1] == "█"


def test_load_bench_trajectory_sorts_by_index(artifacts):
    points = load_bench_trajectory(artifacts["bench_dir"])
    assert [n for n, _ in points] == [1, 2, 3, 4]
    assert points[0][1]["total_wall_s"] == 2.0
    assert "kernels" in points[1][1]


def test_trajectory_has_one_series_per_workload(artifacts):
    analyze = json.loads(artifacts["analyze"].read_text())
    trajectory = load_bench_trajectory(artifacts["bench_dir"])
    text = render_markdown(analyze, trajectory=trajectory)
    section = text.split("## Bench trajectory", 1)[1]
    # Only the points that measured a workload contribute to its series.
    assert f"transport: wall_ref `{sparkline([20.0])}`" in section
    assert f"venue: wall_ref `{sparkline([80.0, 56.0])}` " in section
    assert f"peak RSS `{sparkline([85.0, 64.0])}` (n=3..4)" in section
    assert "| 3 | venue | 80 | 85 |" in section
    assert "| 4 | venue | 56 | 64 |" in section
    assert "| 1 |" not in section and "| 2 |" not in section
    # Points that measured no workload render no series at all.
    early = [p for p in trajectory if p[0] <= 2]
    assert "No point measured the benchmark workloads." in render_markdown(
        analyze, trajectory=early
    )
    html = render_html(analyze, trajectory=trajectory)
    assert html.count('<svg class="spark"') == 4


def test_markdown_report_contains_every_section(artifacts):
    analyze = json.loads(artifacts["analyze"].read_text())
    slo = json.loads(artifacts["slo"].read_text())
    trajectory = load_bench_trajectory(artifacts["bench_dir"])
    text = render_markdown(analyze, slo=slo, trajectory=trajectory)
    for heading in (
        "## Frames", "## Blame — all closed frames",
        "## Blame — problem frames", "## Worst frames", "## SLOs",
        "## Bench trajectory",
    ):
        assert heading in text, heading
    # loss_sweep has no rooms or policy decisions: empty sections must not
    # render as empty tables.
    assert "## Admission by room" not in text
    assert "## Policy attribution" not in text
    assert "first_tx" in text
    assert "frame_loss_rate" in text
    # The sparkline renders the wall-time series as unicode blocks.
    assert any(block in text for block in "▁▂▃▄▅▆▇█")


def test_admission_and_policy_sections_render_when_present(artifacts):
    analyze = json.loads(artifacts["analyze"].read_text())
    analyze["admission"] = [
        {"room": "room0", "ap": "ap0", "arrivals": 5, "rejected": 2,
         "departures": 1, "peak_occupancy": 4, "capacity": 4},
    ]
    analyze["policies"] = {"core.adaptation_decision": {"vivo": 7}}
    text = render_markdown(analyze)
    assert "## Admission by room" in text
    assert "| room0 | ap0 | 5 | 2 | 1 | 4 | 4 |" in text
    assert "## Policy attribution" in text
    assert "| core.adaptation_decision | vivo | 7 |" in text
    html = render_html(analyze)
    assert "Admission by room" in html and "Policy attribution" in html
    assert "room0" in html and "vivo" in html


def test_html_report_is_self_contained(artifacts):
    analyze = json.loads(artifacts["analyze"].read_text())
    slo = json.loads(artifacts["slo"].read_text())
    trajectory = load_bench_trajectory(artifacts["bench_dir"])
    html = render_html(analyze, slo=slo, trajectory=trajectory)
    assert html.startswith("<!DOCTYPE html>")
    assert "<style>" in html
    assert "<svg" in html  # trajectory sparkline
    # Self-contained: no scripts, no external fetches.
    assert "<script" not in html
    assert "http://" not in html and "https://" not in html
    assert "first_tx" in html
    assert "frame_loss_rate" in html


def test_reports_are_deterministic(artifacts):
    analyze = json.loads(artifacts["analyze"].read_text())
    assert render_markdown(analyze) == render_markdown(analyze)
    assert render_html(analyze) == render_html(analyze)


def test_report_cli_writes_both_formats(artifacts, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (
        obs_main(
            ["report", str(artifacts["analyze"]), "--slo",
             str(artifacts["slo"]), "--bench-dir",
             str(artifacts["bench_dir"])]
        )
        == 0
    )
    html = tmp_path / "obs_report.html"
    assert html.is_file()
    assert "<svg" in html.read_text()
    assert (
        obs_main(
            ["report", str(artifacts["analyze"]), "--format", "md",
             "--out", str(tmp_path / "r.md"), "--title", "my run"]
        )
        == 0
    )
    assert (tmp_path / "r.md").read_text().startswith("# my run")


def test_report_cli_rejects_wrong_schema(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "repro.bench/1"}')
    with pytest.raises(SystemExit, match="cannot read artifact"):
        obs_main(["report", str(bogus)])


def _with_self_s(entry, **self_s):
    metrics = entry["per_layer"]["metrics"]
    for span, seconds in self_s.items():
        metrics[f"{span}.self_s"] = {"value": seconds, "unit": "s"}
    return entry


def test_layer_shares_come_from_the_newest_measured_point():
    old = bench_point(workloads={"transport": _with_self_s(
        workload(), **{"net.deliver": 8.5})})
    new = bench_point(workloads={
        # sim.run.self_s is 1.5 in every fixture workload.
        "transport": _with_self_s(
            workload(), **{"net.deliver": 0.9, "other": 0.6}),
        "venue": _with_self_s(workload(), **{"mac.plan_frame": 0.0}),
    })
    trajectory = [(3, old), (4, new), (5, bench_point(kernels=[("k", 3.0)]))]
    text = render_markdown(None, trajectory=trajectory)
    shares = text.split("## Layer shares (BENCH_4)", 1)[1]
    transport, venue = shares.split("venue:", 1)
    assert "transport: 3.000000 s per-layer self time." in transport
    # Largest share first; other.self_s counts towards the total.
    assert transport.index("| sim.run |") < transport.index("| net.deliver |")
    assert "| sim.run | 1.500000 |  50.0% |" in transport
    assert "| net.deliver | 0.900000 |  30.0% |" in transport
    assert "| other | 0.600000 |  20.0% |" in transport
    assert "8.5" not in shares and "sim.run.calls" not in shares
    assert "| sim.run | 1.500000 | 100.0% |" in venue
    assert "| mac.plan_frame | 0.000000 |   0.0% |" in venue
    html = render_html(None, trajectory=trajectory)
    assert "Layer shares (BENCH_4)" in html
    assert "Layer shares" not in render_markdown(
        None, trajectory=[(5, bench_point(kernels=[("k", 3.0)]))]
    )


def test_report_cli_renders_bench_dir_alone(tmp_path, monkeypatch):
    repo = Path(__file__).resolve().parents[2]
    monkeypatch.chdir(repo)
    out = tmp_path / "bench.md"
    assert obs_main(["report", "--bench-dir", ".", "--format", "md",
                     "--out", str(out)]) == 0
    text = out.read_text()
    newest = bench_points(repo)[-1][0]
    assert "## Bench trajectory" in text
    assert f"## Layer shares (BENCH_{newest})" in text
    for analyze_section in ("## Frames", "## Blame", "## Worst frames"):
        assert analyze_section not in text
    assert "trace event(s)" not in text


def test_report_cli_needs_some_artifact():
    with pytest.raises(SystemExit, match="cannot report: give ANALYZE"):
        obs_main(["report"])
