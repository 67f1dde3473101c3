"""Self-contained run reports: markdown or single-file HTML.

``repro obs report`` turns the canonical observability artifacts of one
run — the ``repro.obs.analyze/2`` blame report, an SLO verdict document
and a directory of ``BENCH_<n>.json`` trajectory points, any of them
optional — into a human-readable document: frame outcome summary, the
critical-path blame table, worst frames, per-room admission, policy
attribution, the SLO table, per-workload perf-trajectory sparklines of
``wall_ref`` and ``peak_rss_mb`` (unicode blocks in markdown, inline SVG
in HTML), and each workload's layer shares in the newest point that
measured the workloads.

The HTML output is deliberately dependency-free and self-contained (one
file, inline ``<style>``, no scripts, no external fetches) so it can be
attached to CI runs and opened anywhere; the markdown output pastes
cleanly into PR descriptions.  Neither embeds timestamps or host names —
reports for the same artifacts are byte-identical.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Mapping, Sequence

from .analyze import SEGMENTS
from .bench import bench_points, load_bench

__all__ = [
    "load_bench_trajectory",
    "sparkline",
    "render_markdown",
    "render_html",
]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def load_bench_trajectory(
    bench_dir: Path | str,
) -> list[tuple[int, dict[str, Any]]]:
    """All ``BENCH_<n>.json`` points in a directory, sorted by ``n``;
    an invalid point is a ``ValueError`` naming its file."""
    return [(n, load_bench(path)) for n, path in bench_points(bench_dir)]


def sparkline(values: Sequence[float]) -> str:
    """A unicode block sparkline; constant series render as mid blocks."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _SPARK_BLOCKS[3] * len(vals)
    scale = (len(_SPARK_BLOCKS) - 1) / (hi - lo)
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) * scale))] for v in vals
    )


def _svg_sparkline(
    values: Sequence[float], width: int = 240, height: int = 36
) -> str:
    """An inline-SVG sparkline (no scripts, no external references)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    step = width / max(1, len(vals) - 1)
    pad = 3
    points = " ".join(
        f"{i * step:.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(vals)
    )
    return (
        f'<svg class="spark" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
        f'<polyline fill="none" stroke="currentColor" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


# -- the report as blocks (shared by both renderers) -----------------------


def _fmt(value: Any, digits: int = 6) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _fmt_ms(seconds: Any) -> str:
    if seconds is None:
        return "-"
    return f"{float(seconds) * 1e3:.3f}"


def _blame_rows(entry: Mapping[str, Any]) -> list[tuple[str, str, str, str]]:
    rows = []
    for name, cell in entry.get("segments", {}).items():
        layer = SEGMENTS[name].layer if name in SEGMENTS else "?"
        rows.append(
            (
                name,
                layer,
                f"{cell['seconds']:.6f}",
                f"{cell['share'] * 100:5.1f}%",
            )
        )
    return rows


def _trajectory_blocks(
    trajectory: Sequence[tuple[int, Mapping[str, Any]]],
) -> list[tuple]:
    """One ``spark`` block per workload, then the trajectory table.

    Each workload's series holds only the points that measured it, so a
    point without workloads (a kernels-only or ``repro.bench/1`` point)
    adds nothing.
    """
    series: dict[str, list[tuple[int, float, float]]] = {}
    for n, doc in trajectory:
        for name, entry in doc.get("workloads", {}).items():
            metrics = entry["end_to_end"]["metrics"]
            series.setdefault(name, []).append(
                (n, metrics["wall_ref"]["value"],
                 metrics["peak_rss_mb"]["value"])
            )
    if not series:
        return [("p", "No point measured the benchmark workloads.")]
    rows = [
        (str(n), name, _fmt(wall), _fmt(rss))
        for name, points in series.items()
        for n, wall, rss in points
    ]
    return [("spark", name, points) for name, points in series.items()] + [
        ("table", ["n", "workload", "wall_ref", "peak RSS (MB)"], rows, 2)
    ]


def _layer_share_blocks(
    trajectory: Sequence[tuple[int, Mapping[str, Any]]],
) -> list[tuple]:
    """One table per workload of the newest point that measured them.

    A span's share is its ``*.self_s`` over the sum of every ``*.self_s``
    per-layer metric of the workload, ``other.self_s`` included.
    """
    measured = [(n, doc) for n, doc in trajectory if doc.get("workloads")]
    if not measured:
        return []
    n, doc = measured[-1]
    blocks: list[tuple] = [("h2", f"Layer shares (BENCH_{n})")]
    for name, entry in doc["workloads"].items():
        self_s = {
            key[: -len(".self_s")]: float(cell["value"])
            for key, cell in entry["per_layer"]["metrics"].items()
            if key.endswith(".self_s")
        }
        total = sum(self_s.values())
        rows = [
            (span, f"{sec:.6f}",
             f"{sec / total * 100:5.1f}%" if total > 0 else "-")
            for span, sec in sorted(
                self_s.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        blocks += [
            ("p", f"{name}: {total:.6f} s per-layer self time."),
            ("table", ["span", "self_s", "share"], rows, 1),
        ]
    return blocks


def _blocks(
    analyze: Mapping[str, Any] | None,
    slo: Mapping[str, Any] | None,
    trajectory: Sequence[tuple[int, Mapping[str, Any]]],
) -> list[tuple]:
    """The report body as renderer-neutral blocks, in order.

    Kinds: ``("h2", text)``, ``("p", text)``, ``("table", headers, rows,
    numeric_from)``, ``("verdict", ok)`` and ``("spark", workload,
    [(n, wall_ref, peak_rss_mb), ...])``.  Without ``analyze`` the
    frame, blame, worst-frame, admission and policy sections are left out.
    """
    blocks = _analyze_blocks(analyze) if analyze is not None else []
    if slo:
        blocks += [("h2", "SLOs"), (
            "table",
            ["metric", "bound", "value", "verdict"],
            [
                (
                    r["metric"],
                    ("<=" if r["kind"] == "max" else ">=")
                    + f" {r['bound']:g}",
                    _fmt(r.get("value")),
                    "ok" if r["ok"] else "FAIL",
                )
                for r in slo.get("results", ())
            ],
            1,
        ), ("verdict", bool(slo.get("ok")))]
    if trajectory:
        blocks += [("h2", "Bench trajectory"), *_trajectory_blocks(trajectory)]
        blocks += _layer_share_blocks(trajectory)
    return blocks


def _analyze_blocks(analyze: Mapping[str, Any]) -> list[tuple]:
    """The sections read from one ``repro.obs.analyze/2`` report."""
    frames = analyze.get("frames", {})
    blocks: list[tuple] = [
        ("p", f"{analyze.get('num_events', 0)} trace event(s) across "
              f"{len(analyze.get('units', ()))} unit(s)."),
        ("h2", "Frames"),
        ("table", ["outcome", "count"], [
            (key, _fmt(frames.get(key)))
            for key in ("total", "closed", "incomplete", "on_time", "late",
                        "lost")
        ], 1),
    ]
    blame = analyze.get("blame", {})
    for scope, heading in (
        ("all", "Blame — all closed frames"),
        ("problem", "Blame — problem frames (late + lost)"),
    ):
        entry = blame.get(scope)
        if not entry or not entry.get("frames"):
            continue
        blocks += [
            ("h2", heading),
            ("p", f"{entry['frames']} frame(s), "
                  f"{entry['airtime_s']:.6f} s total airtime."),
            ("table", ["segment", "layer", "seconds", "share"],
             _blame_rows(entry), 2),
        ]
    worst = analyze.get("worst_frames", ())
    if worst:
        blocks += [("h2", "Worst frames"), (
            "table",
            ["unit", "frame", "status", "airtime (ms)", "deadline (ms)"],
            [
                (
                    str(row.get("unit", "-")), str(row.get("frame", "-")),
                    str(row.get("status", "-")),
                    _fmt_ms(row.get("airtime_s")),
                    _fmt_ms(row.get("deadline_s")),
                )
                for row in worst
            ],
            1,
        )]
    admission = analyze.get("admission", ())
    if admission:
        blocks += [("h2", "Admission by room"), (
            "table",
            ["room", "ap", "arrivals", "rejected", "departures", "peak",
             "capacity"],
            [
                (
                    row["room"], row["ap"], str(row["arrivals"]),
                    str(row["rejected"]), str(row["departures"]),
                    str(row["peak_occupancy"]), _fmt(row.get("capacity")),
                )
                for row in admission
            ],
            2,
        )]
    policies = analyze.get("policies", {})
    if policies:
        blocks += [("h2", "Policy attribution"), (
            "table",
            ["decision event", "policy", "count"],
            [
                (event, label, str(count))
                for event in policies
                for label, count in policies[event].items()
            ],
            2,
        )]
    return blocks


def _n_range(points: Sequence[tuple[int, float, float]]) -> str:
    return f"(n={points[0][0]}..{points[-1][0]})"


# -- markdown ---------------------------------------------------------------


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(
                "**FAIL**" if c == "FAIL" else str(c) for c in row
            ) + " |"
        )
    return "\n".join(lines)


def _md_block(kind: str, *args: Any) -> str:
    if kind == "h2":
        return f"## {args[0]}"
    if kind == "table":
        return _md_table(args[0], args[1])
    if kind == "verdict":
        return "Overall: " + ("**PASS**" if args[0] else "**FAIL**")
    if kind == "spark":
        name, points = args
        return (
            f"{name}: wall_ref `{sparkline([p[1] for p in points])}` "
            f"peak RSS `{sparkline([p[2] for p in points])}` "
            + _n_range(points)
        )
    return args[0]


def render_markdown(
    analyze: Mapping[str, Any] | None,
    slo: Mapping[str, Any] | None = None,
    trajectory: Sequence[tuple[int, Mapping[str, Any]]] = (),
    title: str = "repro run report",
) -> str:
    """The full markdown report (GitHub-flavored tables)."""
    parts = [f"# {title}"]
    for block in _blocks(analyze, slo, trajectory):
        parts += ["", _md_block(*block)]
    parts.append("")
    return "\n".join(parts)


# -- html -------------------------------------------------------------------

_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; padding: 0 1rem; color: #1a1a1a; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.5rem 0 1.5rem; }
th, td { border: 1px solid #d0d0d0; padding: 0.25rem 0.6rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f2f2f2; }
td.num { text-align: right; }
.fail { color: #b30000; font-weight: 600; }
.ok { color: #006600; }
.spark { color: #3465a4; vertical-align: middle; }
"""


def _html_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    numeric_from: int = 1,
) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            text = html.escape(str(cell))
            if text == "FAIL":
                cells.append(f'<td class="fail">{text}</td>')
            elif i >= numeric_from:
                cells.append(f'<td class="num">{text}</td>')
            else:
                cells.append(f"<td>{text}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _html_block(kind: str, *args: Any) -> str:
    if kind == "h2":
        return f"<h2>{html.escape(args[0])}</h2>"
    if kind == "table":
        return _html_table(*args)
    if kind == "verdict":
        verdict = (
            '<span class="ok">PASS</span>'
            if args[0]
            else '<span class="fail">FAIL</span>'
        )
        return f"<p>Overall: {verdict}</p>"
    if kind == "spark":
        name, points = args
        return (
            f"<p>{html.escape(name)}: wall_ref "
            f"{_svg_sparkline([p[1] for p in points])} peak RSS "
            f"{_svg_sparkline([p[2] for p in points])} {_n_range(points)}</p>"
        )
    return f"<p>{html.escape(args[0])}</p>"


def render_html(
    analyze: Mapping[str, Any] | None,
    slo: Mapping[str, Any] | None = None,
    trajectory: Sequence[tuple[int, Mapping[str, Any]]] = (),
    title: str = "repro run report",
) -> str:
    """One self-contained HTML document (inline style, no scripts)."""
    out = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    out += [_html_block(*block) for block in _blocks(analyze, slo, trajectory)]
    out.append("</body></html>")
    return "\n".join(out) + "\n"
