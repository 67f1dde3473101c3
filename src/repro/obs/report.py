"""Self-contained run reports: markdown or single-file HTML.

``repro obs report`` turns the canonical observability artifacts of one
run — the ``repro.obs.analyze/2`` blame report, optionally an SLO verdict
document and a directory of ``BENCH_<n>.json`` trajectory points — into a
reviewer-facing document: frame outcome summary, the critical-path blame
table, worst frames, per-room admission, policy attribution, the SLO
table, and a perf-trajectory sparkline (unicode blocks in markdown, an
inline SVG in HTML).

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


# -- section extraction (shared by both renderers) -------------------------


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


def _frame_summary(analyze: Mapping[str, Any]) -> list[tuple[str, str]]:
    frames = analyze.get("frames", {})
    return [
        (key, _fmt(frames.get(key)))
        for key in ("total", "closed", "incomplete", "on_time", "late", "lost")
    ]


def _bench_series(
    trajectory: Sequence[tuple[int, Mapping[str, Any]]],
) -> dict[str, list]:
    ns = [n for n, _ in trajectory]
    wall = [float(doc.get("total_wall_s", 0.0)) for _, doc in trajectory]
    rss = [
        doc.get("peak_rss_bytes") for _, doc in trajectory
    ]
    return {"n": ns, "total_wall_s": wall, "peak_rss_bytes": rss}


# -- markdown ---------------------------------------------------------------


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def render_markdown(
    analyze: Mapping[str, Any],
    slo: Mapping[str, Any] | None = None,
    trajectory: Sequence[tuple[int, Mapping[str, Any]]] = (),
    title: str = "repro run report",
) -> str:
    """The full markdown report (GitHub-flavored tables)."""
    parts = [f"# {title}", ""]
    parts.append(
        f"{analyze.get('num_events', 0)} trace event(s) across "
        f"{len(analyze.get('units', ()))} unit(s)."
    )
    parts += ["", "## Frames", ""]
    parts.append(
        _md_table(["outcome", "count"], _frame_summary(analyze))
    )

    blame = analyze.get("blame", {})
    for scope, heading in (
        ("all", "Blame — all closed frames"),
        ("problem", "Blame — problem frames (late + lost)"),
    ):
        entry = blame.get(scope)
        if not entry or not entry.get("frames"):
            continue
        parts += ["", f"## {heading}", ""]
        parts.append(
            f"{entry['frames']} frame(s), "
            f"{entry['airtime_s']:.6f} s total airtime."
        )
        parts += ["", _md_table(
            ["segment", "layer", "seconds", "share"], _blame_rows(entry)
        )]

    worst = analyze.get("worst_frames", ())
    if worst:
        parts += ["", "## Worst frames", ""]
        rows = [
            (
                str(row.get("unit", "-")),
                str(row.get("frame", "-")),
                str(row.get("status", "-")),
                _fmt_ms(row.get("airtime_s")),
                _fmt_ms(row.get("deadline_s")),
            )
            for row in worst
        ]
        parts.append(_md_table(
            ["unit", "frame", "status", "airtime (ms)", "deadline (ms)"],
            rows,
        ))

    admission = analyze.get("admission", ())
    if admission:
        parts += ["", "## Admission by room", ""]
        rows = [
            (
                row["room"], row["ap"], str(row["arrivals"]),
                str(row["rejected"]), str(row["departures"]),
                str(row["peak_occupancy"]), _fmt(row.get("capacity")),
            )
            for row in admission
        ]
        parts.append(_md_table(
            ["room", "ap", "arrivals", "rejected", "departures",
             "peak", "capacity"],
            rows,
        ))

    policies = analyze.get("policies", {})
    if policies:
        parts += ["", "## Policy attribution", ""]
        rows = [
            (event, label, str(count))
            for event in policies
            for label, count in policies[event].items()
        ]
        parts.append(_md_table(["decision event", "policy", "count"], rows))

    if slo:
        parts += ["", "## SLOs", ""]
        rows = [
            (
                r["metric"],
                ("<=" if r["kind"] == "max" else ">=") + f" {r['bound']:g}",
                _fmt(r.get("value")),
                "ok" if r["ok"] else "**FAIL**",
            )
            for r in slo.get("results", ())
        ]
        parts.append(_md_table(["metric", "bound", "value", "verdict"], rows))
        parts.append("")
        parts.append(
            "Overall: " + ("**PASS**" if slo.get("ok") else "**FAIL**")
        )

    if trajectory:
        series = _bench_series(trajectory)
        parts += ["", "## Bench trajectory", ""]
        parts.append(
            f"wall time  `{sparkline(series['total_wall_s'])}` "
            f"(n={series['n'][0]}..{series['n'][-1]})"
        )
        rss_vals = [v for v in series["peak_rss_bytes"] if v is not None]
        if rss_vals:
            parts.append("")
            parts.append(f"peak RSS   `{sparkline(rss_vals)}`")
        parts.append("")
        rows = [
            (
                str(n),
                f"{wall:.3f}",
                _fmt(rss if rss is None else rss // (1024 * 1024)),
            )
            for n, wall, rss in zip(
                series["n"], series["total_wall_s"],
                series["peak_rss_bytes"],
            )
        ]
        parts.append(_md_table(["n", "wall (s)", "peak RSS (MiB)"], rows))

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


def render_html(
    analyze: Mapping[str, Any],
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
        f"<p>{analyze.get('num_events', 0)} trace event(s) across "
        f"{len(analyze.get('units', ()))} unit(s).</p>",
        "<h2>Frames</h2>",
        _html_table(["outcome", "count"], _frame_summary(analyze)),
    ]

    blame = analyze.get("blame", {})
    for scope, heading in (
        ("all", "Blame — all closed frames"),
        ("problem", "Blame — problem frames (late + lost)"),
    ):
        entry = blame.get(scope)
        if not entry or not entry.get("frames"):
            continue
        out.append(f"<h2>{html.escape(heading)}</h2>")
        out.append(
            f"<p>{entry['frames']} frame(s), "
            f"{entry['airtime_s']:.6f} s total airtime.</p>"
        )
        out.append(_html_table(
            ["segment", "layer", "seconds", "share"],
            _blame_rows(entry),
            numeric_from=2,
        ))

    worst = analyze.get("worst_frames", ())
    if worst:
        out.append("<h2>Worst frames</h2>")
        out.append(_html_table(
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
        ))

    admission = analyze.get("admission", ())
    if admission:
        out.append("<h2>Admission by room</h2>")
        out.append(_html_table(
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
            numeric_from=2,
        ))

    policies = analyze.get("policies", {})
    if policies:
        out.append("<h2>Policy attribution</h2>")
        out.append(_html_table(
            ["decision event", "policy", "count"],
            [
                (event, label, str(count))
                for event in policies
                for label, count in policies[event].items()
            ],
            numeric_from=2,
        ))

    if slo:
        out.append("<h2>SLOs</h2>")
        out.append(_html_table(
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
        ))
        verdict = (
            '<span class="ok">PASS</span>'
            if slo.get("ok")
            else '<span class="fail">FAIL</span>'
        )
        out.append(f"<p>Overall: {verdict}</p>")

    if trajectory:
        series = _bench_series(trajectory)
        out.append("<h2>Bench trajectory</h2>")
        out.append(
            "<p>wall time "
            + _svg_sparkline(series["total_wall_s"])
            + f" (n={series['n'][0]}..{series['n'][-1]})</p>"
        )
        rss_vals = [v for v in series["peak_rss_bytes"] if v is not None]
        if rss_vals:
            out.append(
                "<p>peak RSS " + _svg_sparkline(rss_vals) + "</p>"
            )
        out.append(_html_table(
            ["n", "wall (s)", "peak RSS (MiB)"],
            [
                (
                    str(n), f"{wall:.3f}",
                    _fmt(rss if rss is None else rss // (1024 * 1024)),
                )
                for n, wall, rss in zip(
                    series["n"], series["total_wall_s"],
                    series["peak_rss_bytes"],
                )
            ],
        ))

    out.append("</body></html>")
    return "\n".join(out) + "\n"
