"""Run-to-run regression diffing over observability artifacts.

``repro obs diff <run_a> <run_b>`` consumes the canonical JSON artifacts
two runs left behind — the ``repro.obs.analyze/2`` blame report, and
optionally a metrics snapshot, an ``repro.obs.slo/1`` verdict document,
and a ``repro.bench/1`` trajectory point per side — and emits one
canonical ``repro.obs.diff/1`` document: per-segment and per-layer
latency-blame deltas, per-``(room, ap)`` rollup deltas, admission and
policy-attribution deltas, SLO status transitions, and bench wall-time /
peak-RSS / kernel-speedup deltas, all as ``{"a": ..., "b": ..., "delta":
b - a}`` cells.  Every section is optional, so ``repro bench --compare``
is :func:`build_diff` over two bench points alone.

Two properties make the output CI-friendly:

* Diffing a run against itself yields ``identical: true`` and all-zero
  deltas — and because the input artifacts are themselves deterministic
  (bit-identical across worker counts and cache hits), so is the diff.
* ``regressions`` lists every delta that crossed the tolerance in the
  bad direction (more late/lost frames, more problem airtime, an SLO
  flipping pass→fail, slower or fatter bench, a kernel below its floor),
  so ``--fail-on-regression`` turns the diff into a gate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

from .analyze import SEGMENT_ORDER
from .bench import validate_bench

__all__ = [
    "DIFF_SCHEMA",
    "build_diff",
    "check_tolerance",
    "diff_analyze",
    "diff_metrics",
    "diff_slo",
    "diff_bench",
    "format_diff",
    "format_regression",
    "load_json_artifact",
]

DIFF_SCHEMA = "repro.obs.diff/1"

_NUM = (int, float)


def _is_num(x: Any) -> bool:
    return isinstance(x, _NUM) and not isinstance(x, bool)


class _Builder:
    """Tracks whether any compared value differed while cells are built."""

    def __init__(self) -> None:
        self.changed = 0

    def cell(self, a: Any, b: Any) -> dict[str, Any]:
        """One ``{"a", "b", "delta"}`` comparison cell.

        ``delta`` is ``b - a`` when both sides are numeric, ``0`` when the
        sides are equal (including both-missing), and ``null`` for an
        incomparable pair — which always counts as a change.
        """
        if _is_num(a) and _is_num(b):
            delta: Any = b - a
            if delta != 0:
                self.changed += 1
        elif a == b:
            delta = 0
        else:
            delta = None
            self.changed += 1
        return {"a": a, "b": b, "delta": delta}

    def mark(self, changed: bool) -> bool:
        if changed:
            self.changed += 1
        return changed


def _cell_delta(cell: Mapping[str, Any]) -> float:
    delta = cell.get("delta")
    return float(delta) if _is_num(delta) else 0.0


def _union_keys(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    return sorted(set(a) | set(b))


def _segment_keys(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    known = [s for s in SEGMENT_ORDER if s in a or s in b]
    extra = sorted((set(a) | set(b)) - set(SEGMENT_ORDER))
    return known + extra


def diff_analyze(
    a: Mapping[str, Any], b: Mapping[str, Any], out: _Builder
) -> dict[str, Any]:
    """Diff two analyze reports (``repro.obs.analyze/1`` or ``/2``)."""
    frames_a = a.get("frames", {})
    frames_b = b.get("frames", {})
    frames = {
        key: out.cell(frames_a.get(key), frames_b.get(key))
        for key in _union_keys(frames_a, frames_b)
    }

    units_a = set(a.get("units", ()))
    units_b = set(b.get("units", ()))
    units = {
        "a_only": sorted(units_a - units_b),
        "b_only": sorted(units_b - units_a),
        "common": len(units_a & units_b),
    }
    out.mark(bool(units["a_only"] or units["b_only"]))

    blame: dict[str, Any] = {}
    blame_a = a.get("blame", {})
    blame_b = b.get("blame", {})
    for scope in _union_keys(blame_a, blame_b):
        ea = blame_a.get(scope, {})
        eb = blame_b.get(scope, {})
        seg_a = ea.get("segments", {})
        seg_b = eb.get("segments", {})
        layer_a = ea.get("by_layer", {})
        layer_b = eb.get("by_layer", {})
        blame[scope] = {
            "frames": out.cell(ea.get("frames"), eb.get("frames")),
            "airtime_s": out.cell(ea.get("airtime_s"), eb.get("airtime_s")),
            "segments": {
                name: out.cell(
                    seg_a.get(name, {}).get("seconds"),
                    seg_b.get(name, {}).get("seconds"),
                )
                for name in _segment_keys(seg_a, seg_b)
            },
            "by_layer": {
                layer: out.cell(layer_a.get(layer), layer_b.get(layer))
                for layer in _union_keys(layer_a, layer_b)
            },
        }

    def _rows_by_shard(report: Mapping[str, Any], section: str) -> dict:
        return {
            (row.get("room", ""), row.get("ap", "")): row
            for row in report.get(section, ())
        }

    by_shard = []
    shards_a = _rows_by_shard(a, "by_shard")
    shards_b = _rows_by_shard(b, "by_shard")
    for room, ap in sorted(set(shards_a) | set(shards_b)):
        ra = shards_a.get((room, ap), {})
        rb = shards_b.get((room, ap), {})
        out.mark(not ra or not rb)
        by_shard.append(
            {
                "room": room,
                "ap": ap,
                "frames": out.cell(ra.get("frames"), rb.get("frames")),
                "airtime_s": out.cell(
                    ra.get("airtime_s"), rb.get("airtime_s")
                ),
                "late": out.cell(ra.get("late"), rb.get("late")),
                "lost": out.cell(ra.get("lost"), rb.get("lost")),
            }
        )

    admission = []
    adm_a = _rows_by_shard(a, "admission")
    adm_b = _rows_by_shard(b, "admission")
    for room, ap in sorted(set(adm_a) | set(adm_b)):
        ra = adm_a.get((room, ap), {})
        rb = adm_b.get((room, ap), {})
        out.mark(not ra or not rb)
        admission.append(
            {
                "room": room,
                "ap": ap,
                **{
                    key: out.cell(ra.get(key), rb.get(key))
                    for key in (
                        "arrivals", "rejected", "departures",
                        "peak_occupancy",
                    )
                },
            }
        )

    policies: dict[str, Any] = {}
    pol_a = a.get("policies", {})
    pol_b = b.get("policies", {})
    for event in _union_keys(pol_a, pol_b):
        pa = pol_a.get(event, {})
        pb = pol_b.get(event, {})
        policies[event] = {
            label: out.cell(pa.get(label, 0), pb.get(label, 0))
            for label in _union_keys(pa, pb)
        }

    hist_a = a.get("latency_hist", {})
    hist_b = b.get("latency_hist", {})
    latency = {
        "count": out.cell(hist_a.get("count"), hist_b.get("count")),
        "sum_s": out.cell(hist_a.get("sum"), hist_b.get("sum")),
    }

    return {
        "num_events": out.cell(a.get("num_events"), b.get("num_events")),
        "units": units,
        "frames": frames,
        "blame": blame,
        "by_shard": by_shard,
        "admission": admission,
        "policies": policies,
        "latency_hist": latency,
    }


def diff_metrics(
    a: Mapping[str, Any], b: Mapping[str, Any], out: _Builder
) -> dict[str, Any]:
    """Diff two metrics snapshots (``repro.obs.metrics`` registry dumps)."""
    result: dict[str, Any] = {}
    for name in _union_keys(a, b):
        ea = a.get(name, {})
        eb = b.get(name, {})
        kind = eb.get("kind") or ea.get("kind")
        out.mark(not ea or not eb)
        if kind == "histogram":
            result[name] = {
                "kind": "histogram",
                "count": out.cell(ea.get("count"), eb.get("count")),
                "sum": out.cell(ea.get("sum"), eb.get("sum")),
            }
        else:
            result[name] = {
                "kind": kind,
                "value": out.cell(ea.get("value"), eb.get("value")),
            }
    return result


def diff_slo(
    a: Mapping[str, Any], b: Mapping[str, Any], out: _Builder
) -> dict[str, Any]:
    """Diff two SLO verdict documents; surfaces pass/fail transitions."""
    rows_a = {r["metric"]: r for r in a.get("results", ())}
    rows_b = {r["metric"]: r for r in b.get("results", ())}
    rows = []
    transitions = []
    for metric in _union_keys(rows_a, rows_b):
        ra = rows_a.get(metric, {})
        rb = rows_b.get(metric, {})
        ok_a = ra.get("ok")
        ok_b = rb.get("ok")
        out.mark(ok_a != ok_b)
        row = {
            "metric": metric,
            "kind": rb.get("kind") or ra.get("kind"),
            "bound": out.cell(ra.get("bound"), rb.get("bound")),
            "value": out.cell(ra.get("value"), rb.get("value")),
            "ok_a": ok_a,
            "ok_b": ok_b,
        }
        rows.append(row)
        if ok_a != ok_b:
            transitions.append(
                {
                    "metric": metric,
                    "from": "pass" if ok_a else "fail",
                    "to": "pass" if ok_b else "fail",
                }
            )
    return {
        "ok": out.cell(a.get("ok"), b.get("ok")),
        "results": rows,
        "transitions": transitions,
    }


def _named_rows(
    rows_a: Any, rows_b: Any, keys: tuple[str, ...], out: _Builder
) -> list[dict[str, Any]]:
    """Cells for ``keys`` of every name on either side, sorted by name."""
    by_a = {row["name"]: row for row in rows_a}
    by_b = {row["name"]: row for row in rows_b}
    rows = []
    for name in _union_keys(by_a, by_b):
        ra = by_a.get(name, {})
        rb = by_b.get(name, {})
        out.mark(not ra or not rb)
        rows.append(
            {"name": name, **{k: out.cell(ra.get(k), rb.get(k)) for k in keys}}
        )
    return rows


def diff_bench(
    a: Mapping[str, Any], b: Mapping[str, Any], out: _Builder
) -> dict[str, Any]:
    """Diff two ``repro.bench/1`` trajectory points (validated upstream)."""
    return {
        "total_wall_s": out.cell(
            a.get("total_wall_s"), b.get("total_wall_s")
        ),
        "peak_rss_bytes": out.cell(
            a.get("peak_rss_bytes"), b.get("peak_rss_bytes")
        ),
        "experiments": _named_rows(
            a["experiments"], b["experiments"],
            ("wall_s", "units_per_s", "cache_hit_rate"), out,
        ),
        "kernels": _named_rows(
            a.get("kernels", ()), b.get("kernels", ()),
            ("speedup", "min_speedup"), out,
        ),
    }


def _collect_regressions(
    report: dict[str, Any], tolerance: float
) -> list[dict[str, Any]]:
    """Every delta that crossed ``tolerance`` in the bad direction.

    Counts (late/lost frames, SLO flips) regress on *any* increase;
    continuous quantities (airtime, wall time, RSS) get the relative
    tolerance: ``b > a * (1 + tolerance)``.  Bench points follow one rule:
    an experiment's wall time regresses only when both points ran it; a
    kernel regresses when b's speedup falls below a's ``min_speedup``
    floor, or b's own floor for a kernel a never measured (a ratio, so the
    gate holds on any machine; the entry's ``a`` is that floor); the
    totals regress only when both points measured the same experiments
    and kernels.
    """
    regressions: list[dict[str, Any]] = []

    def _count(what: str, cell: Mapping[str, Any]) -> None:
        if _cell_delta(cell) > 0:
            regressions.append(
                {"what": what, "a": cell["a"], "b": cell["b"],
                 "delta": cell["delta"]}
            )

    def _continuous(what: str, cell: Mapping[str, Any]) -> None:
        a, b = cell.get("a"), cell.get("b")
        if not (_is_num(a) and _is_num(b)):
            return
        if b > a * (1.0 + tolerance) and b - a > 0:
            regressions.append(
                {"what": what, "a": a, "b": b, "delta": cell["delta"]}
            )

    analyze = report.get("analyze")
    if analyze:
        _count("frames.late", analyze["frames"].get("late", {}))
        _count("frames.lost", analyze["frames"].get("lost", {}))
        problem = analyze["blame"].get("problem")
        if problem:
            _continuous("blame.problem.airtime_s", problem["airtime_s"])
        for row in analyze["by_shard"]:
            shard = f"{row['room']}/{row['ap']}"
            _count(f"shard[{shard}].late", row["late"])
            _count(f"shard[{shard}].lost", row["lost"])

    slo = report.get("slo")
    if slo:
        for tr in slo["transitions"]:
            if tr["to"] == "fail":
                regressions.append(
                    {"what": f"slo[{tr['metric']}]", "a": tr["from"],
                     "b": tr["to"], "delta": None}
                )

    bench = report.get("bench")
    if bench:
        def _paired(cell: Mapping[str, Any]) -> bool:
            return cell["a"] is not None and cell["b"] is not None

        if all(_paired(r["wall_s"]) for r in bench["experiments"]) and all(
            _paired(r["speedup"]) for r in bench["kernels"]
        ):  # both points measured the same experiments and kernels
            _continuous("bench.total_wall_s", bench["total_wall_s"])
            _continuous("bench.peak_rss_bytes", bench["peak_rss_bytes"])
        for row in bench["experiments"]:
            _continuous(f"bench[{row['name']}].wall_s", row["wall_s"])
        for row in bench["kernels"]:
            # A kernel the baseline never measured is held to the floor b
            # recorded for it, so a new floor gates from its first point.
            floor = row["min_speedup"]["a"]
            if floor is None:
                floor = row["min_speedup"]["b"]
            speedup = row["speedup"]["b"]
            if _is_num(floor) and _is_num(speedup) and speedup < floor:
                regressions.append(
                    {"what": f"bench.kernel[{row['name']}].speedup",
                     "a": floor, "b": speedup, "delta": speedup - floor}
                )

    return regressions


def check_tolerance(tolerance: float) -> float:
    """``tolerance`` as a float; ``ValueError`` unless finite and >= 0.

    A NaN would silently disable every continuous gate (each comparison
    is false) and a negative one would flag changes within noise.
    """
    value = float(tolerance)
    if not math.isfinite(value) or value < 0:
        raise ValueError(
            f"tolerance must be a finite non-negative fraction, got {value}"
        )
    return value


def build_diff(
    analyze_a: Mapping[str, Any] | None = None,
    analyze_b: Mapping[str, Any] | None = None,
    *,
    metrics_a: Mapping[str, Any] | None = None,
    metrics_b: Mapping[str, Any] | None = None,
    slo_a: Mapping[str, Any] | None = None,
    slo_b: Mapping[str, Any] | None = None,
    bench_a: Mapping[str, Any] | None = None,
    bench_b: Mapping[str, Any] | None = None,
    tolerance: float = 0.0,
    label_a: str = "a",
    label_b: str = "b",
) -> dict[str, Any]:
    """The full ``repro.obs.diff/1`` document for two runs.

    Each artifact pair — analyze, metrics, SLO, bench — is diffed only
    when *both* sides are supplied (a one-sided artifact is recorded as
    ``unpaired`` rather than silently dropped).  Bench points must pass
    :func:`repro.obs.bench.validate_bench` and ``tolerance`` must pass
    :func:`check_tolerance`; either failure is a ``ValueError``.
    """
    tolerance = check_tolerance(tolerance)
    for doc in (bench_a, bench_b):
        if doc is not None:
            validate_bench(doc)
    out = _Builder()
    report: dict[str, Any] = {
        "schema": DIFF_SCHEMA,
        "a": {"label": str(label_a)},
        "b": {"label": str(label_b)},
        "tolerance": tolerance,
    }
    unpaired = []
    for key, doc_a, doc_b, fn in (
        ("analyze", analyze_a, analyze_b, diff_analyze),
        ("metrics", metrics_a, metrics_b, diff_metrics),
        ("slo", slo_a, slo_b, diff_slo),
        ("bench", bench_a, bench_b, diff_bench),
    ):
        if doc_a is not None and doc_b is not None:
            report[key] = fn(doc_a, doc_b, out)
        elif doc_a is not None or doc_b is not None:
            unpaired.append(key)
    if unpaired:
        report["unpaired"] = unpaired
    report["regressions"] = _collect_regressions(report, tolerance)
    report["identical"] = out.changed == 0 and not unpaired
    return report


def load_json_artifact(
    path: Path | str, expect_schema: str | None = None
) -> dict[str, Any]:
    """Read one canonical-JSON artifact, validating its schema prefix.

    ``expect_schema`` matches the schema family (the part before the
    ``/version``), so a ``repro.obs.analyze/2`` report satisfies
    ``repro.obs.analyze``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if expect_schema is not None:
        schema = str(doc.get("schema", ""))
        if schema.split("/")[0] != expect_schema:
            raise ValueError(
                f"{path}: schema {schema or '(missing)'!r} is not "
                f"{expect_schema!r}"
            )
    return doc


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_delta(cell: Mapping[str, Any]) -> str:
    delta = cell.get("delta")
    if delta is None:
        return "?"
    if delta == 0:
        return "0"
    sign = "+" if delta > 0 else ""
    if isinstance(delta, float):
        return f"{sign}{delta:.6g}"
    return f"{sign}{delta}"


def format_regression(reg: Mapping[str, Any]) -> str:
    """One regression entry as ``what: a -> b``."""
    return f"{reg['what']}: {_fmt(reg['a'])} -> {_fmt(reg['b'])}"


def format_diff(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of a diff document."""
    lines = []
    la = report["a"]["label"]
    lb = report["b"]["label"]
    lines.append(f"diff: {la} -> {lb}")
    if report["identical"]:
        lines.append("runs are IDENTICAL (all deltas zero)")

    analyze = report.get("analyze", {})
    frames = analyze.get("frames", {})
    if frames:
        lines.append("frames:")
        for key in ("total", "closed", "on_time", "late", "lost"):
            cell = frames.get(key)
            if cell is None:
                continue
            lines.append(
                f"  {key:<8} {_fmt(cell['a']):>10} -> {_fmt(cell['b']):>10}"
                f"  ({_fmt_delta(cell)})"
            )
    problem = analyze.get("blame", {}).get("problem")
    if problem:
        lines.append("problem blame (late + lost):")
        lines.append(
            f"  airtime_s {_fmt(problem['airtime_s']['a']):>10} -> "
            f"{_fmt(problem['airtime_s']['b']):>10}"
            f"  ({_fmt_delta(problem['airtime_s'])})"
        )
        for name, cell in problem["segments"].items():
            if _cell_delta(cell) == 0 and cell["delta"] == 0:
                continue
            lines.append(
                f"    {name:<16} {_fmt(cell['a']):>10} -> "
                f"{_fmt(cell['b']):>10}  ({_fmt_delta(cell)})"
            )

    slo = report.get("slo")
    if slo and slo["transitions"]:
        lines.append("slo transitions:")
        for tr in slo["transitions"]:
            lines.append(f"  {tr['metric']}: {tr['from']} -> {tr['to']}")

    bench = report.get("bench")
    if bench:
        lines.append("bench:")
        for key in ("total_wall_s", "peak_rss_bytes"):
            cell = bench[key]
            lines.append(
                f"  {key:<16} {_fmt(cell['a']):>12} -> "
                f"{_fmt(cell['b']):>12}  ({_fmt_delta(cell)})"
            )

    regressions = report.get("regressions", ())
    if regressions:
        lines.append(f"REGRESSIONS ({len(regressions)}):")
        for reg in regressions:
            lines.append(f"  {format_regression(reg)}")
    else:
        lines.append("no regressions detected")
    return "\n".join(lines)
