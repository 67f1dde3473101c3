"""Run-to-run regression diffing over observability artifacts.

``repro obs diff <run_a> <run_b>`` consumes the canonical JSON artifacts
two runs left behind — the ``repro.obs.analyze/2`` blame report, and
optionally a metrics snapshot, an ``repro.obs.slo/1`` verdict document,
and a ``BENCH_<n>.json`` trajectory point per side — and emits one
canonical ``repro.obs.diff/1`` document: per-segment and per-layer
latency-blame deltas, per-``(room, ap)`` rollup deltas, admission and
policy-attribution deltas, SLO status transitions, and per-workload
end-to-end and per-layer bench deltas and kernel-speedup deltas, all as
``{"a": ..., "b": ..., "delta": b - a}`` cells.  Every section is
optional, so ``repro bench --compare`` is :func:`build_diff` over two
bench points alone.

Two properties make the output CI-friendly:

* Diffing a run against itself yields ``identical: true`` and all-zero
  deltas — and because the input artifacts are themselves deterministic
  (bit-identical across worker counts and cache hits), so is the diff.
* ``regressions`` lists every delta that crossed the tolerance in the
  bad direction (more late/lost frames, more problem airtime, an SLO
  flipping pass→fail, a bench metric worse than its bound, a kernel below
  its floor),
  so ``--fail-on-regression`` turns the diff into a gate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

from .analyze import SEGMENT_ORDER
from .bench import _PASSES, _is_num, validate_bench

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


def diff_bench(
    a: Mapping[str, Any], b: Mapping[str, Any], out: _Builder
) -> dict[str, Any]:
    """Diff two bench points (validated upstream).

    Workloads are compared only when both points measured them; the rest
    are listed in ``unpaired_workloads``.  An end-to-end row keeps the
    baseline's ``better`` and ``bound``, which the gate reads.  Kernels
    are compared by name, on either side.
    """
    wa, wb = a.get("workloads", {}), b.get("workloads", {})
    unpaired = sorted(set(wa) ^ set(wb))
    out.mark(bool(unpaired))
    ka = {row["name"]: row for row in a.get("kernels", ())}
    kb = {row["name"]: row for row in b.get("kernels", ())}
    out.mark(set(ka) != set(kb))
    kernels = [
        {"name": name, **{
            key: out.cell(ka.get(name, {}).get(key), kb.get(name, {}).get(key))
            for key in ("speedup", "min_speedup")
        }}
        for name in _union_keys(ka, kb)
    ]
    workloads = {}
    for name in sorted(set(wa) & set(wb)):
        workloads[name] = {}
        for section, _ in _PASSES:
            ra, rb = wa[name][section], wb[name][section]
            ma, mb = ra["metrics"], rb["metrics"]
            metrics = {}
            for metric in _union_keys(ma, mb):
                cell_a = ma.get(metric, {})
                cell = out.cell(cell_a.get("value"),
                                mb.get(metric, {}).get("value"))
                metrics[metric] = cell if section == "per_layer" else {
                    "value": cell,
                    "better": cell_a.get("better"),
                    "bound": cell_a.get("bound"),
                }
            workloads[name][section] = {
                "attempted": out.cell(ra["attempted"], rb["attempted"]),
                "failed": out.cell(ra["failed"], rb["failed"]),
                "metrics": metrics,
            }
    return {
        "workloads": workloads,
        "unpaired_workloads": unpaired,
        "kernels": kernels,
    }


def _collect_regressions(
    report: dict[str, Any], tolerance: float
) -> list[dict[str, Any]]:
    """Every delta that crossed ``tolerance`` in the bad direction.

    Counts (late/lost frames, SLO flips) regress on *any* increase;
    continuous quantities (problem airtime) get the relative tolerance:
    ``b > a * (1 + tolerance)``.  Bench points follow one rule, whose
    limits come from the baseline ``a``: a workload both points measured
    regresses when an end-to-end metric is worse than a's value by more
    than a's ``bound`` (in the direction a's ``better`` names) or when
    either pass fails more units; a kernel regresses when b's speedup
    falls below a's ``min_speedup`` floor, or b's own floor for a kernel
    a never measured (a ratio, so the gate holds on any machine; the
    entry's ``a`` is that floor).  Per-layer metrics have no bound and
    never regress.
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
        for name, entry in bench["workloads"].items():
            for section, _ in _PASSES:
                _count(f"bench.workload[{name}].{section}.failed",
                       entry[section]["failed"])
            for metric, row in entry["end_to_end"]["metrics"].items():
                a, b = row["value"]["a"], row["value"]["b"]
                bound = row["bound"]
                if not (_is_num(a) and _is_num(b) and _is_num(bound)):
                    continue
                if (b > a * (1.0 + bound) if row["better"] == "lower"
                        else b < a * (1.0 - bound)):
                    regressions.append(
                        {"what": f"bench.workload[{name}].{metric}",
                         "a": a, "b": b, "delta": row["value"]["delta"]}
                    )
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
        for name, entry in bench["workloads"].items():
            for metric, row in entry["end_to_end"]["metrics"].items():
                cell = row["value"]
                lines.append(
                    f"  {name + '.' + metric:<28} {_fmt(cell['a']):>12} -> "
                    f"{_fmt(cell['b']):>12}  ({_fmt_delta(cell)})"
                )
        if bench["unpaired_workloads"]:
            lines.append("  one point only: "
                         + ", ".join(bench["unpaired_workloads"]))

    regressions = report.get("regressions", ())
    if regressions:
        lines.append(f"REGRESSIONS ({len(regressions)}):")
        for reg in regressions:
            lines.append(f"  {format_regression(reg)}")
    else:
        lines.append("no regressions detected")
    return "\n".join(lines)
