"""Declarative SLOs over trace timelines, for CI gating.

A spec file declares bounds on a small registered catalog of service-level
metrics, all computed from a ``repro trace`` timeline by the same
single-pass frame fold as ``repro obs analyze``
(:class:`repro.obs.stream.AnalyzeAccumulator`) — no simulator re-run
needed::

    {
      "slos": [
        {"metric": "frame_loss_rate", "max": 0.25},
        {"metric": "p95_frame_latency_s", "max": 0.05},
        {"metric": "min_user_delivered_fps", "min": 5.0}
      ]
    }

``repro obs check <trace.jsonl> --spec <spec.json>`` evaluates every
entry and exits non-zero when any bound is violated (or a required metric
is unavailable in the trace), printing a per-SLO report — the same shape
CI archives as JSON.

Like metrics and trace events, SLO metrics live in a module-scope catalog
(:data:`SLO_METRICS`) so ``docs/METRICS.md`` can enumerate them and spec
files can be validated against known names.  Every metric is a pure,
deterministic function of the folded trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .stream import AnalyzeAccumulator

__all__ = [
    "SloMetric",
    "SLO_METRICS",
    "SloEntry",
    "SloResult",
    "load_spec",
    "evaluate_spec",
    "format_results",
    "results_jsonable",
]


@dataclass(frozen=True)
class SloMetric:
    """One registered service-level metric computed from a trace."""

    name: str
    unit: str
    help: str
    compute: Callable[[AnalyzeAccumulator], float | None]

    def describe(self) -> dict[str, Any]:
        """Static metadata — the METRICS.md generator input."""
        return {"name": self.name, "unit": self.unit, "help": self.help}


SLO_METRICS: dict[str, SloMetric] = {}


def _metric(
    name: str, unit: str, help: str
) -> Callable[[Callable[[AnalyzeAccumulator], float | None]], SloMetric]:
    def register(fn: Callable[[AnalyzeAccumulator], float | None]) -> SloMetric:
        declared = SloMetric(name=name, unit=unit, help=help, compute=fn)
        SLO_METRICS[name] = declared
        return declared

    return register


@_metric(
    "frame_loss_rate", "fraction",
    "closed frame delivery attempts with at least one user's frame lost, "
    "over all closed attempts",
)
def _frame_loss_rate(acc: AnalyzeAccumulator) -> float | None:
    closed = acc.blame_all.frames
    if not closed:
        return None
    return acc.status_counts["lost"] / closed


@_metric(
    "stall_rate", "stalls/frame",
    "closed loop only: playback stall onsets per played frame, from "
    "core.playback_state and core.frame_played events",
)
def _stall_rate(acc: AnalyzeAccumulator) -> float | None:
    if acc.played == 0:
        return None
    return acc.stalls / acc.played


@_metric(
    "p95_frame_latency_s", "s",
    "95th percentile (nearest-rank) of end-to-end frame delivery latency "
    "over closed attempts",
)
def _p95_frame_latency_s(acc: AnalyzeAccumulator) -> float | None:
    latencies = sorted(acc.latencies)
    if not latencies:
        return None
    rank = max(1, math.ceil(0.95 * len(latencies)))
    return latencies[rank - 1]


@_metric(
    "min_user_delivered_fps", "fps",
    "per-user delivered-frame-rate floor: for each (unit, user), frames "
    "delivered divided by the unit's total delivery airtime; the minimum "
    "over all users",
)
def _min_user_delivered_fps(acc: AnalyzeAccumulator) -> float | None:
    floor: float | None = None
    for (unit, _), count in acc.user_frames.items():
        unit_airtime = acc.unit_airtime[unit].value()
        if unit_airtime <= 0:
            fps = 0.0 if count == 0 else float("inf")
        else:
            fps = count / unit_airtime
        floor = fps if floor is None else min(floor, fps)
    return floor


@dataclass(frozen=True)
class SloEntry:
    """One declared bound: ``metric <= max`` or ``metric >= min``."""

    metric: str
    bound: float
    kind: str  # "max" | "min"

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            known = ", ".join(sorted(SLO_METRICS))
            raise ValueError(
                f"unknown SLO metric {self.metric!r} (known: {known})"
            )
        if self.kind not in ("max", "min"):
            raise ValueError(f"SLO kind must be 'max' or 'min', got {self.kind!r}")
        if not math.isfinite(self.bound):
            raise ValueError("SLO bound must be finite")


@dataclass(frozen=True)
class SloResult:
    """The verdict for one spec entry against one trace."""

    entry: SloEntry
    value: float | None
    ok: bool

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON shape for CI artifacts."""
        return {
            "metric": self.entry.metric,
            "kind": self.entry.kind,
            "bound": self.entry.bound,
            "value": self.value,
            "ok": self.ok,
        }


def load_spec(path: Path | str) -> list[SloEntry]:
    """Parse and validate an SLO spec file into entries."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("slos"), list):
        raise ValueError(f"{path}: expected an object with an 'slos' list")
    entries: list[SloEntry] = []
    for i, raw in enumerate(doc["slos"]):
        if not isinstance(raw, dict) or "metric" not in raw:
            raise ValueError(f"{path}: slos[{i}] needs a 'metric' key")
        has_max = "max" in raw
        has_min = "min" in raw
        if has_max == has_min:
            raise ValueError(
                f"{path}: slos[{i}] needs exactly one of 'max' or 'min'"
            )
        kind = "max" if has_max else "min"
        entries.append(
            SloEntry(
                metric=str(raw["metric"]),
                bound=float(raw[kind]),
                kind=kind,
            )
        )
    if not entries:
        raise ValueError(f"{path}: spec declares no SLOs")
    return entries


def evaluate_spec(
    entries: list[SloEntry], acc: AnalyzeAccumulator
) -> list[SloResult]:
    """Evaluate every entry; a metric the trace cannot supply fails it."""
    results: list[SloResult] = []
    for entry in entries:
        value = SLO_METRICS[entry.metric].compute(acc)
        if value is None:
            ok = False
        elif entry.kind == "max":
            ok = value <= entry.bound
        else:
            ok = value >= entry.bound
        results.append(SloResult(entry=entry, value=value, ok=ok))
    return results


def format_results(results: list[SloResult]) -> str:
    """Per-SLO verdict lines plus a PASS/FAIL summary."""
    lines = []
    for r in results:
        op = "<=" if r.entry.kind == "max" else ">="
        shown = "unavailable" if r.value is None else f"{r.value:.6g}"
        verdict = "ok  " if r.ok else "FAIL"
        lines.append(
            f"[{verdict}] {r.entry.metric} = {shown} "
            f"(required {op} {r.entry.bound:.6g})"
        )
    violations = sum(1 for r in results if not r.ok)
    lines.append(
        f"SLO check: {'PASS' if violations == 0 else 'FAIL'} "
        f"({len(results) - violations}/{len(results)} satisfied)"
    )
    return "\n".join(lines)


def results_jsonable(results: list[SloResult]) -> dict[str, Any]:
    """Canonical JSON document for an SLO evaluation (CI artifact shape)."""
    return {
        "schema": "repro.obs.slo/1",
        "ok": all(r.ok for r in results),
        "results": [r.to_jsonable() for r in results],
    }
