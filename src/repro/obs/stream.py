"""The single-pass, bounded-memory fold of trace timelines into frames.

``repro trace`` writes a flat JSONL timeline — one record per event, in
``seq`` order.  :class:`AnalyzeAccumulator` folds that timeline back into
the structure the simulation had while it ran, one event at a time: one
*span group* per frame delivery attempt, attributed the moment its
``net.frame_outcome`` closes it and then dropped.  The only per-key
residual is one occurrence counter per distinct ``(unit, frame)``, plus
the few tallies the SLO catalog (:mod:`repro.obs.slo`) reads.

Joining is structural, never heuristic: every instrumented tap attaches
the correlation fields it knows (:data:`repro.obs.trace.CORRELATION_FIELDS`
— ``unit`` from ambient recorder context, ``frame``/``user``/``users``
per event), so an event belongs to a span group iff its ``(unit, frame)``
matches.  Frame indices legitimately repeat within a unit — the loss sweep
replays the same frames at every loss point, and the closed-loop session
re-requests lost frames — so groups are keyed by *occurrence*: a
``net.frame_outcome`` closes the current occurrence of its frame, and any
later event with the same frame index opens the next one.

Cross-frame sums use :class:`ExactSum` (Shewchuk's exact partials, the
machinery behind :func:`math.fsum`): the rounded total is the correctly
rounded value of the *real* sum, so it is invariant under event
reordering across frames and under accumulator merging at any shard
boundary — ``tests/obs/test_stream.py`` asserts both with ``==``.

The cross-shard contract for :meth:`AnalyzeAccumulator.merge`: each
accumulator must have consumed a *unit-disjoint* slice of the timeline
(the shard planner splits at room/spec boundaries, so ``(unit, frame)``
span groups never straddle accumulators), and merging in spec order
yields the same report as one accumulator over the concatenated stream.
"""

from __future__ import annotations

import bisect
import json
import math
from array import array
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .analyze import (
    SEGMENTS,
    SEGMENT_ORDER,
    close_attribution,
    fold_event_into_segments,
)

__all__ = [
    "ExactSum",
    "LATENCY_HIST_EDGES",
    "LatencyHistogram",
    "AnalyzeAccumulator",
    "iter_events",
    "fold_trace",
    "stream_analyze",
]


class ExactSum:
    """An exactly-rounded, mergeable running sum of floats.

    Maintains Shewchuk's non-overlapping partials (the :func:`math.fsum`
    algorithm) so :meth:`value` is the correctly rounded sum of the *real*
    (infinite-precision) total.  Because the real total is independent of
    addition order, so is the rounded value — which is what makes
    shard-split accumulation bit-identical to a single pass, where a plain
    ``+=`` would drift by a few ulps per reordering.
    """

    __slots__ = ("_partials",)

    def __init__(self, value: float = 0.0) -> None:
        self._partials: list[float] = [float(value)] if value else []

    def add(self, x: float) -> None:
        """Fold one float in exactly."""
        partials = self._partials
        x = float(x)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another exact sum in; exact, so order never matters."""
        for y in other._partials:
            self.add(y)

    def value(self) -> float:
        """The correctly rounded total (bit-identical to ``math.fsum`` of
        every value ever added, in any order)."""
        return math.fsum(self._partials)


# Fixed latency-histogram bucket edges (seconds): sub-frame-time buckets
# around the 30/60 fps deadlines up to a one-second overflow.
LATENCY_HIST_EDGES: tuple[float, ...] = (
    0.005, 0.01, 0.0167, 0.0333, 0.05, 0.1, 0.2, 0.5, 1.0,
)


class LatencyHistogram:
    """A fixed-edge histogram whose merge is order-invariant.

    Bucket counts are integers (exact under any ordering) and the running
    sum is an :class:`ExactSum`, so histograms built from differently
    ordered or differently sharded event streams finalize bit-identically
    (property-tested with hypothesis in ``tests/obs/test_stream.py``).
    """

    __slots__ = ("edges", "_counts", "_sum", "_count")

    def __init__(self, edges: Iterable[float] = LATENCY_HIST_EDGES) -> None:
        self.edges = tuple(float(e) for e in edges)
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("histogram edges must strictly increase")
        self._counts = [0] * (len(self.edges) + 1)
        self._sum = ExactSum()
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one sample (first bucket whose edge >= value)."""
        self._counts[bisect.bisect_left(self.edges, value)] += 1
        self._sum.add(value)
        self._count += 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (edges must match)."""
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        self._counts = [a + b for a, b in zip(self._counts, other._counts)]
        self._sum.merge(other._sum)
        self._count += other._count

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON shape (mirrors the metrics-registry histogram)."""
        return {
            "edges": list(self.edges),
            "counts": list(self._counts),
            "sum": self._sum.value(),
            "count": self._count,
        }


class _BlameAcc:
    """One blame-table row under construction: exact per-segment sums."""

    __slots__ = ("frames", "airtime", "seg")

    def __init__(self) -> None:
        self.frames = 0
        self.airtime = ExactSum()
        self.seg = {name: ExactSum() for name in SEGMENT_ORDER}

    def fold(self, seg: Mapping[str, float], airtime_s: float) -> None:
        self.frames += 1
        self.airtime.add(airtime_s)
        for name in SEGMENT_ORDER:
            self.seg[name].add(seg[name])

    def merge(self, other: "_BlameAcc") -> None:
        self.frames += other.frames
        self.airtime.merge(other.airtime)
        for name in SEGMENT_ORDER:
            self.seg[name].merge(other.seg[name])

    def copy(self) -> "_BlameAcc":
        clone = _BlameAcc()
        clone.merge(self)
        return clone

    def finalize(self) -> dict[str, Any]:
        """The canonical blame-entry shape of the analyze report."""
        airtime = self.airtime.value()
        totals = {name: self.seg[name].value() for name in SEGMENT_ORDER}
        segments = {
            name: {
                "seconds": totals[name],
                "share": (totals[name] / airtime) if airtime > 0 else 0.0,
            }
            for name in SEGMENT_ORDER
        }
        by_layer: dict[str, float] = {}
        for name in SEGMENT_ORDER:
            layer = SEGMENTS[name].layer
            by_layer[layer] = by_layer.get(layer, 0.0) + totals[name]
        return {
            "frames": self.frames,
            "airtime_s": airtime,
            "segments": segments,
            "by_layer": {layer: by_layer[layer] for layer in sorted(by_layer)},
        }


class _OpenFrame:
    """In-flight span group: just enough state to attribute it at close."""

    __slots__ = (
        "unit", "frame", "occurrence", "room", "ap", "seg", "saw_breakdown",
    )

    def __init__(self, unit: str | None, frame: int, occurrence: int) -> None:
        self.unit = unit
        self.frame = frame
        self.occurrence = occurrence
        self.room: str | None = None
        self.ap: str | None = None
        self.seg = {name: 0.0 for name in SEGMENT_ORDER}
        self.saw_breakdown = False


# Events that describe a finished delivery after the fact; they never open
# or close a span group.
_ANNOTATION_EVENTS = ("core.frame_played", "core.qoe_sample")

_ADMISSION_EVENTS = {
    "scenario.user_arrival": "arrivals",
    "scenario.user_rejected": "rejected",
    "scenario.user_departure": "departures",
}


class AnalyzeAccumulator:
    """Single-pass, mergeable construction of the ``analyze`` report.

    Feed events in ``seq`` order via :meth:`add_event`; closed frames are
    attributed immediately (by the fold rules of
    :func:`repro.obs.analyze.fold_event_into_segments`) and dropped, so
    the open-group state stays bounded by the number of *concurrently
    open* frames, not the trace length.  :meth:`merge` folds another
    accumulator built from a unit-disjoint stream slice; :meth:`finalize`
    emits the canonical report dict (``repro.obs.analyze/2``).

    The SLO tallies — ``stalls``, ``played``, ``latencies`` (one double
    per closed frame), ``unit_airtime`` and ``user_frames`` — feed
    :mod:`repro.obs.slo` and never reach the report.
    """

    def __init__(self, top: int = 5) -> None:
        self.top = max(0, int(top))
        self.num_events = 0
        self.frames_total = 0
        self.status_counts = {"on_time": 0, "late": 0, "lost": 0}
        self.blame_all = _BlameAcc()
        self.blame_late = _BlameAcc()
        self.blame_lost = _BlameAcc()
        self.latency_hist = LatencyHistogram()
        self._units: set[str] = set()
        # (room, ap) -> [_BlameAcc, late, lost]
        self._shards: dict[tuple[str, str], list[Any]] = {}
        # (room, ap) -> admission tallies
        self._admission: dict[tuple[str, str], dict[str, Any]] = {}
        # decision event name -> policy label -> count
        self._policies: dict[str, dict[str, int]] = {}
        # sorted [( (-airtime, key), worst-frame entry ), ...], len <= top
        self._worst: list[tuple[tuple, dict[str, Any]]] = []
        # (unit, frame) -> open group / occurrence counter
        self._open: dict[tuple[str | None, int], _OpenFrame] = {}
        self._occurrences: dict[tuple[str | None, int], int] = {}
        # playback stall onsets / frames played into an opened frame
        self.stalls = 0
        self.played = 0
        self.latencies = array("d")
        # unit -> exact delivery airtime; (unit, user) -> frames delivered
        self.unit_airtime: dict[str | None, ExactSum] = {}
        self.user_frames: dict[tuple[str | None, int], int] = {}

    # -- folding ---------------------------------------------------------

    def add_event(self, ev: Mapping[str, Any]) -> None:
        """Fold one trace event; must be called in ``seq`` order."""
        self.num_events += 1
        name = ev.get("event")
        unit = ev.get("unit")
        unit_s = None if unit is None else str(unit)
        if unit_s is not None:
            self._units.add(unit_s)

        policy = ev.get("policy")
        if policy is not None and name:
            per = self._policies.setdefault(str(name), {})
            label = str(policy)
            per[label] = per.get(label, 0) + 1

        counter = _ADMISSION_EVENTS.get(name or "")
        if counter is not None:
            self._fold_admission(ev, counter)

        frame = ev.get("frame")
        if frame is None:
            if name == "core.playback_state" and ev.get("state") == "stalled":
                self.stalls += 1
            return
        gk = (unit_s, int(frame))
        if name in _ANNOTATION_EVENTS:
            # After-the-fact annotations count (and a play-out counts
            # toward the stall rate once its frame has opened) but never
            # open, join or close a span group.
            if name == "core.frame_played" and gk in self._occurrences:
                self.played += 1
            return

        group = self._open.get(gk)
        if group is None:
            index = self._occurrences.get(gk, 0)
            self._occurrences[gk] = index + 1
            group = _OpenFrame(unit_s, int(frame), index)
            self._open[gk] = group
            self.frames_total += 1
        if group.room is None and ev.get("room") is not None:
            group.room = str(ev["room"])
        if group.ap is None and ev.get("ap") is not None:
            group.ap = str(ev["ap"])
        group.saw_breakdown |= fold_event_into_segments(group.seg, ev)
        if name == "net.frame_outcome":
            self._close(group, ev)
            del self._open[gk]

    def _fold_admission(self, ev: Mapping[str, Any], counter: str) -> None:
        key = (str(ev.get("room") or ""), str(ev.get("ap") or ""))
        row = self._admission.get(key)
        if row is None:
            row = {
                "arrivals": 0, "rejected": 0, "departures": 0,
                "peak_occupancy": 0, "capacity": None,
            }
            self._admission[key] = row
        row[counter] += 1
        active = ev.get("active")
        if active is not None:
            row["peak_occupancy"] = max(row["peak_occupancy"], int(active))
        capacity = ev.get("capacity")
        if capacity is not None:
            cap = int(capacity)
            if row["capacity"] is None or cap > row["capacity"]:
                row["capacity"] = cap

    def _close(self, group: _OpenFrame, outcome: Mapping[str, Any]) -> None:
        airtime = float(outcome.get("airtime_s", 0.0))
        close_attribution(group.seg, airtime, group.saw_breakdown)

        lost_users = [int(u) for u in outcome.get("lost_users", ())]
        deadline = outcome.get("deadline_s")
        deadline_f = None if deadline is None else float(deadline)
        if lost_users:
            status = "lost"
        elif deadline_f is not None and airtime > deadline_f:
            status = "late"
        else:
            status = "on_time"

        self.status_counts[status] += 1
        self.blame_all.fold(group.seg, airtime)
        if status == "late":
            self.blame_late.fold(group.seg, airtime)
        elif status == "lost":
            self.blame_lost.fold(group.seg, airtime)
        self.latency_hist.observe(airtime)
        self.latencies.append(airtime)
        unit_airtime = self.unit_airtime.get(group.unit)
        if unit_airtime is None:
            unit_airtime = self.unit_airtime[group.unit] = ExactSum()
        unit_airtime.add(airtime)
        user_frames = self.user_frames
        for u in outcome.get("delivered_users", ()):
            key = (group.unit, int(u))
            user_frames[key] = user_frames.get(key, 0) + 1
        for u in lost_users:
            user_frames.setdefault((group.unit, u), 0)

        if group.room is not None or group.ap is not None:
            sk = (group.room or "", group.ap or "")
            shard = self._shards.get(sk)
            if shard is None:
                shard = [_BlameAcc(), 0, 0]
                self._shards[sk] = shard
            shard[0].fold(group.seg, airtime)
            if status == "late":
                shard[1] += 1
            elif status == "lost":
                shard[2] += 1

        if self.top:
            entry = {
                "unit": group.unit,
                "frame": group.frame,
                "occurrence": group.occurrence,
                "status": status,
                "airtime_s": airtime,
                "deadline_s": deadline_f,
                "lost_users": lost_users,
                "segments": {
                    name: group.seg[name] for name in SEGMENT_ORDER
                },
            }
            sort_key = (
                -airtime, (group.unit or "", group.frame, group.occurrence),
            )
            bisect.insort(self._worst, (sort_key, entry))
            del self._worst[self.top:]

    # -- merging ---------------------------------------------------------

    def merge(self, other: "AnalyzeAccumulator") -> None:
        """Fold another accumulator built from a unit-disjoint slice.

        Exact sums make the numeric totals independent of merge order;
        call in spec order anyway so any still-open groups and the worst
        tie-breaks stay deterministic and documentation-friendly.
        """
        if self.top != other.top:
            raise ValueError("cannot merge accumulators with different top")
        overlap = self._occurrences.keys() & other._occurrences.keys()
        if overlap:
            raise ValueError(
                "accumulators overlap on (unit, frame) keys — shard streams "
                f"must be unit-disjoint; e.g. {sorted(overlap)[:3]}"
            )
        self.num_events += other.num_events
        self.frames_total += other.frames_total
        for status, count in other.status_counts.items():
            self.status_counts[status] += count
        self.blame_all.merge(other.blame_all)
        self.blame_late.merge(other.blame_late)
        self.blame_lost.merge(other.blame_lost)
        self.latency_hist.merge(other.latency_hist)
        self._units |= other._units
        for sk, (acc, late, lost) in sorted(other._shards.items()):
            shard = self._shards.get(sk)
            if shard is None:
                self._shards[sk] = [acc.copy(), late, lost]
            else:
                shard[0].merge(acc)
                shard[1] += late
                shard[2] += lost
        for key, row in other._admission.items():
            mine = self._admission.get(key)
            if mine is None:
                self._admission[key] = dict(row)
                continue
            for counter in ("arrivals", "rejected", "departures"):
                mine[counter] += row[counter]
            mine["peak_occupancy"] = max(
                mine["peak_occupancy"], row["peak_occupancy"]
            )
            if row["capacity"] is not None and (
                mine["capacity"] is None or row["capacity"] > mine["capacity"]
            ):
                mine["capacity"] = row["capacity"]
        for name, per in other._policies.items():
            mine_p = self._policies.setdefault(name, {})
            for label, count in per.items():
                mine_p[label] = mine_p.get(label, 0) + count
        merged_worst = sorted(self._worst + other._worst)
        del merged_worst[self.top:]
        self._worst = merged_worst
        self._open.update(other._open)
        self._occurrences.update(other._occurrences)
        self.stalls += other.stalls
        self.played += other.played
        self.latencies.extend(other.latencies)
        for unit, airtime in other.unit_airtime.items():
            self.unit_airtime.setdefault(unit, ExactSum()).merge(airtime)
        for key, count in other.user_frames.items():
            self.user_frames[key] = self.user_frames.get(key, 0) + count

    # -- finalizing ------------------------------------------------------

    def finalize(self) -> dict[str, Any]:
        """Emit the canonical analyze report (``repro.obs.analyze/2``)."""
        problem = self.blame_late.copy()
        problem.merge(self.blame_lost)
        closed = self.blame_all.frames
        by_shard = [
            {
                "room": room,
                "ap": ap,
                "late": self._shards[(room, ap)][1],
                "lost": self._shards[(room, ap)][2],
                **self._shards[(room, ap)][0].finalize(),
            }
            for room, ap in sorted(self._shards)
        ]
        admission = [
            {"room": room, "ap": ap, **self._admission[(room, ap)]}
            for room, ap in sorted(self._admission)
        ]
        return {
            "schema": "repro.obs.analyze/2",
            "num_events": self.num_events,
            "units": sorted(self._units),
            "frames": {
                "total": self.frames_total,
                "closed": closed,
                "incomplete": self.frames_total - closed,
                "on_time": self.status_counts["on_time"],
                "late": self.status_counts["late"],
                "lost": self.status_counts["lost"],
            },
            "blame": {
                "all": self.blame_all.finalize(),
                "late": self.blame_late.finalize(),
                "lost": self.blame_lost.finalize(),
                "problem": problem.finalize(),
            },
            "by_shard": by_shard,
            "worst_frames": [entry for _, entry in self._worst],
            "admission": admission,
            "policies": {
                name: {
                    label: self._policies[name][label]
                    for label in sorted(self._policies[name])
                }
                for name in sorted(self._policies)
            },
            "latency_hist": self.latency_hist.to_jsonable(),
        }


def iter_events(path: Path | str) -> Iterator[dict[str, Any]]:
    """Stream a ``repro trace`` JSONL file one event dict at a time.

    Never holds the file in memory.  Errors are diagnosed, not raised raw:
    an unparsable line reports its ``path:lineno``, a final line cut off
    mid-record (no trailing newline — the classic partial write of an
    interrupted run) is called out as truncated, and a ``seq`` that does
    not increase — a reordered or concatenated file, which would fold
    into a silently different report — names the offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        last_seq = None
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                if not raw.endswith("\n"):
                    raise ValueError(
                        f"{path}:{lineno}: truncated trace record (partial "
                        f"write?): {line[:60]!r}"
                    ) from exc
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            seq = event.get("seq")
            if isinstance(seq, int):
                if last_seq is not None and seq <= last_seq:
                    raise ValueError(
                        f"{path}:{lineno}: seq {seq} does not follow seq "
                        f"{last_seq} (reordered or concatenated trace?)"
                    )
                last_seq = seq
            yield event


def fold_trace(
    paths: Path | str | Iterable[Path | str], top: int = 5
) -> AnalyzeAccumulator:
    """Fold one or more trace files, in the given order, into one
    :class:`AnalyzeAccumulator` in a single bounded-memory pass."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    acc = AnalyzeAccumulator(top=top)
    for path in paths:
        for ev in iter_events(path):
            acc.add_event(ev)
    return acc


def stream_analyze(
    paths: Path | str | Iterable[Path | str], top: int = 5
) -> dict[str, Any]:
    """The canonical analyze report of one or more trace files."""
    return fold_trace(paths, top=top).finalize()
