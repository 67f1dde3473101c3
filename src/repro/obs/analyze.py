"""Deadline critical-path attribution: the segment catalog and its rules.

For every frame delivery attempt the transport traced, decompose the
frame's end-to-end latency into named layer segments — where did the
budget actually go?  The segments come from the events' own duration
fields (never from timestamp subtraction across taps):

* ``first_tx``   (net) — first-round data airtime: round-1 ARQ PDUs, FEC
  source PDUs, or the whole airtime of an ideal-mode (fluid) frame;
* ``arq_retx``   (net) — data airtime of ARQ rounds 2+ (union
  retransmissions);
* ``arq_feedback`` (mac) — per-member block-ACK feedback and round
  turnaround, every round;
* ``fec_repair`` (net) — FEC repair PDUs beyond the k source PDUs
  (including the deadline-truncation remainder);
* ``deadline_waste`` (net) — the partial ARQ round the deadline cut
  short: airtime that delivered nothing;
* ``beam_switch`` (mac) — beam-switch overheads paid before transmission
  units;
* ``capture_wait`` (core) / ``fanout`` (net) — live-conferencing
  placeholders (capture-to-uplink wait, N×N replication airtime);
  declared so the ROADMAP's ReVo-style live scenario lands with blame
  decomposition in place, zero-width in every current trace;
* ``unattributed`` (net) — the residual between the frame's recorded
  latency and the sum of the segments above (floating-point drift and
  any untraced gap), kept explicit so per-frame totals sum *exactly* to
  the frame's end-to-end latency — ``tests/obs/test_analyze.py`` asserts
  the equality with ``==``, not approximately.

The single-pass fold (:func:`repro.obs.stream.stream_analyze`) applies
these rules per frame and folds the attributions into a blame table over
all frames and over the *problem* frames (late or lost) — the deadline
critical path the paper's cross-layer argument is about — plus a
per-layer rollup and the worst offending frames; :func:`format_report`
renders it.  The output is canonical JSON: same trace in, bit-identical
report out.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

__all__ = [
    "AttributionSegment",
    "SEGMENTS",
    "SEGMENT_ORDER",
    "fold_event_into_segments",
    "close_attribution",
    "format_report",
]


class AttributionSegment:
    """One named destination for frame-latency blame."""

    __slots__ = ("name", "layer", "help")

    def __init__(self, name: str, layer: str, help: str) -> None:
        if not name:
            raise ValueError("segment name must be non-empty")
        self.name = name
        self.layer = layer
        self.help = help

    def describe(self) -> dict[str, Any]:
        """Static metadata — the METRICS.md generator input."""
        return {"name": self.name, "layer": self.layer, "help": self.help}


SEGMENTS: dict[str, AttributionSegment] = {}


def _segment(name: str, layer: str, help: str) -> AttributionSegment:
    declared = AttributionSegment(name, layer, help)
    SEGMENTS[name] = declared
    return declared


SEG_FIRST_TX = _segment(
    "first_tx", "net",
    "first-round data airtime: round-1 ARQ PDUs, FEC source PDUs, or the "
    "whole airtime of an ideal-mode frame",
)
SEG_ARQ_RETX = _segment(
    "arq_retx", "net",
    "data airtime of ARQ rounds 2+ — union retransmissions of lost PDUs",
)
SEG_ARQ_FEEDBACK = _segment(
    "arq_feedback", "mac",
    "per-member block-ACK feedback plus round turnaround, every ARQ round",
)
SEG_FEC_REPAIR = _segment(
    "fec_repair", "net",
    "FEC repair airtime beyond the k source PDUs (truncation remainder "
    "included)",
)
SEG_DEADLINE_WASTE = _segment(
    "deadline_waste", "net",
    "the partial ARQ round the frame deadline cut short; delivered nothing",
)
SEG_BEAM_SWITCH = _segment(
    "beam_switch", "mac",
    "beam-switch overheads paid before transmission units",
)
SEG_CAPTURE_WAIT = _segment(
    "capture_wait", "core",
    "live conferencing only: time a captured frame waited at the sender "
    "before its uplink began (zero-width placeholder in current traces)",
)
SEG_FANOUT = _segment(
    "fanout", "net",
    "live conferencing only: airtime replicating a captured frame toward "
    "its remote viewers (zero-width placeholder in current traces)",
)
SEG_UNATTRIBUTED = _segment(
    "unattributed", "net",
    "residual between the frame's recorded latency and the summed segments "
    "(float drift / untraced gaps); keeps per-frame totals exact",
)

SEGMENT_ORDER: tuple[str, ...] = tuple(SEGMENTS)


def fold_event_into_segments(
    seg: dict[str, float], ev: Mapping[str, Any]
) -> bool:
    """Fold one event's reported durations into a per-frame segment dict.

    Returns whether the event carried a latency breakdown at all.
    """
    name = ev.get("event")
    if name == "net.arq_round":
        data_s = float(ev.get("data_s", 0.0))
        if int(ev.get("round", 1)) <= 1:
            seg[SEG_FIRST_TX.name] += data_s
        else:
            seg[SEG_ARQ_RETX.name] += data_s
        seg[SEG_ARQ_FEEDBACK.name] += float(ev.get("overhead_s", 0.0))
        return True
    if name == "net.arq_deadline":
        seg[SEG_DEADLINE_WASTE.name] += float(ev.get("wasted_s", 0.0))
        return True
    if name == "net.fec_tx":
        seg[SEG_FIRST_TX.name] += float(ev.get("source_s", 0.0))
        seg[SEG_FEC_REPAIR.name] += float(ev.get("repair_s", 0.0))
        return True
    if name == "net.beam_switch":
        seg[SEG_BEAM_SWITCH.name] += float(ev.get("overhead_s", 0.0))
        return True
    if name == "core.capture_wait":
        seg[SEG_CAPTURE_WAIT.name] += float(ev.get("wait_s", 0.0))
        return True
    if name == "net.fanout":
        seg[SEG_FANOUT.name] += float(ev.get("airtime_s", 0.0))
        return True
    return False


def close_attribution(
    seg: dict[str, float], airtime: float, saw_breakdown: bool
) -> None:
    """Make the segment dict sum *exactly* to the frame's latency.

    Without any breakdown events the whole latency is one uninterrupted
    first transmission (ideal/fluid delivery); then the residual is pushed
    into ``unattributed`` until the ``fsum`` over all segments equals the
    recorded latency bit-for-bit.
    """
    if not saw_breakdown:
        seg[SEG_FIRST_TX.name] = airtime
    for _ in range(8):
        diff = airtime - math.fsum(seg.values())
        if diff == 0.0:
            break
        seg[SEG_UNATTRIBUTED.name] += diff


def format_report(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of an analyze report."""
    from ..experiments.common import format_table

    frames = report["frames"]
    lines = [
        f"frames: {frames['total']} total — {frames['on_time']} on time, "
        f"{frames['late']} late, {frames['lost']} lost"
        + (
            f", {frames['incomplete']} incomplete"
            if frames["incomplete"]
            else ""
        ),
    ]
    problem = report["blame"]["problem"]
    scope, entry = (
        ("late/lost frames", problem)
        if problem["frames"]
        else ("all frames", report["blame"]["all"])
    )
    lines.append(
        f"blame over {scope} ({entry['frames']} frame(s), "
        f"{entry['airtime_s'] * 1e3:.2f} ms of latency):"
    )
    rows = []
    for name in SEGMENT_ORDER:
        cell = entry["segments"][name]
        if cell["seconds"] == 0.0:
            continue
        rows.append([
            name,
            SEGMENTS[name].layer,
            f"{cell['seconds'] * 1e3:.3f}",
            f"{cell['share'] * 100:.1f}%",
        ])
    lines.append(format_table(["segment", "layer", "ms", "share"], rows))
    layer_bits = ", ".join(
        f"{layer} {seconds * 1e3:.3f} ms"
        for layer, seconds in entry["by_layer"].items()
        if seconds != 0.0
    )
    if layer_bits:
        lines.append(f"by layer: {layer_bits}")
    by_shard = report.get("by_shard") or []
    if by_shard:
        lines.append("per-shard latency attribution:")
        rows = []
        for entry in by_shard:
            top_seg = max(
                SEGMENT_ORDER,
                key=lambda name: entry["segments"][name]["seconds"],
            )
            rows.append([
                entry["room"],
                entry["ap"],
                entry["frames"],
                entry["late"],
                entry["lost"],
                f"{entry['airtime_s'] * 1e3:.2f}",
                top_seg,
            ])
        lines.append(
            format_table(
                ["room", "ap", "frames", "late", "lost", "ms", "top segment"],
                rows,
            )
        )
    admission = report.get("admission") or []
    if admission:
        lines.append("admission by room:")
        rows = [
            [
                row["room"],
                row["ap"],
                row["arrivals"],
                row["rejected"],
                row["departures"],
                row["peak_occupancy"],
                row["capacity"] if row["capacity"] is not None else "-",
            ]
            for row in admission
        ]
        lines.append(
            format_table(
                ["room", "ap", "arrivals", "rejected", "departures",
                 "peak", "capacity"],
                rows,
            )
        )
    hist = report.get("latency_hist")
    if hist and hist["count"]:
        mean_ms = hist["sum"] / hist["count"] * 1e3
        lines.append(
            f"frame latency: {hist['count']} sample(s), "
            f"mean {mean_ms:.2f} ms"
        )
    if report["worst_frames"]:
        lines.append("worst frames by delivery latency:")
        for row in report["worst_frames"]:
            deadline = row["deadline_s"]
            budget = (
                f" (deadline {deadline * 1e3:.2f} ms)"
                if deadline is not None
                else ""
            )
            lost = (
                f", lost users {row['lost_users']}" if row["lost_users"] else ""
            )
            lines.append(
                f"  {row['unit'] or '(no unit)'} frame {row['frame']}"
                f"#{row['occurrence']}: {row['status']}, "
                f"{row['airtime_s'] * 1e3:.2f} ms{budget}{lost}"
            )
    return "\n".join(lines)
