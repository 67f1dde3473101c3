#!/usr/bin/env python
"""Generate (or verify) docs/METRICS.md from the live observability catalog.

Every metric and trace event in this repo is declared at module scope, so
importing the instrumented modules populates ``repro.obs.REGISTRY`` and
``repro.obs.EVENT_TYPES`` — this tool imports them one at a time (diffing
the catalog after each import attributes every entry to the module that
declared it) and renders the result as a markdown reference.  CI runs
``--check`` so the document cannot drift from the code.

    PYTHONPATH=src python tools/gen_metrics_doc.py          # rewrite
    PYTHONPATH=src python tools/gen_metrics_doc.py --check  # verify only
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_OUT = REPO_ROOT / "docs" / "METRICS.md"

# Instrumented modules: each metric/event is attributed to the module whose
# namespace holds the declared object (identity match, so re-exports through
# package __init__ files do not steal attribution from the declaring module).
MODULES = [
    "repro.sim.engine",
    "repro.net.transport",
    "repro.net.arq",
    "repro.mac.scheduler",
    "repro.mac.events",
    "repro.core.qoe",
    "repro.core.grouping",
    "repro.core.mpc",
    "repro.scenario.shard",
]

HEADER = """\
# Metrics & trace events reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_metrics_doc.py
     CI verifies it with --check. -->

Every entry below is declared at module scope next to the code that emits
it (see `repro.obs` for the registry and recorder).  Metrics accumulate
only while a registry is enabled (`repro run --metrics-out`, or
`repro.obs.REGISTRY.enable()`); trace events are emitted only while a
`TraceRecorder` is installed (`repro trace <experiment>`, or
`repro.obs.recording()`).  Both are no-ops otherwise, so instrumented and
plain runs produce bit-identical experiment results.
"""


def _attributed_catalog() -> tuple[list[dict], list[dict]]:
    """Import instrumented modules and attribute each entry to its module."""
    # Importing the experiments package pulls in every instrumented module,
    # so an omission from MODULES still gets documented (as unattributed,
    # which the generated diff makes visible) rather than silently dropped.
    importlib.import_module("repro.experiments")
    from repro.obs import EVENT_TYPES, REGISTRY

    owner_by_id: dict[int, str] = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for obj in vars(module).values():
            owner_by_id.setdefault(id(obj), module_name)

    fallback = "(unattributed — add the declaring module to MODULES)"
    metrics = [
        {
            **REGISTRY.get(name).describe(),
            "module": owner_by_id.get(id(REGISTRY.get(name)), fallback),
        }
        for name in REGISTRY.names()
    ]
    events = [
        {
            **EVENT_TYPES[name].describe(),
            "module": owner_by_id.get(id(EVENT_TYPES[name]), fallback),
        }
        for name in sorted(EVENT_TYPES)
    ]
    return metrics, events


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def render() -> str:
    """Render the full METRICS.md content (deterministic, newline-terminated)."""
    metrics, events = _attributed_catalog()
    from repro.obs.analyze import SEGMENT_ORDER, SEGMENTS
    from repro.obs.slo import SLO_METRICS
    from repro.obs.trace import CORRELATION_FIELDS

    lines = [HEADER]

    lines.append("## Metrics\n")
    lines.append(f"{len(metrics)} registered metric(s).\n")
    lines.append("| name | kind | unit | layer | declared in | description |")
    lines.append("|---|---|---|---|---|---|")
    for m in metrics:
        help_text = m["help"]
        if m["kind"] == "histogram":
            edges = ", ".join(f"{e:g}" for e in m["edges"])
            help_text += f" (bucket edges: {edges})"
        lines.append(
            f"| `{m['name']}` | {m['kind']} | {m['unit']} | {m['layer']} "
            f"| `{m['module']}` | {_escape(help_text)} |"
        )

    lines.append("\n## Trace events\n")
    lines.append(f"{len(events)} declared trace event(s).\n")
    lines.append(
        "Every record also carries the common envelope fields "
        "`t` (sim-time seconds), `seq` (global emission order), `layer`, "
        "`event`, and — inside the CLI — `unit` (the RunSpec key)."
    )
    lines.append("")
    lines.append("| name | layer | fields | declared in | description |")
    lines.append("|---|---|---|---|---|")
    for e in events:
        fields = ", ".join(f"`{f}`" for f in e["fields"]) or "—"
        lines.append(
            f"| `{e['name']}` | {e['layer']} | {fields} "
            f"| `{e['module']}` | {_escape(e['help'])} |"
        )

    lines.append("\n## Correlation fields\n")
    lines.append(
        "The frame fold behind `repro obs analyze` and `repro obs check` "
        "joins events into per-frame groups *structurally*, on the "
        "declared correlation fields — never heuristically.  Instrumented "
        "taps attach every correlation field they know:"
    )
    lines.append("")
    corr_help = {
        "unit": "the RunSpec key of the work unit, set as ambient recorder "
                "context by the trace CLI; present on every record",
        "room": "the venue room an event belongs to, set as ambient "
                "recorder context by the shard engine while it runs that "
                "room (`repro.scenario`)",
        "ap": "the AP serving the event's room, set alongside `room` by "
              "the shard engine; `repro obs analyze` groups its per-shard "
              "latency attribution on (room, ap)",
        "frame": "the frame index this event contributes to (frame indices "
                 "repeat within a unit; a `net.frame_outcome` closes one "
                 "*occurrence* and later events open the next)",
        "user": "the single user id an event concerns (e.g. playback taps)",
        "users": "the receiver/member user ids of a transmission unit",
    }
    lines.append("| field | meaning |")
    lines.append("|---|---|")
    for name in CORRELATION_FIELDS:
        lines.append(f"| `{name}` | {_escape(corr_help[name])} |")

    lines.append("\n## Attribution segments\n")
    lines.append(
        f"{len(SEGMENTS)} blame segment(s) used by `repro obs analyze` "
        "(`repro.obs.analyze`).  Per frame, the segment seconds sum "
        "*exactly* to the frame's end-to-end delivery latency — the "
        "`unattributed` residual keeps the books closed."
    )
    lines.append("")
    lines.append("| name | layer | description |")
    lines.append("|---|---|---|")
    for name in SEGMENT_ORDER:
        s = SEGMENTS[name].describe()
        lines.append(f"| `{s['name']}` | {s['layer']} | {_escape(s['help'])} |")

    lines.append("\n## SLO metrics\n")
    lines.append(
        f"{len(SLO_METRICS)} service-level metric(s) computable from a "
        "recorded trace, gated by `repro obs check <trace> --spec "
        "<spec.json>` (`repro.obs.slo`)."
    )
    lines.append("")
    lines.append("| name | unit | description |")
    lines.append("|---|---|---|")
    for name in sorted(SLO_METRICS):
        s = SLO_METRICS[name].describe()
        lines.append(f"| `{s['name']}` | {s['unit']} | {_escape(s['help'])} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Write docs/METRICS.md, or with ``--check`` verify it is current."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the file on disk differs from the generated content",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        metavar="PATH",
        help=f"output path (default {DEFAULT_OUT.relative_to(REPO_ROOT)})",
    )
    args = parser.parse_args(argv)

    content = render()
    if args.check:
        on_disk = args.out.read_text() if args.out.exists() else None
        if on_disk != content:
            print(
                f"{args.out} is stale; regenerate with "
                "`PYTHONPATH=src python tools/gen_metrics_doc.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{args.out} is up to date")
        return 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(content)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
