"""Structured trace events: a sim-time-ordered timeline of what happened.

Instrumented modules declare their event types **at module scope**, which
both registers them in the catalog (so ``docs/METRICS.md`` can enumerate
them) and gives the call site a near-zero disabled fast path::

    from repro.obs import trace as _t

    _EV_ROUND = _t.event_type(
        "net.arq_round", layer="net",
        help="one completed block-ACK round",
        fields=("round", "packets", "pending"),
    )
    ...
    _EV_ROUND.emit(t=env.now, round=r, packets=n, pending=left)

``emit`` checks the module-global recorder and returns immediately when no
recording is active; truly hot paths (the sim engine inner loop) guard the
call itself with :func:`active` so not even the kwargs dict is built.

Recording is explicit: install a :class:`TraceRecorder` (directly or via
the :func:`recording` / :func:`streaming_recording` context managers) and
run the workload; the recorder keeps the timeline in memory or writes it
to a JSONL file as it goes.  Events carry the sim
time they were emitted at; within one :class:`~repro.sim.Environment` run
the emission order *is* sim-time order (the engine fires events in time
order), and the monotonically increasing ``seq`` field makes the total
order explicit across equal timestamps and across successive private
clocks (e.g. one transport simulation per frame).

Nothing here reads a clock or an RNG: tracing on/off cannot change any
experiment result (asserted by ``tests/obs/test_equivalence.py``).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "TraceEvent",
    "TraceEventType",
    "TraceRecorder",
    "FLUSH_EVERY",
    "EVENT_TYPES",
    "CORRELATION_FIELDS",
    "correlation",
    "event_type",
    "install",
    "uninstall",
    "active",
    "recording",
    "streaming_recording",
]

# The cross-layer join keys: every tap that knows one of these attaches it,
# so the frame fold (repro.obs.stream) joins events structurally instead of
# guessing from emission order.  ``unit`` is ambient recorder context (the
# RunSpec key, set by the trace CLI); ``room``/``ap`` are ambient shard
# context (set per room by the scenario shard engine); the rest are
# per-event fields.
CORRELATION_FIELDS = ("unit", "room", "ap", "frame", "user", "users")


def correlation(
    frame: int | None = None,
    user: int | None = None,
    users: tuple[int, ...] | None = None,
    room: str | None = None,
    ap: str | None = None,
) -> dict[str, Any]:
    """Correlation fields for an ``emit`` call, omitting the unknown ones.

    Taps deep in the stack (ARQ rounds, FEC blocks) receive the frame index
    and receiver ids as optional pass-through arguments; this keeps the
    "include only what the caller knows" convention in one place.  Most
    taps never pass ``room``/``ap`` explicitly — the shard engine sets
    them as ambient recorder context instead.
    """
    fields: dict[str, Any] = {}
    if frame is not None:
        fields["frame"] = int(frame)
    if user is not None:
        fields["user"] = int(user)
    if users is not None:
        fields["users"] = [int(u) for u in users]
    if room is not None:
        fields["room"] = str(room)
    if ap is not None:
        fields["ap"] = str(ap)
    return fields


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence: where on the timeline, what, and details."""

    t: float  # sim time the event was emitted at
    seq: int  # global emission order (total tie-break)
    layer: str  # sim | net | mac | core | runner
    event: str  # registered event-type name
    fields: dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON-line shape (stable key order)."""
        return {
            "t": self.t,
            "seq": self.seq,
            "layer": self.layer,
            "event": self.event,
            **{k: self.fields[k] for k in sorted(self.fields)},
        }


class TraceEventType:
    """A declared, documented kind of trace event plus its emit fast path."""

    __slots__ = ("name", "layer", "help", "fields")

    def __init__(
        self, name: str, layer: str, help: str, fields: tuple[str, ...]
    ) -> None:
        if not name:
            raise ValueError("trace event name must be non-empty")
        self.name = name
        self.layer = layer
        self.help = help
        self.fields = fields

    def emit(self, t: float | None = None, **fields: Any) -> None:
        """Record one occurrence; no-op when no recorder is installed.

        ``t`` defaults to the recorder's ambient sim time — the time of the
        engine event currently firing — so code without an ``env`` in reach
        (schedulers, groupers, adaptation policies) still lands at the
        right point on the timeline.
        """
        recorder = _RECORDER
        if recorder is None:
            return
        recorder.record(self, t, fields)

    def describe(self) -> dict[str, Any]:
        """Static metadata — the METRICS.md generator input."""
        return {
            "name": self.name,
            "layer": self.layer,
            "help": self.help,
            "fields": list(self.fields),
        }


EVENT_TYPES: dict[str, TraceEventType] = {}


def event_type(
    name: str, layer: str, help: str = "", fields: tuple[str, ...] = ()
) -> TraceEventType:
    """Declare (or re-fetch) an event type; idempotent under module reloads."""
    existing = EVENT_TYPES.get(name)
    if existing is not None:
        return existing
    declared = TraceEventType(name, layer, help, tuple(fields))
    EVENT_TYPES[name] = declared
    return declared


# Pending JSONL lines a file-backed recorder buffers between flushes.
FLUSH_EVERY = 4096


class TraceRecorder:
    """Records :class:`TraceEvent` records into one sink.

    With no ``path`` the sink is the in-memory :attr:`events` list; with
    a ``path`` each event is serialized the moment it is recorded and
    flushed to that JSONL file every :data:`FLUSH_EVERY` lines, so memory
    stays bounded however long the run.  Both sinks share the filtering
    and bookkeeping, and the file is exactly what serializing
    :attr:`events` line by line would give.

    ``now`` is the ambient sim time, maintained by the engine while firing
    events.  ``context`` fields (e.g. the :class:`~repro.runner.RunSpec`
    key the trace CLI sets per work unit) are merged into every event.
    ``layers``/``events`` apply the trace CLI's write filters at record
    time; filtered events still consume a ``seq``, so the kept records
    carry the numbers a full recording would.  ``len()`` counts kept
    events and :attr:`recorded` counts everything emitted.
    """

    def __init__(
        self,
        path: Path | str | None = None,
        layers: Iterable[str] | None = None,
        events: Iterable[str] | None = None,
    ) -> None:
        self.events: list[TraceEvent] = []
        self.now: float = 0.0
        self.context: dict[str, Any] = {}
        self.path = None if path is None else Path(path)
        self._layers = frozenset(layers) if layers else None
        self._names = frozenset(events) if events else None
        self._seq = 0
        self._counts: dict[str, int] = {}
        self._pending: list[str] = []
        self._fh = None
        if self.path is not None:
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8", newline="")

    def record(
        self,
        kind: TraceEventType,
        t: float | None,
        fields: Mapping[str, Any],
    ) -> None:
        """Record one event (called through :meth:`TraceEventType.emit`)."""
        seq = self._seq
        self._seq += 1
        if self._layers is not None and kind.layer not in self._layers:
            return
        if self._names is not None and kind.name not in self._names:
            return
        merged = {**self.context, **fields} if self.context else dict(fields)
        ev = TraceEvent(
            t=self.now if t is None else float(t),
            seq=seq,
            layer=kind.layer,
            event=kind.name,
            fields=merged,
        )
        self._counts[kind.layer] = self._counts.get(kind.layer, 0) + 1
        if self._fh is None:
            self.events.append(ev)
            return
        self._pending.append(
            json.dumps(ev.to_jsonable(), separators=(",", ":"))
        )
        if len(self._pending) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Write the pending lines out (newline-terminated)."""
        if self._pending:
            self._fh.write("\n".join(self._pending) + "\n")
            self._pending.clear()
            # Push through the interpreter's buffer so the on-disk file is
            # a valid (possibly shorter) trace at every flush boundary.
            self._fh.flush()

    def close(self) -> None:
        """Flush the tail and close the file (no-op for the memory sink)."""
        if self._fh is not None and not self._fh.closed:
            self.flush()
            self._fh.close()

    def set_context(self, **fields: Any) -> None:
        """Attach ``fields`` to every subsequently recorded event."""
        self.context.update(fields)

    def clear_context(self) -> None:
        """Drop all ambient context fields."""
        self.context.clear()

    @property
    def recorded(self) -> int:
        """Every event emitted, including the ones the filters dropped."""
        return self._seq

    def __len__(self) -> int:
        return sum(self._counts.values())

    def layer_counts(self) -> dict[str, int]:
        """Kept events per layer, keyed by sorted layer name."""
        return {layer: self._counts[layer] for layer in sorted(self._counts)}


_RECORDER: TraceRecorder | None = None


def install(recorder: TraceRecorder) -> None:
    """Make ``recorder`` the active sink for every ``emit`` in the process."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("a trace recorder is already installed")
    _RECORDER = recorder


def uninstall() -> None:
    """Deactivate tracing (idempotent)."""
    global _RECORDER
    _RECORDER = None


def active() -> TraceRecorder | None:
    """The currently installed recorder, or None — the hot-path guard."""
    return _RECORDER


@contextlib.contextmanager
def recording(
    path: Path | str | None = None,
    layers: Iterable[str] | None = None,
    events: Iterable[str] | None = None,
) -> Iterator[TraceRecorder]:
    """Install a fresh recorder, yield it, then uninstall and close it."""
    recorder = TraceRecorder(path, layers=layers, events=events)
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()
        recorder.close()


def streaming_recording(
    path: Path | str,
    layers: Iterable[str] | None = None,
    events: Iterable[str] | None = None,
) -> contextlib.AbstractContextManager[TraceRecorder]:
    """:func:`recording` straight into the JSONL file at ``path``."""
    return recording(path, layers=layers, events=events)
