"""repro.obs — structured observability for every layer of the stack.

Three pieces, all off by default and all guaranteed result-neutral (they
never touch an RNG, the sim clock, or experiment state):

* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms that components create at module scope;
  snapshots are deterministic (sorted keys, no wall clock) and merge
  across parallel work units in spec order.
* :mod:`repro.obs.trace` — declared trace event types plus a recorder
  producing a sim-time-ordered JSONL timeline; hooked into the sim engine,
  the transport, the MAC scheduler, and the streaming session.
* :mod:`repro.obs.profile` — wall-clock phase profiling for the runner's
  ``--timings`` output.

On top of the recording substrate sits the analysis tier:

* :mod:`repro.obs.stream` — the single-pass, bounded-memory frame fold
  (:class:`AnalyzeAccumulator`: structural ``(unit, frame)`` span groups,
  exact Shewchuk sums, deterministic cross-shard merge) behind ``repro
  obs analyze`` and ``repro obs check``;
* :mod:`repro.obs.analyze` — deadline critical-path attribution: each
  frame's end-to-end latency decomposed into named layer segments whose
  per-frame totals sum exactly to the frame latency;
* :mod:`repro.obs.slo` — declarative SLO specs evaluated against a trace
  (CI gating via ``repro obs check``);
* :mod:`repro.obs.diff` — ``repro obs diff``: canonical
  ``repro.obs.diff/1`` regression reports over two runs' artifacts, and
  the one BENCH comparison rule behind ``repro bench --compare``;
* :mod:`repro.obs.bench` — the ``repro bench`` perf-trajectory harness
  (``BENCH_<n>.json`` points, their schema, and ``--compare`` gating);
* :mod:`repro.obs.report` — ``repro obs report``: self-contained
  markdown/HTML run reports with a BENCH trajectory sparkline.

CLI surface: ``repro trace <experiment>`` records a timeline straight to
disk (with ``--layer``/``--event`` write filters), ``repro obs analyze`` /
``repro obs check`` consume one, ``repro obs diff`` / ``repro obs
report`` consume the resulting artifacts, ``repro bench`` measures the
runner, ``repro run --metrics-out FILE`` dumps merged metrics.  Every
metric, event, segment, and SLO metric is documented in
``docs/METRICS.md``, generated (and drift-checked in CI) by
``tools/gen_metrics_doc.py``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    merge_snapshots,
    write_snapshot,
)
from .profile import PhaseProfiler
from .stream import (
    AnalyzeAccumulator,
    ExactSum,
    LatencyHistogram,
    stream_analyze,
)
from .trace import (
    CORRELATION_FIELDS,
    EVENT_TYPES,
    TraceEvent,
    TraceEventType,
    TraceRecorder,
    correlation,
    event_type,
    recording,
    streaming_recording,
)

__all__ = [
    "AnalyzeAccumulator",
    "CORRELATION_FIELDS",
    "Counter",
    "EVENT_TYPES",
    "ExactSum",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "REGISTRY",
    "TraceEvent",
    "TraceEventType",
    "TraceRecorder",
    "correlation",
    "event_type",
    "merge_snapshots",
    "recording",
    "stream_analyze",
    "streaming_recording",
    "write_snapshot",
]
