"""Per-layer spans recorded from outside the program.

``traced`` patches each public function in ``CALL_SITES`` where it is
looked up (``from m import f`` binds ``f`` in the caller's namespace, so
the defining module alone is not enough), records one span per call with
its parent, and restores every original on the way out.  A layer's self
time is its spans' duration minus the time of their child spans.

Generator functions (``TransportSimulator.deliver`` runs as a sim process)
get one span per resumption, so the work the event loop does inside them
is charged to them and not to the loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# (module, attribute looked up there, span name).  A dotted attribute is a
# method patched on its class, which covers every caller.
CALL_SITES: tuple[tuple[str, str, str], ...] = (
    ("repro.traces.pose", "Pose.frustum", "geometry.frustum"),
    ("repro.traces.trace", "Trace.pose_at", "traces.pose_at"),
    ("repro.core.session", "compute_visibility", "pointcloud.compute_visibility"),
    (
        "repro.experiments.policy_comparison",
        "compute_visibility",
        "pointcloud.compute_visibility",
    ),
    (
        "repro.scenario.shard",
        "compute_visibility_batch",
        "pointcloud.compute_visibility_batch",
    ),
    (
        "repro.core.similarity",
        "compute_visibility_batch",
        "pointcloud.compute_visibility_batch",
    ),
    ("repro.scenario.shard", "ArchetypeLibrary.tick_content", "scenario.tick_content"),
    ("repro.experiments.common", "synthesize_video", "pointcloud.synthesize_video"),
    ("repro.scenario.shard", "synthesize_video", "pointcloud.synthesize_video"),
    ("repro.pointcloud.cells", "CellGrid.occupancy", "pointcloud.occupancy"),
    ("repro.core.session", "no_grouping", "core.grouping"),
    ("repro.core.session", "greedy_similarity_grouping", "core.grouping"),
    ("repro.core.session", "qoe_aware_grouping", "core.grouping"),
    ("repro.core.adaptation", "CrossLayerPolicy.decide", "core.adaptation"),
    ("repro.core.utility", "UtilityOptimalPolicy.decide", "core.adaptation"),
    (
        "repro.experiments.policy_comparison",
        "allocate_qualities",
        "core.allocate_qualities",
    ),
    ("repro.core.session", "plan_frame", "mac.plan_frame"),
    ("repro.core.grouping", "plan_frame", "mac.plan_frame"),
    ("repro.scenario.shard", "plan_frame", "mac.plan_frame"),
    ("repro.experiments.loss_sweep", "plan_frame", "mac.plan_frame"),
    ("repro.net.transport", "TransportSimulator.deliver", "net.deliver"),
    ("repro.net.transport", "TransportSimulator.frame_outcome", "net.frame_outcome"),
    ("repro.sim.engine", "Environment.run", "sim.run"),
    ("repro.scenario", "run_shard", "scenario.run_shard"),
    (
        "repro.experiments.policy_comparison",
        "compute_blockage_timeline",
        "mmwave.blockage_timeline",
    ),
    ("repro.runner", "run_specs", "runner.run_specs"),
    ("repro.obs", "stream_analyze", "obs.stream_analyze"),
)

SPAN_NAMES = tuple(sorted({name for _, _, name in CALL_SITES}))


class Tracer:
    """In-memory spans: ``[name, parent index, start, end]`` per call."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.calls: Counter[str] = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, perf_counter(), 0.0])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around each call (each resumption, for generators)."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return _SpanGenerator(self, name, fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)


class _SpanGenerator:
    """Delegates to a generator, recording a span around every step."""

    def __init__(self, tracer: Tracer, name: str, generator) -> None:
        self._tracer = tracer
        self._name = name
        self._generator = generator

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        index = self._tracer.begin(self._name)
        try:
            return self._generator.send(value)
        finally:
            self._tracer.end(index)

    def throw(self, *exc):
        index = self._tracer.begin(self._name)
        try:
            return self._generator.throw(*exc)
        finally:
            self._tracer.end(index)

    def close(self) -> None:
        self._generator.close()


def resolve(module: str, attribute: str) -> tuple[Any, str]:
    """``(owner, name)`` such that ``owner.name`` is the call site."""
    owner: Any = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def find_call_sites() -> tuple[list[tuple[Any, str, Any, str]], list[str]]:
    """``(owner, name, original, span)`` for each call site the program has,
    and the ``module.attribute`` of each it no longer has (whose spans
    then read zero)."""
    found, missing = [], []
    for module, attribute, span in CALL_SITES:
        try:
            owner, leaf = resolve(module, attribute)
            original = (
                vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            )
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}.{attribute}")
            continue
        found.append((owner, leaf, original, span))
    return found, missing


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every call site with ``tracer``'s spans; restore in ``finally``."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, leaf, original, span in find_call_sites()[0]:
            wrapped = tracer.wrap(span, original)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
