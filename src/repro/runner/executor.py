"""Deterministic fan-out of experiment work units across processes.

``run_specs`` executes a list of :class:`RunSpec` either in-process
(``workers <= 1``) or on a ``multiprocessing`` pool, and always returns
results **in input-spec order** — completion order, worker assignment, and
cache hits are invisible to the caller, which is what makes
``--parallel N`` bit-identical to the serial path.

Every result is normalized through a canonical JSON round trip before it
is returned or cached, so a freshly computed result and one read back from
the disk cache are the *same object shape* (string keys, lists, plain
floats) and merge identically.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..obs import metrics as _metrics
from .cache import ResultCache
from .registry import Experiment, get_experiment, resolve_params
from .spec import RunSpec, canonical_json

__all__ = ["RunReport", "run_specs", "run_specs_iter", "run_experiment"]

ProgressFn = Callable[["RunReport", int, int], None]


@dataclass(frozen=True)
class RunReport:
    """One completed work unit: its spec, normalized result, and timing."""

    spec: RunSpec
    result: dict[str, Any]
    elapsed_s: float
    cached: bool = False
    # Per-unit metrics snapshot (``repro run --metrics-out``); None unless
    # the unit ran with collect_metrics=True.
    metrics: dict[str, Any] | None = None


def _canonical_result(result: Mapping[str, Any]) -> dict[str, Any]:
    """Force the result into its canonical JSON shape (and validate it)."""
    if not isinstance(result, dict):
        raise TypeError(
            f"run_one must return a dict, got {type(result).__name__}"
        )
    try:
        return json.loads(canonical_json(result))
    except (TypeError, ValueError) as exc:
        raise TypeError(f"run_one result is not JSON-serializable: {exc}") from exc


def _execute_one(
    spec: RunSpec, collect_metrics: bool = False
) -> tuple[RunSpec, dict[str, Any], float, dict[str, Any] | None]:
    """Worker entry point: look the experiment up and run the unit.

    Importing :mod:`repro.experiments` here (via the registry) makes the
    function self-sufficient under the ``spawn`` start method, where the
    child begins with an empty registry.  With ``collect_metrics`` the
    metrics registry is reset + enabled around the unit and its snapshot
    is returned alongside the result; this works identically in-process
    and inside pool workers (each unit owns the registry for its duration),
    and the snapshots merge deterministically in spec order.
    """
    experiment = get_experiment(spec.experiment)
    snap: dict[str, Any] | None = None
    t0 = time.perf_counter()
    if collect_metrics:
        was_enabled = _metrics.REGISTRY.enabled
        _metrics.REGISTRY.reset()
        _metrics.REGISTRY.enable()
        try:
            result = _canonical_result(experiment.run_one(spec))
            snap = _metrics.REGISTRY.snapshot()
        finally:
            if not was_enabled:
                _metrics.REGISTRY.disable()
            _metrics.REGISTRY.reset()
    else:
        result = _canonical_result(experiment.run_one(spec))
    return spec, result, time.perf_counter() - t0, snap


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is cheaper and inherits the warm fixture caches; fall back to
    # spawn where fork is unavailable (the worker re-imports and rebuilds).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_specs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
    collect_metrics: bool = False,
) -> list[RunReport]:
    """Run work units and return reports **in input order**.

    Duplicate specs execute once and fan back out to every position.
    ``workers <= 1`` runs in-process; otherwise a process pool computes the
    cache misses while hits are served from disk.  With a cache, fresh
    results are persisted before returning.  ``collect_metrics`` attaches a
    per-unit metrics snapshot to every report; cached results carry no
    metrics, so cache *reads* are skipped (fresh results still persist).

    This is the batch convenience over :func:`run_specs_iter` — callers
    that fold results one at a time (``repro run --metrics-out``, the
    streaming observability plane) should iterate instead of listing.
    """
    return list(
        run_specs_iter(
            specs,
            workers=workers,
            cache=cache,
            progress=progress,
            collect_metrics=collect_metrics,
        )
    )


def run_specs_iter(
    specs: Sequence[RunSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
    collect_metrics: bool = False,
) -> Iterator[RunReport]:
    """Yield reports **in input-spec order** as they become ready.

    The streamed twin of :func:`run_specs`: identical semantics (duplicate
    fan-out, cache serving, deterministic order — asserted by
    ``tests/runner``), but results are handed to the caller the moment
    their spec-order turn arrives instead of after the whole batch.  Under
    a worker pool completions arrive unordered, so out-of-turn results
    wait in a reorder buffer bounded by worker skew — never by the run
    length — and every result is dropped from the buffer once its last
    duplicate position has been yielded.  This is the merge hook the
    venue-scale streaming plane sits on: shard summaries fold into
    constant-size accumulators while later shards are still running.
    """
    specs = list(specs)
    remaining = Counter(specs)
    order: list[RunSpec] = []
    seen: set[RunSpec] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            order.append(spec)

    done: dict[RunSpec, RunReport] = {}
    pending: list[RunSpec] = []
    for spec in order:
        hit = (
            cache.get(spec)
            if cache is not None and not collect_metrics
            else None
        )
        if hit is not None:
            done[spec] = RunReport(spec=spec, result=hit, elapsed_s=0.0, cached=True)
        else:
            pending.append(spec)

    total = len(order)
    completed = 0
    if progress is not None:
        for spec in order:
            if spec in done:
                completed += 1
                progress(done[spec], completed, total)
    else:
        completed = len(done)

    emit_index = 0

    def _ready() -> list[RunReport]:
        """Reports whose spec-order turn has arrived, oldest first."""
        nonlocal emit_index
        out = []
        while emit_index < len(specs) and specs[emit_index] in done:
            spec = specs[emit_index]
            emit_index += 1
            out.append(done[spec])
            remaining[spec] -= 1
            if not remaining[spec]:
                del done[spec]  # last duplicate emitted; free the buffer
        return out

    def _finish(
        spec: RunSpec,
        result: dict[str, Any],
        elapsed: float,
        metrics: dict[str, Any] | None,
    ) -> None:
        nonlocal completed
        report = RunReport(
            spec=spec,
            result=result,
            elapsed_s=elapsed,
            cached=False,
            metrics=metrics,
        )
        if cache is not None:
            cache.put(spec, result, elapsed_s=elapsed)
        done[spec] = report
        completed += 1
        if progress is not None:
            progress(report, completed, total)

    yield from _ready()

    worker_fn = functools.partial(_execute_one, collect_metrics=collect_metrics)
    if workers <= 1 or len(pending) <= 1:
        for spec in pending:
            _, result, elapsed, metrics = worker_fn(spec)
            _finish(spec, result, elapsed, metrics)
            yield from _ready()
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=min(workers, len(pending))) as pool:
            # Unordered completion for liveness; results are keyed by spec
            # and released by _ready, so arrival order never reaches the
            # caller.
            for spec, result, elapsed, metrics in pool.imap_unordered(
                worker_fn, pending
            ):
                _finish(spec, result, elapsed, metrics)
                yield from _ready()

    yield from _ready()


def run_experiment(
    name: str,
    overrides: Mapping[str, Any] | None = None,
    *,
    scale: str = "default",
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
) -> dict[str, Any]:
    """Decompose → run → merge one experiment; returns the merged dict.

    This is the one way to run an experiment from code: ``repro
    ablation``, the benchmarks, the examples and the docs generator call
    it with ``overrides`` and read the merged dict, the same dict
    ``repro run``, the golden fixtures and the result cache see.
    """
    experiment: Experiment = get_experiment(name)
    params = resolve_params(experiment, overrides, scale=scale)
    spec_list = list(experiment.decompose(params))
    reports = run_specs(spec_list, workers=workers, cache=cache, progress=progress)
    return experiment.merge(params, [(r.spec, r.result) for r in reports])
