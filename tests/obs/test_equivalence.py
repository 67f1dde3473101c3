"""Observability must be invisible: tracing on == off, bit for bit.

Two registered experiments are executed twice over the same small-scale
spec list — once with no instrumentation active, once inside a trace
recording with the metrics registry enabled.  Per-spec results and the
merged results must be byte-identical as canonical JSON (no tolerances:
instrumentation that perturbs a single float is a bug, not drift).
"""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.trace import recording
from repro.runner import canonical_json, get_experiment, resolve_params

import repro.experiments  # noqa: F401  (register every experiment)

# Both run instrumented code paths: loss_sweep exercises the packet-level
# transport (sim + net), scaling drives grouping + MAC frame planning.
EXPERIMENTS = ("loss_sweep", "scaling")


def _run_plain(experiment, specs):
    return [(spec, experiment.run_one(spec)) for spec in specs]


def _run_instrumented(experiment, specs):
    was_enabled = metrics.REGISTRY.enabled
    metrics.reset()
    metrics.enable()
    try:
        with recording() as recorder:
            runs = []
            for spec in specs:
                recorder.set_context(unit=spec.key())
                runs.append((spec, experiment.run_one(spec)))
        return runs, recorder
    finally:
        if not was_enabled:
            metrics.disable()


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_results_identical_with_and_without_tracing(name):
    experiment = get_experiment(name)
    params = resolve_params(experiment, scale="small")
    specs = list(experiment.decompose(params))

    plain = _run_plain(experiment, specs)
    instrumented, recorder = _run_instrumented(experiment, specs)

    assert len(recorder) > 0, "instrumented run must actually record events"
    for (spec, a), (_, b) in zip(plain, instrumented):
        assert canonical_json(a) == canonical_json(b), (
            f"{spec.key()} changes under tracing"
        )
    merged_plain = experiment.merge(params, plain)
    merged_instr = experiment.merge(params, instrumented)
    assert canonical_json(merged_plain) == canonical_json(merged_instr)


def test_offline_analysis_is_result_neutral():
    """analyze/attribution is a pure reader: it never perturbs a later run."""
    import copy

    from repro.obs.stream import AnalyzeAccumulator

    experiment = get_experiment("loss_sweep")
    params = resolve_params(experiment, scale="small")
    specs = list(experiment.decompose(params))

    first, recorder = _run_instrumented(experiment, specs)
    events = [ev.to_jsonable() for ev in recorder.events]
    pristine = copy.deepcopy(events)
    acc = AnalyzeAccumulator()
    for ev in events:
        acc.add_event(ev)
    assert acc.finalize()["frames"]["closed"] > 0
    # The analyzer must not mutate its input events...
    assert events == pristine
    # ...nor leave state behind that changes a subsequent instrumented run.
    second, _ = _run_instrumented(experiment, specs)
    for (spec, a), (_, b) in zip(first, second):
        assert canonical_json(a) == canonical_json(b), (
            f"{spec.key()} changed after running the analyzer"
        )


def test_bench_harness_is_result_neutral(tmp_path):
    """`repro bench` runs the exact runner path: results stay bit-identical."""
    from repro.obs.bench import run_bench
    from repro.runner import run_specs

    experiment = get_experiment("fig3d")
    params = resolve_params(experiment, scale="small")
    specs = list(experiment.decompose(params))
    plain = _run_plain(experiment, specs)

    run_bench(["fig3d"], scale="small", cache_dir=str(tmp_path / "cache"))

    after = [(r.spec, r.result) for r in run_specs(specs, cache=None)]
    for (spec, a), (_, b) in zip(plain, after):
        assert canonical_json(a) == canonical_json(b), (
            f"{spec.key()} changed after benchmarking"
        )
