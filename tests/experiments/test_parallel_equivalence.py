"""Serial/parallel equivalence: ``--parallel N`` must be invisible.

Every registered experiment is decomposed at its small scale and executed
twice over the *same* spec list — once in-process (workers=1) and once on
a 4-worker pool.  Per-spec results and the merged per-experiment results
must be bit-identical (compared as canonical JSON, i.e. exact floats — no
tolerances here: both runs happen on this machine, so any difference is a
determinism bug, not platform drift).

Because the two runs also constitute two executions at the same seed, the
same comparison locks in run-to-run reproducibility; a third in-process
run of the fastest experiments re-checks that explicitly.
"""

from __future__ import annotations

import pytest

from repro.runner import (
    canonical_json,
    experiment_names,
    get_experiment,
    resolve_params,
    run_specs,
)

import repro.experiments  # noqa: F401  (register every experiment)

EXPECTED_EXPERIMENTS = (
    "table1",
    "fig2a",
    "fig2b",
    "fig3b",
    "fig3d",
    "fig3e",
    "scaling",
    "loss_sweep",
    "ablation_prediction",
    "ablation_blockage",
    "ablation_grouping",
    "ablation_adaptation",
    "ablation_cellsize",
    "ablation_multiap",
    "ablation_session",
    "policy_comparison",
    "study",
)

# Cheap experiments re-run a third time for the explicit same-seed check.
RERUN_EXPERIMENTS = ("loss_sweep", "fig3d", "scaling")


def test_registry_covers_all_experiments():
    assert set(EXPECTED_EXPERIMENTS) <= set(experiment_names())


def _plans():
    plans = []
    for name in EXPECTED_EXPERIMENTS:
        experiment = get_experiment(name)
        params = resolve_params(experiment, scale="small")
        plans.append((name, experiment, params, list(experiment.decompose(params))))
    return plans


@pytest.fixture(scope="module")
def plans():
    return _plans()


@pytest.fixture(scope="module")
def serial_reports(plans):
    specs = [spec for _, _, _, specs in plans for spec in specs]
    return run_specs(specs, workers=1)


@pytest.fixture(scope="module")
def parallel_reports(plans):
    specs = [spec for _, _, _, specs in plans for spec in specs]
    return run_specs(specs, workers=4)


def _chunk(plans, reports, name):
    offset = 0
    for plan_name, experiment, params, specs in plans:
        chunk = reports[offset : offset + len(specs)]
        offset += len(specs)
        if plan_name == name:
            return experiment, params, specs, chunk
    raise KeyError(name)


@pytest.mark.parametrize("name", EXPECTED_EXPERIMENTS)
def test_parallel_matches_serial(name, plans, serial_reports, parallel_reports):
    experiment, params, specs, serial = _chunk(plans, serial_reports, name)
    _, _, _, parallel = _chunk(plans, parallel_reports, name)

    for spec, s_rep, p_rep in zip(specs, serial, parallel):
        assert s_rep.spec == spec and p_rep.spec == spec
        assert canonical_json(s_rep.result) == canonical_json(p_rep.result), (
            f"{spec.key()} differs between workers=1 and workers=4"
        )

    merged_serial = experiment.merge(
        params, [(r.spec, r.result) for r in serial]
    )
    merged_parallel = experiment.merge(
        params, [(r.spec, r.result) for r in parallel]
    )
    assert canonical_json(merged_serial) == canonical_json(merged_parallel)


@pytest.mark.parametrize("name", RERUN_EXPERIMENTS)
def test_same_seed_reruns_identical(name, plans, serial_reports):
    _, _, specs, first = _chunk(plans, serial_reports, name)
    second = run_specs(specs, workers=1)
    for spec, a, b in zip(specs, first, second):
        assert canonical_json(a.result) == canonical_json(b.result), (
            f"{spec.key()} is not reproducible across runs at the same seed"
        )
