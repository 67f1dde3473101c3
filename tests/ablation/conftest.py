"""Shared helpers for the ablation-engine tests.

``make_fake_result`` builds a config's run matrix and synthetic
per-variant metrics — the ``(runs, metrics)`` the scoring and reporting
functions take alongside the config — so those layers can be tested
exactly, without running any sessions.
"""

from __future__ import annotations

import pytest

from repro.ablation.engine import AblationConfig, AblationRun, generate_runs


def synthetic_metrics(config: AblationConfig, label: str) -> dict:
    """Deterministic fake metrics for one variant, derived from its label.

    Pure arithmetic on the label's bytes: permutation-invariant, no RNG,
    and distinct per variant, so reports built from it are stable across
    test runs and component-selection orders.
    """
    scen = config.scenario_spec()
    salt = sum(label.encode())
    return {
        m.name: float((salt * (i + 3)) % 97) / 10.0
        for i, m in enumerate(scen.metrics)
    }


@pytest.fixture()
def make_fake_result():
    """Build a config's ``(runs, metrics)`` from given or synthetic metrics."""

    def _make(
        config: AblationConfig, metrics=None
    ) -> tuple[list[AblationRun], dict[str, dict]]:
        runs = generate_runs(config)
        resolved = {
            run.label: (
                metrics[run.label]
                if metrics is not None
                else synthetic_metrics(config, run.label)
            )
            for run in runs
        }
        return runs, resolved

    return _make
