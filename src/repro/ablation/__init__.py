"""Declarative component-ablation engine with importance scoring.

The paper's §4 argument is a set of on/off component comparisons: how much
does each cross-layer piece (viewport prediction, multicast grouping,
custom beams, blockage mitigation, FEC, rate adaptation) buy?  This
package makes that a first-class, bit-reproducible computation instead of
six hand-rolled benchmark scripts:

* :mod:`~repro.ablation.components` — the system's components declared
  once, each a named toggle with baseline and ablated configuration
  values;
* :mod:`~repro.ablation.scenarios` — where a toggle lands: the full
  closed-loop streaming session (default) or the sharded small venue;
* :mod:`~repro.ablation.engine` — plain functions over plain data
  (``configure`` → ``generate_runs`` → ``build_report``): expand the
  baseline + leave-one-out (+ optional pairwise) run matrix into
  :class:`~repro.runner.spec.RunSpec` work units, then fold the
  per-variant metrics into per-component deltas, normalized importance
  scores, and a deterministic ranking report;
* :mod:`~repro.ablation.cli` — the ``repro ablation`` verb.

A study runs one way: as the registered ``ablation_importance``
experiment through :func:`repro.runner.run_experiment`.  Results are
cached on disk by spec, executed serial or parallel with spec-ordered
merging, and the report is canonical JSON — the same byte-identity
discipline as ``repro obs analyze``.
"""

from .components import COMPONENTS, Component, component_names, get_component
from .engine import (
    AblationConfig,
    AblationRun,
    build_report,
    configure,
    format_report,
    generate_runs,
    write_report,
)
from .scenarios import SCENARIOS, MetricSpec, Scenario, Toggle, get_scenario

__all__ = [
    "COMPONENTS",
    "Component",
    "component_names",
    "get_component",
    "AblationConfig",
    "AblationRun",
    "build_report",
    "configure",
    "format_report",
    "generate_runs",
    "write_report",
    "SCENARIOS",
    "MetricSpec",
    "Scenario",
    "Toggle",
    "get_scenario",
]
