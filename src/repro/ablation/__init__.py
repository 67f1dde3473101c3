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
* :mod:`~repro.ablation.engine` — :class:`AblationStudy`
  (``configure`` → ``generate_runs`` → ``compute_importance``): emits the
  baseline + leave-one-out (+ optional pairwise) run matrix as
  :class:`~repro.runner.spec.RunSpec` work units for the cached parallel
  runner, then folds the per-run metrics into per-component deltas,
  normalized importance scores, and a deterministic ranking report;
* :mod:`~repro.ablation.cli` — the ``repro ablation`` verb.

The whole matrix is ordinary runner work: results are cached on disk by
spec, executed serial or parallel with spec-ordered merging, and the
report is canonical JSON — the same byte-identity discipline as
``repro obs analyze``.
"""

from .components import (
    COMPONENTS,
    Component,
    component,
    component_names,
    get_component,
)
from .engine import (
    AblationConfig,
    AblationResult,
    AblationRun,
    AblationStudy,
    ComponentImportance,
    format_report,
    write_report,
)
from .scenarios import SCENARIOS, MetricSpec, Scenario, Toggle, get_scenario

__all__ = [
    "COMPONENTS",
    "Component",
    "component",
    "component_names",
    "get_component",
    "AblationConfig",
    "AblationResult",
    "AblationRun",
    "AblationStudy",
    "ComponentImportance",
    "format_report",
    "write_report",
    "SCENARIOS",
    "MetricSpec",
    "Scenario",
    "Toggle",
    "get_scenario",
]
