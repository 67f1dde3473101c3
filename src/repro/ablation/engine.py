"""The ablation engine: configure → generate_runs → build_report.

Every step is a plain function over plain values:

* :func:`configure` validates components against a scenario and freezes
  an :class:`AblationConfig`;
* :func:`generate_runs` expands the config into the run matrix —
  baseline, leave-one-out per component, optional pairwise — where each
  :class:`AblationRun` carries its fully-resolved experiment parameters
  and the :class:`~repro.runner.spec.RunSpec` work units the experiment
  decomposes into;
* :func:`fold_variants` folds the matrix's spec-ordered unit results
  back per variant through the experiment's ``merge`` and the
  scenario's metric extraction;
* :func:`build_report` turns per-variant metrics into polarity-aware
  degradation deltas, normalized importance scores, and a deterministic
  ranking, serialized byte-identically by :func:`write_report` (same
  discipline as ``repro obs analyze``).

The matrix runs only as the registered ``ablation_importance``
experiment, whose ``decompose`` is ``generate_runs`` and whose ``merge``
is ``fold_variants`` + ``build_report``.

Degradation sign convention: ablating a useful component should hurt,
so ``degradation = baseline - ablated`` for higher-is-better metrics and
``ablated - baseline`` for lower-is-better ones — positive degradation
always means "removing this component made things worse".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..runner.registry import (
    Experiment,
    check_seed,
    get_experiment,
    resolve_params,
)
from ..runner.spec import RunSpec, canonical_json
from .components import get_component
from .scenarios import Scenario, get_scenario

__all__ = [
    "AblationConfig",
    "AblationRun",
    "configure",
    "generate_runs",
    "fold_variants",
    "compute_importance",
    "rank_components",
    "compute_interactions",
    "build_report",
    "format_report",
    "write_report",
]

REPORT_SCHEMA = "repro.ablation/v1"
"""Schema tag stamped into every report."""

# Degradations below this magnitude are treated as exactly zero, so
# importance scores never divide by float dust.
_TOL = 1e-9

# Per-variant metric dicts keyed by variant label.
Metrics = Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class AblationConfig:
    """A frozen, validated study configuration."""

    scenario: str
    components: tuple[str, ...]
    pairwise: bool
    scale: str
    seed: int | None

    def __post_init__(self) -> None:
        scen = get_scenario(self.scenario)  # raises on unknown scenario
        if self.scale not in ("default", "small"):
            raise ValueError(f"unknown scale {self.scale!r} (use 'default' or 'small')")
        if not self.components:
            raise ValueError("no components selected")
        if self.components != tuple(sorted(set(self.components))):
            raise ValueError("components must be sorted and unique")
        for name in self.components:
            get_component(name)
            scen.toggle_for(name)
        if self.pairwise and len(self.components) < 2:
            raise ValueError("pairwise ablation needs at least two components")
        if self.seed is not None:
            check_seed("ablation_importance", self.seed)

    def scenario_spec(self) -> Scenario:
        """The :class:`Scenario` this config runs in."""
        return get_scenario(self.scenario)


@dataclass(frozen=True)
class AblationRun:
    """One variant of the matrix: its label, toggles, params, and specs."""

    label: str
    ablated: tuple[str, ...]
    params: Mapping[str, Any]
    specs: tuple[RunSpec, ...]


def variant_label(ablated: Sequence[str]) -> str:
    """Deterministic label for a variant: ``baseline`` or ``no-a+no-b``."""
    if not ablated:
        return "baseline"
    return "+".join(f"no-{name}" for name in sorted(ablated))


def configure(
    scenario: str = "session",
    components: Iterable[str] | str | None = None,
    *,
    pairwise: bool = False,
    scale: str = "default",
    seed: int | None = None,
) -> AblationConfig:
    """Validate and freeze a study configuration.

    ``components`` may be ``None`` or ``"all"`` (every component the
    scenario can ablate), or an iterable of component names.  Every
    name must exist both in the global component registry and in the
    scenario's toggle table.  Selection order never matters: the
    config stores components sorted.
    """
    scen = get_scenario(scenario)
    if components is None or components == "all":
        selected = scen.component_names()
    else:
        if isinstance(components, str):
            components = [components]
        selected = tuple(sorted(set(components)))
    # AblationConfig.__post_init__ does the full validation.
    return AblationConfig(
        scenario=scen.name,
        components=selected,
        pairwise=bool(pairwise),
        scale=scale,
        seed=seed,
    )


def variant_params(config: AblationConfig, ablated: Sequence[str]) -> dict[str, Any]:
    """Fully-resolved experiment parameters for one variant.

    Layering, later wins: experiment scale defaults → scenario workload
    overrides → every toggle's baseline values → seed → the ablated
    values of ``ablated``.
    """
    scen = config.scenario_spec()
    experiment = get_experiment(scen.experiment)
    merged: dict[str, Any] = {}
    merged.update(scen.scale_overrides(config.scale))
    merged.update(scen.baseline_overrides())
    if config.seed is not None:
        merged["seed"] = config.seed
    for name in sorted(ablated):
        merged.update(scen.toggle_for(name).ablated_params())
    return resolve_params(experiment, merged, scale=config.scale)


def generate_runs(config: AblationConfig) -> list[AblationRun]:
    """The run matrix: baseline, leave-one-out, optional pairwise.

    Matrix order is deterministic — baseline first, then components in
    sorted order, then sorted component pairs — regardless of the order
    components were selected in.
    """
    experiment = get_experiment(config.scenario_spec().experiment)
    variants: list[tuple[str, ...]] = [()]
    variants.extend((name,) for name in config.components)
    if config.pairwise:
        variants.extend(itertools.combinations(config.components, 2))
    runs = []
    for ablated in variants:
        params = variant_params(config, ablated)
        runs.append(
            AblationRun(
                label=variant_label(ablated),
                ablated=tuple(sorted(ablated)),
                params=params,
                specs=tuple(experiment.decompose(params)),
            )
        )
    return runs


def fold_variants(
    config: AblationConfig,
    runs: Sequence[AblationRun],
    results: Sequence[tuple[RunSpec, Mapping[str, Any]]],
) -> dict[str, dict[str, float]]:
    """Fold the matrix's flat, spec-ordered unit results back per variant.

    Each variant's chunk goes through the experiment's ``merge`` and the
    scenario's ``extract``; returns the metrics keyed by variant label.
    """
    scen = config.scenario_spec()
    experiment: Experiment = get_experiment(scen.experiment)
    metrics: dict[str, dict[str, float]] = {}
    offset = 0
    for run in runs:
        chunk = results[offset : offset + len(run.specs)]
        offset += len(run.specs)
        metrics[run.label] = scen.extract(experiment.merge(run.params, list(chunk)))
    return metrics


def _degradations(
    config: AblationConfig, metrics: Metrics, label: str
) -> tuple[dict[str, float], dict[str, float]]:
    """Signed deltas and polarity-corrected degradations for a variant."""
    baseline = metrics["baseline"]
    variant = metrics[label]
    deltas: dict[str, float] = {}
    degradation: dict[str, float] = {}
    for metric in config.scenario_spec().metrics:
        delta = float(variant[metric.name]) - float(baseline[metric.name])
        deltas[metric.name] = delta
        degradation[metric.name] = -delta if metric.higher_is_better else delta
    return deltas, degradation


def _metric_scales(config: AblationConfig, metrics: Metrics) -> dict[str, float]:
    """Per-metric normalization denominators.

    The largest absolute single-component degradation of each metric;
    pairwise variants deliberately do not widen the scale, so
    interaction scores stay comparable to component scores.
    """
    scales = {m.name: 0.0 for m in config.scenario_spec().metrics}
    for name in config.components:
        _, degradation = _degradations(config, metrics, variant_label((name,)))
        for metric_name, value in degradation.items():
            scales[metric_name] = max(scales[metric_name], abs(value))
    return scales


def _normalize(
    config: AblationConfig, values: Mapping[str, float], scales: Mapping[str, float]
) -> tuple[dict[str, float], float]:
    """Scale-normalized values and their mean over the scored metrics."""
    scored = config.scenario_spec().metrics
    normalized = {
        m.name: 0.0 if scales[m.name] <= _TOL else values[m.name] / scales[m.name]
        for m in scored
    }
    return normalized, sum(normalized[m.name] for m in scored) / len(scored)


def compute_importance(
    config: AblationConfig, metrics: Metrics
) -> dict[str, dict[str, Any]]:
    """Per-component importance entries, keyed by component name.

    ``deltas`` are signed ``ablated - baseline`` per metric;
    ``degradation`` flips the sign by metric polarity so positive always
    means worse; ``normalized`` divides by the matrix-wide largest
    absolute degradation of that metric (zero when every variant left
    the metric untouched); ``score`` is the mean normalized degradation
    over the scenario's scored metrics.
    """
    scales = _metric_scales(config, metrics)
    importance: dict[str, dict[str, Any]] = {}
    for name in config.components:
        deltas, degradation = _degradations(config, metrics, variant_label((name,)))
        normalized, score = _normalize(config, degradation, scales)
        importance[name] = {
            "component": name,
            "deltas": deltas,
            "degradation": degradation,
            "normalized": normalized,
            "score": score,
        }
    return importance


def rank_components(
    config: AblationConfig, metrics: Metrics
) -> list[tuple[str, float]]:
    """Components ranked most-important first (score desc, name asc)."""
    importance = compute_importance(config, metrics)
    return sorted(
        ((name, entry["score"]) for name, entry in sorted(importance.items())),
        key=lambda pair: (-pair[1], pair[0]),
    )


def compute_interactions(
    config: AblationConfig, metrics: Metrics
) -> dict[str, dict[str, Any]]:
    """Pairwise interaction terms, keyed by pair label.

    For a pair ``(a, b)``: ``interaction = degradation(a, b) -
    degradation(a) - degradation(b)`` per metric — positive means the
    components are complementary (losing both hurts more than the sum
    of losing each), negative means redundant.  Empty unless the
    config is pairwise.
    """
    if not config.pairwise:
        return {}
    scored = config.scenario_spec().metrics
    scales = _metric_scales(config, metrics)
    single = {
        name: _degradations(config, metrics, variant_label((name,)))[1]
        for name in config.components
    }
    interactions: dict[str, dict[str, Any]] = {}
    for a, b in itertools.combinations(config.components, 2):
        label = variant_label((a, b))
        deltas, pair_degradation = _degradations(config, metrics, label)
        interaction = {
            m.name: pair_degradation[m.name] - single[a][m.name] - single[b][m.name]
            for m in scored
        }
        normalized, score = _normalize(config, interaction, scales)
        interactions[label] = {
            "components": [a, b],
            "deltas": deltas,
            "degradation": pair_degradation,
            "interaction": interaction,
            "normalized": normalized,
            "score": score,
        }
    return interactions


def build_report(
    config: AblationConfig, runs: Sequence[AblationRun], metrics: Metrics
) -> dict[str, Any]:
    """The canonical report dict for an executed study.

    Contains only deterministic fields (no timings, no cache-hit
    counts), so serial/parallel runs and cache hits/misses produce
    byte-identical serializations.
    """
    scen = config.scenario_spec()
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "scenario": scen.name,
        "experiment": scen.experiment,
        "scale": config.scale,
        "pairwise": config.pairwise,
        "components": list(config.components),
        "component_titles": {
            name: get_component(name).title for name in config.components
        },
        "metrics": [
            {
                "name": m.name,
                "higher_is_better": m.higher_is_better,
                "description": m.description,
            }
            for m in scen.metrics
        ],
        "params": dict(sorted(runs[0].params.items())),
        "baseline": dict(metrics["baseline"]),
        "runs": [
            {
                "label": run.label,
                "ablated": list(run.ablated),
                "units": len(run.specs),
                "metrics": dict(metrics[run.label]),
            }
            for run in runs
        ],
        "importance": dict(sorted(compute_importance(config, metrics).items())),
        "ranking": [
            {"rank": rank, "component": name, "score": score}
            for rank, (name, score) in enumerate(
                rank_components(config, metrics), start=1
            )
        ],
    }
    if config.pairwise:
        report["interactions"] = compute_interactions(config, metrics)
    return report


def format_report(report: Mapping[str, Any]) -> str:
    """Human-readable ranking table for a report dict."""
    from ..experiments.common import format_table

    metric_names = [m["name"] for m in report["metrics"]]
    rows = []
    for entry in report["ranking"]:
        name = entry["component"]
        imp = report["importance"][name]
        rows.append(
            [entry["rank"], name, f"{entry['score']:+.3f}"]
            + [f"{imp['deltas'][m]:+.3g}" for m in metric_names]
        )
    table = format_table(
        ["rank", "component", "score"] + [f"Δ{m}" for m in metric_names], rows
    )
    baseline = ", ".join(
        f"{name}={report['baseline'][name]:.3g}" for name in metric_names
    )
    lines = [
        f"ablation scenario {report['scenario']!r} "
        f"({report['experiment']}, scale={report['scale']}): "
        f"{len(report['runs'])} variants",
        f"baseline: {baseline}",
        table,
    ]
    interactions = report.get("interactions") or {}
    for label in sorted(interactions):
        entry = interactions[label]
        lines.append(f"interaction {label}: score {entry['score']:+.3f}")
    return "\n".join(lines)


def write_report(report: Mapping[str, Any], path) -> None:
    """Serialize a report as canonical JSON (sorted keys, tight separators).

    The same byte-identity discipline as ``repro obs analyze --json``:
    two equal reports always produce identical files.  Missing parent
    directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(dict(report)))
        fh.write("\n")
