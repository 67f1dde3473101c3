"""The ablation engine: configure → generate_runs → compute_importance.

:class:`AblationStudy` is stateless; every step is an explicit value:

* :meth:`AblationStudy.configure` validates components against a
  scenario and freezes an :class:`AblationConfig`;
* :meth:`AblationStudy.generate_runs` expands the config into the run
  matrix — baseline, leave-one-out per component, optional pairwise —
  where each :class:`AblationRun` carries its fully-resolved experiment
  parameters and the :class:`~repro.runner.spec.RunSpec` work units the
  experiment decomposes into;
* :meth:`AblationStudy.execute` routes every spec through
  :func:`repro.runner.executor.run_specs` (spec-keyed disk cache,
  serial or multiprocessing, spec-ordered results) and folds each
  variant back through the experiment's ``merge`` and the scenario's
  metric extraction;
* :meth:`AblationStudy.compute_importance` turns per-variant metrics
  into polarity-aware degradation deltas, normalized importance scores,
  and a deterministic ranking;
* :meth:`AblationStudy.build_report` assembles the canonical report
  dict, serialized byte-identically by :func:`write_report` (same
  discipline as ``repro obs analyze``).

Degradation sign convention: ablating a useful component should hurt,
so ``degradation = baseline - ablated`` for higher-is-better metrics and
``ablated - baseline`` for lower-is-better ones — positive degradation
always means "removing this component made things worse".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..runner.cache import ResultCache
from ..runner.executor import RunReport, run_specs
from ..runner.registry import Experiment, get_experiment, resolve_params
from ..runner.spec import RunSpec, canonical_json
from .components import get_component
from .scenarios import Scenario, get_scenario

__all__ = [
    "AblationConfig",
    "AblationRun",
    "AblationResult",
    "ComponentImportance",
    "AblationStudy",
    "fold_variants",
    "format_report",
    "write_report",
]

REPORT_SCHEMA = "repro.ablation/v1"
"""Schema tag stamped into every report."""

# Degradations below this magnitude are treated as exactly zero, so
# importance scores never divide by float dust.
_TOL = 1e-9


@dataclass(frozen=True)
class AblationConfig:
    """A frozen, validated study configuration."""

    scenario: str
    components: tuple[str, ...]
    pairwise: bool
    scale: str
    seed: int | None
    overrides: tuple[tuple[str, Any], ...]

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


@dataclass(frozen=True)
class AblationResult:
    """Executed matrix: per-variant merged results and extracted metrics."""

    config: AblationConfig
    runs: tuple[AblationRun, ...]
    merged: Mapping[str, Mapping[str, Any]]
    metrics: Mapping[str, Mapping[str, float]]
    cached_units: int
    total_units: int


@dataclass(frozen=True)
class ComponentImportance:
    """Per-component importance: raw deltas, degradations, score.

    ``deltas`` are signed ``ablated - baseline`` per metric;
    ``degradation`` flips the sign by metric polarity so positive always
    means worse; ``normalized`` divides by the largest absolute
    degradation of that metric across the matrix; ``score`` is the mean
    normalized degradation over the scenario's scored metrics.
    """

    component: str
    deltas: Mapping[str, float]
    degradation: Mapping[str, float]
    normalized: Mapping[str, float]
    score: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict form."""
        return {
            "component": self.component,
            "deltas": dict(self.deltas),
            "degradation": dict(self.degradation),
            "normalized": dict(self.normalized),
            "score": self.score,
        }


def variant_label(ablated: Sequence[str]) -> str:
    """Deterministic label for a variant: ``baseline`` or ``no-a+no-b``."""
    if not ablated:
        return "baseline"
    return "+".join(f"no-{name}" for name in sorted(ablated))


def fold_variants(
    config: AblationConfig,
    runs: Sequence[AblationRun],
    results: Sequence[tuple[RunSpec, Mapping[str, Any]]],
) -> tuple[dict[str, dict[str, Any]], dict[str, dict[str, float]]]:
    """Fold the matrix's flat, spec-ordered unit results back per variant.

    Each variant's chunk goes through the experiment's ``merge`` and the
    scenario's ``extract``; returns (merged, metrics), keyed by label.
    """
    scen = config.scenario_spec()
    experiment: Experiment = get_experiment(scen.experiment)
    merged: dict[str, dict[str, Any]] = {}
    metrics: dict[str, dict[str, float]] = {}
    offset = 0
    for run in runs:
        chunk = results[offset : offset + len(run.specs)]
        offset += len(run.specs)
        merged[run.label] = experiment.merge(run.params, list(chunk))
        metrics[run.label] = scen.extract(merged[run.label])
    return merged, metrics


class AblationStudy:
    """Stateless driver for declarative component-ablation studies."""

    def configure(
        self,
        scenario: str = "session",
        components: Iterable[str] | str | None = None,
        *,
        pairwise: bool = False,
        scale: str = "default",
        seed: int | None = None,
        overrides: Mapping[str, Any] | None = None,
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
            overrides=tuple(sorted((overrides or {}).items())),
        )

    def variant_params(
        self, config: AblationConfig, ablated: Sequence[str]
    ) -> dict[str, Any]:
        """Fully-resolved experiment parameters for one variant.

        Layering, later wins: experiment scale defaults → scenario
        workload overrides → every toggle's baseline values → user
        overrides → seed → the ablated values of ``ablated``.
        """
        scen = config.scenario_spec()
        experiment = get_experiment(scen.experiment)
        merged: dict[str, Any] = {}
        merged.update(scen.scale_overrides(config.scale))
        merged.update(scen.baseline_overrides())
        merged.update(dict(config.overrides))
        if config.seed is not None:
            merged["seed"] = config.seed
        for name in sorted(ablated):
            merged.update(scen.toggle_for(name).ablated_params())
        return resolve_params(experiment, merged, scale=config.scale)

    def generate_runs(self, config: AblationConfig) -> list[AblationRun]:
        """The run matrix: baseline, leave-one-out, optional pairwise.

        Matrix order is deterministic — baseline first, then components
        in sorted order, then sorted component pairs — regardless of the
        order components were selected in.
        """
        scen = config.scenario_spec()
        experiment = get_experiment(scen.experiment)
        variants: list[tuple[str, ...]] = [()]
        variants.extend((name,) for name in config.components)
        if config.pairwise:
            variants.extend(itertools.combinations(config.components, 2))
        runs = []
        for ablated in variants:
            params = self.variant_params(config, ablated)
            runs.append(
                AblationRun(
                    label=variant_label(ablated),
                    ablated=tuple(sorted(ablated)),
                    params=params,
                    specs=tuple(experiment.decompose(params)),
                )
            )
        return runs

    def execute(
        self,
        config: AblationConfig,
        runs: Sequence[AblationRun] | None = None,
        *,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: Callable[[RunReport, int, int], None] | None = None,
    ) -> AblationResult:
        """Run the matrix through the cached runner and extract metrics.

        All variants' specs run as one flat batch (deduped, spec-ordered
        results), then each variant is folded back through the
        experiment's ``merge`` and the scenario's ``extract``.
        """
        run_list = list(runs) if runs is not None else self.generate_runs(config)
        flat: list[RunSpec] = [spec for run in run_list for spec in run.specs]
        reports = run_specs(flat, workers=workers, cache=cache, progress=progress)
        merged, metrics = fold_variants(
            config, run_list, [(r.spec, r.result) for r in reports]
        )
        return AblationResult(
            config=config,
            runs=tuple(run_list),
            merged=merged,
            metrics=metrics,
            cached_units=sum(1 for r in reports if r.cached),
            total_units=len(reports),
        )

    def _degradations(
        self, result: AblationResult, label: str
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Signed deltas and polarity-corrected degradations for a variant."""
        scen = result.config.scenario_spec()
        baseline = result.metrics["baseline"]
        variant = result.metrics[label]
        deltas: dict[str, float] = {}
        degradation: dict[str, float] = {}
        for metric in scen.metrics:
            delta = float(variant[metric.name]) - float(baseline[metric.name])
            deltas[metric.name] = delta
            degradation[metric.name] = -delta if metric.higher_is_better else delta
        return deltas, degradation

    def _metric_scales(self, result: AblationResult) -> dict[str, float]:
        """Per-metric normalization denominators.

        The largest absolute single-component degradation of each metric;
        pairwise variants deliberately do not widen the scale, so
        interaction scores stay comparable to component scores.
        """
        scen = result.config.scenario_spec()
        scales = {m.name: 0.0 for m in scen.metrics}
        for name in result.config.components:
            _, degradation = self._degradations(result, variant_label((name,)))
            for metric_name in sorted(degradation):
                scales[metric_name] = max(
                    scales[metric_name], abs(degradation[metric_name])
                )
        return scales

    def compute_importance(
        self, result: AblationResult
    ) -> dict[str, ComponentImportance]:
        """Per-component importance, keyed by component name.

        Each metric's degradation is normalized by the matrix-wide
        largest absolute degradation of that metric (zero when every
        variant left the metric untouched); the component score is the
        mean normalized degradation across the scenario's scored metrics.
        """
        scen = result.config.scenario_spec()
        scales = self._metric_scales(result)
        importance: dict[str, ComponentImportance] = {}
        for name in result.config.components:
            deltas, degradation = self._degradations(result, variant_label((name,)))
            normalized = {}
            for metric in scen.metrics:
                scale = scales[metric.name]
                value = degradation[metric.name]
                normalized[metric.name] = (
                    0.0 if scale <= _TOL else value / scale
                )
            score = sum(normalized[m.name] for m in scen.metrics) / len(scen.metrics)
            importance[name] = ComponentImportance(
                component=name,
                deltas=deltas,
                degradation=degradation,
                normalized=normalized,
                score=score,
            )
        return importance

    def rank_components(self, result: AblationResult) -> list[tuple[str, float]]:
        """Components ranked most-important first (score desc, name asc)."""
        importance = self.compute_importance(result)
        return sorted(
            ((name, imp.score) for name, imp in sorted(importance.items())),
            key=lambda pair: (-pair[1], pair[0]),
        )

    def compute_interactions(
        self, result: AblationResult
    ) -> dict[str, dict[str, Any]]:
        """Pairwise interaction terms, keyed by pair label.

        For a pair ``(a, b)``: ``interaction = degradation(a, b) -
        degradation(a) - degradation(b)`` per metric — positive means the
        components are complementary (losing both hurts more than the sum
        of losing each), negative means redundant.  Empty unless the
        config is pairwise.
        """
        if not result.config.pairwise:
            return {}
        scen = result.config.scenario_spec()
        scales = self._metric_scales(result)
        single = {
            name: self._degradations(result, variant_label((name,)))[1]
            for name in result.config.components
        }
        interactions: dict[str, dict[str, Any]] = {}
        for a, b in itertools.combinations(result.config.components, 2):
            label = variant_label((a, b))
            deltas, pair_degradation = self._degradations(result, label)
            interaction = {
                m.name: pair_degradation[m.name] - single[a][m.name] - single[b][m.name]
                for m in scen.metrics
            }
            normalized = {
                m.name: (
                    0.0
                    if scales[m.name] <= _TOL
                    else interaction[m.name] / scales[m.name]
                )
                for m in scen.metrics
            }
            score = sum(normalized[m.name] for m in scen.metrics) / len(scen.metrics)
            interactions[label] = {
                "components": [a, b],
                "deltas": deltas,
                "degradation": pair_degradation,
                "interaction": interaction,
                "normalized": normalized,
                "score": score,
            }
        return interactions

    def build_report(self, result: AblationResult) -> dict[str, Any]:
        """The canonical report dict for an executed study.

        Contains only deterministic fields (no timings, no cache-hit
        counts), so serial/parallel runs and cache hits/misses produce
        byte-identical serializations.
        """
        scen = result.config.scenario_spec()
        importance = self.compute_importance(result)
        ranking = self.rank_components(result)
        report: dict[str, Any] = {
            "schema": REPORT_SCHEMA,
            "scenario": scen.name,
            "experiment": scen.experiment,
            "scale": result.config.scale,
            "pairwise": result.config.pairwise,
            "components": list(result.config.components),
            "component_titles": {
                name: get_component(name).title for name in result.config.components
            },
            "metrics": [
                {
                    "name": m.name,
                    "higher_is_better": m.higher_is_better,
                    "description": m.description,
                }
                for m in scen.metrics
            ],
            "params": {
                key: value
                for key, value in sorted(result.runs[0].params.items())
            },
            "baseline": dict(result.metrics["baseline"]),
            "runs": [
                {
                    "label": run.label,
                    "ablated": list(run.ablated),
                    "units": len(run.specs),
                    "metrics": dict(result.metrics[run.label]),
                }
                for run in result.runs
            ],
            "importance": {
                name: imp.to_dict() for name, imp in sorted(importance.items())
            },
            "ranking": [
                {"rank": rank, "component": name, "score": score}
                for rank, (name, score) in enumerate(ranking, start=1)
            ],
        }
        if result.config.pairwise:
            report["interactions"] = self.compute_interactions(result)
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
    two equal reports always produce identical files.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(dict(report)))
        fh.write("\n")
