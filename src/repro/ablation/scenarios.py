"""Ablation scenarios: where a component toggle lands, and what it moves.

A :class:`Scenario` binds the abstract components of
:mod:`repro.ablation.components` to one registered runner experiment:

* ``session`` — the default: one closed-loop multi-user streaming session
  (the ``ablation_session`` experiment) under lossy, capacity-constrained
  conditions, where every cross-layer component has a measurable effect;
* ``venue`` — the sharded small-venue population simulation
  (``venue_scale`` via :mod:`repro.scenario`), where the MAC-facing
  components (grouping, custom beams) are ablated at venue scale.

Each scenario declares, per component, a :class:`Toggle` — the baseline
and ablated parameter values — plus the metric catalog
(:class:`MetricSpec`, with explicit better-direction polarity) and an
extraction function mapping the experiment's merged result to a flat
``{metric: value}`` dict.  The engine never special-cases a scenario:
generate the matrix, run the specs, extract, score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "MetricSpec",
    "Toggle",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class MetricSpec:
    """One scored metric: its name, polarity, and meaning.

    ``higher_is_better`` fixes the sign convention for degradation:
    ablating a useful component should *degrade* the metric, whichever
    direction "worse" is.
    """

    name: str
    higher_is_better: bool
    description: str


@dataclass(frozen=True)
class Toggle:
    """Baseline and ablated parameter values for one component.

    Values are stored as sorted ``(key, value)`` pair tuples so toggles
    are hashable and their iteration order is deterministic.
    """

    component: str
    baseline: tuple[tuple[str, object], ...]
    ablated: tuple[tuple[str, object], ...]

    def baseline_params(self) -> dict:
        """The parameter overrides that switch this component on."""
        return dict(self.baseline)

    def ablated_params(self) -> dict:
        """The parameter overrides that switch this component off."""
        return dict(self.ablated)


def toggle(component: str, baseline: dict, ablated: dict) -> Toggle:
    """Build a :class:`Toggle` from plain override dicts."""
    return Toggle(
        component=component,
        baseline=tuple(sorted(baseline.items())),
        ablated=tuple(sorted(ablated.items())),
    )


@dataclass(frozen=True)
class Scenario:
    """One concrete place to ablate components.

    ``experiment`` names a registered runner experiment; the engine uses
    its ``decompose``/``merge`` hooks so a scenario variant can be one
    run (session) or a sharded fan-out (venue) without the engine caring.
    ``overrides`` / ``small_overrides`` are applied on top of the
    experiment's default/small parameters to shape the ablation workload.
    ``metrics`` lists the scored metrics; ``extract`` maps the merged
    experiment result to a flat metric dict (which may contain extra,
    unscored metrics — they are carried in the report verbatim).
    """

    name: str
    experiment: str
    description: str
    toggles: tuple[Toggle, ...]
    metrics: tuple[MetricSpec, ...]
    extract: Callable[[dict], dict]
    overrides: tuple[tuple[str, object], ...] = ()
    small_overrides: tuple[tuple[str, object], ...] = ()

    def component_names(self) -> tuple[str, ...]:
        """Names of the components this scenario can ablate, sorted."""
        return tuple(sorted(t.component for t in self.toggles))

    def toggle_for(self, component: str) -> Toggle:
        """The toggle for ``component``, with a helpful error."""
        for t in self.toggles:
            if t.component == component:
                return t
        known = ", ".join(self.component_names())
        raise KeyError(
            f"scenario {self.name!r} has no toggle for component "
            f"{component!r}; available: {known}"
        )

    def baseline_overrides(self) -> dict:
        """Every toggle's baseline values, merged (sorted component order)."""
        merged: dict = {}
        for t in sorted(self.toggles, key=lambda t: t.component):
            merged.update(t.baseline_params())
        return merged

    def scale_overrides(self, scale: str) -> dict:
        """Scenario-level parameter overrides for ``scale``."""
        merged = dict(self.overrides)
        if scale == "small":
            merged.update(dict(self.small_overrides))
        return merged


def _extract_session(merged: dict) -> dict:
    """Session scenario: the merged result already is the metric dict."""
    keys = (
        "qoe_score",
        "mean_fps",
        "mean_bitrate_mbps",
        "stall_time_s",
        "late_fraction",
        "quality_switches",
    )
    return {k: float(merged[k]) for k in keys}


def _extract_venue(merged: dict) -> dict:
    """Venue scenario: venue-level delivery metrics plus total airtime."""
    venue = merged["venue"]
    mean_fps = venue["mean_fps"]
    worst = venue["worst_tick_fps"]
    total_airtime_s = sum(room["total_airtime_s"] for room in merged["rooms"])
    return {
        "mean_fps": 0.0 if mean_fps is None else float(mean_fps),
        "worst_tick_fps": 0.0 if worst is None else float(worst),
        "total_airtime_s": float(total_airtime_s),
        "sessions": float(venue["sessions"]),
        "rejected": float(venue["rejected"]),
    }


SESSION = Scenario(
    name="session",
    experiment="ablation_session",
    description=(
        "One closed-loop multi-user streaming session under lossy, "
        "capacity-constrained conditions; every cross-layer component "
        "is toggleable."
    ),
    toggles=(
        toggle(
            "prediction",
            baseline={"predictor": "linear-regression"},
            ablated={"predictor": "last-value"},
        ),
        toggle(
            "grouping",
            baseline={"grouping": "greedy"},
            ablated={"grouping": "none"},
        ),
        toggle(
            "custom_beams",
            baseline={"custom_beams": True},
            ablated={"custom_beams": False},
        ),
        toggle(
            "blockage",
            baseline={"blockage_mitigation": True},
            ablated={"blockage_mitigation": False},
        ),
        toggle(
            "fec",
            baseline={"transport_mode": "hybrid"},
            ablated={"transport_mode": "arq"},
        ),
        toggle(
            "adaptation",
            baseline={"adaptation": "cross-layer"},
            ablated={"adaptation": "fixed-high"},
        ),
    ),
    metrics=(
        MetricSpec(
            "qoe_score",
            higher_is_better=True,
            description="Mean per-user QoE (bitrate minus stall and switch penalties).",
        ),
        MetricSpec(
            "mean_fps",
            higher_is_better=True,
            description="Mean delivered frame rate across users.",
        ),
        MetricSpec(
            "stall_time_s",
            higher_is_better=False,
            description="Total stall time summed over users.",
        ),
        MetricSpec(
            "late_fraction",
            higher_is_better=False,
            description="Fraction of played frames that missed their deadline.",
        ),
    ),
    extract=_extract_session,
)

VENUE = Scenario(
    name="venue",
    experiment="venue_scale",
    description=(
        "Sharded small-venue population simulation (repro.scenario): "
        "MAC-facing components ablated across rooms of churning users."
    ),
    toggles=(
        toggle(
            "grouping",
            baseline={"grouping": "greedy"},
            ablated={"grouping": "none"},
        ),
        toggle(
            "custom_beams",
            baseline={"multicast_rate_fraction": 0.8},
            ablated={"multicast_rate_fraction": 0.55},
        ),
    ),
    metrics=(
        MetricSpec(
            "mean_fps",
            higher_is_better=True,
            description="Venue-wide mean delivered frame rate.",
        ),
        MetricSpec(
            "worst_tick_fps",
            higher_is_better=True,
            description="Delivered frame rate of the worst venue tick.",
        ),
        MetricSpec(
            "total_airtime_s",
            higher_is_better=False,
            description="Total AP airtime summed over rooms.",
        ),
    ),
    extract=_extract_venue,
    overrides=(
        ("num_rooms", 2),
        ("capacity", 60),
        ("initial_users", 40),
        ("arrival_rate_hz", 2.0),
        ("flash_crowd_size", 20),
        ("flash_crowd_at_s", 2.5),
        ("duration_s", 6.0),
        ("num_shards", 2),
    ),
    small_overrides=(
        ("capacity", 40),
        ("initial_users", 24),
        ("duration_s", 4.0),
    ),
)

POLICY = Scenario(
    name="policy",
    experiment="ablation_session",
    description=(
        "The same closed-loop session, ablating the optimizing policies "
        "back to their heuristic counterparts: utility-optimal adaptation "
        "back to greedy cross-layer fill, QoE-aware grouping back to "
        "airtime-greedy similarity merges.  Kept separate from the "
        "'session' scenario so its baselines (which run the optimizing "
        "policies) do not perturb the historical importance rankings."
    ),
    toggles=(
        toggle(
            "utility_adaptation",
            baseline={"adaptation": "utility-optimal"},
            ablated={"adaptation": "cross-layer"},
        ),
        toggle(
            "qoe_grouping",
            baseline={"grouping": "qoe"},
            ablated={"grouping": "greedy"},
        ),
    ),
    metrics=(
        MetricSpec(
            "qoe_score",
            higher_is_better=True,
            description="Mean per-user QoE (bitrate minus stall and switch penalties).",
        ),
        MetricSpec(
            "mean_fps",
            higher_is_better=True,
            description="Mean delivered frame rate across users.",
        ),
        MetricSpec(
            "stall_time_s",
            higher_is_better=False,
            description="Total stall time summed over users.",
        ),
        MetricSpec(
            "late_fraction",
            higher_is_better=False,
            description="Fraction of played frames that missed their deadline.",
        ),
    ),
    extract=_extract_session,
)

SCENARIOS: dict[str, Scenario] = {s.name: s for s in (SESSION, VENUE, POLICY)}
"""All scenarios, keyed by name."""


def scenario_names() -> tuple[str, ...]:
    """All scenario names in sorted order."""
    return tuple(sorted(SCENARIOS))


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name, with a helpful error."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
