"""Component registry for the ablation engine.

A :class:`Component` is one piece of the cross-layer design the paper
argues for — viewport prediction, multicast grouping, custom beams,
blockage mitigation, FEC, rate adaptation.  Components are declared once
here with stable names; *how* a component is switched off in a concrete
scenario (the baseline and ablated parameter values) lives in
:mod:`repro.ablation.scenarios`, so one component can be ablated in both
the session and the venue scenario without re-declaring it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Component",
    "COMPONENTS",
    "component_names",
    "get_component",
]


@dataclass(frozen=True)
class Component:
    """One named cross-layer component that can be switched off.

    ``name`` is the stable identifier used in CLI ``--components`` lists,
    run labels, and report keys; ``title`` is the human heading; and
    ``description`` says what the system loses when the component is
    ablated.
    """

    name: str
    title: str
    description: str


COMPONENTS: dict[str, Component] = {
    c.name: c
    for c in (
        Component(
            "prediction",
            "Viewport prediction",
            "Linear-regression viewport prediction; ablated to last-value "
            "(frozen-viewport) prediction.",
        ),
        Component(
            "grouping",
            "Multicast grouping",
            "Viewport-similarity multicast grouping; ablated to per-user unicast "
            "(no groups).",
        ),
        Component(
            "custom_beams",
            "Custom multicast beams",
            "Custom wide beams serving a multicast group in one transmission; "
            "ablated to the group-minimum-MCS penalty of stock single-user beams.",
        ),
        Component(
            "blockage",
            "Blockage mitigation",
            "Proactive blockage forecasting and recovery (reflector fallback); "
            "ablated to reactive-only recovery with no forecaster.",
        ),
        Component(
            "fec",
            "Multicast FEC",
            "Rateless FEC repair on the multicast downlink; ablated to "
            "ARQ-only retransmission.",
        ),
        Component(
            "adaptation",
            "Cross-layer rate adaptation",
            "Cross-layer quality adaptation driven by MAC feedback; ablated to a "
            "fixed highest-quality ladder position.",
        ),
        Component(
            "utility_adaptation",
            "Utility-optimal rate allocation",
            "Rate-utility quality optimization (distance/visibility-weighted "
            "log-rate utility under the MAC budget); ablated to the greedy "
            "budget-fill cross-layer heuristic.",
        ),
        Component(
            "qoe_grouping",
            "QoE-aware multicast grouping",
            "Multicast merges scored by predicted QoE delta; ablated to the raw "
            "airtime-greedy similarity grouper.",
        ),
    )
}
"""Global component registry, keyed by :attr:`Component.name`."""


def component_names() -> tuple[str, ...]:
    """All registered component names in sorted order."""
    return tuple(sorted(COMPONENTS))


def get_component(name: str) -> Component:
    """Look up a component by name, with a helpful error."""
    try:
        return COMPONENTS[name]
    except KeyError:
        known = ", ".join(component_names())
        raise KeyError(f"unknown component {name!r}; known components: {known}") from None

