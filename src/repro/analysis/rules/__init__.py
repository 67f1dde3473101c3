"""The rule registry: every lint rule, per-module or reachability-based.

Each entry declares ``rule_id``, ``family``, ``severity`` and ``summary``;
``--list-rules``, ``--select`` and the SARIF rule metadata all read this
one tuple.
"""

from __future__ import annotations

from ..visitor import Rule
from .determinism import DETERMINISM_RULES
from .docs import DOCS_RULES
from .hygiene import HYGIENE_RULES
from .purity import PURITY_RULES
from .rng import RNG_RULES
from .simproc import SIMPROC_RULES
from .state import STATE_RULES
from .units import UNITS_RULES

ALL_RULES: tuple[type[Rule], ...] = (
    *DETERMINISM_RULES,
    *UNITS_RULES,
    *SIMPROC_RULES,
    *HYGIENE_RULES,
    *DOCS_RULES,
    *RNG_RULES,
    *STATE_RULES,
    *PURITY_RULES,
)

__all__ = ["ALL_RULES", "rules_by_family", "rule_ids"]


def rules_by_family() -> dict[str, list[type[Rule]]]:
    """All registered rules grouped by family, in registration order."""
    families: dict[str, list[type[Rule]]] = {}
    for rule in ALL_RULES:
        families.setdefault(rule.family, []).append(rule)
    return families


def rule_ids() -> list[str]:
    """Every registered rule id, in registration order."""
    return [rule.rule_id for rule in ALL_RULES]
