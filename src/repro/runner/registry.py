"""Registry of runnable experiments.

Every experiment module in :mod:`repro.experiments` registers an
:class:`Experiment` describing how to split a parameter set into
independent :class:`~repro.runner.spec.RunSpec` work units
(``decompose``), how to execute one unit (``run_one`` — pure, returns a
JSON-serializable dict), and how to put the per-unit results back together
(``merge`` — keyed and ordered by spec, never by completion order).

The registry is what the CLI (``repro run`` / ``repro figures``), the
golden-result suite, and the serial/parallel equivalence tests iterate
over, so registering an experiment automatically buys it all three.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .spec import RunSpec

__all__ = [
    "Experiment",
    "register",
    "get_experiment",
    "experiment_names",
    "all_experiments",
    "resolve_params",
]

MergedResult = dict[str, Any]
RunOutput = dict[str, Any]


def _one_unit(
    name: str, param_names: tuple[str, ...], params: Mapping[str, Any]
) -> list[RunSpec]:
    """Default ``decompose``: the whole parameter set is one work unit."""
    return [
        RunSpec.make(name, seed=params["seed"], **{k: params[k] for k in param_names})
    ]


def _only_result(
    params: Mapping[str, Any], runs: Sequence[tuple[RunSpec, RunOutput]]
) -> MergedResult:
    """Default ``merge``: the single unit's result is the merged result."""
    return runs[0][1]


@dataclass(frozen=True)
class Experiment:
    """How the runner fans one experiment out and folds it back in.

    ``decompose`` and ``merge`` default to a single work unit carrying
    every non-``seed`` parameter (in ``default_params`` order) whose
    result is the merged result.
    """

    name: str
    run_one: Callable[[RunSpec], RunOutput]
    format_result: Callable[[MergedResult], str]
    decompose: Callable[[Mapping[str, Any]], Sequence[RunSpec]] | None = None
    merge: (
        Callable[[Mapping[str, Any], Sequence[tuple[RunSpec, RunOutput]]], MergedResult]
        | None
    ) = None
    default_params: Mapping[str, Any] = field(default_factory=dict)
    small_params: Mapping[str, Any] = field(default_factory=dict)
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        if self.decompose is None:
            names = tuple(k for k in self.default_params if k != "seed")
            object.__setattr__(
                self, "decompose", functools.partial(_one_unit, self.name, names)
            )
        if self.merge is None:
            object.__setattr__(self, "merge", _only_result)


_REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry.

    Re-registration under the same name replaces the entry (module reloads
    under pytest re-create equal definitions; the freshest callables win).
    """
    _REGISTRY[experiment.name] = experiment
    return experiment


def _ensure_populated() -> None:
    # Experiments register themselves at import time; importing the package
    # is what populates the registry (workers spawned with a fresh
    # interpreter go through this path too).
    if not _REGISTRY:
        from .. import experiments  # noqa: F401  (import for side effect)


def get_experiment(name: str) -> Experiment:
    """Look one registered experiment up by name (KeyError if unknown)."""
    _ensure_populated()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown experiment {name!r}; registered: {known}") from None


def experiment_names() -> list[str]:
    """Registered names in registration (presentation) order."""
    _ensure_populated()
    return list(_REGISTRY)


def all_experiments() -> list[Experiment]:
    """Every registered experiment, in registration order."""
    _ensure_populated()
    return list(_REGISTRY.values())


def resolve_params(
    experiment: Experiment,
    overrides: Mapping[str, Any] | None = None,
    scale: str = "default",
) -> dict[str, Any]:
    """Full parameter set: scale defaults overlaid with explicit overrides."""
    if scale == "default":
        params = dict(experiment.default_params)
    elif scale == "small":
        params = dict(experiment.default_params)
        params.update(experiment.small_params)
    else:
        raise ValueError(f"unknown scale {scale!r} (use 'default' or 'small')")
    if overrides:
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for experiment "
                f"{experiment.name!r}; accepted: {sorted(params)}"
            )
        params.update(overrides)
    return params
