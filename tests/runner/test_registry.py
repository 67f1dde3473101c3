"""Registry coverage: every experiment module is wired into the runner."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.experiments  # noqa: F401  (register every experiment)
from repro.runner import (
    Experiment,
    RunSpec,
    experiment_names,
    get_experiment,
    resolve_params,
)
from repro.runner.registry import check_seed

# Module -> experiment names it must register.  A new experiment module
# that forgets to register itself fails test_every_module_is_registered.
MODULE_EXPERIMENTS = {
    "table1": ("table1",),
    "fig2a": ("fig2a",),
    "fig2b": ("fig2b",),
    "fig3b": ("fig3b",),
    "fig3d": ("fig3d",),
    "fig3e": ("fig3e",),
    "scaling": ("scaling",),
    "venue_scale": ("venue_scale",),
    "loss_sweep": ("loss_sweep",),
    "study": ("study",),
    "ablations": (
        "ablation_prediction",
        "ablation_blockage",
        "ablation_grouping",
        "ablation_adaptation",
        "ablation_cellsize",
        "ablation_multiap",
    ),
    "ablation_engine": (
        "ablation_session",
        "ablation_importance",
    ),
    "policy_comparison": ("policy_comparison",),
}

NON_EXPERIMENT_MODULES = {"__init__", "common"}

# Composite experiments decompose into another experiment's work units
# (the ablation study fans out over ablation_session/venue_scale specs).
COMPOSITE_EXPERIMENTS = {"ablation_importance": "ablation_session"}


def test_every_module_is_registered():
    src = Path(repro.experiments.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - NON_EXPERIMENT_MODULES
    assert modules == set(MODULE_EXPERIMENTS), (
        "experiment modules and MODULE_EXPERIMENTS are out of sync — "
        "register new modules with the runner and list them here"
    )
    registered = set(experiment_names())
    for module, names in sorted(MODULE_EXPERIMENTS.items()):
        missing = set(names) - registered
        assert not missing, f"{module}.py registered nothing for {sorted(missing)}"


@pytest.mark.parametrize(
    "name", [n for names in MODULE_EXPERIMENTS.values() for n in names]
)
def test_decompose_produces_consistent_specs(name):
    experiment = get_experiment(name)
    for scale in ("default", "small"):
        params = resolve_params(experiment, scale=scale)
        assert params["seed"] is not None
        specs = list(experiment.decompose(params))
        assert specs, f"{name} decomposed to zero work units at {scale}"
        for spec in specs:
            assert spec.experiment == COMPOSITE_EXPERIMENTS.get(name, name)
            assert spec.seed == params["seed"]
        assert len(set(specs)) == len(specs), f"{name} emitted duplicate specs"


def test_single_unit_default_decompose_and_merge():
    experiment = Experiment(
        name="toy_single",
        run_one=lambda spec: {"x": spec.get("x")},
        format_result=str,
        default_params={"x": 1, "ys": (2, 3), "seed": 5},
    )
    specs = experiment.decompose({"x": 4, "ys": (2, 3), "seed": 9})
    assert specs == [RunSpec.make("toy_single", seed=9, x=4, ys=(2, 3))]
    assert experiment.merge({}, [(specs[0], {"x": 4})]) == {"x": 4}


def test_unknown_experiment_raises_with_known_names():
    with pytest.raises(KeyError, match="registered:"):
        get_experiment("nope")


def test_resolve_params_scales():
    experiment = get_experiment("table1")
    default = resolve_params(experiment, scale="default")
    small = resolve_params(experiment, scale="small")
    assert set(small) == set(default)  # small only overlays, never adds
    assert small != default
    with pytest.raises(ValueError, match="unknown scale"):
        resolve_params(experiment, scale="huge")


@pytest.mark.parametrize("seed", [-1, -5, True, 1.5, "7", None])
def test_resolve_params_rejects_a_seed_numpy_would_refuse(seed):
    with pytest.raises(ValueError) as err:
        resolve_params(get_experiment("fig3d"), {"seed": seed})
    message = str(err.value)
    assert "'fig3d'" in message and repr(seed) in message


def test_check_seed_passes_non_negative_ints_through():
    assert check_seed("fig3d", 0) == 0
    assert resolve_params(get_experiment("fig3d"), {"seed": 11})["seed"] == 11
