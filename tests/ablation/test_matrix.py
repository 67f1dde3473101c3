"""Matrix generation: configure validation and run-matrix structure."""

from __future__ import annotations

import itertools

import pytest

from repro.ablation import (
    COMPONENTS,
    component_names,
    configure,
    generate_runs,
    get_component,
    get_scenario,
)
from repro.ablation.engine import variant_label


def test_component_registry_is_sorted_and_complete():
    assert component_names() == tuple(sorted(COMPONENTS))
    assert set(component_names()) == {
        "adaptation",
        "blockage",
        "custom_beams",
        "fec",
        "grouping",
        "prediction",
        "qoe_grouping",
        "utility_adaptation",
    }


def test_unknown_component_and_scenario_errors_name_alternatives():
    with pytest.raises(KeyError, match="known components"):
        get_component("quantum_beams")
    with pytest.raises(KeyError, match="known scenarios"):
        get_scenario("datacenter")


def test_variant_labels_are_sorted_and_stable():
    assert variant_label(()) == "baseline"
    assert variant_label(("fec",)) == "no-fec"
    assert variant_label(("grouping", "fec")) == "no-fec+no-grouping"


def test_configure_validates_components():
    config = configure(components="all")
    assert config.components == get_scenario("session").component_names()
    with pytest.raises(KeyError):
        configure(components=("fec", "warp_drive"))
    with pytest.raises(ValueError, match="no components"):
        configure(components=())
    with pytest.raises(ValueError, match="at least two"):
        configure(components=("fec",), pairwise=True)
    # venue only ablates the MAC-facing components
    with pytest.raises(KeyError):
        configure(scenario="venue", components=("prediction",))


def test_leave_one_out_matrix_structure():
    config = configure(components=("grouping", "fec", "prediction"))
    runs = generate_runs(config)
    assert [run.label for run in runs] == [
        "baseline",
        "no-fec",
        "no-grouping",
        "no-prediction",
    ]
    baseline = runs[0]
    assert baseline.ablated == ()
    assert baseline.params["grouping"] == "greedy"
    assert baseline.params["transport_mode"] == "hybrid"
    assert baseline.params["predictor"] == "linear-regression"
    for run in runs[1:]:
        (name,) = run.ablated
        toggle = config.scenario_spec().toggle_for(name)
        changed = {
            k: v for k, v in run.params.items() if baseline.params[k] != v
        }
        assert changed == toggle.ablated_params()
    # one session spec per variant, all for the session experiment
    for run in runs:
        assert len(run.specs) == 1
        assert run.specs[0].experiment == "ablation_session"


def test_pairwise_matrix_adds_sorted_pairs():
    names = ("adaptation", "fec", "grouping")
    config = configure(components=names, pairwise=True)
    runs = generate_runs(config)
    pair_labels = [run.label for run in runs if len(run.ablated) == 2]
    assert pair_labels == [
        variant_label(pair) for pair in itertools.combinations(sorted(names), 2)
    ]
    assert len(runs) == 1 + len(names) + 3


def test_seed_flows_into_every_variant():
    config = configure(components=("fec",), seed=123)
    for run in generate_runs(config):
        assert run.params["seed"] == 123
        assert run.specs[0].seed == 123


def test_venue_matrix_decomposes_into_shards():
    config = configure(scenario="venue", components="all", scale="small")
    runs = generate_runs(config)
    assert [run.label for run in runs] == [
        "baseline",
        "no-custom_beams",
        "no-grouping",
    ]
    for run in runs:
        assert len(run.specs) == run.params["num_shards"]
        assert all(spec.experiment == "venue_scale" for spec in run.specs)
    assert runs[0].params["multicast_rate_fraction"] == 0.8
    assert runs[1].params["multicast_rate_fraction"] == 0.55
    assert runs[2].params["grouping"] == "none"
