"""Property tests: selection-order invariance of matrix and report.

Whatever order components are named in (CLI lists, set iteration, user
code), the engine must produce the identical matrix and — given the same
per-variant metrics — the byte-identical canonical report.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ablation import get_scenario
from repro.ablation.engine import build_report, configure, generate_runs
from repro.runner import canonical_json

from .conftest import synthetic_metrics

SESSION_COMPONENTS = get_scenario("session").component_names()

subsets = st.sets(
    st.sampled_from(SESSION_COMPONENTS), min_size=2, max_size=4
).flatmap(lambda s: st.permutations(sorted(s)))


@given(order=subsets, pairwise=st.booleans())
@settings(max_examples=25, deadline=None)
def test_component_order_never_changes_the_matrix(order, pairwise):
    shuffled = configure(components=tuple(order), pairwise=pairwise)
    sorted_sel = configure(components=tuple(sorted(order)), pairwise=pairwise)
    assert shuffled == sorted_sel
    runs_a = generate_runs(shuffled)
    runs_b = generate_runs(sorted_sel)
    assert [r.label for r in runs_a] == [r.label for r in runs_b]
    assert [r.params for r in runs_a] == [r.params for r in runs_b]
    assert [r.specs for r in runs_a] == [r.specs for r in runs_b]


def _report_bytes(components: tuple[str, ...]) -> str:
    config = configure(components=components, pairwise=True)
    runs = generate_runs(config)
    metrics = {run.label: synthetic_metrics(config, run.label) for run in runs}
    return canonical_json(build_report(config, runs, metrics))


@given(order=subsets)
@settings(max_examples=10, deadline=None)
def test_component_order_never_changes_the_report_bytes(order):
    assert _report_bytes(tuple(order)) == _report_bytes(tuple(sorted(order)))
