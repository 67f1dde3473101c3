"""QoE-aware grouping: determinism under shuffle, partition sanity.

The issue's bit-identity requirement: ``qoe_aware_grouping`` must produce
the identical partition and plan regardless of the order the caller lists
the demands in (the session builds them in user order; the venue shards
do not).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import (
    _predicted_qoe,
    greedy_similarity_grouping,
    no_grouping,
    qoe_aware_grouping,
)
from repro.core.qoe import QoEWeights
from repro.mac.scheduler import UserDemand

cell_sets = st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=10)
demand_lists = st.lists(cell_sets, min_size=1, max_size=5)


def to_demands(sets, rate=800.0) -> list[UserDemand]:
    return [
        UserDemand(user_id=i, cell_bytes={c: 1e5 for c in cells}, unicast_rate_mbps=rate)
        for i, cells in enumerate(sets)
    ]


@given(sets=demand_lists, seed=st.integers(0, 2**16), rate=st.floats(200.0, 2000.0))
@settings(max_examples=40, deadline=None)
def test_bit_identical_under_user_order_shuffle(sets, seed, rate):
    import random

    demands = to_demands(sets, rate)
    shuffled = list(demands)
    random.Random(seed).shuffle(shuffled)
    rate_fn = lambda members: rate * 0.8  # noqa: E731

    a = qoe_aware_grouping(demands, rate_fn)
    b = qoe_aware_grouping(shuffled, rate_fn)
    assert sorted(a.groups) == sorted(b.groups)
    assert a.total_time_s == b.total_time_s  # bit-identical, no tolerance
    assert a.plan.solo_users == b.plan.solo_users


@given(sets=demand_lists, rate=st.floats(200.0, 2000.0))
@settings(max_examples=40, deadline=None)
def test_result_is_a_partition_with_qoe_never_below_unicast(sets, rate):
    demands = to_demands(sets, rate)
    rate_fn = lambda members: rate * 0.8  # noqa: E731
    result = qoe_aware_grouping(demands, rate_fn)
    assert result.policy == "qoe-aware"

    grouped = [u for g in result.plan.groups for u in g[0]]
    everyone = sorted(grouped + list(result.plan.solo_users))
    assert everyone == sorted(d.user_id for d in demands)

    # Merges are only accepted when they improve predicted QoE, so the
    # final plan can never predict worse than the unicast start.
    weights = QoEWeights()
    base = no_grouping(demands)
    demand_list = sorted(demands, key=lambda d: d.user_id)
    assert (
        _predicted_qoe(result.total_time_s, demand_list, 30.0, weights)
        >= _predicted_qoe(base.total_time_s, demand_list, 30.0, weights) - 1e-12
    )


def test_stops_merging_once_deadline_is_met():
    """Tiny demands already sustain 30 FPS solo: no groups are formed."""
    demands = to_demands([{0, 1}, {0, 1}, {0, 1}], rate=2000.0)
    rate_fn = lambda members: 1600.0  # noqa: E731
    qoe = qoe_aware_grouping(demands, rate_fn)
    assert qoe.groups == []
    # ...while the airtime grouper happily merges the identical viewports.
    airtime = greedy_similarity_grouping(demands, rate_fn)
    assert airtime.groups != []


def test_merges_when_deadline_is_missed():
    """Overloaded unicast: QoE-aware grouping multicasts to recover FPS."""
    shared = {c: 6e5 for c in range(12)}
    demands = [
        UserDemand(user_id=i, cell_bytes=dict(shared), unicast_rate_mbps=400.0)
        for i in range(4)
    ]
    rate_fn = lambda members: 380.0  # noqa: E731
    result = qoe_aware_grouping(demands, rate_fn)
    base = no_grouping(demands)
    assert result.groups != []
    assert result.total_time_s < base.total_time_s
