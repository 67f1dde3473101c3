"""Block-ACK ARQ rounds against a deadline budget."""

import numpy as np
import pytest

from repro.net import ArqConfig, ArqOutcome, simulate_block_arq
from repro.sim import Environment
from repro.net.arq import block_arq_process


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_clean_link_single_round():
    cfg = ArqConfig()
    out = simulate_block_arq(_rng(), 100, [0.0], 1e-5, cfg)
    assert out.all_delivered
    assert out.rounds == 1
    assert out.packets_sent == 100
    assert out.airtime_s == pytest.approx(
        100 * 1e-5 + cfg.feedback_time_s + cfg.round_trip_s
    )


def test_zero_packets_is_instant_success():
    out = simulate_block_arq(_rng(), 0, [0.5, 0.5], 1e-5)
    assert out.all_delivered
    assert out.rounds == 0
    assert out.airtime_s == 0.0


def test_dead_link_fails_without_airtime():
    out = simulate_block_arq(_rng(), 10, [0.0], float("inf"))
    assert not out.all_delivered
    assert out.airtime_s == 0.0
    assert out.residual_packets == (10,)


def test_lossy_link_retransmits_until_done():
    out = simulate_block_arq(_rng(), 200, [0.2], 1e-6)
    assert out.all_delivered
    assert out.rounds > 1
    assert out.packets_sent > 200  # retransmissions happened


def test_total_loss_exhausts_rounds():
    cfg = ArqConfig(max_rounds=3)
    out = simulate_block_arq(_rng(), 10, [1.0], 1e-6, cfg)
    assert not out.all_delivered
    assert out.rounds == 3
    assert out.packets_sent == 30  # full block every round
    assert out.residual_packets == (10,)


def test_multicast_union_retransmission():
    # Two receivers with disjoint random losses: the union retransmission
    # must cover both, and per-receiver feedback is charged each round.
    cfg = ArqConfig()
    out = simulate_block_arq(_rng(3), 500, [0.1, 0.1], 1e-7, cfg)
    assert isinstance(out, ArqOutcome)
    assert out.all_delivered
    solo = simulate_block_arq(_rng(3), 500, [0.1], 1e-7, cfg)
    # The group pays at least as many data PDUs as any single receiver.
    assert out.packets_sent >= solo.packets_sent


def test_deadline_truncates_round():
    cfg = ArqConfig()
    # One round costs 10 * 1e-3 + overhead; a 5 ms deadline cuts it short.
    out = simulate_block_arq(_rng(), 10, [0.0], 1e-3, cfg, deadline_s=5e-3)
    assert not out.all_delivered
    assert out.rounds == 0
    assert out.packets_sent == 0  # an unacknowledged round delivers nothing
    assert out.airtime_s == pytest.approx(5e-3)


def test_deadline_after_completion_is_harmless():
    out = simulate_block_arq(_rng(), 10, [0.0], 1e-6, deadline_s=10.0)
    assert out.all_delivered


def test_process_runs_on_shared_environment():
    env = Environment()
    holder = {}

    def runner():
        holder["out"] = yield from block_arq_process(
            env, _rng(), 10, [0.0], 1e-5, ArqConfig(), None
        )

    env.process(runner())
    env.run_until_empty()
    assert holder["out"].all_delivered
    assert env.now == pytest.approx(holder["out"].airtime_s)


def test_requires_a_receiver():
    with pytest.raises(ValueError):
        simulate_block_arq(_rng(), 10, [], 1e-5)


def test_deterministic_given_seed():
    a = simulate_block_arq(_rng(42), 300, [0.15, 0.05], 1e-6)
    b = simulate_block_arq(_rng(42), 300, [0.15, 0.05], 1e-6)
    assert a == b


@pytest.mark.parametrize("per", [float("nan"), -0.5, 1.7])
def test_per_outside_unit_interval_is_rejected_before_any_round(per):
    # Unchecked, NaN and -0.5 were delivered after one round and 1.7 was
    # treated as 1.0.
    rng = _rng()
    with pytest.raises(ValueError, match=r"per must be in \[0, 1\]"):
        simulate_block_arq(rng, 50, [0.1, per], 1e-5)
    assert rng.random() == _rng().random()  # no packet was drawn


def test_per_bounds_are_accepted():
    out = simulate_block_arq(_rng(), 20, [0.0, 1.0], 1e-6, ArqConfig(max_rounds=2))
    assert out.delivered == (True, False)
    assert out.residual_packets == (0, 20)
