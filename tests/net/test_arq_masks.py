"""Block-ACK rounds over packet masks equal the NumPy round loop, bitwise.

``block_arq_process`` keeps each receiver's outstanding packets as one
Python-int mask.  ``_matrix_arq_process`` below is a test-local copy of
the loop it replaced, which kept an ``(R, P)`` bool matrix.  Both must
give the same ``ArqOutcome``, emit the same ``net.arq_round`` and
``net.arq_deadline`` events, draw the same ``rng.random`` calls in the
same order, and leave the generator at the same position.
"""

import numpy as np
import pytest

from repro.net import ArqConfig, ArqOutcome
from repro.net import arq
from repro.net.arq import ROUND_DONE, block_arq_process
from repro.obs import trace as _trace
from repro.obs.trace import recording
from repro.sim import Environment, any_of

PACKET_COUNTS = [0, 1, 63, 64, 65, 500]
CONFIGS = [ArqConfig(), ArqConfig(max_rounds=3)]


def _matrix_arq_process(
    env, rng, num_packets, pers, packet_time_s, config,
    deadline_event=None, frame=None, receivers=None,
):
    """The ``(R, P)`` bool-matrix round loop, as it was."""
    num_receivers = len(pers)
    if num_receivers == 0:
        raise ValueError("need at least one receiver")
    if num_packets == 0:
        return ArqOutcome(
            delivered=(True,) * num_receivers,
            airtime_s=0.0,
            rounds=0,
            packets_sent=0,
            residual_packets=(0,) * num_receivers,
        )
    if packet_time_s <= 0 or not np.isfinite(packet_time_s):
        return ArqOutcome(
            delivered=(False,) * num_receivers,
            airtime_s=0.0,
            rounds=0,
            packets_sent=0,
            residual_packets=(num_packets,) * num_receivers,
        )
    needs = np.ones((num_receivers, num_packets), dtype=bool)
    start = env.now
    rounds = 0
    packets_sent = 0
    overhead_s = num_receivers * config.feedback_time_s + config.round_trip_s
    while rounds < config.max_rounds:
        union = needs.any(axis=0)
        n_union = int(union.sum())
        if n_union == 0:
            break
        cost = n_union * packet_time_s + overhead_s
        round_start = env.now
        round_done = env.timeout(cost, value=ROUND_DONE)
        if deadline_event is not None:
            winner = yield any_of(env, [round_done, deadline_event])
        else:
            winner = yield round_done
        if winner != ROUND_DONE:
            if _trace._RECORDER is not None:
                arq._EV_ARQ_DEADLINE.emit(
                    t=env.now,
                    round=rounds + 1,
                    pending_receivers=int(needs.any(axis=1).sum()),
                    wasted_s=env.now - round_start,
                    **_trace.correlation(frame=frame, users=receivers),
                )
            break
        rounds += 1
        packets_sent += n_union
        for r, per in enumerate(pers):
            listening = needs[r]
            if not listening.any():
                continue
            if per >= 1.0:
                continue
            if per <= 0.0:
                needs[r] = False
                continue
            failures = rng.random(num_packets) < per
            needs[r] &= failures
        if _trace._RECORDER is not None:
            arq._EV_ARQ_ROUND.emit(
                t=env.now,
                round=rounds,
                packets=n_union,
                pending_receivers=int(needs.any(axis=1).sum()),
                cost_s=cost,
                data_s=n_union * packet_time_s,
                overhead_s=overhead_s,
                **_trace.correlation(frame=frame, users=receivers),
            )
    residual = tuple(int(needs[r].sum()) for r in range(num_receivers))
    return ArqOutcome(
        delivered=tuple(n == 0 for n in residual),
        airtime_s=env.now - start,
        rounds=rounds,
        packets_sent=packets_sent,
        residual_packets=residual,
    )


def _run(process, seed, num_packets, pers, packet_time_s, config, deadline_s):
    """(outcome, events, next draw) of one process on a private clock."""
    rng = np.random.default_rng(seed)
    env = Environment()
    deadline = (
        env.timeout(deadline_s, value="deadline")
        if deadline_s is not None
        else None
    )
    holder = {}

    def runner():
        holder["outcome"] = yield from process(
            env, rng, num_packets, pers, packet_time_s, config, deadline,
            frame=3, receivers=tuple(range(10, 10 + len(pers))),
        )

    with recording(events=["net.arq_round", "net.arq_deadline"]) as recorder:
        env.process(runner())
        env.run_until_empty()
    events = [(e.t, e.event, e.fields) for e in recorder.events]
    return holder["outcome"], events, rng.random()


def _cases():
    """Seeded random cases: every packet count, 1-6 receivers, pers that
    include 0.0 and 1.0, with and without a deadline."""
    rng = np.random.default_rng(2024)
    cases = []
    for num_packets in PACKET_COUNTS:
        for i in range(8):
            num_receivers = int(rng.integers(1, 7))
            pers = [
                float(rng.choice([0.0, 1.0, rng.uniform(0.0, 0.6)]))
                for _ in range(num_receivers)
            ]
            packet_time_s = float(rng.uniform(1e-7, 2e-5))
            one_round = num_packets * packet_time_s
            deadline_s = (
                None if i % 2 else float(rng.uniform(0.2, 3.0)) * one_round
                + 1e-4
            )
            cases.append(pytest.param(
                int(rng.integers(2**31)), num_packets, pers, packet_time_s,
                CONFIGS[i % len(CONFIGS)], deadline_s,
                id=f"p{num_packets}-{i}",
            ))
    return cases


@pytest.mark.parametrize(
    "seed, num_packets, pers, packet_time_s, config, deadline_s", _cases()
)
def test_masks_match_the_matrix_loop_bitwise(
    seed, num_packets, pers, packet_time_s, config, deadline_s
):
    args = (seed, num_packets, pers, packet_time_s, config, deadline_s)
    got = _run(block_arq_process, *args)
    want = _run(_matrix_arq_process, *args)
    assert got[0] == want[0]
    assert got[1] == want[1]  # the same trace fields, round for round
    assert got[2] == want[2]  # the stream ends at the same position


def test_cases_reach_every_branch():
    """The cases hold deadline cuts, round caps, partial and full delivery."""
    outcomes = [_run(block_arq_process, *p.values)[0] for p in _cases()]
    assert any(o.all_delivered and o.rounds > 1 for o in outcomes)
    assert any(not o.all_delivered and o.rounds == 3 for o in outcomes)
    assert any(o.rounds == 0 and o.residual_packets[0] > 0 for o in outcomes)
    assert any(
        not o.all_delivered and 0 < sum(o.residual_packets) for o in outcomes
    )


@pytest.mark.parametrize("num_packets", [63, 64, 65, 130])
def test_each_packet_is_its_own_bit(num_packets):
    """A word-boundary block with one lossy receiver: the residual counts
    equal the matrix loop's per round (capped at one round)."""
    config = ArqConfig(max_rounds=1)
    args = (5, num_packets, [0.5, 0.0, 1.0], 1e-6, config, None)
    got, _, _ = _run(block_arq_process, *args)
    want, _, _ = _run(_matrix_arq_process, *args)
    assert got.residual_packets == want.residual_packets
    assert got.residual_packets[1:] == (0, num_packets)
    assert 0 < got.residual_packets[0] < num_packets
