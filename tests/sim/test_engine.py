"""Discrete-event engine tests."""

import pytest

from repro.sim import Environment, SimulationError, all_of, any_of


def test_timeout_advances_clock():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(2.5)
        fired.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired == [2.5]
    assert env.now == 2.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_fifo_order_at_equal_times():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.process(proc(env, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_timeout_value_passed_to_process():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_event_succeed_wakes_waiters():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env):
        value = yield ev
        got.append((env.now, value))

    def trigger(env):
        yield env.timeout(3.0)
        ev.succeed("done")

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert got == [(3.0, "done")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_waiting_on_triggered_event_fires_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    got = []

    def waiter(env):
        value = yield ev
        got.append(value)

    env.process(waiter(env))
    env.run()
    assert got == [42]


def test_process_return_value_propagates():
    env = Environment()
    got = []

    def child(env):
        yield env.timeout(1.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        got.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert got == [(1.0, "child-result")]


def test_yielding_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_stops_early():
    env = Environment()
    fired = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)
            fired.append(env.now)

    env.process(proc(env))
    env.run(until=4.5)
    assert fired == [1.0, 2.0, 3.0, 4.0]
    assert env.now == 4.5


def test_run_until_advances_clock_with_no_events():
    env = Environment()
    env.run(until=7.0)
    assert env.now == 7.0


def test_run_until_empty_budget():
    env = Environment()

    def forever(env):
        while True:
            yield env.timeout(1.0)

    env.process(forever(env))
    with pytest.raises(SimulationError):
        env.run_until_empty(max_events=100)


def test_all_of_waits_for_everything():
    env = Environment()
    done_at = []

    def worker(env, d):
        yield env.timeout(d)
        return d

    procs = [env.process(worker(env, d)) for d in (1.0, 3.0, 2.0)]

    def waiter(env):
        yield all_of(env, procs)
        done_at.append(env.now)

    env.process(waiter(env))
    env.run()
    assert done_at == [3.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    ev = all_of(env, [])
    assert ev.triggered


def test_interleaved_processes_share_clock():
    env = Environment()
    log = []

    def ticker(env, name, period):
        while env.now < 3.0:
            yield env.timeout(period)
            log.append((round(env.now, 3), name))

    env.process(ticker(env, "fast", 1.0))
    env.process(ticker(env, "slow", 1.5))
    env.run(until=3.5)
    assert (1.0, "fast") in log
    assert (1.5, "slow") in log
    assert (3.0, "slow") in log


def test_all_of_collects_values_in_order():
    env = Environment()
    collected = []

    def worker(env, d):
        yield env.timeout(d)
        return d

    procs = [env.process(worker(env, d)) for d in (3.0, 1.0, 2.0)]

    def waiter(env):
        values = yield all_of(env, procs)
        collected.append(values)

    env.process(waiter(env))
    env.run()
    # Values land in argument order, not completion order.
    assert collected == [[3.0, 1.0, 2.0]]


def test_any_of_returns_first_value():
    env = Environment()
    got = []

    def waiter(env):
        winner = yield any_of(
            env,
            [env.timeout(2.0, value="slow"), env.timeout(1.0, value="fast")],
        )
        got.append((env.now, winner))

    env.process(waiter(env))
    env.run()
    assert got == [(1.0, "fast")]


def test_any_of_tie_breaks_fifo():
    env = Environment()
    got = []

    def waiter(env):
        winner = yield any_of(
            env,
            [env.timeout(1.0, value="first"), env.timeout(1.0, value="second")],
        )
        got.append(winner)

    env.process(waiter(env))
    env.run()
    assert got == ["first"]


def test_any_of_empty_fires_immediately():
    env = Environment()
    ev = any_of(env, [])
    assert ev.triggered


def test_any_of_losers_keep_running():
    env = Environment()
    log = []

    def slow(env):
        yield env.timeout(5.0)
        log.append("slow-done")

    def waiter(env):
        yield any_of(env, [env.timeout(1.0), env.process(slow(env))])
        log.append("winner")

    env.process(waiter(env))
    env.run()
    assert log == ["winner", "slow-done"]
