"""A minimal process-based discrete-event simulation engine.

The streaming session simulator needs interleaved server/client processes
with precise virtual time (frame deadlines, transfer times, re-buffering).
``simpy`` is not available offline, so this module provides the small subset
the library needs, with the same generator-based programming model:

    env = Environment()

    def player(env):
        yield env.timeout(1.0 / 30.0)
        ...

    env.process(player(env))
    env.run(until=10.0)

Processes are Python generators that ``yield`` events; :class:`Timeout`
fires after a delay, :class:`Event` when triggered, and yielding another
:class:`Process` waits for it to finish.  Events scheduled at equal times
fire in FIFO order of scheduling, which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator, Iterable

from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "all_of",
    "any_of",
]


# -- observability (all no-ops unless recording/metrics are enabled) --------

_C_SCHEDULED = _metrics.counter(
    "sim.events_scheduled", unit="events", layer="sim",
    help="entries pushed onto the event queue (timeouts, wakes, processes)",
)
_C_FIRED = _metrics.counter(
    "sim.events_fired", unit="events", layer="sim",
    help="queue entries popped and fired",
)
_C_SPAWNED = _metrics.counter(
    "sim.processes_spawned", unit="processes", layer="sim",
    help="generator processes started with env.process(...)",
)
_C_FINISHED = _metrics.counter(
    "sim.processes_finished", unit="processes", layer="sim",
    help="generator processes that ran to completion",
)

_EV_SCHEDULE = _trace.event_type(
    "sim.schedule", layer="sim",
    help="an event was scheduled onto the queue",
    fields=("at", "kind"),
)
_EV_FIRE = _trace.event_type(
    "sim.fire", layer="sim",
    help="a queue entry fired (the clock advanced to its time)",
    fields=("kind",),
)
_EV_PROCESS_SPAWN = _trace.event_type(
    "sim.process_spawn", layer="sim",
    help="a generator process was registered with the environment",
    fields=(),
)
_EV_PROCESS_FINISH = _trace.event_type(
    "sim.process_finish", layer="sim",
    help="a generator process returned (its completion event fires)",
    fields=(),
)


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, bad yield)."""


class Event:
    """A one-shot occurrence processes can wait on."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.triggered = False
        self.value: Any = None
        self._waiters: list[Process] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking every waiting process."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for proc in self._waiters:
            self.env._schedule(self.env.now, proc, value)
        self._waiters.clear()
        return self

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.env._schedule(self.env.now, proc, self.value)
        else:
            self._waiters.append(proc)


class Timeout(Event):
    """An event that fires ``delay`` after it was created."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        env._schedule(env.now + delay, self, value)


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    def __init__(self, env: "Environment", generator: Generator) -> None:
        super().__init__(env)
        self._generator = generator
        _C_SPAWNED.inc()
        if _trace._RECORDER is not None:
            _EV_PROCESS_SPAWN.emit(t=env.now)
        env._schedule(env.now, self, None)

    def _resume(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            _C_FINISHED.inc()
            if _trace._RECORDER is not None:
                _EV_PROCESS_FINISH.emit(t=self.env.now)
            if not self.triggered:
                self.succeed(getattr(stop, "value", None))
            return
        if isinstance(target, Process):
            target._add_waiter(self)
        elif isinstance(target, Event):
            target._add_waiter(self)
        else:
            raise SimulationError(
                f"process yielded {type(target).__name__}; yield an Event"
            )


class Environment:
    """Virtual clock plus the event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, Event | Process, Any]] = []
        self._counter = itertools.count()

    # -- public API ----------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def run(self, until: float | None = None) -> None:
        """Execute events until the queue drains or ``until`` is reached.

        With ``until``, the clock is advanced to exactly ``until`` even if
        the last event fires earlier.
        """
        while self._queue:
            t, _, item, value = self._queue[0]
            if until is not None and t > until:
                break
            heapq.heappop(self._queue)
            self.now = t
            self._fire(item, value)
        if until is not None and self.now < until:
            self.now = float(until)

    def run_until_empty(self, max_events: int = 10_000_000) -> None:
        """Run with a safety cap on event count (guards runaway loops)."""
        fired = 0
        while self._queue:
            if fired >= max_events:
                raise SimulationError("event budget exhausted — runaway simulation?")
            t, _, item, value = heapq.heappop(self._queue)
            self.now = t
            self._fire(item, value)
            fired += 1

    # -- internals -------------------------------------------------------------

    def _schedule(self, time: float, item: Event | Process, value: Any) -> None:
        _C_SCHEDULED.inc()
        if _trace._RECORDER is not None:
            _EV_SCHEDULE.emit(t=self.now, at=time, kind=type(item).__name__)
        heapq.heappush(self._queue, (time, next(self._counter), item, value))

    def _fire(self, item: Event | Process, value: Any) -> None:
        _C_FIRED.inc()
        recorder = _trace._RECORDER
        if recorder is not None:
            # Keep the ambient trace clock on the firing event's time so
            # un-env'd code (schedulers, policies) lands at the right t.
            recorder.now = self.now
            _EV_FIRE.emit(t=self.now, kind=type(item).__name__)
        if isinstance(item, Process):
            item._resume(value)
        elif isinstance(item, Timeout):
            if not item.triggered:
                item.succeed(value)
        else:
            raise SimulationError(f"unexpected queue item {item!r}")


def all_of(env: Environment, events: Iterable[Event]) -> Event:
    """An event that fires once every listed event has fired.

    The combined event's value is the list of the listed events' values, in
    input order (a process's value is its return value).
    """
    events = list(events)
    done = env.event()
    values: list[Any] = [None] * len(events)
    remaining = len(events)
    if remaining == 0:
        done.succeed([])
        return done

    def waiter(index, ev):
        value = yield ev
        nonlocal remaining
        values[index] = value
        remaining -= 1
        if remaining == 0 and not done.triggered:
            done.succeed(list(values))

    for index, ev in enumerate(events):
        env.process(waiter(index, ev))
    return done


def any_of(env: Environment, events: Iterable[Event]) -> Event:
    """An event that fires as soon as *any* listed event fires.

    First event wins: the combined event's value is the winner's value.
    Ties at equal times resolve in input order (FIFO scheduling).  Used for
    deadline races — e.g. an ARQ round against its frame deadline.  Losing
    events are left untouched and may still fire later.
    """
    events = list(events)
    done = env.event()
    if not events:
        done.succeed(None)
        return done

    def waiter(ev):
        value = yield ev
        if not done.triggered:
            done.succeed(value)

    for ev in events:
        env.process(waiter(ev))
    return done
