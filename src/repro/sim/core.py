"""The simulation environment: clock + event queue + scheduler.

Events wait in one binary heap of ``(time, priority, seq, event)``
tuples, so dispatch order is time, then priority, then schedule
sequence — a pure function of the run. Cancellation flags the event
and leaves its entry to be skipped at the head or swept by an
amortized compaction (see :meth:`Environment.cancel`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import AllOf, AnyOf, Event, EventPriority, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running a finished simulation)."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at a target event."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class _CallbackEvent(Event):
    """Internal: re-delivers a callback for an already-processed event."""

    __slots__ = ("_fn", "_orig")

    def __init__(self, env: "Environment", fn: Callable, orig: Event):
        super().__init__(env)
        self._fn = fn
        self._orig = orig
        self._triggered = True
        env.schedule(self)

    def _process(self) -> None:
        self._processed = True
        self.callbacks = None
        self._fn(self._orig)


class Environment:
    """Discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    seed:
        Seed for the environment's named random streams (``env.rng``).

    Example
    -------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5
    """

    def __init__(self, initial_time: float = 0.0, seed: int = 0):
        self._now = float(initial_time)
        self._queue: list = []  # (time, priority, seq, event)
        self._seq = 0
        # Cancelled entries still resident in the heap.
        self._n_cancelled = 0
        # Live (scheduled, not yet dispatched or cancelled) events.
        self._n_live = 0
        # Lifetime kernel counters (see :attr:`kernel_stats`).
        self._n_scheduled = 0
        self._n_dispatched = 0
        self._n_cancel_calls = 0
        self._n_compactions = 0
        self.rng = RandomStreams(seed)
        self._active_process: Optional[Process] = None
        self._id_counters: dict = {}

    def next_id(self, kind: str) -> int:
        """Monotonic 1-based id for ``kind``, scoped to this environment.

        Replaces process-global ``itertools.count`` class counters:
        ids that end up in logs must be a function of the run, not of
        how many environments the process created before this one —
        otherwise same-seed replays diverge.
        """
        value = self._id_counters.get(kind, 0) + 1
        self._id_counters[kind] = value
        return value

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event firing when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event firing when at least one event in ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = EventPriority.NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` seconds from now."""
        self._seq += 1
        self._n_scheduled += 1
        self._n_live += 1
        t = self._now + delay
        event._t = t
        heapq.heappush(self._queue, (t, int(priority), self._seq, event))

    def schedule_callback(self, fn: Callable[[Event], None], event: Event) -> None:
        """Schedule ``fn(event)`` to run at the current time."""
        _CallbackEvent(self, fn, event)

    def cancel(self, event: Event) -> None:
        """Remove a scheduled event; its callbacks will never run.

        Cancellation is O(1): the entry is marked and skipped when it
        reaches the heap head. To bound memory (not correctness), the
        heap is swept of dead entries only once cancelled entries
        outnumber live ones 2:1 past a 64-entry watermark — each sweep
        removes at least two thirds of the residents, so a mass
        cancellation of n events triggers at most O(log n) heapify
        passes.
        """
        if event._processed or event._cancelled:
            return
        event._cancelled = True
        self._n_cancel_calls += 1
        if not event._triggered:
            return  # never scheduled; nothing resident in the queue
        self._n_cancelled += 1
        self._n_live -= 1
        if self._n_cancelled > 64 and self._n_cancelled > 2 * self._n_live:
            self._queue = [entry for entry in self._queue
                           if not entry[3]._cancelled]
            heapq.heapify(self._queue)
            self._n_cancelled = 0
            self._n_compactions += 1

    # -- queue head ---------------------------------------------------------
    def _settle_head(self) -> Optional[Event]:
        """Return the next live event without consuming it, or None.

        Pops cancelled entries off the head on the way.
        """
        q = self._queue
        while q and q[0][3]._cancelled:
            heapq.heappop(q)
            self._n_cancelled -= 1
        return q[0][3] if q else None

    def _dispatch(self, event: Event) -> None:
        heapq.heappop(self._queue)
        t = event._t
        if t > self._now:
            self._now = t
        elif t < self._now - 1e-12:
            raise SimulationError(f"time went backwards: {t} < {self._now}")
        self._n_dispatched += 1
        self._n_live -= 1
        event._process()

    # -- introspection -------------------------------------------------------
    @property
    def kernel_stats(self) -> dict:
        """Lifetime kernel counters for the stats surface.

        ``queue_compactions`` counts the heapify passes that sweep
        cancelled entries out of the heap.
        """
        return {
            "events_scheduled": self._n_scheduled,
            "events_dispatched": self._n_dispatched,
            "events_cancelled": self._n_cancel_calls,
            "queue_compactions": self._n_compactions,
        }

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._n_live

    def queue_depth(self) -> int:
        """Entries physically resident in the heap (live + cancelled).

        For tests asserting that cancelled timers cannot pile up over
        long runs.
        """
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        event = self._settle_head()
        return event._t if event is not None else float("inf")

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event."""
        event = self._settle_head()
        if event is None:
            raise SimulationError("no more events")
        self._dispatch(event)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue drains;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event is processed, and
            return its value.
        """
        if until is None:
            while True:
                event = self._settle_head()
                if event is None:
                    return None
                self._dispatch(event)
        if isinstance(until, Event):
            target = until

            def _stop(ev: Event) -> None:
                raise StopSimulation(ev._value if ev._exc is None else ev._exc)

            target.add_callback(_stop)
            try:
                while True:
                    event = self._settle_head()
                    if event is None:
                        break
                    self._dispatch(event)
            except StopSimulation as stop:
                if target._exc is not None:
                    raise target._exc
                return stop.value
            raise SimulationError(
                "event queue drained before the target event fired")
        # numeric horizon
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon}: clock already at {self._now}")
        while True:
            event = self._settle_head()
            if event is None or event._t > horizon:
                break
            self._dispatch(event)
        self._now = horizon
        return None
