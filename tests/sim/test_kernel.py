"""Event kernel: dispatch order, cancellation, and the compaction sweep.

The property test drives random schedule/cancel/run interleavings
through ``Environment`` and through a brute-force reference — a sorted
list of the live ``(time, priority, seq)`` entries — and requires the
same dispatch log, clock and counters. Directed tests pin the amortized
cancellation sweep, which must stay O(log n) heapify passes under mass
cancellation instead of degenerating into one O(n) pass per cancel.
"""

import bisect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, EventPriority

# Delays on a coarse grid, so many runs put several events on one
# instant and the priority/sequence tie-breaks decide their order.
_DELAYS = (0.0, 0.05, 0.1, 0.25, 0.24999, 0.250001, 0.3, 0.5, 1.0,
           2.75, 10.0, 100.0)
_PRIORITIES = (EventPriority.URGENT, EventPriority.NORMAL,
               EventPriority.LOW)
# A burst schedules this many timers and cancels all but the last, so
# a single interleaving can cross the 64-entry compaction watermark.
_BURST = 80

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.sampled_from(range(len(_DELAYS)))),
        st.tuples(st.just("now"), st.sampled_from(range(len(_PRIORITIES)))),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("burst"), st.sampled_from(range(len(_DELAYS)))),
        st.tuples(st.just("run"), st.sampled_from(range(len(_DELAYS)))),
    ),
    min_size=1, max_size=60)


class Reference:
    """Brute-force event queue: a sorted list of live entries."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.live = []    # sorted (t, prio, seq, tag)
        self.state = {}   # tag -> "live" | "done" | "cancelled"
        self.log = []
        self.dispatched = 0
        self.cancel_calls = 0

    def schedule(self, tag, delay, prio=EventPriority.NORMAL):
        self.seq += 1
        bisect.insort(self.live, (self.now + delay, int(prio), self.seq, tag))
        self.state[tag] = "live"

    def cancel(self, tag):
        if self.state[tag] != "live":
            return
        self.state[tag] = "cancelled"
        self.cancel_calls += 1
        self.live = [e for e in self.live if e[3] != tag]

    def run(self, until=None):
        while self.live and (until is None or self.live[0][0] <= until):
            t, _, _, tag = self.live.pop(0)
            self.now = max(self.now, t)
            self.log.append((self.now, tag))
            self.state[tag] = "done"
            self.dispatched += 1
        if until is not None:
            self.now = until


def drive(ops):
    """Replay one interleaving on the kernel and on the reference."""
    env = Environment()
    ref = Reference()
    log = []
    events = []

    def logger(tag):
        def cb(ev):
            log.append((env.now, tag))
        return cb

    def sched(delay):
        tag = len(events)
        ev = env.timeout(delay)
        ev.add_callback(logger(tag))
        events.append(ev)
        ref.schedule(tag, delay)
        return tag

    def cancel(tag):
        env.cancel(events[tag])
        ref.cancel(tag)

    for op, arg in ops:
        if op == "sched":
            sched(_DELAYS[arg])
        elif op == "now":
            tag = len(events)
            ev = env.event()
            ev.add_callback(logger(tag))
            ev.succeed(priority=_PRIORITIES[arg])
            events.append(ev)
            ref.schedule(tag, 0.0, _PRIORITIES[arg])
        elif op == "cancel":
            if events:
                cancel(arg % len(events))
        elif op == "burst":
            tags = [sched(_DELAYS[arg]) for _ in range(_BURST)]
            for tag in tags[:-1]:
                cancel(tag)
        else:  # partial run, then keep scheduling relative to the new now
            horizon = env.now + _DELAYS[arg]
            env.run(until=horizon)
            ref.run(until=horizon)
        assert env.pending_count == len(ref.live)
        assert env.queue_depth() >= env.pending_count
    env.run()
    ref.run()
    return env, log, ref


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference_on_random_interleavings(ops):
    """Same dispatch order, timestamps, clock and counters."""
    env, log, ref = drive(ops)
    assert log == ref.log
    assert env.now == ref.now
    stats = env.kernel_stats
    assert stats["events_dispatched"] == ref.dispatched
    assert stats["events_cancelled"] == ref.cancel_calls
    assert stats["events_scheduled"] == ref.seq
    assert env.pending_count == 0
    assert env.queue_depth() == 0


def test_same_instant_events_dispatch_in_schedule_order():
    env = Environment()
    order = []
    for i in range(50):
        env.timeout(1.0).add_callback(lambda ev, i=i: order.append(i))
    env.run()
    assert order == list(range(50))
    assert env.now == 1.0


def test_cancelled_events_never_fire():
    env = Environment()
    fired = []
    evs = [env.timeout(t) for t in (0.1, 0.2, 0.3, 5.0)]
    for ev in evs:
        ev.add_callback(lambda e: fired.append(env.now))
    env.cancel(evs[1])
    env.cancel(evs[3])
    env.run()
    assert fired == [0.1, 0.3]
    stats = env.kernel_stats
    assert stats["events_cancelled"] == 2
    assert stats["events_dispatched"] == 2
    assert env.pending_count == 0


def test_mass_cancellation_uses_logarithmically_many_sweeps():
    """Cancelling almost everything must trigger at most O(log n)
    heapify sweeps — each one removes >= 2/3 of residents — never a
    sweep per cancel."""
    n = 20_000
    env = Environment()
    evs = [env.timeout(1000.0 + i * 1e-3) for i in range(n)]
    for ev in evs[: n - 1000]:
        env.cancel(ev)
    stats = env.kernel_stats
    assert stats["events_cancelled"] == n - 1000
    assert 1 <= stats["queue_compactions"] <= int(math.log2(n))
    # Physical residency stays within a constant factor of the live
    # population (sweep trigger: cancelled > 2x live + watermark).
    assert env.queue_depth() <= 3 * env.pending_count + 65
    env.run()
    assert env.kernel_stats["events_dispatched"] >= 1000


def test_cancel_heavy_churn_keeps_queue_bounded():
    """Steady schedule-then-cancel churn (the superseded-timer pattern)
    must not accumulate dead entries without bound."""
    env = Environment()
    live = None
    for k in range(30_000):
        if live is not None:
            env.cancel(live)
        live = env.timeout(1e6 + k)  # far future, always superseded
    assert env.pending_count == 1
    assert env.queue_depth() <= 200
    assert env.kernel_stats["queue_compactions"] >= 10


def test_kernel_stats_counters_reconcile():
    env = Environment()
    evs = [env.timeout(float(i % 7) * 0.1) for i in range(100)]
    for ev in evs[::3]:
        env.cancel(ev)
    env.run()
    assert env.kernel_stats == {
        "events_scheduled": 100,
        "events_dispatched": 66,
        "events_cancelled": 34,
        "queue_compactions": 0,
    }
    assert env.pending_count == 0
    assert env.queue_depth() == 0
