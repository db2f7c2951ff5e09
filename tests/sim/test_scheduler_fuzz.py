"""Stateful fuzz: the tuple-heap ``Simulator`` against ``ReferenceSimulator``.

Hypothesis drives both engines through one random sequence of scheduler
calls — raw entries (the ``push`` / ``reserve_seq`` route a link takes)
at zero, sub-tick and past-the-span delays, slotted timers out to
thousands of seconds, cancels of live and of fired handles (enough of
them to cross the compaction threshold), callbacks that schedule from
inside dispatch, and ``run`` slices bounded by a clock or by an event
budget — and after every step asserts that both engines fired the same
callbacks at the same times and agree on the clock and on every counter.
The reference engine is the original ``Event``-object heap whose
``(time, seq)`` order the tuple heap must reproduce.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.engine import COMPACT_MIN_HEAP, Simulator
from repro.sim.reference import ReferenceSimulator
from tests.sim.two_event_link import schedule_fast

#: The delay classes the timer wheel this engine replaced routed apart
#: (one 1/8192 s tick, its ~1 s level-0 span, its 256 s level-1
#: horizon), kept because they span packet-scale to campaign-scale
#: timers: zero and sub-tick delays land among the entries at the
#: instant being dispatched; whole ticks up to the span are the near
#: future; beyond it, seconds to minutes; past the horizon, the far
#: future.  Whole-tick values make exact time collisions common.
TICK = 1.0 / 8192
SPAN = 1.0
HORIZON = 256.0

ZERO = st.just(0.0)
SUB_TICK = st.floats(0.0, TICK, exclude_max=True)
NEAR = st.one_of(st.integers(1, 16).map(lambda k: k * TICK), st.floats(TICK, SPAN))
PAST_SPAN = st.floats(SPAN, 300.0)
FAR = st.floats(HORIZON, 2000.0)
DELAY = st.one_of(ZERO, SUB_TICK, NEAR, PAST_SPAN)

#: What a callback schedules when it fires: (api, delay) pairs.
CHILDREN = st.lists(
    st.tuples(st.sampled_from(("fast", "schedule", "at")), st.one_of(ZERO, SUB_TICK, NEAR)),
    max_size=3,
).map(tuple)


class SchedulerMachine(RuleBasedStateMachine):
    """Both engines, one rule sequence, identical observable behaviour."""

    def __init__(self):
        super().__init__()
        self.engines = (Simulator(), ReferenceSimulator())
        self.logs = ([], [])
        # Per engine: label -> (handle, seq when scheduled).  A handle whose
        # seq moved on was recycled for a newer event (the optimized engine
        # pools fired handles), and cancelling it would break the handle
        # discipline ``Event`` documents, so the rules forget such labels.
        self.handles = ({}, {})
        self.labels = 0

    # -- helpers ----------------------------------------------------------
    def _fire(self, e, label, children):
        self.logs[e].append((label, self.engines[e].now))
        for k, (api, delay) in enumerate(children):
            self._schedule(e, api, delay, f"{label}.{k}", ())

    def _schedule(self, e, api, delay, label, children):
        sim = self.engines[e]
        if api == "fast":
            schedule_fast(sim, delay, self._fire, e, label, children)
            return
        if api == "schedule":
            ev = sim.schedule(delay, self._fire, e, label, children)
        else:
            ev = sim.schedule_at(sim.now + delay, self._fire, e, label, children)
        self.handles[e][label] = (ev, ev.seq)

    def _both(self, api, delay, children=()):
        label = str(self.labels)
        self.labels += 1
        for e in (0, 1):
            self._schedule(e, api, delay, label, children)

    # -- rules ------------------------------------------------------------
    @rule(delay=DELAY, children=CHILDREN)
    def schedule_fast(self, delay, children):
        self._both("fast", delay, children)

    @rule(api=st.sampled_from(("schedule", "at")), delay=st.one_of(NEAR, PAST_SPAN, FAR),
          children=CHILDREN)
    def schedule_slotted(self, api, delay, children):
        self._both(api, delay, children)

    @rule(n=st.integers(1, 2 * COMPACT_MIN_HEAP), delay=st.one_of(SUB_TICK, NEAR, FAR))
    def cancel_storm(self, n, delay):
        """Schedule ``n`` slotted timers and cancel all but one: past
        ``COMPACT_MIN_HEAP`` queued entries this crosses the compaction
        threshold."""
        first = self.labels
        for _ in range(n):
            self._both("schedule", delay)
        for label in range(first, self.labels - 1):
            for e in (0, 1):
                self.handles[e].pop(str(label))[0].cancel()

    @precondition(lambda self: self.handles[0])
    @rule(pick=st.integers(0, 10**6))
    def cancel(self, pick):
        """Cancel a live, fired or already-cancelled handle."""
        labels = list(self.handles[0])
        label = labels[pick % len(labels)]
        (ev, seq), (ref_ev, _) = self.handles[0].pop(label), self.handles[1].pop(label)
        if ev.seq == seq:
            ev.cancel()
            ref_ev.cancel()

    @rule(dt=st.one_of(ZERO, SUB_TICK, NEAR, st.floats(SPAN, 3000.0)))
    def run_until(self, dt):
        sim, ref = self.engines
        assert sim.now == ref.now
        until = sim.now + dt
        sim.run(until=until)
        ref.run(until=until)

    @rule(k=st.integers(1, 20))
    def run_budget(self, k):
        for sim in self.engines:
            sim.run(max_events=k)

    # -- after every step ---------------------------------------------------
    @invariant()
    def engines_agree(self):
        sim, ref = self.engines
        assert self.logs[0] == self.logs[1]
        assert sim.now == ref.now
        assert sim.dispatch_seq == ref.dispatch_seq
        assert sim.pending == ref.pending
        assert sim.events_processed == ref.events_processed
        assert sim.cancelled_popped == ref.cancelled_popped
        assert sim.compactions == ref.compactions


SchedulerMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40)
test_wheel_matches_reference_under_any_call_sequence = SchedulerMachine.TestCase
