"""Stateful fuzz: the timer-wheel ``Simulator`` against ``ReferenceSimulator``.

Hypothesis drives both engines through one random sequence of scheduler
calls — fast-path timers at zero, sub-tick and past-the-span delays,
slotted timers beyond the level-1 horizon, cancels of live and of fired
handles (enough of them to cross the compaction threshold), callbacks
that schedule from inside dispatch, and ``run`` slices bounded by a
clock or by an event budget — and after every step asserts that both
engines fired the same callbacks at the same times and agree on the
clock and on every counter.  The reference engine is the plain heap the
wheel's ``(time, seq)`` order must reproduce.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.engine import COMPACT_MIN_HEAP, Simulator
from repro.sim.reference import ReferenceSimulator

#: One timer-wheel tick, the wheel's level-0 span and its level-1 horizon.
TICK = 1.0 / 8192
SPAN = 1.0
HORIZON = 256.0

#: Delays that exercise every route of the wheel: zero and sub-tick
#: delays join the batch being drained; whole ticks and the rest of the
#: span land in level 0; past the span in level 1; past the horizon in
#: the overflow heap.  Whole-tick values make same-tick collisions common.
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
            sim.schedule_fast(delay, self._fire, e, label, children)
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
        assert sim.pending == ref.pending
        assert sim.events_processed == ref.events_processed
        assert sim.cancelled_popped == ref.cancelled_popped
        assert sim.compactions == ref.compactions


SchedulerMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40)
test_wheel_matches_reference_under_any_call_sequence = SchedulerMachine.TestCase
