"""Tests for the discrete-event loop."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.hpc.events import EventLoop


class TestScheduling:
    def test_schedule_and_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [5.0]
        assert loop.now == 5.0

    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(3.0, lambda: order.append("c"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(2.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("low"), priority=10)
        loop.schedule(1.0, lambda: order.append("high"), priority=0)
        loop.run()
        assert order == ["high", "low"]

    def test_insertion_order_breaks_remaining_ties(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        loop = EventLoop(start_time=10.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(5.0, lambda: None)

    def test_callbacks_can_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def chain(depth):
            fired.append(loop.now)
            if depth > 0:
                loop.schedule(1.0, chain, depth - 1)

        loop.schedule(0.0, chain, 3)
        loop.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_kwargs_passed_to_callback(self):
        loop = EventLoop()
        seen = {}
        loop.schedule(1.0, lambda **kw: seen.update(kw), tag="x")
        loop.run()
        assert seen == {"tag": "x"}


#: ``(time, priority, priority of a child scheduled at the same time or None)``.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        st.integers(min_value=-2, max_value=2),
        st.none() | st.integers(min_value=-2, max_value=2),
    ),
    min_size=1,
    max_size=25,
)


class TestHeapOrder:
    @given(_EVENTS)
    @settings(max_examples=200, deadline=None)
    def test_fires_in_time_priority_insertion_order(self, events):
        loop = EventLoop()
        fired = []
        #: ``(time, priority)`` of every scheduled event, by insertion index.
        scheduled = []

        def schedule(time, priority):
            scheduled.append((time, priority))
            loop.schedule_at(time, fire, len(scheduled) - 1, priority=priority)

        def fire(label):
            fired.append(label)
            assert loop.now == scheduled[label][0]
            assert loop.pending == len(scheduled) - len(fired)
            if loop.now > 0:
                with pytest.raises(SimulationError):
                    loop.schedule_at(loop.now - 0.25, fire, -1)
            if label < len(events) and events[label][2] is not None:
                schedule(loop.now, events[label][2])

        for time, priority, _ in events:
            schedule(time, priority)
        assert loop.pending == len(events)
        assert loop.run() == len(scheduled)
        assert loop.pending == 0

        # Reference: always fire the smallest pending (time, priority, label).
        expected = []
        pending = [(time, priority, label) for label, (time, priority, _) in enumerate(events)]
        next_label = len(events)
        while pending:
            key = min(pending)
            pending.remove(key)
            time, _, label = key
            expected.append(label)
            if label < len(events) and events[label][2] is not None:
                pending.append((time, events[label][2], next_label))
                next_label += 1
        assert fired == expected


class TestRunUntil:
    def test_run_until_advances_clock_even_without_events(self):
        loop = EventLoop()
        executed = loop.run_until(100.0)
        assert executed == 0
        assert loop.now == 100.0

    def test_run_until_only_runs_due_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append("early"))
        loop.schedule(10.0, lambda: fired.append("late"))
        loop.run_until(5.0)
        assert fired == ["early"]
        assert loop.pending == 1

    def test_run_until_past_raises(self):
        loop = EventLoop(start_time=50.0)
        with pytest.raises(SimulationError):
            loop.run_until(10.0)

    def test_advance_relative(self):
        loop = EventLoop(start_time=5.0)
        loop.advance(10.0)
        assert loop.now == 15.0

    def test_max_events_bound(self):
        loop = EventLoop()
        for index in range(10):
            loop.schedule(float(index), lambda: None)
        executed = loop.run(max_events=3)
        assert executed == 3
        assert loop.pending == 7

    def test_peek_and_processed(self):
        loop = EventLoop()
        assert loop.peek() is None
        loop.schedule(2.0, lambda: None)
        assert loop.peek() == 2.0
        loop.run()
        assert loop.processed == 1
