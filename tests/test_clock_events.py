"""Unit tests for the virtual clock and the event queue."""

import pytest

from repro.simulation.clock import TIME_EPSILON, VirtualClock, times_equal
from repro.simulation.events import EventPriority, EventQueue


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advances_forward(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_rejects_moving_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_tolerates_float_noise(self):
        clock = VirtualClock(1.0)
        clock.advance_to(1.0 - TIME_EPSILON / 2)
        assert clock.now == 1.0

    def test_reset(self):
        clock = VirtualClock(4.0)
        clock.reset()
        assert clock.now == 0.0

    def test_times_equal_helper(self):
        assert times_equal(1.0, 1.0 + TIME_EPSILON / 10)
        assert not times_equal(1.0, 1.1)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, priority=EventPriority.TIMER, tag="timer")
        queue.push(1.0, lambda: None, priority=EventPriority.COMPLETION, tag="completion")
        queue.push(1.0, lambda: None, priority=EventPriority.ARRIVAL, tag="arrival")
        order = [queue.pop().tag for _ in range(3)]
        assert order == ["completion", "arrival", "timer"]

    def test_sequence_breaks_equal_priority_ties(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, tag="first")
        queue.push(1.0, lambda: None, tag="second")
        assert queue.pop().tag == "first"
        assert queue.pop().tag == "second"

    def test_cancellation_skips_event(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None, tag="cancel-me")
        queue.push(2.0, lambda: None, tag="keep")
        handle.cancel()
        assert handle.cancelled
        assert queue.pop().tag == "keep"
        assert queue.pop() is None

    def test_peek_time_ignores_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        handle.cancel()
        assert queue.peek_time() == 5.0

    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        handle.cancel()
        assert len(queue) == 1

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        handle = queue.push(1.0, lambda: None)
        assert queue
        handle.cancel()
        assert not queue

    def test_cancel_pending_by_tag(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, tag="x")
        queue.push(2.0, lambda: None, tag="x")
        queue.push(3.0, lambda: None, tag="y")
        assert queue.cancel_pending("x") == 2
        assert [e.tag for e in iter(queue.pop, None)] == ["y"]

    def test_rejects_negative_time(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-0.1, lambda: None)

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert queue.pop() is None

    def test_drain_times_sorted(self):
        queue = EventQueue()
        queue.push(3.0, lambda: None)
        queue.push(1.0, lambda: None)
        assert queue.drain_times() == [1.0, 3.0]


class TestPopLimitAndHandles:
    def test_push_returns_the_event_that_pops(self):
        queue = EventQueue()
        event = queue.push(1.0, None, tag="arrival", payload="task")
        assert (event.time, event.tag, event.payload) == (1.0, "arrival", "task")
        assert queue.pop() is event

    def test_pop_limit_leaves_a_past_limit_event_queued(self):
        queue = EventQueue()
        queue.push(1.0, None, tag="due")
        queue.push(3.0, None, tag="late")
        assert queue.pop(2.0).tag == "due"
        assert queue.pop(2.0) is None
        assert len(queue) == 1
        assert queue.peek_time() == 3.0
        assert queue.pop(3.0).tag == "late"
        assert queue.pop(3.0) is None
        assert len(queue) == 0

    def test_pop_limit_skips_cancelled_events_before_checking_the_limit(self):
        queue = EventQueue()
        queue.push(1.0, None, tag="cancelled").cancel()
        queue.push(2.0, None, tag="due")
        assert queue.pop(2.0).tag == "due"

    def test_cancel_after_pop_leaves_len_unchanged(self):
        queue = EventQueue()
        event = queue.push(1.0, None)
        queue.push(2.0, None)
        assert queue.pop() is event
        assert len(queue) == 1
        event.cancel()
        assert len(queue) == 1
        assert not event.cancelled
        assert queue.pop().time == 2.0

    def test_cancel_after_clear_leaves_len_unchanged(self):
        queue = EventQueue()
        event = queue.push(1.0, None)
        queue.clear()
        event.cancel()
        assert len(queue) == 0

    def test_equal_time_and_priority_pop_in_seq_order(self):
        queue = EventQueue()
        pushed = [
            queue.push(1.0, None, priority=EventPriority.ARRIVAL, tag=f"e{i}")
            for i in range(50)
        ]
        popped = list(iter(queue.pop, None))
        assert popped == pushed
        assert [e.seq for e in popped] == sorted(e.seq for e in popped)


class TestTombstoneCompaction:
    def test_cancel_heavy_queue_compacts(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None, tag="timer") for i in range(100)]
        keep = [queue.push(1000.0 + i, lambda: None, tag="keep") for i in range(5)]
        for handle in handles:
            handle.cancel()
        # Tombstones outnumbered live events on a >=64-entry heap: the heap
        # was rebuilt towards the live horizon instead of tracking the full
        # cancellation history (later cancels may re-park tombstones until
        # the trigger next fires, so the bound is "well below 105", not 5).
        assert queue.compactions > 0
        assert len(queue) == 5
        assert len(queue._heap) < 64
        assert [e.time for e in iter(queue.pop, None)] == [h.time for h in keep]

    def test_small_heaps_stay_lazy(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(20)]
        for handle in handles[:-1]:
            handle.cancel()
        assert queue.compactions == 0
        assert len(queue._heap) == 20  # tombstones still parked in the heap
        assert queue.pop().time == 19.0

    def test_cancel_pending_triggers_compaction(self):
        queue = EventQueue()
        for i in range(90):
            queue.push(float(i), lambda: None, tag="bulk")
        queue.push(500.0, lambda: None, tag="survivor")
        assert queue.cancel_pending("bulk") == 90
        assert queue.compactions > 0
        assert len(queue._heap) == 1

    def test_compaction_preserves_pop_order(self):
        queue = EventQueue()
        handles = []
        for i in range(200):
            handles.append(queue.push(float(i % 37), lambda: None, tag=f"t{i}"))
        for i, handle in enumerate(handles):
            if i % 3:
                handle.cancel()
        # Ties at the same (time, priority) resolve by insertion order.
        expected = [
            (time, tag)
            for time, _, tag in sorted(
                (h.time, i, h.tag) for i, h in enumerate(handles) if i % 3 == 0
            )
        ]
        popped = [(e.time, e.tag) for e in iter(queue.pop, None)]
        assert popped == expected

    def test_compaction_keeps_pop_order_between_limited_pops(self):
        queue = EventQueue()
        events = [queue.push(float(i // 4), None, tag=f"t{i}") for i in range(160)]
        popped = [queue.pop(4.0) for _ in range(10)]
        for event in events[10:140]:
            event.cancel()
        assert queue.compactions > 0
        popped += list(iter(lambda: queue.pop(100.0), None))
        assert popped == events[:10] + events[140:]
        assert len(queue) == 0

    def test_double_cancel_does_not_skew_live_count(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        first.cancel()
        assert len(queue) == 1


class TestPopBeforeArrival:
    """``pop(arrival=t)`` merges the run loop's next arrival at ``t``: only
    earlier events and completions at ``t`` itself go first."""

    def test_earlier_event_and_same_instant_completion_go_first(self):
        queue = EventQueue()
        timer = queue.push(0.5, None, priority=EventPriority.TIMER)
        completion = queue.push(1.0, None, priority=EventPriority.COMPLETION)
        queue.push(1.0, None, priority=EventPriority.ARRIVAL)
        assert queue.pop(arrival=1.0) is timer
        assert queue.pop(arrival=1.0) is completion
        assert queue.pop(arrival=1.0) is None
        assert len(queue) == 1

    @pytest.mark.parametrize(
        "priority",
        [EventPriority.ARRIVAL, EventPriority.CONTROL, EventPriority.TIMER],
    )
    def test_arrival_wins_same_instant_ties(self, priority):
        queue = EventQueue()
        event = queue.push(2.0, None, priority=priority)
        assert queue.pop(arrival=2.0) is None
        assert queue.pop(arrival=2.5) is event

    def test_limit_still_applies(self):
        queue = EventQueue()
        queue.push(3.0, None, priority=EventPriority.COMPLETION)
        assert queue.pop(2.0, arrival=5.0) is None
        assert len(queue) == 1
