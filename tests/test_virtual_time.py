"""Property and structure tests for the virtual-time core rewrite.

The hypothesis suite drives one real :class:`Core` and an *eager* reference
implementation (the pre-refactor per-task accounting: every sync touches
every task) through arbitrary add / remove / steal / charge / advance /
complete sequences and asserts the lazily-materialized ``task.remaining``
always equals the eagerly tracked value within 1e-9, along with the derived
quantities (next-completion delay, busy time, service delivered).

The remaining tests pin the new index/queue structures: O(1) event-queue
length bookkeeping, load-index determinism, O(1) machine load counters and
``__slots__`` on the hot-path objects.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.context_switch import ContextSwitchModel
from repro.simulation.cpu import REMAINING_EPSILON, Core
from repro.simulation.events import EventQueue
from repro.simulation.machine import build_machine
from repro.simulation.task import Task

TOL = 1e-9


class EagerCore:
    """Reference mirror of the pre-virtual-time accounting.

    ``sync`` charges every task ``min(rate * elapsed, remaining)`` — the
    exact per-event O(n) loop the rewrite replaced.
    """

    def __init__(self, model: ContextSwitchModel, speed: float = 1.0) -> None:
        self.remaining: dict = {}
        self.last = 0.0
        self.busy_time = 0.0
        self.delivered = 0.0
        self.model = model
        self.speed = speed

    def rate(self) -> float:
        n = len(self.remaining)
        if n == 0:
            return 0.0
        return self.speed * self.model.efficiency(n) / n

    def sync(self, now: float) -> None:
        elapsed = now - self.last
        if elapsed > 0 and self.remaining:
            rate = self.rate()
            for tid, left in self.remaining.items():
                amount = min(rate * elapsed, left)
                self.remaining[tid] = left - amount
                self.delivered += amount
            self.busy_time += elapsed
        self.last = max(self.last, now)

    def add(self, tid: int, service: float, now: float) -> None:
        self.sync(now)
        self.remaining[tid] = service

    def remove(self, tid: int, now: float) -> None:
        self.sync(now)
        del self.remaining[tid]

    def charge(self, tid: int, amount: float, now: float) -> None:
        self.sync(now)
        self.remaining[tid] += amount

    def time_to_next_completion(self):
        rate = self.rate()
        if rate <= 0:
            return None
        return max(min(self.remaining.values()), 0.0) / rate


# One operation: (opcode, dt/service selector, magnitude)
ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=ops_strategy)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_virtual_time_remaining_equals_eager_remaining(ops):
    model = ContextSwitchModel()
    core = Core(core_id=0, group="all", context_switch=model, migration_cost=0.0)
    eager = EagerCore(model)
    tasks: dict = {}
    demand: dict = {}  # total work each task was given (service + charges)
    now = 0.0
    next_id = 0

    def compare():
        for tid, task in tasks.items():
            got = task.remaining  # sync-on-read materialization
            want = eager.remaining[tid]
            assert math.isclose(got, want, rel_tol=TOL, abs_tol=TOL), (
                f"task {tid}: virtual-time remaining {got!r} != eager {want!r}"
            )
        real_next = core.time_to_next_completion()
        ref_next = eager.time_to_next_completion()
        if real_next is None or ref_next is None:
            assert real_next == ref_next
        else:
            assert math.isclose(real_next, ref_next, rel_tol=1e-6, abs_tol=TOL)

    for opcode, magnitude, selector in ops:
        if opcode == 0:  # advance time
            now += magnitude
            core.sync(now)
            eager.sync(now)
        elif opcode == 1:  # add a fresh task
            task = Task(task_id=next_id, arrival_time=0.0, service_time=magnitude)
            core.add_task(task, now)
            eager.add(next_id, task.remaining, now)
            tasks[next_id] = task
            demand[next_id] = task.remaining
            next_id += 1
        elif opcode in (2, 3) and tasks:  # preempt (2) / steal away (3)
            tid = sorted(tasks)[selector % len(tasks)]
            task = tasks.pop(tid)
            core.remove_task(task, now, preempted=(opcode == 2))
            eager.remove(tid, now)
        elif opcode == 4 and tasks:  # migration-style charge: re-keys the heap
            tid = sorted(tasks)[selector % len(tasks)]
            amount = magnitude * 0.05
            tasks[tid].remaining += amount
            demand[tid] += amount
            eager.charge(tid, amount, now)
        elif opcode == 5 and tasks:  # run to the next completion
            delta = core.time_to_next_completion()
            assert delta is not None
            now += delta
            finished = core.finish_ready_tasks(now)
            eager.sync(now)
            for task in finished:
                # The eager mirror must agree the task is (numerically) done.
                assert eager.remaining[task.task_id] <= 1e-6
                del eager.remaining[task.task_id]
                del tasks[task.task_id]
                assert task.is_finished
                assert math.isclose(
                    task.cpu_time_received,
                    demand[task.task_id],
                    rel_tol=1e-6,
                    abs_tol=1e-6,
                )
        compare()

    core.sync(now)
    core.materialize_all()
    eager.sync(now)
    assert math.isclose(core.stats.busy_time, eager.busy_time, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        core.stats.service_delivered, eager.delivered, rel_tol=1e-6, abs_tol=1e-6
    )


class TestEventQueueLiveCount:
    def test_len_tracks_push_pop_cancel_clear(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None, tag="t") for i in range(5)]
        assert len(queue) == 5
        handles[0].cancel()
        handles[0].cancel()  # idempotent: must not double-decrement
        assert len(queue) == 4
        assert queue.pop() is not None  # skips the cancelled tombstone
        assert len(queue) == 3
        assert queue.cancel_pending("t") == 3
        assert len(queue) == 0
        assert queue.pop() is None
        queue.push(1.0, None, tag="x")
        queue.clear()
        assert len(queue) == 0

    def test_cancel_after_pop_or_clear_is_a_noop(self):
        queue = EventQueue()
        fired = queue.push(1.0, lambda: None)
        assert queue.pop() is not None
        fired.cancel()  # already fired: must not corrupt the live count
        assert len(queue) == 0
        cleared = queue.push(2.0, lambda: None)
        queue.clear()
        cleared.cancel()  # already cleared: must not drive the count negative
        assert len(queue) == 0
        queue.push(3.0, lambda: None)
        assert len(queue) == 1

    def test_len_is_constant_time_bookkeeping(self):
        """len() must not scan the heap: it reads a maintained counter.

        Below the compaction threshold cancellation is fully lazy, so the
        tombstones stay parked in the heap (larger cancel-heavy heaps are
        compacted — see TestTombstoneCompaction in test_clock_events.py).
        """
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(40)]
        for handle in handles[10:]:
            handle.cancel()
        assert len(queue._heap) == 40  # lazy cancellation keeps tombstones
        assert len(queue) == 10


class TestMachineLoadCounters:
    def test_busy_and_idle_counts_follow_task_moves(self):
        machine = build_machine(3)
        assert machine.busy_core_count() == 0
        assert machine.idle_core_count() == 3
        task = Task(task_id=0, arrival_time=0.0, service_time=1.0)
        machine.cores[0].add_task(task, 0.0)
        assert machine.busy_core_count() == 1
        assert machine.idle_core_count() == 2
        machine.cores[1].lock()
        assert machine.idle_core_count() == 1  # locked cores are not idle
        machine.cores[1].unlock()
        machine.cores[0].remove_task(task, 0.5, preempted=True)
        assert machine.busy_core_count() == 0
        assert machine.idle_core_count() == 3

    def test_least_loaded_matches_scan_after_churn(self):
        machine = build_machine(4)
        tasks = [Task(task_id=i, arrival_time=0.0, service_time=5.0) for i in range(9)]
        placement = [0, 0, 0, 1, 1, 2, 2, 2, 3]
        for task, cid in zip(tasks, placement):
            machine.cores[cid].add_task(task, 0.0)
        machine.cores[1].remove_task(tasks[3], 1.0, preempted=True)
        expected = min(
            (c for c in machine.cores if not c.locked),
            key=lambda c: (c.nr_running, c.core_id),
        )
        assert machine.least_loaded_core() is expected


def test_attained_rebase_preserves_remaining_on_never_idle_core():
    """A saturated long-horizon core rebases virtual time without drift."""
    from repro.simulation.cpu import ATTAINED_REBASE_THRESHOLD

    model = ContextSwitchModel(switch_cost=0.0)  # rate is exactly 1/n
    core = Core(core_id=0, group="all", context_switch=model)
    horizon = ATTAINED_REBASE_THRESHOLD
    t1 = Task(task_id=0, arrival_time=0.0, service_time=1.5 * horizon)
    t2 = Task(task_id=1, arrival_time=0.0, service_time=2.0 * horizon)
    core.add_task(t1, 0.0)
    core.add_task(t2, 0.0)
    core.sync(2.2 * horizon)  # attained = 1.1 * threshold -> rebase fires
    assert core._attained < ATTAINED_REBASE_THRESHOLD
    assert math.isclose(t1.remaining, 0.4 * horizon, rel_tol=1e-9)
    assert math.isclose(t2.remaining, 0.9 * horizon, rel_tol=1e-9)
    # Completion timing survives the rebase: t1 finishes after 0.8T more.
    delta = core.time_to_next_completion()
    assert math.isclose(delta, 0.8 * horizon, rel_tol=1e-9)
    finished = core.finish_ready_tasks(2.2 * horizon + delta)
    assert [task.task_id for task in finished] == [0]
    assert math.isclose(t1.cpu_time_received, t1.service_time, rel_tol=1e-9)


class _FakeNode:
    def __init__(self, node_id: int, inflight: int, capacity: float = 1.0) -> None:
        self.node_id = node_id
        self.inflight = inflight
        self.capacity = capacity


class TestNodeLoadIndex:
    def _index(self, loads):
        from repro.cluster.dispatchers import normalized_load
        from repro.cluster.load_index import NodeLoadIndex

        index = NodeLoadIndex()
        index.register("q", normalized_load)
        nodes = [_FakeNode(i, load) for i, load in enumerate(loads)]
        for node in nodes:
            index.add(node)
        return index, nodes

    def test_min_matches_scan_with_id_tie_break(self):
        index, nodes = self._index([3, 1, 1, 2])
        assert index.min("q") is nodes[1]  # load 1, lowest id wins the tie

    def test_touch_refreshes_ordering(self):
        index, nodes = self._index([0, 5])
        nodes[0].inflight = 9
        index.touch(nodes[0])
        assert index.min("q") is nodes[1]

    def test_discarded_nodes_never_returned(self):
        index, nodes = self._index([0, 5])
        index.discard(nodes[0])
        assert index.min("q") is nodes[1]
        index.discard(nodes[1])
        assert index.min("q") is None

    def test_view_backed_jsq_equals_scanning_jsq(self):
        from repro.cluster.dispatchers import JoinShortestQueueDispatcher
        from repro.cluster.load_index import ActiveNodeView, NodeLoadIndex

        dispatcher = JoinShortestQueueDispatcher()
        index = NodeLoadIndex()
        index.register(*dispatcher.load_index_key())
        view = ActiveNodeView(index)
        nodes = [_FakeNode(i, load, capacity=1.0 + i % 3) for i, load in enumerate([4, 2, 7, 2, 0])]
        for node in nodes:
            view.insert_node(node)
            index.add(node)
        task = Task(task_id=0, arrival_time=0.0, service_time=1.0)
        indexed = dispatcher.select_node(task, view)
        scanned = dispatcher.select_node(task, list(nodes))
        assert indexed is scanned


class TestSlots:
    @pytest.mark.skipif(sys.version_info < (3, 10), reason="slots dataclasses")
    def test_hot_path_objects_have_no_dict(self):
        task = Task(task_id=0, arrival_time=0.0, service_time=1.0)
        assert not hasattr(task, "__dict__")
        core = Core(core_id=0, group="all")
        assert not hasattr(core, "__dict__")
        queue = EventQueue()
        event = queue.push(0.0, None, tag="arrival", payload=task)
        assert not hasattr(event, "__dict__")
        assert queue.pop() is event

    def test_dataclass_fields_still_work(self):
        task = Task(task_id=1, arrival_time=0.5, service_time=2.0, name="fib")
        assert task.name == "fib"
        assert task.remaining == 2.0
        task.metadata["k"] = "v"
        assert task.metadata == {"k": "v"}
