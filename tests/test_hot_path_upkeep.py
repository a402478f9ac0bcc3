"""The hot path's incremental upkeep equals recomputing it in full.

Four shortcuts keep per-invocation work low, and each must be invisible in
the results:

* the dispatch :class:`~repro.cluster.load_index.NodeLoadIndex` only marks
  nodes dirty on a load change and re-keys them when a pick reads it — a
  pick must equal the scan ``min(nodes, key=(load, node_id))``;
* a :class:`~repro.simulation.columns.ReservoirTaskColumns` past its cap
  draws replacement slots in numpy blocks — the kept rows must equal one
  scalar ``rng.integers(0, i + 1)`` draw per row;
* a :class:`~repro.simulation.cpu.Core` caches its service and
  context-switch rates when its task set changes — they must equal the
  formulas evaluated on the current task set;
* :meth:`~repro.simulation.machine.Machine.first_idle_core` picks the
  lowest idle id directly — it must equal the scan over ``idle_cores``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig, NodeSpec
from repro.cluster.dispatchers import (
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
)
from repro.cluster.simulator import ClusterSimulator
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.columns import (
    _SLOT_BLOCK,
    NO_CORE,
    NO_NODE,
    TASK_COLUMNS_DTYPE,
    ReservoirTaskColumns,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.context_switch import ContextSwitchModel
from repro.simulation.cpu import Core, CoreMode
from repro.simulation.machine import Machine
from repro.simulation.task import Task

# --------------------------------------------------------------------------
# Load index: refresh on read picks exactly what a scan picks
# --------------------------------------------------------------------------

#: Heterogeneous fleet: capacities 2, 2, 2, 3 and 4.5, so normalised and
#: raw keys order the nodes differently.
HETEROGENEOUS = (
    NodeSpec(cores=2, count=2),
    NodeSpec(cores=4, speed_factor=0.5),
    NodeSpec(cores=1, speed_factor=3.0),
    NodeSpec(cores=3, speed_factor=1.5),
)


def _dispatchers():
    return [
        JoinShortestQueueDispatcher(normalized=True),
        JoinShortestQueueDispatcher(normalized=False),
        LeastLoadedDispatcher(normalized=True),
        LeastLoadedDispatcher(normalized=False),
    ]


class FleetStepper:
    """Drives real nodes of a cluster by hand, checking picks after each step."""

    def __init__(self, dispatcher) -> None:
        self.sim = ClusterSimulator(
            ClusterConfig(node_specs=HETEROGENEOUS, scheduler="fifo"),
            dispatcher=dispatcher,
        )
        for node in self.sim.nodes:
            node.activate(0.0)
        self.registered = [dispatcher]
        self.on_wire = []
        self.ids = itertools.count()
        self.probe = Task(task_id=-1, arrival_time=0.0, service_time=1.0)

    def _node(self, pick: int):
        return self.sim.nodes[pick % len(self.sim.nodes)]

    def _task(self, service: float) -> Task:
        return Task(
            task_id=next(self.ids), arrival_time=self.sim.now, service_time=service
        )

    def step(self, op: str, pick: int, service: float) -> None:
        sim = self.sim
        node = self._node(pick)
        if op == "deliver":
            if node.is_active:
                node.deliver(self._task(service), sim.now)
        elif op == "begin_ingress":
            if node.is_active:
                task = self._task(service)
                node.begin_ingress(task)
                self.on_wire.append((node, task))
        elif op == "complete_ingress":
            if self.on_wire:
                target, task = self.on_wire.pop(pick % len(self.on_wire))
                if not target.state.terminal:
                    target.complete_ingress(task, sim.now)
        elif op == "finish":
            # The only queued events are completions: fire the earliest.
            event = sim.events.pop()
            if event is not None:
                sim.clock.advance_to(event.time)
                sim._dispatch_tagged(event)
        elif op == "fail":
            if not node.state.terminal and len(sim._active) > 1:
                if node in sim._active:
                    sim._untrack_active(node)
                node.fail(sim.now)
        elif op == "discard":
            sim._untrack_active(node)
        elif op == "add":
            if not node.state.terminal:
                sim._track_active(node)
        elif op == "register":
            dispatcher = _dispatchers()[pick % 4]
            sim._load_index.register(*dispatcher.load_index_key())
            self.registered.append(dispatcher)
        else:  # pragma: no cover - strategy and stepper disagree
            raise AssertionError(op)

    def check_picks(self) -> None:
        active = list(self.sim._active)
        if not active:
            assert self.sim._load_index.min(
                self.registered[0].load_index_key()[0]
            ) is None
            return
        for dispatcher in self.registered:
            _, key_fn = dispatcher.load_index_key()
            scanned = min(active, key=lambda n: (key_fn(n), n.node_id))
            assert dispatcher.select_node(self.probe, self.sim._active) is scanned
            assert dispatcher.select_node(self.probe, active) is scanned


OPS = st.sampled_from(
    [
        "deliver", "deliver", "deliver", "finish", "finish",
        "begin_ingress", "complete_ingress", "fail", "discard", "add",
        "register",
    ]
)
STEPS = st.lists(
    st.tuples(OPS, st.integers(0, 50), st.floats(0.01, 3.0)),
    min_size=1,
    max_size=60,
)


class TestLoadIndexPicksLikeScan:
    @pytest.mark.parametrize("which", range(4))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(steps=STEPS)
    def test_random_sequences(self, which, steps):
        fleet = FleetStepper(_dispatchers()[which])
        fleet.check_picks()
        for op, pick, service in steps:
            fleet.step(op, pick, service)
            fleet.check_picks()

    @pytest.mark.parametrize("which", range(4))
    def test_touched_then_discarded_and_re_added_before_a_pick(self, which):
        fleet = FleetStepper(_dispatchers()[which])
        sim = fleet.sim
        for pick in range(12):
            fleet.step("deliver", pick, 1.0)
        fleet.check_picks()
        touched, re_added = sim.nodes[0], sim.nodes[3]
        # Both are touched and leave the index before the next pick; one of
        # them comes back (with a new load) before that pick.
        fleet.step("deliver", 0, 1.0)
        fleet.step("deliver", 3, 1.0)
        sim._untrack_active(touched)
        sim._untrack_active(re_added)
        fleet.step("deliver", 3, 1.0)
        sim._track_active(re_added)
        fleet.check_picks()
        assert touched not in sim._active
        # The discarded node keeps finishing work (touches while untracked).
        for _ in range(6):
            fleet.step("finish", 0, 1.0)
        fleet.check_picks()
        sim._track_active(touched)
        fleet.check_picks()

    def test_heap_compaction_keeps_picks_exact(self):
        fleet = FleetStepper(JoinShortestQueueDispatcher())
        heap_name = fleet.registered[0].load_index_key()[0]
        bound = max(16, 4 * len(fleet.sim.nodes))
        for pick in range(60):
            fleet.step("deliver", pick, 5.0)
        # Finishing lowers loads, burying stale higher-keyed entries that
        # only a rebuild removes.
        for pick in range(300):
            fleet.step("finish" if pick % 4 else "deliver", pick, 5.0)
            fleet.check_picks()
            assert len(fleet.sim._load_index._heaps[heap_name]) <= bound

    def test_register_after_nodes_exist(self):
        fleet = FleetStepper(JoinShortestQueueDispatcher())
        for pick in range(9):
            fleet.step("deliver", pick * 2, 1.0)
        for which in range(4):
            fleet.step("register", which, 1.0)
            fleet.check_picks()
        for pick in range(9):
            fleet.step("finish", pick, 1.0)
            fleet.check_picks()


# --------------------------------------------------------------------------
# Reservoir: block-drawn slots keep the rows per-row draws keep
# --------------------------------------------------------------------------


def _finished(i: int) -> Task:
    task = Task(
        task_id=i,
        arrival_time=0.01 * i,
        service_time=0.5 + (i % 7) * 0.125,
        memory_mb=128 + 64 * (i % 3),
    )
    task.mark_running(0.01 * i + 0.001 * (i % 5), core_id=i % 4)
    task.mark_finished(task.first_run_time + task.service_time)
    return task


def _row(task: Task) -> tuple:
    return (
        task.task_id, task.arrival_time, task.service_time, task.first_run_time,
        task.completion_time, task.memory_mb, task.weight, task.preemptions,
        task.migrations, NO_CORE if task.last_core is None else task.last_core,
        NO_NODE,
    )


def _reference_reservoir(tasks, cap: int, seed: int):
    """Algorithm R with one scalar draw per row past the cap, plus the
    exact accumulators, summed in completion order."""
    rng = np.random.default_rng(seed)
    rows = []
    sums = [0.0] * 5
    for index, task in enumerate(tasks):
        execution = task.completion_time - task.first_run_time
        turnaround = task.completion_time - task.arrival_time
        memory_gb = task.memory_mb / 1024.0
        sums[0] += execution
        sums[1] += task.first_run_time - task.arrival_time
        sums[2] += turnaround
        sums[3] += execution * memory_gb
        sums[4] += turnaround * memory_gb
        if index < cap:
            rows.append(_row(task))
            continue
        slot = int(rng.integers(0, index + 1))
        if slot < cap:
            rows[slot] = _row(task)
    return np.array(rows, dtype=TASK_COLUMNS_DTYPE), sums


class TestBlockDrawnReservoir:
    @pytest.mark.parametrize("seed", [0, 7, 42, 42 * 1_000_003 + 5])
    @pytest.mark.parametrize("cap", [1, 300])
    def test_rows_and_aggregates_match_per_row_draws(self, seed, cap):
        count = cap + 3 * _SLOT_BLOCK + 57  # past the cap by 3+ blocks
        tasks = [_finished(i) for i in range(count)]
        store = ReservoirTaskColumns(cap, seed=seed)
        # Read between appends too: flushing mid-stream must not matter.
        for index, task in enumerate(tasks):
            store.append(task)
            if index == cap + _SLOT_BLOCK // 2:
                assert len(store.data) == cap
        rows, sums = _reference_reservoir(tasks, cap, seed)
        assert store.data.tobytes() == rows.tobytes()
        assert len(store) == count
        assert store.sample_size() == cap
        billed_count, exec_s, turn_s, exec_gb, turn_gb = store._exact_billing()
        assert (billed_count, exec_s, turn_s, exec_gb, turn_gb) == (
            count, sums[0], sums[2], sums[3], sums[4],
        )
        summary = store.summary()
        assert summary.count == count
        assert summary.mean_execution == sums[0] / count
        assert summary.mean_response == sums[1] / count
        assert summary.mean_turnaround == sums[2] / count
        assert summary.p99_turnaround == float(
            np.percentile(rows["completion"] - rows["arrival"], 99)
        )

    @pytest.mark.parametrize("start", [3125, 50_000, 999_000])
    def test_numpy_block_draws_equal_scalar_draws(self, start):
        # The property the reservoir relies on, pinned for this numpy.
        scalar = np.random.default_rng(42)
        block = np.random.default_rng(42)
        expected = [int(scalar.integers(0, i + 1)) for i in range(start, start + 2 * _SLOT_BLOCK)]
        drawn = []
        for base in (start, start + _SLOT_BLOCK):
            drawn += block.integers(0, np.arange(base + 1, base + 1 + _SLOT_BLOCK)).tolist()
        assert drawn == expected


# --------------------------------------------------------------------------
# Core: cached rates equal the formulas on the current task set
# --------------------------------------------------------------------------

WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])  # exact float sums
CORE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "finish", "drain", "set_remaining"]),
        st.integers(0, 20),
        WEIGHTS,
        st.floats(0.0, 0.5),
    ),
    min_size=1,
    max_size=40,
)


class TestCachedCoreRates:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(steps=CORE_OPS, speed=st.sampled_from([0.5, 1.0, 1.75]))
    def test_rates_match_formula(self, steps, speed):
        model = ContextSwitchModel(switch_cost=2e-3)
        core = Core(core_id=0, group="all", context_switch=model, speed=speed)
        ids = itertools.count()
        now = 0.0
        switches = 0.0
        for op, pick, weight, advance in steps:
            # Every step first moves time forward; the reference integrates
            # the switch rate of the task set the interval ran with.
            nr = core.nr_running
            later = now + advance
            if later > now:
                if nr:
                    switches += model.switches_over(nr, later - now)
                now = later
                core.sync(now)
            tasks = sorted(core.tasks, key=lambda t: t.task_id)
            if op == "add":
                task = Task(
                    task_id=next(ids), arrival_time=now,
                    service_time=0.2 + pick * 0.05, weight=weight,
                )
                core.add_task(task, now)
            elif op == "remove" and tasks:
                core.remove_task(tasks[pick % len(tasks)], now, preempted=True)
            elif op == "finish":
                delta = core.time_to_next_completion()
                if delta is not None:
                    later = now + delta
                    if later > now:
                        switches += model.switches_over(nr, later - now)
                    now = later
                    core.finish_ready_tasks(now)
            elif op == "drain":
                core.drain(now)
            elif op == "set_remaining" and tasks:
                core.set_remaining(tasks[pick % len(tasks)], 0.1 + pick * 0.03)
            n = core.nr_running
            total_weight = sum(task.weight for task in core.tasks)
            expected = speed * model.efficiency(n) / total_weight if n else 0.0
            assert core.service_rate() == expected
            assert core.stats.estimated_context_switches == switches

    def test_rate_follows_weight_changes_through_add_and_remove(self):
        core = Core(core_id=0, group="all", speed=2.0)
        heavy = Task(task_id=0, arrival_time=0.0, service_time=5.0, weight=3.0)
        light = Task(task_id=1, arrival_time=0.0, service_time=5.0, weight=0.5)
        assert core.service_rate() == 0.0
        core.add_task(heavy, 0.0)
        assert core.service_rate() == 2.0 / 3.0
        core.add_task(light, 0.0)
        efficiency = core._cs_model.efficiency(2)
        assert core.service_rate() == 2.0 * efficiency / 3.5
        core.remove_task(heavy, 1.0)
        assert core.service_rate() == 2.0 / 0.5
        core.drain(2.0)
        assert core.service_rate() == 0.0
        assert core.time_to_next_completion() is None


# --------------------------------------------------------------------------
# Machine: the direct idle pick equals the scan
# --------------------------------------------------------------------------

GROUPS = {"fifo": 3, "cfs": 3}
MACHINE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "lock", "unlock", "move"]),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=50,
)


def _scan_first_idle(machine: Machine, group):
    idle = machine.idle_cores(group)
    return min(idle, key=lambda core: core.core_id) if idle else None


class TestFirstIdleCore:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(steps=MACHINE_OPS)
    def test_matches_scan_under_moves(self, steps):
        machine = Machine(
            SimulationConfig(num_cores=6),
            groups=GROUPS,
            group_modes={"fifo": CoreMode.DEDICATED},
        )
        scheduler = FIFOScheduler()
        scheduler.machine = machine
        ids = itertools.count()
        for op, cid in steps:
            core = machine.cores[cid]
            if op == "add" and not core.locked and (
                core.mode is not CoreMode.DEDICATED or core.is_idle
            ):
                core.add_task(
                    Task(task_id=next(ids), arrival_time=0.0, service_time=1.0), 0.0
                )
            elif op == "remove" and core.is_busy:
                core.remove_task(core.tasks[0], 0.0, preempted=True)
            elif op == "lock":
                core.lock()
            elif op == "unlock":
                core.unlock()
            elif op == "move":
                # Rightsizing's choreography: lock, drain, move, unlock.
                source = core.group
                target = "cfs" if source == "fifo" else "fifo"
                mode = CoreMode.FAIR_SHARE if target == "cfs" else CoreMode.DEDICATED
                core.lock()
                core.drain(0.0)
                machine.move_core(cid, source, target, mode=mode)
                core.unlock()
            for group in (None, "fifo", "cfs"):
                expected = _scan_first_idle(machine, group)
                assert machine.first_idle_core(group) is expected
                assert scheduler.first_idle_core(group) is expected

    def test_unknown_group_raises(self):
        machine = Machine(SimulationConfig(num_cores=2), groups={"fifo": 2})
        with pytest.raises(KeyError):
            machine.first_idle_core("cfs")

    def test_empty_group_has_no_idle_core(self):
        machine = Machine(SimulationConfig(num_cores=2), groups={"fifo": 2})
        machine.ensure_group("cfs")
        assert machine.first_idle_core("cfs") is None
        assert machine.first_idle_core("fifo") is machine.cores[0]
