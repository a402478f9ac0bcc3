"""Batched same-timestamp event draining must be bit-identical.

``Simulator.run`` drains every event sharing a timestamp in one loop
iteration (one clock advance, one limit check).  These tests replay the same
workloads through a reference loop that processes strictly one event per
iteration — the pre-batching engine — and assert bit-identical task
bookkeeping.
"""

import pytest

from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator, simulate
from repro.simulation.events import EventPriority
from repro.simulation.machine import Machine
from repro.simulation.task import Task


def _bursty_specs():
    """Many tasks sharing exact arrival timestamps (same-time event runs)."""
    specs = []
    for burst in range(6):
        at = burst * 0.5
        for i in range(8):
            specs.append((at, 0.2 + 0.05 * (i % 3)))
    return specs


def _make_tasks(specs):
    return [
        Task(task_id=i, arrival_time=arrival, service_time=service)
        for i, (arrival, service) in enumerate(specs)
    ]


def _run_unbatched(scheduler, tasks, config):
    """The pre-batching reference loop: one event per iteration.

    Arrivals are pushed onto the heap as plain ``ARRIVAL`` events before the
    run (so they win every same-instant tie but completions) and fire
    through the loop's arrival handler.
    """
    machine = Machine(config, groups=scheduler.preferred_groups(config.num_cores))
    sim = Simulator(machine, scheduler, config=config)
    sim.tasks.extend(tasks)
    for task in tasks:
        sim.events.push(
            task.arrival_time, None, priority=EventPriority.ARRIVAL,
            tag="arrival", payload=task,
        )
    pending = len(tasks)
    limit = config.max_simulated_time
    sim._running = True
    sim.scheduler.on_start()
    if config.record_utilization:
        sim.collector.start_utilization_window(sim.machine.cores, sim.now)
        sim._schedule_utilization_sample()
    while True:
        next_time = sim.events.peek_time()
        if next_time is None:
            break
        if limit is not None and next_time > limit:
            sim.clock.advance_to(limit)
            break
        event = sim.events.pop()
        if event is None:
            break
        sim.clock.advance_to(event.time)
        sim._events_processed += 1
        callback = event.callback
        if callback is not None:
            callback()
        elif event.tag == "arrival":
            pending -= 1
            sim._arrive(event.payload)
        else:
            sim._dispatch_tagged(event)
        if sim._unfinished == 0 and pending == 0:
            break
    for core in sim.machine.cores:
        core.sync(sim.now)
        core.materialize_all()
    if config.record_utilization and sim.machine.cores:
        sim.collector.sample_utilization(sim.machine.cores, sim.now, window=None)
    sim.scheduler.on_end()
    sim._running = False
    return sim


def _task_fingerprint(tasks):
    return [
        (
            t.task_id,
            t.first_run_time,
            t.completion_time,
            t.cpu_time_received,
            t.preemptions,
            t.migrations,
            t.last_core,
        )
        for t in tasks
    ]


@pytest.mark.parametrize("scheduler_cls", [FIFOScheduler, CFSScheduler])
def test_batched_draining_bit_identical(scheduler_cls):
    config = SimulationConfig(num_cores=2, record_utilization=False)
    batched = simulate(scheduler_cls(), _make_tasks(_bursty_specs()), config=config)
    reference = _run_unbatched(scheduler_cls(), _make_tasks(_bursty_specs()), config)
    assert _task_fingerprint(batched.tasks) == _task_fingerprint(reference.tasks)
    assert batched.simulated_time == reference.now
    assert batched.events_processed == reference._events_processed


def test_batched_draining_with_limit_bit_identical():
    config = SimulationConfig(
        num_cores=1, record_utilization=False, max_simulated_time=1.2
    )
    batched = simulate(FIFOScheduler(), _make_tasks(_bursty_specs()), config=config)
    reference = _run_unbatched(FIFOScheduler(), _make_tasks(_bursty_specs()), config)
    assert _task_fingerprint(batched.tasks) == _task_fingerprint(reference.tasks)
    assert batched.simulated_time == reference.now
    assert len(batched.unfinished_tasks) > 0  # the limit genuinely cut work off


def test_batched_draining_fixed_seed_repeatable():
    config = SimulationConfig(num_cores=2, record_utilization=False)
    first = simulate(CFSScheduler(), _make_tasks(_bursty_specs()), config=config)
    second = simulate(CFSScheduler(), _make_tasks(_bursty_specs()), config=config)
    assert _task_fingerprint(first.tasks) == _task_fingerprint(second.tasks)
    assert first.summary() == second.summary()
