"""Discrete-event simulation engine.

Two pieces make up every simulator in this package:

* :class:`EventLoop` — the clock, the event queue, the arrival feed and the
  drain loop.  Arrivals never enter the queue: they wait on one cursor
  sorted by arrival time (the submitted task list, or a stream's current
  chunk), which the drain loop merges with the queue, making one
  :meth:`~repro.simulation.events.EventQueue.pop` call per event or
  arrival.  The standalone :class:`Simulator` and the fleet's
  :class:`~repro.cluster.simulator.ClusterSimulator` both run on it.
* :class:`MachineEngine` — one machine and its scheduler on some loop.
  Schedulers never touch cores directly — they start, stop and migrate tasks
  through the engine so that pending completion events always stay
  consistent with the cores' task sets.  A :class:`Simulator` is a machine
  engine that owns its loop; a cluster node's engine runs on the cluster's.

Scheduler interface (duck-typed; see :class:`repro.schedulers.base.Scheduler`):

* ``attach(simulator)`` — called once before the run.
* ``on_start()`` — called when the simulation starts.
* ``on_task_arrival(task)`` — a new invocation arrived.
* ``on_task_finished(task, core)`` — a task completed on ``core``.
* ``on_end()`` — called after the last event.
"""

from __future__ import annotations

import math
import time as _wallclock
from operator import attrgetter
from typing import Iterable, List, Optional

from repro.simulation.clock import VirtualClock
from repro.simulation.columns import NO_NODE, TaskColumns, build_columns_store
from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import Core
from repro.simulation.events import Event, EventPriority, EventQueue
from repro.simulation.hooks import HookBus
from repro.simulation.machine import Machine
from repro.simulation.metrics import MetricsCollector, record_series
from repro.simulation.results import SimulationResult, build_result
from repro.simulation.task import Task
from repro.telemetry.gauges import SAMPLER_TAG
from repro.telemetry.probe import TelemetryProbe
from repro.telemetry.runtime import as_telemetry

#: The arrival cursor's next-arrival time once the feed is done.
NO_ARRIVAL = math.inf
#: Tag of a core's next-completion event (payload: the core).
COMPLETION_TAG = "completion"


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class EventLoop:
    """Clock, event queue, arrival feed, drain loop, and the run's one
    finished-task store and one hook bus.

    Subclasses route events and name the machines the loop drives:

    * ``_on_arrival(task)`` handles each arrival off the cursor (the loop
      fires ``task_arrived`` first), ``_on_completion(core)`` each core's
      completion event, ``_dispatch_other(event)`` any other callback-free
      event;
    * ``_engines()`` lists every :class:`MachineEngine` on the loop (flushed
      and sampled at the end of a run), ``_sampled_engines()`` the ones the
      periodic utilization sampler visits;
    * ``_loop_config`` is the :class:`SimulationConfig` whose time limit
      and utilization settings govern the run.
    """

    _loop_config: SimulationConfig

    def __init__(self, columns: Optional[TaskColumns] = None, telemetry=None) -> None:
        self.clock = VirtualClock()
        self.events = EventQueue()
        #: The run's one hook bus: every lifecycle call site on this loop
        #: fires its named hook here (see :mod:`repro.simulation.hooks`).
        self.hooks = HookBus()
        #: Telemetry runtime (from a spec or a live one); None when off.  A
        #: subclass subscribes its :class:`TelemetryProbe` to the bus.
        self.telemetry = as_telemetry(telemetry)
        #: The run's one columnar store: every engine on the loop appends
        #: each finished task here once, tagged with its node id.  May be a
        #: capped store (reservoir/spill) on memory-bounded runs.
        self.columns = columns if columns is not None else TaskColumns()
        #: Materialised workload (``submit``); streamed runs retain none.
        self.tasks: List[Task] = []
        #: Arrivals taken in and neither finished nor rejected yet.
        self._unfinished = 0
        #: The arrival cursor: the submitted tasks sorted by arrival time, or
        #: a stream's current chunk; the index of its next arrival; and that
        #: arrival's time (infinity once the feed is done).
        self._feed: List[Task] = []
        self._feed_pos = 0
        self._next_arrival = NO_ARRIVAL
        #: Re-admissions a subclass queued on the heap: arrivals still to come
        #: that are not on the cursor.
        self._readmissions = 0
        #: Arrivals the run took in; a run cut off by a time limit reports
        #: this as its submitted count on both feeds.
        self._tasks_submitted = 0
        self._events_processed = 0
        self._running = False
        # Streaming feed (see submit_stream); None on materialised runs.
        self._stream = None
        self._stream_total: Optional[int] = None

    @property
    def now(self) -> float:
        return self.clock.now

    # ----------------------------------------------------------- arrival feed

    def submit(self, tasks: Iterable[Task]) -> None:
        """Register tasks; they arrive in ``arrival_time`` order, equal
        times in the order submitted."""
        if self._running:
            raise SimulationError("cannot submit tasks while the simulation is running")
        if self._stream is not None:
            raise SimulationError("cannot submit tasks to a loop fed by a stream")
        tasks = list(tasks)
        self.tasks.extend(tasks)
        pending = self._feed[self._feed_pos:] + tasks
        self._set_feed(sorted(pending, key=attrgetter("arrival_time")))

    def submit_stream(self, source, *, chunk: int = 8192) -> None:
        """Attach a streaming arrival source; arrivals are fed in chunks.

        The cursor holds one ``chunk`` of tasks at a time and fetches the
        next the moment the last one arrives, keeping live memory
        O(horizon) instead of O(total tasks).  The run is bit-identical to
        ``submit(source.materialise())``; it retains no task objects, so
        results report counts and columnar metrics instead.  The source
        must yield arrivals in time order.
        """
        from repro.workload.streaming import StreamFeed

        if self._running:
            raise SimulationError("cannot attach a stream while the simulation is running")
        if self._stream is not None:
            raise SimulationError("a streaming source is already attached")
        if self.tasks:
            raise SimulationError("cannot attach a stream to a loop fed by submit")
        self._stream = StreamFeed(source, chunk)
        self._stream_total = source.total_hint()
        self._set_feed(self._stream.next_chunk())

    def _submit_workload(self, workload, chunk: int) -> None:
        """Feed a task list (``submit``) or a streaming source (``submit_stream``)."""
        if hasattr(workload, "batches"):
            self.submit_stream(workload, chunk=chunk)
        else:
            self.submit(workload)

    def _set_feed(self, tasks: List[Task]) -> None:
        self._feed = tasks
        self._feed_pos = 0
        self._next_arrival = tasks[0].arrival_time if tasks else NO_ARRIVAL

    def _take_arrival(self) -> Task:
        """Move the cursor past its next arrival and return it; a stream's
        next chunk is fetched the moment the current one runs out."""
        task = self._feed[self._feed_pos]
        self._feed_pos += 1
        if self._feed_pos < len(self._feed):
            self._next_arrival = self._feed[self._feed_pos].arrival_time
        else:
            self._set_feed(self._stream.next_chunk() if self._stream is not None else [])
        if self._next_arrival < task.arrival_time:
            following = self._feed[self._feed_pos]
            raise SimulationError(
                f"task {following.task_id} arrives at t={self._next_arrival!r}, before "
                f"task {task.task_id} at t={task.arrival_time!r}: arrivals must "
                "come in time order"
            )
        return task

    def _arrive(self, task: Task) -> None:
        """Take in one fed arrival: count it, fire ``task_arrived``, route it."""
        self._tasks_submitted += 1
        self._unfinished += 1
        now = self.clock.now
        for hook in self.hooks.task_arrived:
            hook(task, now)
        self._on_arrival(task)

    def _arrival_pending(self) -> bool:
        """True while an arrival is still to come: on the cursor, or a
        re-admission queued on the heap."""
        return self._next_arrival != NO_ARRIVAL or self._readmissions > 0

    # ------------------------------------------------------------- event loop

    def _sampled_engines(self):
        return self._engines()

    def _work_can_progress(self) -> bool:
        """True while periodic ticks can still achieve anything."""
        return self._unfinished > 0 or self._arrival_pending()

    def _dispatch_tagged(self, event) -> None:
        """Route a payload-carrying (callback-free) event by its tag."""
        tag = event.tag
        if tag == COMPLETION_TAG:
            self._on_completion(event.payload)
        elif tag == SAMPLER_TAG:
            event.payload.on_tick()
        else:
            self._dispatch_other(event)

    def _dispatch_other(self, event) -> None:
        raise SimulationError(
            f"event at t={event.time} has no callback and unknown tag {event.tag!r}"
        )

    def _drain(self, limit: Optional[float]) -> None:
        """Fire events and arrivals until the work is done or ``limit`` passes."""
        events = self.events
        pop = events.pop
        clock = self.clock
        dispatch = self._dispatch_tagged
        now = clock.now
        processed = 0
        # One pop per event or arrival, in (time, priority, seq) order: the
        # cursor's next arrival sorts after the completions at its instant
        # and before every other event there.  The clock moves only when the
        # timestamp changes.
        while True:
            event = pop(limit, self._next_arrival)
            if event is not None:
                time = event.time
            else:
                time = self._next_arrival
                if time == NO_ARRIVAL or (limit is not None and time > limit):
                    if limit is not None and (len(events) or time != NO_ARRIVAL):
                        # Live events or arrivals remain, all past the limit.
                        clock.advance_to(limit)
                    break
            processed += 1
            if time > now:
                clock.now = now = time
            elif time < now:
                clock.advance_to(time)  # raises if it moves back past epsilon
            if event is None:
                self._arrive(self._take_arrival())
            elif event.callback is not None:
                event.callback()
            else:
                dispatch(event)
            if self._unfinished == 0 and not self._arrival_pending():
                break
        self._events_processed += processed

    # ---------------------------------------------------- run prologue/epilogue

    def every(
        self, interval: float, tick, tag: str, *,
        priority: EventPriority = EventPriority.CONTROL, can_continue=None,
    ) -> None:
        """Call ``tick(now)`` every ``interval`` simulated seconds from now on.

        Every periodic timer of a run rides this one primitive: one event
        that runs ``tick`` and re-arms itself while ``can_continue()``
        holds (by default :meth:`_work_can_progress`).
        """
        can_continue = can_continue or self._work_can_progress
        push, clock = self.events.push, self.clock

        def fire() -> None:
            tick(clock.now)
            if can_continue():
                push(clock.now + interval, fire, priority=priority, tag=tag)

        push(clock.now + interval, fire, priority=priority, tag=tag)

    def _run(self, until: Optional[float]):
        """Drain the run to ``until`` (default: the time limit) and flush;
        returns the telemetry snapshot (None when off).

        First the run's timers are armed in a fixed order: telemetry's gauge
        sampler (with progress bound to the feed), each feature's on
        ``run_started``, utilization sampling.
        """
        now = self.clock.now
        telemetry = self.telemetry
        if telemetry is not None:
            total = self._stream_total if self._stream is not None else len(self.tasks)
            telemetry.bind_progress(
                total, lambda: self._tasks_submitted - self._unfinished
            )
            telemetry.start(self.events, self.clock, self._work_can_progress)
        for hook in self.hooks.run_started:
            hook(now)
        if self._loop_config.record_utilization:
            for engine in self._engines():
                engine.collector.start_utilization_window(
                    engine.machine.cores, now
                )
            self._schedule_utilization_sample()
        self._drain(
            until if until is not None else self._loop_config.max_simulated_time
        )
        return self._finish_run()

    def _schedule_utilization_sample(self) -> None:
        window = self._loop_config.utilization_window

        def _sample(now: float) -> None:
            for engine in self._sampled_engines():
                if engine.machine.cores:
                    engine.collector.sample_utilization(
                        engine.machine.cores, now, window=window
                    )

        self.every(window, _sample, "utilization-sample")

    def _finish_run(self):
        """End-of-run flush; returns the telemetry snapshot (None when off)."""
        now = self.now
        engines = self._engines()
        # Flush lazily accounted service so task fields (remaining,
        # cpu_time_received) are concrete in the result, even for tasks cut
        # off by a time limit.
        for engine in engines:
            for core in engine.machine.cores:
                core.sync(now)
                core.materialize_all()
        # Final utilization sample so short runs still get at least one point.
        if self._loop_config.record_utilization:
            for engine in engines:
                if engine.machine.cores:
                    engine.collector.sample_utilization(
                        engine.machine.cores, now, window=None
                    )
        for engine in engines:
            engine.scheduler.on_end()
        self._running = False
        if self.telemetry is None:
            return None
        # Finish before building the result: the final gauge sample and any
        # open-span drain must land in the copied series/snapshot.
        self.telemetry.finish(now)
        return self.telemetry.snapshot()


class MachineEngine:
    """One machine and its scheduler, running on an :class:`EventLoop`."""

    def __init__(
        self,
        machine: Machine,
        scheduler,
        loop: EventLoop,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.config = config or machine.config
        self.collector = MetricsCollector()
        self.loop = loop
        self.clock = loop.clock
        self.events = loop.events
        #: The loop's hook bus; task start, stop and finish fire on it.
        self.hooks = loop.hooks
        #: Tasks this machine holds (queued or running) that have not finished.
        self._unfinished = 0
        #: The cluster node this engine serves (None on a standalone machine).
        self.node = None
        #: Id written to the ``node_id`` column of each task finished here;
        #: the cluster layer sets it to the node's id.
        self.node_id = NO_NODE
        # Completion events carry only the core; record the owning engine on
        # each core so shared-queue (cluster) loops can route the event to
        # the right per-node engine.
        for core in machine.cores:
            core._engine = self
        scheduler.attach(self)

    @property
    def now(self) -> float:
        return self.clock.now

    def has_pending_work(self) -> bool:
        """True while this machine holds work or its loop still expects arrivals.

        Periodic scheduler timers (CFS load balancing, the hybrid's sampling
        and rightsizing) re-arm only while this holds.
        """
        return self._unfinished > 0 or self.loop._arrival_pending()

    # ----------------------------------------------------------------- timers

    def schedule_at(
        self, time: float, callback, tag: str = "timer"
    ) -> Event:
        """Schedule a callback at an absolute simulation time."""
        now = self.clock.now
        if time < now:
            raise ValueError(
                f"cannot schedule an event in the past: now={now}, requested={time}"
            )
        return self.events.push(time, callback, priority=EventPriority.TIMER, tag=tag)

    def schedule_timer(self, delay: float, callback, tag: str = "timer") -> Event:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.clock.now + delay, callback, tag=tag)

    def schedule_every(self, interval: float, tick, tag: str) -> None:
        """A scheduler's periodic timer: :meth:`EventLoop.every` at ``TIMER``
        priority, re-armed while :meth:`has_pending_work` holds."""
        self.loop.every(
            interval, tick, tag,
            priority=EventPriority.TIMER, can_continue=self.has_pending_work,
        )

    def record_series(self, name: str, value: float) -> None:
        """Record one point of a named time series at the current time."""
        record_series(
            self.collector.series, name, self.clock.now, value, self.loop.telemetry
        )

    # ----------------------------------------------------- task/core plumbing

    def start_task(self, task: Task, core: Core) -> None:
        """Begin (or resume) executing ``task`` on ``core``."""
        now = self.clock.now
        for hook in self.hooks.task_started:
            hook(self, task, core, now)
        core.add_task(task, now)
        self._reschedule_completion(core, now)

    def stop_task(self, task: Task, core: Core, *, preempted: bool = True) -> Task:
        """Remove ``task`` from ``core`` (involuntarily unless stated otherwise)."""
        now = self.clock.now
        removed = core.remove_task(task, now, preempted=preempted)
        self._reschedule_completion(core, now)
        for hook in self.hooks.task_stopped:
            hook(self, task, preempted, now)
        return removed

    def drain_core(self, core: Core) -> List[Task]:
        """Preempt and return every task on ``core`` (core-migration protocol)."""
        now = self.clock.now
        drained = core.drain(now)
        self._reschedule_completion(core, now)
        for task in drained:
            for hook in self.hooks.task_stopped:
                hook(self, task, True, now)
        return drained

    # ----------------------------------------------------------- event logic

    def _handle_completion(self, core: Core) -> List[Task]:
        """Finish ``core``'s ready tasks, record each once; returns them."""
        now = self.clock.now
        core._completion_handle = None
        finished = core.finish_ready_tasks(now)
        if core._tasks:
            # A core that just emptied has no completion to schedule.
            self._reschedule_completion(core, now)
        hooks = self.hooks.task_finished
        append = self.loop.columns.append
        node_id = self.node_id
        on_task_finished = self.scheduler.on_task_finished
        for task in finished:
            self._unfinished -= 1
            for hook in hooks:
                hook(self, task, now)
            append(task, node_id)
            on_task_finished(task, core)
        return finished

    def _reschedule_completion(self, core: Core, now: float) -> None:
        """Replace ``core``'s pending completion event with its next one."""
        handle = core._completion_handle
        if handle is not None:
            handle.cancel()
            core._completion_handle = None
        delta = core.time_to_next_completion()
        if delta is None:
            return
        core._completion_handle = self.events.push(
            now + delta,
            None,
            priority=EventPriority.COMPLETION,
            tag=COMPLETION_TAG,
            payload=core,
        )


class Simulator(EventLoop, MachineEngine):
    """Event-driven multicore scheduling simulator: one machine on its own loop."""

    def __init__(
        self,
        machine: Machine,
        scheduler,
        config: Optional[SimulationConfig] = None,
        columns: Optional[TaskColumns] = None,
        telemetry=None,
    ) -> None:
        EventLoop.__init__(self, columns, telemetry)
        MachineEngine.__init__(self, machine, scheduler, self, config=config)
        self._loop_config = self.config
        if self.telemetry is not None:
            TelemetryProbe(self.telemetry).attach_machine(self)

    def _engines(self):
        return (self,)

    _on_completion = MachineEngine._handle_completion

    def _on_arrival(self, task: Task) -> None:
        task.mark_queued()
        now = self.clock.now
        for hook in self.hooks.task_queued:
            hook(self, task, now)
        self.scheduler.on_task_arrival(task)

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the simulation to completion and return its result."""
        started = _wallclock.perf_counter()
        self._running = True
        self.scheduler.on_start()
        telemetry_snapshot = self._run(until)
        return build_result(
            scheduler_name=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            config=self.config,
            tasks=self.tasks,
            cores=self.machine.cores,
            collector=self.collector,
            columns=self.columns,
            simulated_time=self.now,
            wall_clock_seconds=_wallclock.perf_counter() - started,
            events_processed=self._events_processed,
            telemetry=telemetry_snapshot,
            tasks_submitted=self._tasks_submitted,
        )


def simulate(
    scheduler,
    workload,
    config: Optional[SimulationConfig] = None,
    machine: Optional[Machine] = None,
    until: Optional[float] = None,
    telemetry=None,
    *,
    chunk: int = 8192,
    metrics_cap: Optional[int] = None,
    metrics_policy: str = "reservoir",
    spill_dir: Optional[str] = None,
) -> SimulationResult:
    """One-call helper: build a machine, run ``scheduler`` over ``workload``.

    This is the main entry point used by examples, tests and the experiment
    harness when no special machine topology is needed.  ``workload`` is a
    task list, submitted up front, or a
    :class:`~repro.workload.streaming.StreamingWorkload`, fed ``chunk`` tasks
    at a time; a streamed run retains no task objects, so its live memory is
    O(horizon) rather than O(total tasks) and its result's ``tasks`` list
    is empty (summaries, columns and cost all work from the run's store).
    ``metrics_cap`` bounds that columnar store using
    ``metrics_policy`` (``"reservoir"`` — exact streaming summaries plus a
    uniform sample for CDFs — or ``"spill"`` — full rows in on-disk npy
    chunks under ``spill_dir``).  ``telemetry`` accepts a
    :class:`~repro.telemetry.spec.TelemetrySpec` (or a live runtime) to
    record spans/gauges for the run.
    """
    cfg = config or SimulationConfig()
    target_machine = machine or Machine(
        cfg, groups=scheduler.preferred_groups(cfg.num_cores)
    )
    columns = build_columns_store(
        metrics_cap, policy=metrics_policy, spill_dir=spill_dir, seed=cfg.seed
    )
    simulator = Simulator(
        target_machine, scheduler, config=cfg, columns=columns, telemetry=telemetry
    )
    simulator._submit_workload(workload, chunk)
    return simulator.run(until=until)
