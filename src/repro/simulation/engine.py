"""Discrete-event simulation engine.

Two pieces make up every simulator in this package:

* :class:`EventLoop` — the clock, the event queue, the arrival feed and the
  batched drain loop.  The standalone :class:`Simulator` and the fleet's
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

import itertools
import time as _wallclock
from typing import Iterable, List, Optional, Sequence

from repro.simulation.clock import VirtualClock
from repro.simulation.columns import build_columns_store
from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import Core
from repro.simulation.events import (
    STREAM_SEQ_BASE,
    EventHandle,
    EventPriority,
    EventQueue,
)
from repro.simulation.machine import Machine
from repro.simulation.metrics import MetricsCollector
from repro.simulation.results import SimulationResult, build_result
from repro.simulation.task import Task
from repro.telemetry.gauges import SAMPLER_TAG
from repro.telemetry.runtime import as_telemetry
from repro.telemetry.tracer import MACHINE_PID, QUEUE_TID, core_tid

#: Tag of a fed arrival event (payload: the task), on every simulator.
ARRIVAL_TAG = "arrival"
#: Tag of a core's next-completion event (payload: the core).
COMPLETION_TAG = "completion"


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class EventLoop:
    """Clock, event queue, arrival feed and batched drain loop.

    Subclasses route events and name the machines the loop drives:

    * ``_on_arrival(task)`` / ``_on_completion(core)`` handle the two
      payload events every run has; ``_dispatch_other(event)`` any other
      callback-free event;
    * ``_engines()`` lists every :class:`MachineEngine` on the loop (flushed
      and sampled at the end of a run), ``_sampled_engines()`` the ones the
      periodic utilization sampler visits;
    * ``_loop_config`` is the :class:`SimulationConfig` whose time limit
      and utilization settings govern the run.
    """

    _loop_config: SimulationConfig

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.events = EventQueue()
        #: Materialised workload (``submit``); streamed runs retain none.
        self.tasks: List[Task] = []
        #: Arrivals taken in and neither finished nor rejected yet.
        self._unfinished = 0
        #: Arrival events still queued (fed arrivals, plus any re-admission
        #: a subclass queues); timers keep re-arming while this is positive.
        self._pending_arrivals = 0
        #: Arrivals pushed onto the queue so far.
        self._tasks_fed = 0
        #: Arrivals the run took in (their event fired); a run cut off by a
        #: time limit reports this as its submitted count on both feeds.
        self._tasks_submitted = 0
        self._events_processed = 0
        self._running = False
        # The one sequence source for fed arrivals: numbers from the reserved
        # negative range sort arrivals in feed order and ahead of every
        # runtime-pushed event at the same (time, priority), so a chunked
        # stream orders events exactly like a pre-pushed task list.
        self._arrival_seq = itertools.count(STREAM_SEQ_BASE)
        # Streaming feed (see submit_stream); None on materialised runs.
        self._stream = None
        self._stream_low_water = 0
        self._stream_total: Optional[int] = None

    @property
    def now(self) -> float:
        return self.clock.now

    # ----------------------------------------------------------- arrival feed

    def submit(self, tasks: Iterable[Task]) -> None:
        """Register tasks and queue all their arrival events up front."""
        if self._running:
            raise SimulationError("cannot submit tasks while the simulation is running")
        tasks = list(tasks)
        self.tasks.extend(tasks)
        self._push_arrivals(tasks)

    def submit_stream(self, source, *, chunk: int = 8192, low_water: Optional[int] = None) -> None:
        """Attach a streaming arrival source; arrivals are fed in chunks.

        Instead of pre-pushing every arrival (an O(total tasks) heap and task
        list), the next ``chunk`` tasks are pushed whenever at most
        ``low_water`` fed arrivals are still queued, keeping live memory
        O(horizon).  Fed arrivals draw from the same sequence source as
        :meth:`submit`, so the run is bit-identical to
        ``submit(source.materialise())``.  Streaming runs retain no task
        objects — neither the task list nor the engines' finished tasks;
        results report counts and columnar metrics instead.
        """
        from repro.workload.streaming import StreamFeed

        if self._running:
            raise SimulationError("cannot attach a stream while the simulation is running")
        if self._stream is not None:
            raise SimulationError("a streaming source is already attached")
        if low_water is None:
            low_water = max(1, chunk // 4)
        if low_water < 0:
            raise ValueError(f"low_water must be >= 0, got {low_water!r}")
        self._stream = StreamFeed(source, chunk)
        self._stream_low_water = low_water
        self._stream_total = source.total_hint()
        for engine in self._engines():
            engine.collector.keep_tasks = False
        self._refill_stream()

    def _submit_workload(self, workload, chunk: int, low_water: Optional[int]) -> None:
        """Feed a task list (``submit``) or a streaming source (``submit_stream``)."""
        if hasattr(workload, "batches"):
            self.submit_stream(workload, chunk=chunk, low_water=low_water)
        else:
            self.submit(workload)

    def _refill_stream(self) -> None:
        """Feed arrival chunks until queued fed arrivals clear the low-water mark."""
        feed = self._stream
        while (
            not feed.exhausted
            and self._tasks_fed - self._tasks_submitted <= self._stream_low_water
        ):
            tasks = feed.next_chunk()
            if not tasks:
                break
            self._push_arrivals(tasks)

    def _push_arrivals(self, tasks: Sequence[Task]) -> None:
        """Queue one arrival event per task, in feed order."""
        self._tasks_fed += len(tasks)
        self._pending_arrivals += len(tasks)
        push = self.events.push_sequenced
        seq = self._arrival_seq
        for task in tasks:
            # Payload-carrying event dispatched by tag: no per-task closure.
            push(
                task.arrival_time,
                next(seq),
                priority=EventPriority.ARRIVAL,
                tag=ARRIVAL_TAG,
                payload=task,
            )

    # ------------------------------------------------------------- event loop

    def _sampled_engines(self):
        return self._engines()

    def _work_can_progress(self) -> bool:
        """True while periodic ticks can still achieve anything."""
        return self._unfinished > 0 or self._pending_arrivals > 0

    def _dispatch_tagged(self, event) -> None:
        """Route a payload-carrying (callback-free) event by its tag."""
        tag = event.tag
        if tag == COMPLETION_TAG:
            self._on_completion(event.payload)
        elif tag == ARRIVAL_TAG:
            self._tasks_submitted += 1
            self._unfinished += 1
            self._pending_arrivals -= 1
            if (
                self._stream is not None
                and self._tasks_fed - self._tasks_submitted <= self._stream_low_water
            ):
                self._refill_stream()
            self._on_arrival(event.payload)
        elif tag == SAMPLER_TAG:
            event.payload.on_tick()
        else:
            self._dispatch_other(event)

    def _dispatch_other(self, event) -> None:
        raise SimulationError(
            f"event at t={event.time} has no callback and unknown tag {event.tag!r}"
        )

    def _drain(self, limit: Optional[float]) -> None:
        """Pop and dispatch events until the work is done or ``limit`` passes."""
        events = self.events
        clock = self.clock
        dispatch = self._dispatch_tagged
        processed = 0
        done = False
        while not done:
            next_time = events.peek_time()
            if next_time is None:
                break
            if limit is not None and next_time > limit:
                clock.advance_to(limit)
                break
            clock.advance_to(next_time)
            # Batched draining: every event sharing this timestamp (including
            # ones pushed *at* it by the handlers below) is dispatched in one
            # loop iteration, paying the clock advance and limit check once.
            # Events are still popped strictly in (time, priority, seq)
            # order, so results are bit-identical to one-at-a-time draining.
            while True:
                event = events.pop()
                if event is None:
                    done = True
                    break
                processed += 1
                callback = event.callback
                if callback is not None:
                    callback()
                else:
                    dispatch(event)
                if self._unfinished == 0 and self._pending_arrivals == 0:
                    done = True
                    break
                if events.peek_time() != next_time:
                    break
        self._events_processed += processed

    # ---------------------------------------------------- run prologue/epilogue

    def _start_progress(self) -> None:
        """Bind telemetry progress to the feed and arm the gauge sampler."""
        total = self._stream_total if self._stream is not None else len(self.tasks)
        self.telemetry.bind_progress(
            total, lambda: self._tasks_submitted - self._unfinished
        )
        self.telemetry.start(self.events, self.clock, self._work_can_progress)

    def _start_utilization(self) -> None:
        """Open every engine's utilization window and arm the sampler."""
        if self._loop_config.record_utilization:
            for engine in self._engines():
                engine.collector.start_utilization_window(
                    engine.machine.cores, self.now
                )
            self._schedule_utilization_sample()

    def _schedule_utilization_sample(self) -> None:
        window = self._loop_config.utilization_window

        def _sample() -> None:
            for engine in self._sampled_engines():
                if engine.machine.cores:
                    engine.collector.sample_utilization(
                        engine.machine.cores, self.now, window=window
                    )
            if self._work_can_progress():
                self._schedule_utilization_sample()

        self.events.push(
            self.now + window,
            _sample,
            priority=EventPriority.CONTROL,
            tag="utilization-sample",
        )

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
        collector: Optional[MetricsCollector] = None,
        telemetry=None,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.config = config or machine.config
        self.collector = collector or MetricsCollector()
        self.loop = loop
        self.clock = loop.clock
        self.events = loop.events
        # Accepts a TelemetrySpec, a live Telemetry (the cluster layer shares
        # one across node engines), or None.  ``_tracer``/``_trace_pid`` are
        # cached so hot-path guards are one attribute load; the cluster layer
        # reassigns ``_trace_pid`` to the node's track.
        self.telemetry = as_telemetry(telemetry)
        self._tracer = self.telemetry.tracer if self.telemetry is not None else None
        self._trace_pid = MACHINE_PID
        #: Tasks this machine holds (queued or running) that have not finished.
        self._unfinished = 0
        #: The cluster node this engine serves (None on a standalone machine).
        self.node = None
        # Tasks finished by the most recent completion event; the cluster
        # reads this for fleet accounting (the collector may be configured
        # not to retain task objects on streaming runs).
        self._last_finished: Sequence[Task] = ()
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
        return self._unfinished > 0 or self.loop._pending_arrivals > 0

    # ----------------------------------------------------------------- timers

    def schedule_at(
        self, time: float, callback, tag: str = "timer"
    ) -> EventHandle:
        """Schedule a callback at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past: now={self.now}, requested={time}"
            )
        return self.events.push(time, callback, priority=EventPriority.TIMER, tag=tag)

    def schedule_timer(self, delay: float, callback, tag: str = "timer") -> EventHandle:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.now + delay, callback, tag=tag)

    def record_series(self, name: str, value: float) -> None:
        """Record one point of a named time series at the current time.

        With telemetry enabled the point flows through the gauge registry
        (so it is counted in the snapshot); either way it lands in the same
        ``collector.series`` store under the same name.
        """
        if self.telemetry is not None:
            self.telemetry.gauges.record(self.collector.series, name, self.now, value)
        else:
            self.collector.record_series(name, self.now, value)

    # ----------------------------------------------------- task/core plumbing

    def start_task(self, task: Task, core: Core) -> None:
        """Begin (or resume) executing ``task`` on ``core``."""
        tracer = self._tracer
        if tracer is not None:
            tid = task.task_id
            tracer.end(("q", tid), self.now)
            tracer.begin(
                ("r", tid), "run", self._trace_pid,
                core_tid(core.core_id), self.now, tid,
            )
        core.add_task(task, self.now)
        self._reschedule_completion(core)

    def stop_task(self, task: Task, core: Core, *, preempted: bool = True) -> Task:
        """Remove ``task`` from ``core`` (involuntarily unless stated otherwise)."""
        removed = core.remove_task(task, self.now, preempted=preempted)
        self._reschedule_completion(core)
        tracer = self._tracer
        if tracer is not None:
            tid = task.task_id
            tracer.end(("r", tid), self.now)
            if preempted:
                # The task is runnable again but off-core: back to waiting.
                tracer.begin(
                    ("q", tid), "queued", self._trace_pid, QUEUE_TID, self.now, tid
                )
        return removed

    def drain_core(self, core: Core) -> List[Task]:
        """Preempt and return every task on ``core`` (core-migration protocol)."""
        drained = core.drain(self.now)
        self._reschedule_completion(core)
        tracer = self._tracer
        if tracer is not None:
            pid = self._trace_pid
            for task in drained:
                tid = task.task_id
                tracer.end(("r", tid), self.now)
                tracer.begin(("q", tid), "queued", pid, QUEUE_TID, self.now, tid)
        return drained

    # ----------------------------------------------------------- event logic

    def _handle_completion(self, core: Core) -> None:
        core._completion_handle = None
        finished = core.finish_ready_tasks(self.now)
        self._last_finished = finished
        self._reschedule_completion(core)
        tracer = self._tracer
        for task in finished:
            self._unfinished -= 1
            if tracer is not None:
                tracer.end(("r", task.task_id), self.now)
            self.collector.on_task_finished(task)
            self.scheduler.on_task_finished(task, core)

    def _reschedule_completion(self, core: Core) -> None:
        if core._completion_handle is not None:
            core._completion_handle.cancel()
            core._completion_handle = None
        delta = core.time_to_next_completion()
        if delta is None:
            return
        core._completion_handle = self.events.push(
            self.now + delta,
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
        collector: Optional[MetricsCollector] = None,
        telemetry=None,
    ) -> None:
        EventLoop.__init__(self)
        MachineEngine.__init__(
            self, machine, scheduler, self,
            config=config, collector=collector, telemetry=telemetry,
        )
        self._loop_config = self.config

    def _engines(self):
        return (self,)

    _on_completion = MachineEngine._handle_completion

    def _on_arrival(self, task: Task) -> None:
        task.mark_queued()
        tracer = self._tracer
        if tracer is not None:
            pid = self._trace_pid
            tid = task.task_id
            tracer.instant("arrival", pid, QUEUE_TID, self.now, tid)
            tracer.begin(("q", tid), "queued", pid, QUEUE_TID, self.now, tid)
        self.scheduler.on_task_arrival(task)

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the simulation to completion and return its result."""
        started = _wallclock.perf_counter()
        self._running = True
        self.scheduler.on_start()
        if self.telemetry is not None:
            self._start_telemetry()
        self._start_utilization()
        self._drain(until if until is not None else self.config.max_simulated_time)
        telemetry_snapshot = self._finish_run()
        return build_result(
            scheduler_name=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            config=self.config,
            tasks=self.tasks,
            cores=self.machine.cores,
            collector=self.collector,
            simulated_time=self.now,
            wall_clock_seconds=_wallclock.perf_counter() - started,
            events_processed=self._events_processed,
            telemetry=telemetry_snapshot,
            tasks_submitted=self._tasks_submitted,
        )

    def _start_telemetry(self) -> None:
        """Wire this standalone machine's tracks and gauges, arm the sampler."""
        tracer = self._tracer
        if tracer is not None:
            pid = self._trace_pid
            tracer.name_process(pid, "machine")
            tracer.name_track(pid, QUEUE_TID, "queue")
            for core in self.machine.cores:
                tracer.name_track(pid, core_tid(core.core_id), f"core {core.core_id}")
        self.telemetry.gauges.register(
            "machine.busy_cores",
            lambda: sum(1 for core in self.machine.cores if core.is_busy),
            self.collector.series,
        )
        self._start_progress()


def simulate(
    scheduler,
    workload,
    config: Optional[SimulationConfig] = None,
    machine: Optional[Machine] = None,
    until: Optional[float] = None,
    telemetry=None,
    *,
    chunk: int = 8192,
    low_water: Optional[int] = None,
    metrics_cap: Optional[int] = None,
    metrics_policy: str = "reservoir",
    spill_dir: Optional[str] = None,
) -> SimulationResult:
    """One-call helper: build a machine, run ``scheduler`` over ``workload``.

    This is the main entry point used by examples, tests and the experiment
    harness when no special machine topology is needed.  ``workload`` is a
    task list, submitted up front, or a
    :class:`~repro.workload.streaming.StreamingWorkload`, fed ``chunk`` tasks
    at a time whenever at most ``low_water`` fed arrivals are still queued;
    a streamed run retains no task objects, so its live memory is
    O(horizon) rather than O(total tasks) and its result's ``tasks`` list
    is empty (summaries, columns and cost all work from the collector).
    ``metrics_cap`` bounds the columnar metrics store using
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
    collector = MetricsCollector(
        columns=build_columns_store(
            metrics_cap, policy=metrics_policy, spill_dir=spill_dir, seed=cfg.seed
        )
    )
    simulator = Simulator(
        target_machine, scheduler, config=cfg, collector=collector, telemetry=telemetry
    )
    simulator._submit_workload(workload, chunk, low_water)
    return simulator.run(until=until)
