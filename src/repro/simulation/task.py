"""Task model.

A :class:`Task` is one serverless function invocation.  It carries the static
attributes coming out of the workload generator (arrival time, CPU demand,
memory size, Fibonacci argument) and the dynamic bookkeeping the simulator
updates as the task is scheduled, preempted, migrated and completed.

The three timing metrics follow the definitions of §II-B of the paper
(borrowed from OSTEP):

* ``execution  = completion - first_run``
* ``response   = first_run - arrival``
* ``turnaround = completion - arrival``

``remaining`` is *lazily materialized*: while a task is assigned to a core,
the core only advances one shared attained-service counter (virtual time)
per event, and the task's concrete remaining work is folded in on demand —
when a scheduler reads ``task.remaining``, when the task is descheduled, or
when it completes.  Detached tasks store the value directly.  Readers and
writers go through one property either way, so scheduler code is oblivious
to which regime a task is in.

Tasks are kept lean because a run holds tens of thousands of them.  The
generator's ``function_id`` label and a fleet run's placement (``node_id``,
``ingress_wait``) are plain fields, and ``metadata`` is allocated on first
access: a task that nothing annotates never gets a dict, and
:meth:`Task.annotation` reads an entry without allocating one.
``metadata`` is a property over the ``_metadata`` slot, not a
``__getattr__`` fallback, because defining ``__getattr__`` slows every
attribute load on the class.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Optional, Sequence

#: ``slots=True`` keeps per-task memory/attribute-lookup cost down on the
#: hot path; only available for dataclasses on Python >= 3.10.
DATACLASS_KWARGS = {"slots": True} if sys.version_info >= (3, 10) else {}


class TaskState(Enum):
    """Lifecycle of a task inside the simulator."""

    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"


@dataclass(init=False, **DATACLASS_KWARGS)
class Task:
    """A single serverless function invocation.

    Attributes:
        task_id: Unique, monotonically increasing identifier.
        arrival_time: Simulation time (s) at which the invocation arrives.
        service_time: Pure CPU demand (s) — the time the function needs on a
            core with no interference and no context switches.
        memory_mb: Memory size allocated to the function; drives the AWS
            Lambda per-millisecond price.
        name: Optional human-readable label (e.g. ``"fib(38)"``).
        fibonacci_n: Fibonacci argument used to emulate this duration, if the
            task came out of the calibration pipeline.
        deadline: Optional absolute deadline, only used by the EDF policy.
        metadata: Free-form dictionary for rare annotations (``rejected``,
            ``retries``, ``node_failures``, ``node_migrations``,
            ``checkpoints``), allocated on first access.
        function_id: Label of the serverless function this task invokes
            (e.g. ``"fib(38)/128mb"``), shared by all its invocations; the
            locality-aware dispatchers route on it.
        weight: Fair-share weight (nice level / cgroup shares analogue).  A
            task with weight 2.0 receives twice the service rate of a
            weight-1.0 task sharing the same core; run-to-completion cores
            are unaffected.
        node_id: Id of the cluster node the task was last delivered to, or
            None while it has not reached one (always None on a standalone
            machine).
        ingress_wait: Seconds the task spent on the wire toward nodes under
            a non-zero-RTT network model, summed over its landings.
    """

    task_id: int
    arrival_time: float
    service_time: float
    memory_mb: int = 128
    name: str = ""
    fibonacci_n: Optional[int] = None
    deadline: Optional[float] = None
    #: Backing slot of ``metadata``: None until the dict is first read.
    _metadata: Optional[dict] = field(default=None, repr=False)
    weight: float = 1.0
    function_id: Optional[str] = None

    # --- dynamic bookkeeping -------------------------------------------------
    state: TaskState = TaskState.CREATED
    first_run_time: Optional[float] = None
    completion_time: Optional[float] = None
    cpu_time_received: float = 0.0
    preemptions: int = 0
    migrations: int = 0
    vruntime: float = 0.0
    last_core: Optional[int] = None
    node_id: Optional[int] = None
    ingress_wait: float = 0.0
    #: Core groups the task was handed to; the hybrid scheduler replaces the
    #: shared empty tuple with a list on the first hand-off.
    groups_visited: Sequence[str] = ()
    #: Concrete remaining work, valid as of the owning core's last
    #: materialization (exact while detached).  Read through ``remaining``.
    _remaining: float = field(default=0.0, repr=False, compare=False)
    #: The core currently executing this task, or None while detached.
    _core: Optional[object] = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        task_id: int,
        arrival_time: float,
        service_time: float,
        memory_mb: int = 128,
        name: str = "",
        fibonacci_n: Optional[int] = None,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        weight: float = 1.0,
        function_id: Optional[str] = None,
    ) -> None:
        # Chained comparisons are False for NaN, so non-finite values fail too.
        if not 0.0 < service_time < inf:
            raise ValueError(
                f"task {task_id} must have positive, finite service time, "
                f"got {service_time!r}"
            )
        if not 0.0 <= arrival_time < inf:
            raise ValueError(
                f"task {task_id} has negative or non-finite arrival time {arrival_time!r}"
            )
        if memory_mb <= 0:
            raise ValueError(
                f"task {task_id} must have positive memory size, got {memory_mb!r}"
            )
        if not 0.0 < weight < inf:
            raise ValueError(
                f"task {task_id} must have positive, finite weight, got {weight!r}"
            )
        self.task_id = task_id
        self.arrival_time = arrival_time
        self.service_time = service_time
        self.memory_mb = memory_mb
        self.name = name
        self.fibonacci_n = fibonacci_n
        self.deadline = deadline
        self._metadata = metadata
        self.weight = weight
        self.function_id = function_id
        self.state = TaskState.CREATED
        self.first_run_time = self.completion_time = self.last_core = None
        self.node_id = self._core = None
        self.cpu_time_received = self.vruntime = self.ingress_wait = 0.0
        self.preemptions = self.migrations = 0
        self.groups_visited = ()
        self._remaining = float(service_time)

    # --- annotations ---------------------------------------------------------

    @property
    def metadata(self) -> dict:
        """Free-form annotations; the dict is allocated on first access."""
        metadata = self._metadata
        if metadata is None:
            metadata = self._metadata = {}
        return metadata

    @metadata.setter
    def metadata(self, value: dict) -> None:
        self._metadata = value

    def annotation(self, key: str, default=None):
        """``metadata.get(key, default)`` that allocates no dict."""
        metadata = self._metadata
        if metadata is None:
            return default
        return metadata.get(key, default)

    # --- remaining work (sync-on-read) ---------------------------------------

    @property
    def remaining(self) -> float:
        """Remaining CPU demand (s), materialized from virtual time on read."""
        core = self._core
        if core is not None:
            return core.materialize(self)
        return self._remaining

    @remaining.setter
    def remaining(self, value: float) -> None:
        core = self._core
        if core is not None:
            core.set_remaining(self, float(value))
        else:
            self._remaining = float(value)

    # --- state transitions ---------------------------------------------------

    def mark_queued(self) -> None:
        """Record that the task entered a run queue."""
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"task {self.task_id} already finished; cannot queue")
        if self.state in (TaskState.CREATED, TaskState.PREEMPTED, TaskState.RUNNING):
            self.state = TaskState.QUEUED

    def mark_running(self, now: float, core_id: int) -> None:
        """Record that the task started (or resumed) receiving CPU time."""
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"task {self.task_id} already finished; cannot run")
        if self.first_run_time is None:
            self.first_run_time = now
        if self.last_core is not None and self.last_core != core_id:
            self.migrations += 1
        self.last_core = core_id
        self.state = TaskState.RUNNING

    def mark_preempted(self) -> None:
        """Record an involuntary deschedule."""
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"task {self.task_id} already finished; cannot preempt")
        self.preemptions += 1
        self.state = TaskState.PREEMPTED

    def mark_finished(self, now: float) -> None:
        """Record task completion (the core has already detached the task)."""
        if self.first_run_time is None:
            raise RuntimeError(
                f"task {self.task_id} completed at {now} without ever running"
            )
        self.completion_time = now
        self._remaining = 0.0
        self.state = TaskState.FINISHED

    def account_service(self, amount: float) -> None:
        """Consume ``amount`` seconds of CPU service (detached tasks only).

        While a task is assigned to a core, service is accounted solely by
        the core's virtual-time materialization; this entry point exists for
        out-of-engine bookkeeping (cost models, tests).
        """
        if self._core is not None:
            raise RuntimeError(
                f"task {self.task_id} is executing on a core; its service is "
                "accounted by the core's virtual-time materialization"
            )
        if amount < 0:
            raise ValueError(f"cannot account negative service {amount!r}")
        self.cpu_time_received += amount
        self.vruntime += amount
        self._remaining = max(0.0, self._remaining - amount)

    # --- metrics -------------------------------------------------------------

    @property
    def is_finished(self) -> bool:
        return self.state is TaskState.FINISHED

    @property
    def execution_time(self) -> Optional[float]:
        """Completion minus first run (the metric users are billed for)."""
        if self.completion_time is None or self.first_run_time is None:
            return None
        return self.completion_time - self.first_run_time

    @property
    def response_time(self) -> Optional[float]:
        """First run minus arrival (user-facing queueing latency)."""
        if self.first_run_time is None:
            return None
        return self.first_run_time - self.arrival_time

    @property
    def turnaround_time(self) -> Optional[float]:
        """Completion minus arrival (total time in the system)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> Optional[float]:
        """Turnaround normalised by service time (>= 1 in an ideal system)."""
        turnaround = self.turnaround_time
        if turnaround is None:
            return None
        return turnaround / self.service_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(id={self.task_id}, arrival={self.arrival_time:.3f}, "
            f"service={self.service_time:.3f}, state={self.state.value})"
        )


def make_tasks(specs: list[tuple[float, float]], memory_mb: int = 128) -> list["Task"]:
    """Build tasks from ``(arrival_time, service_time)`` pairs (testing helper)."""
    return [
        Task(task_id=i, arrival_time=arrival, service_time=service, memory_mb=memory_mb)
        for i, (arrival, service) in enumerate(specs)
    ]
