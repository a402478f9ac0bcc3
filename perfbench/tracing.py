"""Per-layer host-time tracing for the benchmark's traced run.

The tracer wraps the public methods that form each layer's boundary, from
the benchmark's side: class attributes are swapped for timing wrappers
while a traced repetition runs and restored afterwards, so ``src/`` is
never edited and the untraced runs execute the plain code.

For every layer it counts calls and accumulates their duration and *self
time*: a wrapped call's duration minus the time its wrapped children
cover.  Nesting is
tracked on one stack (the simulator is single-threaded).  The first
``SPAN_CAP`` spans (name, start, end, parent span) stay in memory and are
written out when the run ends; later spans are only counted, because a
fleet run makes millions of wrapped calls and keeping every span would
dominate the traced process's memory.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from typing import Dict, Iterable, List, Tuple

from repro.chaos.injector import ChaosInjector
from repro.cluster.dispatchers import Dispatcher
from repro.cluster.load_index import NodeLoadIndex
from repro.cluster.migration import MigrationPolicy
from repro.cluster.node import ClusterNode
from repro.cluster.autoscaler import ReactiveAutoscaler
from repro.cluster.simulator import ClusterSimulator
from repro.core.hybrid import HybridScheduler
from repro.middleware.base import MiddlewareChain
from repro.schedulers import registry as _scheduler_registry  # noqa: F401  (loads every policy)
from repro.schedulers.base import Scheduler
from repro.simulation.columns import TaskColumns
from repro.simulation.cpu import Core
from repro.simulation.engine import Simulator
from repro.simulation.events import EventQueue
from repro.simulation.machine import Machine
from repro.workload import azure
from repro.workload.extraction import ExtractionPipeline
from repro.workload.generator import WorkloadGenerator
from repro.workload.streaming import StreamFeed


def _subclasses(base: type) -> List[type]:
    """``base`` and every subclass currently defined, parents first."""
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


def _owned(classes: Iterable[type], names: Tuple[str, ...], skip=()) -> List[Tuple[object, str]]:
    """(class, name) for each listed method a class defines itself."""
    return [
        (cls, name)
        for cls in classes
        if cls not in skip
        for name in names
        if name in vars(cls)
    ]


def layer_plan() -> Dict[str, List[Tuple[object, str]]]:
    """Layer name -> the (owner, attribute) boundaries it is timed at."""
    hybrid = _subclasses(HybridScheduler)
    return {
        "events": _owned([EventQueue], ("push", "push_sequenced", "pop")),
        "cpu": _owned([Core], ("sync", "add_task", "remove_task", "finish_ready_tasks")),
        "machine": _owned([Machine], ("least_loaded_core", "sync_all", "move_core")),
        "engine": _owned([Simulator], ("run",)),
        "schedulers": _owned(
            _subclasses(Scheduler),
            ("on_task_arrival", "on_task_finished", "dispatch"),
            skip=hybrid,
        ),
        "hybrid": _owned(
            hybrid,
            (
                "on_task_arrival",
                "on_task_finished",
                "handle_task_new",
                "handle_task_dead",
                "handle_task_preempt",
                "handle_cpu_tick",
            ),
        ),
        "dispatchers": _owned(_subclasses(Dispatcher), ("select_node",)),
        "load_index": _owned([NodeLoadIndex], ("touch", "min")),
        "node": _owned(
            [ClusterNode], ("deliver", "stealable_tasks", "surrender", "receive_stolen")
        ),
        "cluster": _owned([ClusterSimulator], ("run",)),
        "middleware": _owned([MiddlewareChain], ("on_dispatch", "on_complete")),
        "migration": _owned(_subclasses(MigrationPolicy), ("plan",)),
        "autoscaler": _owned([ReactiveAutoscaler], ("on_tick",)),
        "chaos": _owned([ChaosInjector], ("arm",)) + _owned([ClusterNode], ("fail",)),
        "streaming": _owned([StreamFeed], ("next_chunk",)),
        "columns": _owned(_subclasses(TaskColumns), ("append", "summary")),
        "workload": [(azure, "generate_trace")]
        + _owned([ExtractionPipeline], ("run",))
        + _owned([WorkloadGenerator], ("generate_items",)),
    }


#: Layers whose per-call latency is kept (for percentiles).
LATENCY_LAYERS = ("dispatchers",)

#: Spans kept for the span file; the rest of a run's spans are dropped.
SPAN_CAP = 100_000


class LayerTracer:
    """Swaps layer boundaries for timing wrappers between install/uninstall."""

    def __init__(self) -> None:
        self.plan = layer_plan()
        #: Layer -> [calls, self seconds, inclusive seconds].
        self.stats: Dict[str, List[float]] = {layer: [0, 0.0, 0.0] for layer in self.plan}
        #: Calls per wrapped method, keyed ``Owner.method``.
        self.method_calls: Dict[str, List[int]] = {}
        self.latencies: Dict[str, List[float]] = {layer: [] for layer in LATENCY_LAYERS}
        self.spans: List[tuple] = []
        self._stack: List[float] = [0.0]
        self._ids: List[int] = [-1]
        self._counter = itertools.count()
        self._saved: List[Tuple[object, str, object]] = []
        #: Moves the migration policy proposed (``plan()`` result lengths).
        self.planned_moves = 0

    def install(self) -> None:
        for layer, boundaries in self.plan.items():
            for owner, name in boundaries:
                original = vars(owner)[name]
                if not inspect.isfunction(original):
                    print(f"perfbench: {owner.__name__}.{name} is not a plain "
                          "function; not traced", file=sys.stderr)
                    continue
                self._saved.append((owner, name, original))
                on_result = self._count_planned if layer == "migration" else None
                setattr(owner, name, self._wrap(
                    original, layer, f"{owner.__name__}.{name}", on_result))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _count_planned(self, plans) -> None:
        self.planned_moves += len(plans)

    def _wrap(self, fn, layer: str, label: str, on_result=None):
        stats = self.stats[layer]
        own = self.method_calls.setdefault(label, [0])
        latency = self.latencies.get(layer)
        stack, ids, spans, counter = self._stack, self._ids, self.spans, self._counter
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(counter)
            parent = ids[-1]
            ids.append(span_id)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                children = stack.pop()
                ids.pop()
                stack[-1] += duration
                stats[0] += 1
                stats[1] += duration - children
                stats[2] += duration
                own[0] += 1
                if latency is not None:
                    latency.append(duration)
                if span_id < SPAN_CAP:
                    spans.append((span_id, parent, label, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        """Write the retained spans as JSON (one list row per span)."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                },
                handle,
            )
