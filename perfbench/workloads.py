"""The benchmark's workloads: inputs built from a seed, run through ``run()``.

Each workload is a list of *legs*: one :class:`~repro.scenario.scenario.Scenario`
plus the input it consumes.  A repetition runs every leg once through the
public :func:`repro.scenario.run.run` entry point.  The program only ever
sees the generated task list (or, for the streamed replay, the generated
stream source); everything here is built from ``generate_trace(
AzureTraceConfig(seed=...))`` by the benchmark itself.

``PREDICTED_PROFILE`` records, next to each definition, the share of
profiled host time the layers were expected to take when the workloads were
chosen (cProfile ``tottime`` grouped by module on a 2-CPU host).  The traced
run prints the measured self-time shares beside them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import PAPER_FIXED_TIME_LIMIT
from repro.scenario.run import RunResult
from repro.scenario.scenario import Scenario, Workload
from repro.scenario.workloads import register_stream_source
from repro.simulation.task import Task
from repro.workload import azure
from repro.workload.calibration import default_calibration_table
from repro.workload.extraction import ExtractionPipeline
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, items_to_tasks
from repro.workload.streaming import BucketStreamSource, StreamSpec

#: Seed whose simulated outputs are pinned in ``reference.json``.  It is the
#: trace generator's own default, which yields the paper's 10-minute trace
#: of 62,687 invocations.
DEFAULT_SEED = 42

#: Invocations of the streamed replay: the ROADMAP's 1M ``azure_day`` replay
#: cut to a length that can be repeated many times per check.
REPLAY_INVOCATIONS = 100_000

#: Registry name under which the replay's generated source is handed to the
#: program (streaming scenarios resolve their source through the registry).
REPLAY_SOURCE = "perfbench_replay"


@dataclass
class Leg:
    """One ``run()`` call of a repetition."""

    name: str
    scenario: Scenario
    #: Builds a fresh task list (tasks are mutated by a run); ``None`` for a
    #: streamed leg, whose source replays fresh tasks on every run.
    make_tasks: Optional[Callable[[], List[Task]]] = None


@dataclass
class Prepared:
    """A workload's legs plus the inputs its first repetition consumes."""

    legs: List[Leg]
    #: Invocations fed to each leg (the conservation check's left side).
    submitted: int
    _ready: Dict[str, List[Task]] = field(default_factory=dict)

    def build_inputs(self) -> None:
        """Materialise every leg's task list for the next repetition."""
        for leg in self.legs:
            if leg.make_tasks is not None:
                self._ready[leg.name] = leg.make_tasks()

    def take_inputs(self, leg: Leg) -> Optional[List[Task]]:
        """The leg's task list (``None`` for a streamed leg), used once."""
        return self._ready.pop(leg.name, None)


def _ten_minute_items(seed: int) -> list:
    trace = azure.generate_trace(azure.AzureTraceConfig(minutes=10, seed=seed))
    buckets = ExtractionPipeline(calibration=default_calibration_table()).run(trace)
    return WorkloadGenerator(buckets).generate_items(WorkloadSpec(minutes=10))


def setup_paper_node(seed: int) -> Prepared:
    """The paper's single-machine study: one trace, three schedulers."""
    items = _ten_minute_items(seed)

    def make_tasks() -> List[Task]:
        return items_to_tasks(items)

    hybrid_kwargs = {
        "fifo_cores": 25,
        "cfs_cores": 25,
        "time_limit": PAPER_FIXED_TIME_LIMIT,
    }
    legs = [
        Leg("fifo", Scenario(scheduler="fifo", num_cores=50), make_tasks),
        Leg("cfs", Scenario(scheduler="cfs", num_cores=50), make_tasks),
        Leg(
            "hybrid",
            Scenario(scheduler="hybrid", scheduler_kwargs=hybrid_kwargs, num_cores=50),
            make_tasks,
        ),
    ]
    prepared = Prepared(legs=legs, submitted=len(items))
    prepared.build_inputs()
    return prepared


def setup_fleet_replay(seed: int) -> Prepared:
    """A streamed ``azure_day``-shaped replay through a 16x8 JSQ fleet."""
    trace = azure.generate_trace(
        azure.AzureTraceConfig(num_functions=400, minutes=180, seed=seed)
    )
    buckets = ExtractionPipeline(calibration=default_calibration_table()).run(trace)
    source = BucketStreamSource(
        buckets, minutes=180, seed=seed, limit=REPLAY_INVOCATIONS
    )
    register_stream_source(
        REPLAY_SOURCE, lambda scale=1.0, seed=None: source, overwrite=True
    )
    scenario = Scenario(
        workload=Workload(REPLAY_SOURCE),
        num_nodes=16,
        cores_per_node=8,
        scheduler="fifo",
        dispatcher="jsq",
        seed=seed,
        stream=StreamSpec(chunk=8192, metrics_cap=50_000),
    )
    return Prepared(legs=[Leg("replay", scenario)], submitted=source.total_hint())


def setup_fleet_faults(seed: int) -> Prepared:
    """The 10-minute trace through an 8x16 fleet with every fleet feature on.

    Nodes run ``fifo`` because ``hybrid`` nodes crash on the first node
    failure (see README.md, "Known defect"); switch ``scheduler`` to
    ``hybrid`` (with the 25/25 kwargs above) once that is fixed.
    """
    items = _ten_minute_items(seed)

    def make_tasks() -> List[Task]:
        return items_to_tasks(items)

    scenario = Scenario(
        num_nodes=8,
        cores_per_node=16,
        scheduler="fifo",
        dispatcher="jsq",
        seed=seed,
        network={"rtt": 0.01},
        migration="work_stealing",
        migration_kwargs={"interval": 0.1, "checkpoint": True},
        autoscaler={"min_nodes": 8, "max_nodes": 12},
        chaos={
            "crash_rate": 0.01,
            "revocation_rate": 0.01,
            "warning": 1.0,
            "max_failures": 4,
        },
        # Caps tight enough that bursts are rejected or retried.
        middleware=[
            {"name": "admission", "params": {"max_queue_depth": 64}},
            {"name": "timeout_retry", "params": {"timeout": 1.0, "max_retries": 1}},
            "slo_tracker",
        ],
    )
    prepared = Prepared(
        legs=[Leg("faults", scenario, make_tasks)], submitted=len(items)
    )
    prepared.build_inputs()
    return prepared


SETUPS: Dict[str, Callable[[int], Prepared]] = {
    "paper_node": setup_paper_node,
    "fleet_replay": setup_fleet_replay,
    "fleet_faults": setup_fleet_faults,
}

#: Predicted share of profiled host time per layer (approximate; layers
#: not listed were expected near zero or unmeasured).  ``engine`` stands for
#: the single-machine event loop, ``cluster`` for the fleet loop.
PREDICTED_PROFILE: Dict[str, Dict[str, float]] = {
    "paper_node": {
        "cpu+engine+events+machine": 0.60,
        "hybrid": 0.09,
        "dispatchers": 0.0,
        "load_index": 0.0,
    },
    "fleet_replay": {
        "load_index": 0.11,
        "cluster": 0.09,
        "dispatchers": 0.06,
        "columns": 0.05,
    },
    "fleet_faults": {
        "node": 0.14,
        "cluster": 0.12,
    },
}


# --------------------------------------------------------------------------
# Simulated outputs
# --------------------------------------------------------------------------

#: Fingerprint fields pinned against ``reference.json`` at 1e-9.
REFERENCE_FIELDS = (
    "finished",
    "rejected",
    "lost",
    "migrated",
    "nodes_failed",
    "p50_execution",
    "p99_execution",
    "p50_response",
    "p99_response",
    "preemptions",
    "cost",
)


def fingerprint(outcome: RunResult, submitted: int) -> Dict[str, object]:
    """Simulated statistics of one ``run()`` (compared, never timed).

    ``lost`` is the work neither finished nor rejected when the run ended.
    ``columns_sha`` hashes every finished-task row, so two runs agree on it
    only when their outputs are bit-identical.
    """
    result = outcome.result
    summary = outcome.summary()
    columns = outcome.task_columns()
    rows = columns.data
    finished = len(columns)
    out: Dict[str, object] = {
        "submitted": submitted,
        "finished": finished,
        "rejected": 0,
        "migrated": 0,
        "nodes_failed": 0,
        "p50_execution": float(summary.p50_execution),
        "p99_execution": float(summary.p99_execution),
        "p50_response": float(summary.p50_response),
        "p99_response": float(summary.p99_response),
        "cost": float(outcome.cost.total),
        "events": int(result.events_processed),
        "rows_retained": len(rows),
        "columns_sha": hashlib.sha256(rows.tobytes()).hexdigest(),
    }
    if outcome.is_cluster:
        retry = result.middleware_stats.get("timeout_retry", {})
        out.update(
            rejected=int(result.tasks_rejected),
            migrated=int(result.tasks_migrated),
            nodes_failed=int(result.nodes_failed),
            preemptions=float(
                sum(r.total_preemptions() for r in result.node_results.values())
            ),
            retried=int(retry.get("retries", 0)),
            tasks_lost=int(result.tasks_lost),
            checkpointed=int(result.tasks_checkpointed),
            nodes_added=int(result.nodes_added),
            nodes_removed=int(result.nodes_removed),
        )
    else:
        out["preemptions"] = float(result.total_preemptions())
        if outcome.scenario.scheduler == "hybrid":
            hybrid = outcome.scheduler.stats()
            out["hybrid_to_cfs"] = int(hybrid["tasks_preempted_to_cfs"])
            out["hybrid_fifo_done"] = int(hybrid["tasks_completed_in_fifo"])
    if result.tasks:
        out["lost"] = sum(
            1
            for task in result.tasks
            if not task.is_finished and "rejected" not in task.metadata
        )
        out["fed"] = len(result.tasks)
    else:
        out["lost"] = int(result.tasks_submitted) - finished - int(out["rejected"])
        out["fed"] = int(result.tasks_submitted)
    return out


def conservation_errors(fp: Dict[str, object]) -> List[str]:
    """Violations of the accounting laws every run must satisfy."""
    errors = []
    if fp["fed"] != fp["submitted"]:
        errors.append(f"program saw {fp['fed']} tasks, benchmark fed {fp['submitted']}")
    if fp["submitted"] != fp["finished"] + fp["rejected"] + fp["lost"]:
        errors.append(
            f"submitted {fp['submitted']} != finished {fp['finished']} + "
            f"rejected {fp['rejected']} + lost {fp['lost']}"
        )
    if min(fp["finished"], fp["rejected"], fp["lost"]) < 0:
        errors.append("negative outcome count")
    return errors
