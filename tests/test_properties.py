"""Property-based tests (hypothesis) for core invariants of the substrate.

These check the invariants every figure implicitly relies on:

* conservation of work — no scheduler can finish a task with less CPU time
  than its service demand, and FIFO bills exactly the service demand;
* metric identities — turnaround = response + execution, all non-negative;
* work conservation of the simulator — a busy core never idles while work is
  queued under a work-conserving policy (checked via makespan bounds);
* adaptive-limit bounds — the sliding-window percentile always lies between
  the window's minimum and maximum;
* cost monotonicity — more memory or more billed time never costs less.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.time_limit import AdaptivePercentileTimeLimit
from repro.cost.pricing import price_per_ms
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.srtf import SRTFScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.context_switch import ContextSwitchModel
from repro.simulation.engine import simulate
from repro.simulation.task import Task

# Workload strategy: small batches of (arrival, service) pairs.
task_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=3.0),
    ),
    min_size=1,
    max_size=25,
)

SIM_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_tasks(specs):
    return [
        Task(task_id=i, arrival_time=round(a, 4), service_time=round(s, 4))
        for i, (a, s) in enumerate(specs)
    ]


def run(scheduler, specs, cores=2):
    config = SimulationConfig(num_cores=cores, record_utilization=False)
    return simulate(scheduler, build_tasks(specs), config=config)


@given(specs=task_specs, cores=st.integers(min_value=1, max_value=4))
@SIM_SETTINGS
def test_fifo_execution_equals_service_and_everything_finishes(specs, cores):
    result = run(FIFOScheduler(), specs, cores)
    assert result.completion_ratio == 1.0
    for task in result.finished_tasks:
        assert task.execution_time is not None
        assert math.isclose(task.execution_time, task.service_time, rel_tol=1e-6)
        assert task.preemptions == 0


@given(specs=task_specs, cores=st.integers(min_value=1, max_value=4))
@SIM_SETTINGS
def test_metric_identities_hold_for_cfs(specs, cores):
    result = run(CFSScheduler(), specs, cores)
    assert result.completion_ratio == 1.0
    for task in result.finished_tasks:
        assert task.response_time >= -1e-9
        assert task.execution_time >= task.service_time - 1e-6
        assert math.isclose(
            task.turnaround_time,
            task.response_time + task.execution_time,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        # Received CPU time can never be less than the demand at completion.
        assert task.cpu_time_received >= task.service_time - 1e-6


@given(specs=task_specs)
@SIM_SETTINGS
def test_srtf_conserves_work(specs):
    result = run(SRTFScheduler(), specs, cores=2)
    assert result.completion_ratio == 1.0
    total_service = sum(t.service_time for t in result.finished_tasks)
    total_received = sum(t.cpu_time_received for t in result.finished_tasks)
    # Migration charges may add a little work, but never remove any.
    assert total_received >= total_service - 1e-6


@given(specs=task_specs, cores=st.integers(min_value=1, max_value=4))
@SIM_SETTINGS
def test_makespan_bounded_by_serial_and_ideal_parallel_work(specs, cores):
    result = run(FIFOScheduler(), specs, cores)
    total_service = sum(t.service_time for t in result.finished_tasks)
    last_arrival = max(t.arrival_time for t in result.finished_tasks)
    makespan = max(t.completion_time for t in result.finished_tasks)
    # Work conservation: never slower than running everything serially after
    # the last arrival, never faster than perfect parallelism.
    assert makespan <= last_arrival + total_service + 1e-6
    assert makespan >= total_service / cores - 1e-6


@given(
    durations=st.lists(
        st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=300
    ),
    percentile=st.floats(min_value=1.0, max_value=100.0),
    window=st.integers(min_value=1, max_value=150),
)
def test_adaptive_limit_bounded_by_window_extremes(durations, percentile, window):
    policy = AdaptivePercentileTimeLimit(
        percentile=percentile, window=window, min_observations=1, min_limit=1e-9
    )
    for i, duration in enumerate(durations):
        policy.observe(duration, now=float(i))
    recent = durations[-window:]
    limit = policy.current()
    assert min(recent) - 1e-9 <= limit <= max(recent) + 1e-9


@given(
    memory=st.integers(min_value=64, max_value=10240),
    factor=st.floats(min_value=1.0, max_value=8.0),
)
def test_price_monotone_in_memory(memory, factor):
    assert price_per_ms(memory * factor) >= price_per_ms(memory)


@given(
    nr_running=st.integers(min_value=1, max_value=500),
    switch_cost=st.floats(min_value=0.0, max_value=0.001),
)
def test_context_switch_efficiency_bounded(nr_running, switch_cost):
    model = ContextSwitchModel(switch_cost=switch_cost)
    efficiency = model.efficiency(nr_running)
    assert 0.0 < efficiency <= 1.0
    if nr_running > 1 and switch_cost > 1e-9:
        assert efficiency < 1.0


# ---------------------------------------------------------------------------
# Cluster invariants: dispatch + work stealing on heterogeneous fleets
# ---------------------------------------------------------------------------

from repro.cluster import ClusterConfig, NodeSpec, simulate_cluster  # noqa: E402
from repro.cluster.dispatchers import function_key  # noqa: E402
from repro.cluster.migration import WorkStealingPolicy  # noqa: E402


def _cluster_signature(result):
    return [
        (t.task_id, t.completion_time, t.first_run_time,
         t.node_id, t.metadata.get("node_migrations", 0))
        for t in result.tasks
    ]


@given(
    specs=task_specs,
    seed=st.integers(min_value=0, max_value=2**16),
    dispatcher=st.sampled_from(
        ["random", "round_robin", "least_loaded", "jsq", "power_of_two",
         "consistent_hash"]
    ),
)
@SIM_SETTINGS
def test_cluster_runs_are_bit_identical_and_exactly_once(specs, seed, dispatcher):
    """Same seed + same workload ⇒ identical runs; every task finishes once."""
    config = ClusterConfig(
        node_specs=(NodeSpec(cores=2), NodeSpec(cores=1, speed_factor=2.0)),
        scheduler="fifo",
        dispatcher=dispatcher,
        migration="work_stealing",
        migration_kwargs={"interval": 0.1, "delay": 0.001},
        seed=seed,
    )
    first = simulate_cluster(build_tasks(specs), config=config)
    second = simulate_cluster(build_tasks(specs), config=config)
    assert _cluster_signature(first) == _cluster_signature(second)
    assert first.completion_ratio == 1.0
    finished_ids = sorted(
        t.task_id
        for node_result in first.node_results.values()
        for t in node_result.finished_tasks
    )
    # Exactly once: the per-node results partition the task set.
    assert finished_ids == sorted(t.task_id for t in first.tasks)


@given(specs=task_specs)
@SIM_SETTINGS
def test_function_key_unique_for_anonymous_tasks(specs):
    """Tasks with no function id and no name never share a routing key."""
    tasks = build_tasks(specs)
    for task in tasks:
        task.metadata["function_id"] = ""  # present but empty: must not collide
    keys = [function_key(t) for t in tasks]
    assert len(set(keys)) == len(tasks)


@given(
    queued=st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=6),
    idle=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=6),
)
@SIM_SETTINGS
def test_work_stealing_plan_invariants(queued, idle):
    """Plans only move queued tasks, never the same task twice, within caps."""
    from test_migration import StubNode

    nodes = [
        StubNode(i, queued=q, idle=j)
        for i, (q, j) in enumerate(zip(queued, idle))
    ]
    policy = WorkStealingPolicy(max_steals_per_tick=8)
    plans = policy.plan(nodes, now=0.0)
    assert len(plans) <= 8
    moved = [p.task.task_id for p in plans]
    assert len(moved) == len(set(moved))
    total_appetite = sum(j for j in idle)
    assert len(plans) <= total_appetite
    for plan in plans:
        assert plan.target.is_active
        assert plan.task.first_run_time is None


@given(loads=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_cfs_balance_pick_matches_max_and_min(loads):
    """The one-pass busiest/idlest pick keeps max/min's first-wins tie-break."""
    from repro.schedulers.cfs import busiest_and_idlest
    from repro.simulation.cpu import Core

    cores = []
    task_id = 0
    for core_id, running in enumerate(loads):
        core = Core(core_id=core_id, group="all")
        for _ in range(running):
            task = Task(task_id=task_id, arrival_time=0.0, service_time=1.0)
            core.add_task(task, 0.0)
            task_id += 1
        cores.append(core)
    busiest, idlest = busiest_and_idlest(cores)
    assert busiest is max(cores, key=lambda c: c.nr_running)
    assert idlest is min(cores, key=lambda c: c.nr_running)
