"""Dispatch-path middleware: unit, property, and equivalence tests.

Covers the PR's test-first contract:

* per-middleware units — token-bucket refill at exact sim-time boundaries,
  deterministic exponential backoff schedules, the shed-at-deadline edge
  where ``deadline == now``;
* the chain — ordered first-verdict-wins dispatch, hook-override pruning,
  stats keyed (and deduplicated) by name;
* registry + declarative specs — all five built-ins round-trip through
  ``Scenario`` JSON;
* cluster integration — rejected tasks never reach a node, retries through
  the ordinary event path complete exactly once even while work stealing is
  rescuing queues (the drain-rescue/retry double-landing regression), and
  an *empty* chain reproduces the pre-middleware golden metrics bit-for-bit;
* hypothesis properties — order invariance of commutative chains,
  exactly-once completion under retry + stealing, rejected-tasks-never-land.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from golden_scenarios import TOLERANCE, assert_close, load_golden
from repro.cluster import ClusterConfig, NodeSpec, simulate_cluster
from repro.cluster.autoscaler import ReactiveAutoscaler
from repro.cluster.config import NetworkSpec
from repro.cluster.simulator import ClusterSimulator
from repro.experiments.common import two_minute_workload
from repro.middleware import (
    AdmissionControlMiddleware,
    DeadlineShedMiddleware,
    Middleware,
    MiddlewareChain,
    MiddlewareSpec,
    RateLimitMiddleware,
    SLOTrackerMiddleware,
    TimeoutRetryMiddleware,
    TokenBucket,
    available_middlewares,
    create_middleware,
    register_middleware,
    reject,
)
from repro.scenario import Scenario
from repro.simulation.events import EventPriority
from repro.simulation.hooks import HOOKS
from repro.simulation.task import Task
from repro.telemetry import TelemetrySpec

SIM_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Workload strategy: small batches of (arrival, service) pairs.
task_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=3.0),
    ),
    min_size=1,
    max_size=25,
)


def build_tasks(specs):
    return [
        Task(task_id=i, arrival_time=round(a, 4), service_time=round(s, 4))
        for i, (a, s) in enumerate(specs)
    ]


def tiny_cluster_config(**overrides) -> ClusterConfig:
    defaults = dict(num_nodes=2, cores_per_node=1, scheduler="fifo")
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# --------------------------------------------------------------- token bucket


class TestTokenBucket:
    def test_starts_full_and_burst_caps_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert bucket.tokens == 3.0
        for _ in range(3):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        bucket.refill(1000.0)
        assert bucket.tokens == 3.0

    def test_refill_at_exact_sim_time_boundary(self):
        """A bucket refilled to exactly 1.0 token admits (epsilon slack)."""
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.25)  # only half a token back
        assert bucket.try_take(0.5)  # exactly one token at the boundary
        assert not bucket.try_take(0.5)

    def test_time_until_token_matches_refill(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_take(0.0)
        wait = bucket.time_until_token()
        assert math.isclose(wait, 0.25)
        assert bucket.try_take(0.0 + wait)

    def test_lazy_refill_never_rewinds(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(5.0)
        bucket.refill(2.0)  # out-of-order observation must not credit tokens
        assert bucket.tokens == 0.0


class TestRateLimitMiddleware:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            RateLimitMiddleware(rate=0.0)
        with pytest.raises(ValueError):
            RateLimitMiddleware(mode="drop")
        with pytest.raises(ValueError):
            RateLimitMiddleware(rate=10.0, burst=0.5)

    def test_default_burst_never_below_one(self):
        assert RateLimitMiddleware(rate=0.25).burst == 1.0
        assert RateLimitMiddleware(rate=8.0).burst == 8.0

    def test_delay_mode_completes_every_task(self):
        """Deferred tasks re-enter the chain and all eventually finish."""
        # Same function name: all ten invocations share one token bucket.
        tasks = [
            Task(task_id=i, arrival_time=0.0, service_time=0.05, name="fn")
            for i in range(10)
        ]
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(),
            middleware=[RateLimitMiddleware(rate=2.0, burst=1.0, mode="delay")],
        )
        assert len(result.finished_tasks) == 10
        assert result.tasks_rejected == 0
        stats = result.middleware_stats["rate_limit"]
        assert stats["throttled"] > 0  # the limiter actually engaged

    def test_shed_mode_rejects_over_rate_arrivals(self):
        tasks = [
            Task(task_id=i, arrival_time=0.0, service_time=0.05, name="fn")
            for i in range(10)
        ]
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(),
            middleware=[RateLimitMiddleware(rate=2.0, burst=2.0, mode="shed")],
        )
        assert result.tasks_rejected == 8  # burst of 2, nine simultaneous
        assert len(result.finished_tasks) == 2


# -------------------------------------------------------------------- retry


class TestTimeoutRetry:
    def test_backoff_schedule_is_deterministic(self):
        mw = TimeoutRetryMiddleware(timeout=5.0, backoff=0.5, backoff_factor=2.0)
        assert [mw.backoff_delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            TimeoutRetryMiddleware(timeout=0.0)
        with pytest.raises(ValueError):
            TimeoutRetryMiddleware(max_retries=-1)
        with pytest.raises(ValueError):
            TimeoutRetryMiddleware(backoff_factor=0.5)

    def test_retry_rejoins_through_event_path(self):
        """A queued-too-long task is pulled, backed off, and still finishes."""
        # One-core node: the 0.05s tasks queue behind a 2s head-of-line task.
        tasks = build_tasks([(0.0, 2.0), (0.0, 0.4), (0.0, 0.4)])
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(num_nodes=1),
            middleware=[
                TimeoutRetryMiddleware(timeout=0.5, max_retries=2, backoff=0.1)
            ],
        )
        assert len(result.finished_tasks) == 3
        stats = result.middleware_stats["timeout_retry"]
        assert stats["retries"] > 0
        retried = [t for t in result.tasks if "retries" in t.metadata]
        assert retried, "some task should carry retry metadata"
        # Conservation: every task completed exactly once despite re-entries.
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == len(result.finished_tasks)

    def test_same_seed_runs_identical_under_retry(self):
        def run_once():
            tasks = build_tasks([(0.0, 2.0), (0.0, 0.4), (0.1, 0.4), (0.2, 0.3)])
            result = simulate_cluster(
                tasks,
                config=tiny_cluster_config(),
                middleware=[
                    TimeoutRetryMiddleware(timeout=0.3, max_retries=3, backoff=0.2)
                ],
            )
            return (
                [(t.task_id, t.completion_time) for t in result.finished_tasks],
                result.middleware_stats,
            )

        assert run_once() == run_once()


# ------------------------------------------------------------------ shedding


class TestDeadlineShed:
    def _task(self, deadline=None, arrival=0.0, service=1.0):
        return Task(
            task_id=0, arrival_time=arrival, service_time=service, deadline=deadline
        )

    def test_deadline_equal_to_now_sheds(self):
        """The hard edge: a deadline of exactly ``now`` cannot be met."""
        mw = DeadlineShedMiddleware()
        assert mw.on_dispatch(self._task(deadline=5.0), 5.0) == reject(mw.name)
        assert mw.shed == 1

    def test_future_deadline_admits(self):
        mw = DeadlineShedMiddleware()
        assert mw.on_dispatch(self._task(deadline=5.1), 5.0) is None
        assert mw.admitted == 1

    def test_margin_moves_the_edge(self):
        mw = DeadlineShedMiddleware(margin=1.0)
        assert mw.on_dispatch(self._task(deadline=5.5), 5.0) is not None
        assert mw.on_dispatch(self._task(deadline=6.5), 5.0) is None

    def test_relative_deadline_written_back(self):
        mw = DeadlineShedMiddleware(relative_deadline=10.0)
        task = self._task(arrival=2.0)
        assert mw.on_dispatch(task, 2.0) is None
        assert task.deadline == 12.0

    def test_no_deadline_no_relative_admits(self):
        mw = DeadlineShedMiddleware()
        assert mw.on_dispatch(self._task(), 100.0) is None

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            DeadlineShedMiddleware(margin=-1.0)
        with pytest.raises(ValueError):
            DeadlineShedMiddleware(relative_deadline=0.0)


# ---------------------------------------------------------------- slo tracker


class TestSLOTracker:
    def test_attainment_counts_rejections_as_misses(self):
        tasks = build_tasks([(0.0, 0.1)] * 6)
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(),
            middleware=[
                AdmissionControlMiddleware(max_queue_depth=1),
                SLOTrackerMiddleware(target=60.0),
            ],
        )
        stats = result.middleware_stats["slo_tracker"]
        assert stats["rejected"] == result.tasks_rejected > 0
        total = stats["attained"] + stats["missed"] + stats["rejected"]
        assert total == len(tasks)
        assert math.isclose(stats["attainment"], stats["attained"] / total)

    def test_empty_run_attains_trivially(self):
        assert SLOTrackerMiddleware().attainment() == 1.0

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            SLOTrackerMiddleware(target=0.0)
        with pytest.raises(ValueError):
            SLOTrackerMiddleware(metric="latency")


# ------------------------------------------------------------ chain semantics


class _Tag(Middleware):
    """Test middleware recording hook calls; optionally vetoing dispatch."""

    def __init__(self, name, verdict=None, log=None):
        self.name = name
        self.verdict = verdict
        self.log = log if log is not None else []

    def on_dispatch(self, task, now):
        self.log.append((self.name, task.task_id))
        return self.verdict


class TestMiddlewareChain:
    def test_first_verdict_wins_in_order(self):
        log = []
        first = _Tag("first", verdict=reject("first"), log=log)
        second = _Tag("second", verdict=reject("second"), log=log)
        chain = MiddlewareChain([first, second])
        task = Task(task_id=7, arrival_time=0.0, service_time=1.0)
        assert chain.on_dispatch(task, 0.0) == reject("first")
        # The losing middleware never saw the task.
        assert log == [("first", 7)]

    def test_non_middleware_entries_rejected(self):
        with pytest.raises(TypeError):
            MiddlewareChain([object()])

    def test_hook_pruning_skips_base_noops(self):
        # Admission only overrides dispatch: the chain subscribes no landing.
        cluster = ClusterSimulator(
            tiny_cluster_config(), middleware=[AdmissionControlMiddleware()]
        )
        assert cluster.hooks.task_landed == ()
        cluster = ClusterSimulator(
            tiny_cluster_config(), middleware=[TimeoutRetryMiddleware()]
        )
        assert cluster.hooks.task_landed == (cluster._middleware.on_land,)

    def test_no_observer_leaves_every_hook_empty(self):
        """With no observer (no telemetry, no middleware) every task hook
        stays empty; the node- and run-level hooks hold exactly the fleet
        features that wired themselves onto them, in attach order."""
        autoscaler = ReactiveAutoscaler()
        cluster = ClusterSimulator(
            tiny_cluster_config(
                network=NetworkSpec(rtt=0.01), migration="work_stealing"
            ),
            autoscaler=autoscaler,
            chaos={"crash_rate": 0.5},
        )
        cluster.submit(build_tasks([(0.1 * i, 0.5) for i in range(20)]))
        result = cluster.run()
        assert result.finished_count == 20
        policy, chaos = cluster.migration_policy, cluster._chaos
        subscribers = {
            "run_started": (autoscaler._start, policy._start),
            "node_changed": (policy._on_node_changed, chaos._on_node_changed),
            "node_failed": (autoscaler.on_node_failure,),
        }
        for name in HOOKS:
            if name.startswith("task_"):
                assert getattr(cluster.hooks, name) == (), name
            else:
                assert getattr(cluster.hooks, name) == subscribers.get(name, ()), name

    def test_stats_deduplicate_names(self):
        chain = MiddlewareChain(
            [
                AdmissionControlMiddleware(max_queue_depth=4),
                AdmissionControlMiddleware(max_queue_depth=8),
            ]
        )
        stats = chain.stats()
        assert set(stats) == {"admission", "admission#1"}
        assert stats["admission"]["max_queue_depth"] == 4.0
        assert stats["admission#1"]["max_queue_depth"] == 8.0

    def test_prebuilt_chain_serves_one_cluster(self):
        chain = MiddlewareChain([AdmissionControlMiddleware()])
        ClusterSimulator(tiny_cluster_config(), middleware=chain)
        with pytest.raises(ValueError, match="MiddlewareChain"):
            ClusterSimulator(tiny_cluster_config(), middleware=chain)

    def test_middleware_instance_serves_one_cluster(self):
        """Listing one instance on a second cluster must not rebind it: the
        first cluster's admission would then read the second fleet."""
        admission = AdmissionControlMiddleware(max_queue_depth=1)
        config = tiny_cluster_config(num_nodes=1)
        first = ClusterSimulator(config, middleware=[admission])
        with pytest.raises(ValueError, match="AdmissionControlMiddleware"):
            ClusterSimulator(config, middleware=[admission])
        first.submit(build_tasks([(0.0, 2.0)] * 6))
        assert first.run().tasks_rejected == 4

    def test_empty_chain_collapses_to_no_middleware(self):
        tasks = build_tasks([(0.0, 0.1)])
        result = simulate_cluster(
            tasks, config=tiny_cluster_config(), middleware=[]
        )
        assert result.middleware_names == []
        assert result.middleware_stats == {}


# --------------------------------------------------------- registry and specs


class TestRegistryAndSpecs:
    def test_builtins_registered(self):
        assert available_middlewares() == [
            "admission",
            "deadline_shed",
            "rate_limit",
            "slo_tracker",
            "timeout_retry",
        ]

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError):
            register_middleware("admission", AdmissionControlMiddleware)

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(KeyError, match="admission"):
            create_middleware("nope")

    def test_create_passes_kwargs(self):
        mw = create_middleware("rate_limit", rate=7.0, mode="delay")
        assert isinstance(mw, RateLimitMiddleware)
        assert mw.rate == 7.0 and mw.mode == "delay"

    def test_spec_coercion(self):
        assert MiddlewareSpec.coerce("admission") == MiddlewareSpec("admission")
        spec = MiddlewareSpec.coerce({"name": "rate_limit", "params": {"rate": 5}})
        assert spec.params == {"rate": 5}
        assert MiddlewareSpec.coerce(spec) is spec
        with pytest.raises(TypeError):
            MiddlewareSpec.coerce(42)

    def test_spec_build_and_roundtrip(self):
        spec = MiddlewareSpec("deadline_shed", {"relative_deadline": 30.0})
        mw = spec.build()
        assert isinstance(mw, DeadlineShedMiddleware)
        assert mw.relative_deadline == 30.0
        assert MiddlewareSpec.from_dict(spec.to_dict()) == spec
        assert MiddlewareSpec("admission").to_dict() == {"name": "admission"}

    def test_all_five_round_trip_through_scenario_json(self):
        scenario = Scenario(
            num_nodes=2,
            cores_per_node=2,
            middleware=(
                {"name": "admission", "params": {"max_queue_depth": 256}},
                {"name": "rate_limit", "params": {"rate": 50, "mode": "delay"}},
                {"name": "timeout_retry", "params": {"timeout": 5}},
                {"name": "deadline_shed", "params": {"relative_deadline": 30}},
                "slo_tracker",
            ),
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert [spec.name for spec in restored.middleware] == [
            "admission",
            "rate_limit",
            "timeout_retry",
            "deadline_shed",
            "slo_tracker",
        ]
        # The declarative chain builds real instances through the config.
        config = restored.build_cluster_config()
        chain = MiddlewareChain([spec.build() for spec in config.middleware])
        assert chain.names() == [spec.name for spec in restored.middleware]

    def test_single_machine_scenario_rejects_middleware(self):
        with pytest.raises(ValueError, match="middleware"):
            Scenario(middleware=("admission",))

    def test_config_with_middleware_helper(self):
        config = tiny_cluster_config().with_middleware(
            "admission", {"name": "slo_tracker", "params": {"target": 2.0}}
        )
        assert [spec.name for spec in config.middleware] == [
            "admission",
            "slo_tracker",
        ]


# -------------------------------------------------------- cluster integration


class TestClusterIntegration:
    def test_rejected_tasks_never_reach_a_node(self):
        tasks = build_tasks([(0.0, 0.5)] * 8)
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(),
            middleware=[AdmissionControlMiddleware(max_queue_depth=1)],
        )
        rejected = result.rejected_tasks()
        assert result.tasks_rejected == len(rejected) > 0
        for task in rejected:
            assert task.metadata["rejected"] == "admission"
            assert task.node_id is None
            assert not task.is_finished
        assert len(result.finished_tasks) + len(rejected) == len(tasks)

    def test_describe_reports_the_chain(self):
        tasks = build_tasks([(0.0, 0.1)] * 4)
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(),
            middleware=[
                AdmissionControlMiddleware(max_queue_depth=1),
                SLOTrackerMiddleware(target=5.0),
            ],
        )
        assert result.middleware_names == ["admission", "slo_tracker"]
        assert "admission -> slo_tracker" in result.describe()

    def test_config_specs_build_the_chain(self):
        tasks = build_tasks([(0.0, 0.1)] * 4)
        config = tiny_cluster_config(
            middleware=({"name": "admission", "params": {"max_queue_depth": 1}},)
        )
        result = simulate_cluster(tasks, config=config)
        assert result.middleware_names == ["admission"]
        assert result.tasks_rejected > 0

    def test_middleware_telemetry_emission(self):
        """Rejections emit instants, retries backoff spans, SLO a gauge."""
        tasks = build_tasks([(0.0, 2.0), (0.0, 0.3), (0.0, 0.3), (0.0, 0.3)])
        result = simulate_cluster(
            tasks,
            config=tiny_cluster_config(num_nodes=1),
            middleware=[
                AdmissionControlMiddleware(max_queue_depth=2),
                TimeoutRetryMiddleware(timeout=0.4, max_retries=2, backoff=0.2),
                SLOTrackerMiddleware(target=1.0),
            ],
            telemetry=TelemetrySpec(trace=True, sample_interval=0.5),
        )
        snapshot = result.telemetry
        names = {event[0] for event in snapshot.instants}
        assert "reject:admission" in names
        span_names = {span[0] for span in snapshot.spans}
        assert "backoff" in span_names
        assert "middleware.slo_attainment" in result.series
        assert result.telemetry.counters["middleware.retry.timeouts"] > 0
        assert result.telemetry.counters["middleware.rejected.admission"] > 0

    def test_retry_and_drain_rescue_cannot_double_land(self):
        """Regression: a task stolen mid-backoff-window must not also retry.

        Node 0 runs A and queues C; node 1 runs B.  At t=0.8 node 0 drains,
        so work stealing puts C on the wire to node 1 (landing t=1.3).  C's
        retry timer (armed at t=0, timeout 1.0) fires at t=1.0 while C is
        in flight: the release must fail — C is in no queue — and the retry
        must be dropped, otherwise C would land twice.
        """
        tasks = [
            Task(task_id=0, arrival_time=0.0, service_time=2.0),  # A -> node 0
            Task(task_id=1, arrival_time=0.0, service_time=2.0),  # B -> node 1
            Task(task_id=2, arrival_time=0.0, service_time=0.5),  # C queues on 0
        ]
        from repro.cluster.simulator import ClusterSimulator

        cluster = ClusterSimulator(
            config=tiny_cluster_config(
                dispatcher="round_robin",
                migration="work_stealing",
                migration_kwargs={"interval": 10.0, "delay": 0.5},
            ),
            middleware=[
                TimeoutRetryMiddleware(timeout=1.0, max_retries=3, backoff=0.1)
            ],
        )
        cluster.submit(tasks)
        cluster.events.push(
            0.8,
            lambda: cluster.drain_node(cluster.nodes[0]),
            priority=EventPriority.CONTROL,
            tag="test-drain",
        )
        result = cluster.run()
        c = result.tasks[2]
        assert c.is_finished
        assert "retries" not in c.metadata  # the in-flight retry was dropped
        assert result.middleware_stats["timeout_retry"]["retries"] == 0
        # Exactly-once landing: one steal, counted once, every task done once.
        assert result.tasks_migrated == 1
        stolen_in = sum(s["stolen_in"] for s in result.node_stats.values())
        assert stolen_in == result.tasks_migrated
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == len(result.finished_tasks) == 3


# ----------------------------------------------------------------- properties


def _run_chain(specs, middleware, migration=None):
    config = tiny_cluster_config(
        migration=migration,
        migration_kwargs={"delay": 0.05} if migration else {},
    )
    return simulate_cluster(build_tasks(specs), config=config, middleware=middleware)


@SIM_SETTINGS
@given(specs=task_specs)
def test_commutative_chain_order_invariance(specs):
    """Admission and pure observation commute: order cannot change the run."""
    forward = _run_chain(
        specs,
        [AdmissionControlMiddleware(max_queue_depth=3), SLOTrackerMiddleware()],
    )
    reverse = _run_chain(
        specs,
        [SLOTrackerMiddleware(), AdmissionControlMiddleware(max_queue_depth=3)],
    )
    fwd = sorted((t.task_id, t.completion_time) for t in forward.finished_tasks)
    rev = sorted((t.task_id, t.completion_time) for t in reverse.finished_tasks)
    assert fwd == rev
    assert {t.task_id for t in forward.rejected_tasks()} == {
        t.task_id for t in reverse.rejected_tasks()
    }


@SIM_SETTINGS
@given(specs=task_specs)
def test_exactly_once_completion_under_retry_and_stealing(specs):
    """Aggressive retries + work stealing still complete every task once."""
    result = _run_chain(
        specs,
        [TimeoutRetryMiddleware(timeout=0.25, max_retries=3, backoff=0.1)],
        migration="work_stealing",
    )
    assert len(result.finished_tasks) == len(specs)
    completed = sum(s["completed"] for s in result.node_stats.values())
    assert completed == len(specs)
    # The migration invariant is untouched by retry releases.
    stolen_in = sum(s["stolen_in"] for s in result.node_stats.values())
    assert stolen_in == result.tasks_migrated


@SIM_SETTINGS
@given(specs=task_specs)
def test_exactly_once_under_chaos_retry_and_stealing(specs):
    """Seeded node failures composed with retries and stealing still deliver
    every task exactly once, and the loss bookkeeping balances."""
    from repro.chaos import ChaosSpec

    config = tiny_cluster_config(
        num_nodes=3,
        migration="work_stealing",
        migration_kwargs={"delay": 0.05},
        chaos=ChaosSpec(crash_rate=0.4, max_failures=2),
    )
    result = simulate_cluster(
        build_tasks(specs),
        config=config,
        middleware=[TimeoutRetryMiddleware(timeout=0.25, max_retries=3, backoff=0.1)],
    )
    assert len(result.finished_tasks) == len(specs)
    completed = sum(s["completed"] for s in result.node_stats.values())
    assert completed == len(specs)
    stolen_in = sum(s["stolen_in"] for s in result.node_stats.values())
    assert stolen_in == result.tasks_migrated
    # Every loss is attributed to a task's metadata, and vice versa.
    assert result.tasks_lost == sum(
        t.metadata.get("node_failures", 0) for t in result.tasks
    )


@SIM_SETTINGS
@given(specs=task_specs)
def test_rejected_tasks_never_land(specs):
    result = _run_chain(specs, [AdmissionControlMiddleware(max_queue_depth=1)])
    for task in result.rejected_tasks():
        assert task.node_id is None
        assert task.first_run_time is None
    assert len(result.finished_tasks) + result.tasks_rejected == len(specs)


# ------------------------------------------------------------------- golden


def test_empty_chain_matches_pre_middleware_golden():
    """A cluster built with ``middleware=[]`` reproduces the golden metrics
    captured before the middleware subsystem existed, within 1e-9."""
    config = ClusterConfig(
        node_specs=(
            NodeSpec(cores=24, count=2, label="big"),
            NodeSpec(cores=8, count=4, label="little"),
        ),
        scheduler="fifo",
        dispatcher="jsq",
        migration="work_stealing",
        middleware=(),
    )
    from repro.simulation.metrics import TaskMetricsSummary

    result = simulate_cluster(
        two_minute_workload(0.1), config=config, middleware=[]
    )
    observed = {
        f"{key}": float(value)
        for key, value in TaskMetricsSummary.from_tasks(result.tasks).as_dict().items()
    }
    observed["tasks_migrated"] = float(result.tasks_migrated)
    observed["simulated_time"] = float(result.simulated_time)
    for node_id, stats in sorted(result.node_stats.items()):
        observed[f"node{node_id}.assigned"] = float(stats["assigned"])
        observed[f"node{node_id}.completed"] = float(stats["completed"])
        observed[f"node{node_id}.stolen_in"] = float(stats["stolen_in"])
        observed[f"node{node_id}.stolen_away"] = float(stats["stolen_away"])
    golden = load_golden()["hetero_cluster_stealing"]
    assert_close("hetero_cluster_stealing (middleware=[])", golden, observed)


def test_golden_tolerance_is_the_contract():
    assert TOLERANCE == 1e-9
