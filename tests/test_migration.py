"""Work-stealing migration: policy planning, simulator integration, delays."""

from bisect import bisect_right

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    Migration,
    MigrationPolicy,
    NodeSpec,
    WorkStealingPolicy,
    simulate_cluster,
)
from repro.cluster.node import NodeState
from repro.schedulers.edf import EDFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.sjf import SJFScheduler
from repro.schedulers.srtf import SRTFScheduler
from repro.simulation.task import Task, make_tasks


def pinned_tasks(specs, function_id="same-fn"):
    """Tasks that consistent hashing routes to one node (a hot spot)."""
    tasks = make_tasks(specs)
    for task in tasks:
        task.metadata["function_id"] = function_id
    return tasks


def hot_spot_config(**overrides) -> ClusterConfig:
    """Two 1-core nodes; consistent hashing pins every task to one of them."""
    defaults = dict(
        num_nodes=2,
        cores_per_node=1,
        scheduler="fifo",
        dispatcher="consistent_hash",
        migration="work_stealing",
        migration_kwargs={"interval": 0.05, "delay": 0.001},
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class StubNode:
    """Minimal stand-in exposing the surface the migration policy reads."""

    def __init__(self, node_id, queued=0, idle=0, capacity=1.0,
                 state=NodeState.ACTIVE, inflight=None):
        self.node_id = node_id
        self.state = state
        self.capacity = capacity
        self.inflight = queued if inflight is None else inflight
        self._idle = idle
        self.stealable_calls = 0
        self._queued = [
            Task(task_id=node_id * 1000 + i, arrival_time=0.0, service_time=1.0)
            for i in range(queued)
        ]

    @property
    def is_active(self):
        return self.state is NodeState.ACTIVE

    def stealable_tasks(self):
        self.stealable_calls += 1
        return list(self._queued)

    def stealable_count(self):
        return len(self._queued)

    def idle_core_count(self):
        return self._idle


class TestPolicyValidation:
    def test_interval_and_delay_validated(self):
        with pytest.raises(ValueError):
            WorkStealingPolicy(interval=0.0)
        with pytest.raises(ValueError):
            WorkStealingPolicy(delay=-1.0)
        with pytest.raises(ValueError):
            WorkStealingPolicy(min_backlog=-0.1)
        with pytest.raises(ValueError):
            WorkStealingPolicy(max_steals_per_tick=0)

    def test_config_migration_validation(self):
        with pytest.raises(KeyError):
            ClusterSimulator(config=ClusterConfig(migration="definitely-not-real"))


class TestWorkStealingPlan:
    def test_idle_node_steals_from_deep_backlog(self):
        policy = WorkStealingPolicy()
        hot = StubNode(0, queued=6, idle=0)
        cool = StubNode(1, queued=0, idle=2)
        plans = policy.plan([hot, cool], now=0.0)
        assert len(plans) == 2  # one per idle core
        assert all(p.source is hot and p.target is cool for p in plans)

    def test_steals_the_tail_preserving_head_of_line(self):
        policy = WorkStealingPolicy()
        hot = StubNode(0, queued=3, idle=0)
        cool = StubNode(1, queued=0, idle=1)
        plans = policy.plan([hot, cool], now=0.0)
        assert len(plans) == 1
        assert plans[0].task is hot.stealable_tasks()[-1]

    def test_no_idle_cores_no_steals(self):
        policy = WorkStealingPolicy()
        nodes = [StubNode(0, queued=9, idle=0), StubNode(1, queued=1, idle=0)]
        assert policy.plan(nodes, now=0.0) == []

    def test_no_backlog_no_steals(self):
        policy = WorkStealingPolicy()
        nodes = [StubNode(0, queued=0, idle=2), StubNode(1, queued=0, idle=2)]
        assert policy.plan(nodes, now=0.0) == []

    @pytest.mark.parametrize(
        "queued, idle",
        [((9, 1), (0, 0)), ((0, 0), (2, 2))],
        ids=["no-appetite", "no-backlog"],
    )
    def test_idle_tick_copies_no_queue(self, queued, idle):
        """With no draining node, a tick lacking idle cores or a backlog
        returns before building any node's stealable list."""
        policy = WorkStealingPolicy(checkpoint=True)
        nodes = [StubNode(i, queued=q, idle=n) for i, (q, n) in enumerate(zip(queued, idle))]
        nodes.append(StubNode(2, queued=3, idle=1, state=NodeState.RETIRED))
        assert policy.plan(nodes, now=0.0) == []
        assert [node.stealable_calls for node in nodes] == [0, 0, 0]

    def test_capacity_normalisation_picks_hottest_victim(self):
        """4 queued on capacity 8 (0.5) is cooler than 3 queued on capacity 2."""
        policy = WorkStealingPolicy()
        big = StubNode(0, queued=4, idle=0, capacity=8.0)
        little = StubNode(1, queued=3, idle=0, capacity=2.0)
        cool = StubNode(2, queued=0, idle=1, capacity=2.0)
        plans = policy.plan([big, little, cool], now=0.0)
        assert len(plans) == 1
        assert plans[0].source is little

    def test_victim_with_idle_cores_does_not_block_other_thieves(self):
        """A non-work-conserving node-like that is both hungriest and hottest
        must not stall the pass: other idle nodes still steal from it."""
        policy = WorkStealingPolicy()
        weird = StubNode(0, queued=12, idle=4)  # backlog *and* idle cores
        cool = StubNode(1, queued=0, idle=1)
        plans = policy.plan([weird, cool], now=0.0)
        assert len(plans) == 1
        assert plans[0].source is weird and plans[0].target is cool

    def test_max_steals_per_tick_caps_the_pass(self):
        policy = WorkStealingPolicy(max_steals_per_tick=3)
        hot = StubNode(0, queued=50, idle=0)
        cool = StubNode(1, queued=0, idle=10)
        assert len(policy.plan([hot, cool], now=0.0)) == 3

    def test_draining_node_is_emptied_regardless_of_appetite(self):
        policy = WorkStealingPolicy()
        draining = StubNode(0, queued=4, idle=0, state=NodeState.DRAINING)
        busy = StubNode(1, queued=0, idle=0)  # no idle cores at all
        plans = policy.plan([draining, busy], now=0.0)
        assert len(plans) == 4
        assert all(p.source is draining and p.target is busy for p in plans)

    def test_drain_rescue_prefers_idle_over_saturated_nodes(self):
        """An empty queue on a saturated node must not beat a truly idle one."""
        policy = WorkStealingPolicy()
        saturated = StubNode(0, queued=0, idle=0, inflight=5, capacity=5.0)
        idle = StubNode(1, queued=0, idle=2, inflight=0, capacity=5.0)
        draining = StubNode(2, queued=3, idle=0, state=NodeState.DRAINING)
        plans = policy.plan([saturated, idle, draining], now=0.0)
        assert len(plans) == 3
        assert all(p.target is idle for p in plans)

    def test_drain_rescue_consumes_phase_two_appetite(self):
        """Rescue tasks fill a thief's idle cores; phase 2 must not over-top."""
        policy = WorkStealingPolicy()
        thief = StubNode(0, queued=0, idle=2, inflight=0)
        hot = StubNode(1, queued=4, idle=0)
        draining = StubNode(2, queued=2, idle=0, state=NodeState.DRAINING)
        plans = policy.plan([thief, hot, draining], now=0.0)
        # Both rescue tasks land on the thief and exhaust its two idle
        # cores, so nothing is stolen from the merely-hot node this tick.
        assert len(plans) == 2
        assert all(p.source is draining for p in plans)

    def test_no_active_nodes_no_plans(self):
        draining = StubNode(0, queued=4, idle=0, state=NodeState.DRAINING)
        assert WorkStealingPolicy().plan([draining], now=0.0) == []

    def test_plan_is_deterministic(self):
        policy = WorkStealingPolicy()
        nodes = [
            StubNode(0, queued=5, idle=0),
            StubNode(1, queued=0, idle=2),
            StubNode(2, queued=0, idle=2),
        ]
        first = [(p.task.task_id, p.source.node_id, p.target.node_id)
                 for p in policy.plan(nodes, now=0.0)]
        second = [(p.task.task_id, p.source.node_id, p.target.node_id)
                  for p in policy.plan(nodes, now=0.0)]
        assert first == second


class TestStealSurfaces:
    """Every per-node scheduler exposes its queued, never-run tasks."""

    @pytest.mark.parametrize("scheduler_cls", [
        FIFOScheduler, SJFScheduler, SRTFScheduler, EDFScheduler,
    ])
    def test_queue_backed_schedulers_expose_and_remove(self, scheduler_cls):
        scheduler = scheduler_cls()
        tasks = make_tasks([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
        # Queue directly (no simulator): arrival paths need a machine.
        for task in tasks:
            if hasattr(scheduler, "push"):
                scheduler.push(task)
            else:
                scheduler._push(task)
        stealable = scheduler.stealable_tasks()
        assert sorted(t.task_id for t in stealable) == [0, 1, 2]
        victim = stealable[-1]
        assert scheduler.remove_queued_task(victim)
        assert victim not in scheduler.stealable_tasks()
        assert not scheduler.remove_queued_task(victim)  # already gone
        # The queue still serves the remaining tasks in policy order.
        assert scheduler.queue_length == 2

    def test_removal_matches_identity_not_equality(self):
        scheduler = FIFOScheduler()
        task = make_tasks([(0.0, 1.0)])[0]
        twin = make_tasks([(0.0, 1.0)])[0]  # equal fields, different object
        scheduler.push(task)
        assert not scheduler.remove_queued_task(twin)
        assert scheduler.remove_queued_task(task)

    def test_base_scheduler_defaults_to_no_steal_surface(self):
        from repro.schedulers.cfs import CFSScheduler

        scheduler = CFSScheduler()
        assert scheduler.stealable_tasks() == []
        assert not scheduler.remove_queued_task(make_tasks([(0.0, 1.0)])[0])


class TestSimulatorIntegration:
    def test_stealing_halves_a_hot_spot(self):
        """All tasks hash to one 1-core node; stealing must split them."""
        tasks = pinned_tasks([(0.0, 1.0)] * 10)
        result = simulate_cluster(tasks, config=hot_spot_config())
        assert result.completion_ratio == 1.0
        counts = result.tasks_per_node()
        assert counts[0] == counts[1] == 5
        assert result.tasks_migrated == 5
        # Without migration the same workload serialises on one node.
        baseline = simulate_cluster(
            pinned_tasks([(0.0, 1.0)] * 10),
            config=hot_spot_config(migration=None),
        )
        assert result.simulated_time < baseline.simulated_time / 1.5

    def test_running_tasks_never_move(self):
        tasks = pinned_tasks([(0.0, 1.0), (0.0, 1.0)])
        result = simulate_cluster(tasks, config=hot_spot_config())
        assert result.tasks_migrated == 1
        # The first task ran where it was dispatched; only the queued one moved.
        migrated = result.migrated_tasks()
        assert len(migrated) == 1
        assert migrated[0].metadata["node_migrations"] == 1

    def test_migration_delay_is_paid(self):
        """The stolen task cannot start before tick + transfer delay."""
        config = hot_spot_config(
            migration_kwargs={"interval": 0.05, "delay": 0.5}
        )
        tasks = pinned_tasks([(0.0, 1.0), (0.0, 1.0)])
        result = simulate_cluster(tasks, config=config)
        stolen = result.migrated_tasks()[0]
        assert stolen.first_run_time >= 0.55 - 1e-9
        # And it is still faster than waiting behind the running task.
        assert stolen.completion_time < 2.0

    def test_migration_series_recorded(self):
        result = simulate_cluster(
            pinned_tasks([(0.0, 0.5)] * 8), config=hot_spot_config()
        )
        migrations = result.series_values("cluster.migrations")
        assert migrations
        assert migrations[-1].value == result.tasks_migrated
        depth_series = [
            name for name in result.series if name.endswith("queue_depth")
        ]
        assert len(depth_series) == 2  # one per node

    def test_node_stats_track_steals(self):
        result = simulate_cluster(
            pinned_tasks([(0.0, 1.0)] * 10), config=hot_spot_config()
        )
        stolen_away = sum(s["stolen_in"] for s in result.node_stats.values())
        assert stolen_away == result.tasks_migrated
        assert sum(result.migrations_per_node().values()) == result.tasks_migrated

    def test_heterogeneous_stealing_prefers_fast_nodes(self):
        """Idle big cores drain a little node's hot queue."""
        config = ClusterConfig(
            node_specs=(
                NodeSpec(cores=1, speed_factor=1.0),
                NodeSpec(cores=4, speed_factor=2.0),
            ),
            scheduler="fifo",
            dispatcher="consistent_hash",
            migration="work_stealing",
            migration_kwargs={"interval": 0.05, "delay": 0.001},
        )
        tasks = pinned_tasks([(0.0, 1.0)] * 12)
        result = simulate_cluster(tasks, config=config)
        assert result.completion_ratio == 1.0
        assert result.tasks_migrated > 0
        counts = result.tasks_per_node()
        hot_node = max(counts, key=counts.get)
        assert counts[hot_node] >= counts[min(counts, key=counts.get)]

    def test_deterministic_with_migration(self):
        def run():
            tasks = pinned_tasks(
                [(i * 0.05, 0.7) for i in range(30)], function_id=None
            )
            for task in tasks:
                task.metadata["function_id"] = f"fn-{task.task_id % 3}"
            return simulate_cluster(tasks, config=hot_spot_config())

        first, second = run(), run()
        signature = lambda r: [
            (t.task_id, t.completion_time, t.node_id,
             t.metadata.get("node_migrations", 0))
            for t in r.tasks
        ]
        assert signature(first) == signature(second)
        assert first.tasks_migrated == second.tasks_migrated

    def test_custom_policy_object_accepted(self):
        class NoopPolicy(MigrationPolicy):
            name = "noop"

            def plan(self, nodes, now):
                return []

        result = simulate_cluster(
            pinned_tasks([(0.0, 0.5)] * 4),
            config=hot_spot_config(migration=None),
            migration_policy=NoopPolicy(),
        )
        assert result.completion_ratio == 1.0
        assert result.tasks_migrated == 0
        assert result.migration_policy_name == "noop"

    def test_mid_flight_target_loss_round_trip_is_not_a_migration(self):
        """If the thief leaves mid-transfer and only the source remains,
        the task returns home and the migration counters stay untouched."""
        config = hot_spot_config(
            migration_kwargs={"interval": 0.05, "delay": 0.5}
        )
        cluster = ClusterSimulator(config=config)
        tasks = pinned_tasks([(0.0, 1.0), (0.0, 1.0)])
        cluster.submit(tasks)
        thief = None

        def drain_thief():
            nonlocal thief
            # The idle node stole one task at the 0.05 tick; it is still in
            # flight (0.5s transfer), so the thief has no inflight work yet.
            thief = min(cluster.nodes, key=lambda n: n.inflight)
            cluster.drain_node(thief)

        cluster.events.push(0.1, drain_thief)
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert thief.state is NodeState.RETIRED
        # The round trip was voided: no migration recorded anywhere.
        assert result.tasks_migrated == 0
        assert sum(result.migrations_per_node().values()) == 0
        assert all(s["stolen_away"] == 0 for s in result.node_stats.values())
        assert result.migrated_tasks() == []

    def test_mid_flight_landing_on_booting_fleet_voids_the_steal(self):
        """If every active node is gone mid-transfer but a node is booting,
        the task waits for the boot and no migration is recorded."""
        config = hot_spot_config(
            migration_kwargs={"interval": 0.05, "delay": 0.5},
            node_boot_time=5.0,
        )
        cluster = ClusterSimulator(config=config)
        cluster.submit(pinned_tasks([(0.0, 1.0), (0.0, 1.0)]))

        def gut_the_fleet():
            # The steal is in flight (until 0.55): retire the idle thief,
            # drain the source, and leave only a slow-booting replacement.
            for node in list(cluster.nodes):
                cluster.drain_node(node)
            cluster.add_node(booting=True)

        cluster.events.push(0.2, gut_the_fleet)
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert result.tasks_migrated == 0
        assert all(s["stolen_away"] == 0 for s in result.node_stats.values())
        assert all(s["stolen_in"] == 0 for s in result.node_stats.values())
        # The parked task only ran once the replacement booted.
        late = max(t.first_run_time for t in result.finished_tasks)
        assert late >= 5.0

    def test_stale_plan_for_started_task_is_dropped(self):
        """A plan whose task started between planning and execution is a no-op."""
        cluster = ClusterSimulator(config=hot_spot_config())
        task = pinned_tasks([(0.0, 1.0)])[0]
        cluster.submit([task])
        node = cluster.nodes[0]
        # Forge a plan for a task that is not queued anywhere.
        ghost = Migration(task=task, source=node, target=cluster.nodes[1])
        assert not cluster._execute_migration(ghost)
        assert cluster.tasks_migrated == 0


class TestChangeOnlySeries:
    """A migration tick records a series point only where the value moved."""

    @pytest.fixture(scope="class")
    def captured(self):
        """A stealing run, plus each tick's series values as hooks saw them."""
        cluster = ClusterSimulator(config=hot_spot_config(num_nodes=3))
        expected = {}  # series name -> {tick time: value after the tick}

        def planned(plans, now):
            expected.setdefault("cluster.migrations", {})[now] = float(
                cluster.tasks_migrated + cluster._migrations_inflight
            )
            for node in cluster.nodes:
                if node.state is not NodeState.RETIRED:
                    name = f"cluster.node{node.node_id}.queue_depth"
                    expected.setdefault(name, {})[now] = float(node.stealable_count())

        def migrating(plan, now):
            # The tick records after executing its plans: each move leaves
            # its source's queue and is in flight.
            assert not plan.running
            expected["cluster.migrations"][now] += 1.0
            expected[f"cluster.node{plan.source.node_id}.queue_depth"][now] -= 1.0

        cluster.hooks.subscribe("migration_planned", planned)
        cluster.hooks.subscribe("task_migrating", migrating)
        cluster.submit(
            pinned_tasks([(i * 0.03, 0.1 + (i % 5) * 0.05) for i in range(200)])
        )
        result = cluster.run()
        assert result.completion_ratio == 1.0 and result.tasks_migrated > 20
        return result, expected

    def test_step_function_equals_every_tick(self, captured):
        result, expected = captured
        assert len(expected) == 4  # migrations plus three nodes' depths
        for name, ticks in expected.items():
            points = result.series_values(name)
            times = [point.time for point in points]
            for now, value in ticks.items():
                last = bisect_right(times, now) - 1
                assert last >= 0 and points[last].value == value, (name, now)

    def test_no_two_consecutive_points_are_equal(self, captured):
        result, expected = captured
        kept = ticks = varied = 0
        for name in expected:
            values = [point.value for point in result.series_values(name)]
            assert all(a != b for a, b in zip(values, values[1:])), name
            varied += len(values) > 1
            kept += len(values)
            ticks += len(expected[name])
        assert varied >= 2  # the migration count and the hot node's depth
        assert kept < ticks / 2


class TestDrainRescue:
    def test_draining_node_sheds_queue_via_stealing(self):
        """Scale-down must not strand queued tasks behind a retiring node."""
        cluster = ClusterSimulator(config=hot_spot_config())
        tasks = pinned_tasks([(0.0, 1.0)] * 6)
        cluster.submit(tasks)
        hot = None

        def drain_hot():
            nonlocal hot
            hot = max(cluster.nodes, key=lambda n: n.inflight)
            cluster.drain_node(hot)

        cluster.events.push(0.5, drain_hot)
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert hot.tasks_stolen_away > 0
        assert hot.state is NodeState.RETIRED
        # The node retired as soon as its running task finished — it never
        # worked through the stolen backlog (1s task, queue of 5).
        assert hot.retired_at == pytest.approx(1.0, abs=0.01)

    def test_drain_without_peers_still_completes(self):
        """With nobody to steal, a draining node finishes its own backlog."""
        cluster = ClusterSimulator(
            config=hot_spot_config(num_nodes=1, dispatcher="round_robin")
        )
        cluster.submit(make_tasks([(0.0, 0.5)] * 4))
        cluster.events.push(0.1, lambda: cluster.drain_node(cluster.nodes[0]))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert cluster.nodes[0].state is NodeState.RETIRED

    def test_stranded_work_terminates_with_incomplete_result(self):
        """A fully retired fleet must end the run, not tick forever.

        Regression: the migration tick used to re-arm whenever unfinished
        work remained, so waiting tasks with no surviving node turned
        ``run()`` into an infinite loop.
        """
        cluster = ClusterSimulator(
            config=hot_spot_config(num_nodes=1, dispatcher="round_robin")
        )
        cluster.drain_node(cluster.nodes[0])  # idle: retires immediately
        booting = cluster.add_node(booting=True)
        cluster.submit(make_tasks([(0.0, 0.5)]))  # waits for the boot
        # Kill the booting node before it comes up: the task is stranded.
        cluster.events.push(0.01, lambda: cluster.drain_node(booting))
        result = cluster.run()
        assert result.completion_ratio == 0.0
        assert all(n.state is NodeState.RETIRED for n in cluster.nodes)


def test_policy_serves_one_cluster():
    policy = WorkStealingPolicy()
    ClusterSimulator(config=hot_spot_config(migration=None), migration_policy=policy)
    with pytest.raises(ValueError, match="WorkStealingPolicy"):
        ClusterSimulator(config=hot_spot_config(migration=None), migration_policy=policy)
