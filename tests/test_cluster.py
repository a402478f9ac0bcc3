"""Cluster simulator: dispatch plumbing, lifecycle, determinism, hetero fleets."""

import pytest

from repro.simulation.task import make_tasks
from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    NodeSpec,
    NodeState,
    available_dispatchers,
    simulate_cluster,
)
from repro.cluster.config import DEFAULT_NODE_BOOT_TIME
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationError, simulate
from repro.workload.generator import scaled_workload


def small_config(**overrides) -> ClusterConfig:
    defaults = dict(num_nodes=2, cores_per_node=2, scheduler="fifo", dispatcher="round_robin")
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestDispatchPlumbing:
    def test_all_tasks_finish_and_carry_node_ids(self):
        tasks = make_tasks([(0.0, 1.0), (0.0, 1.0), (0.1, 0.5), (0.2, 0.5)])
        result = simulate_cluster(tasks, config=small_config())
        assert result.completion_ratio == 1.0
        for task in result.finished_tasks:
            assert task.node_id in result.node_results

    def test_round_robin_spreads_across_nodes(self):
        tasks = make_tasks([(i * 0.01, 0.1) for i in range(8)])
        result = simulate_cluster(tasks, config=small_config(num_nodes=4))
        counts = result.tasks_per_node()
        assert all(count == 2 for count in counts.values())

    def test_node_results_partition_the_fleet(self):
        tasks = make_tasks([(i * 0.05, 0.3) for i in range(10)])
        result = simulate_cluster(tasks, config=small_config(num_nodes=3))
        per_node = sum(
            len(node_result.finished_tasks)
            for node_result in result.node_results.values()
        )
        assert per_node == len(result.finished_tasks) == 10

    def test_fleet_summary_pools_all_nodes(self):
        tasks = make_tasks([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
        result = simulate_cluster(tasks, config=small_config(num_nodes=3))
        summary = result.summary()
        assert summary.count == 3
        assert summary.makespan == pytest.approx(3.0)

    def test_single_node_cluster_matches_single_machine(self):
        """A 1-node cluster is exactly the standalone simulator."""
        specs = [(i * 0.1, 0.4 + (i % 3) * 0.3) for i in range(20)]
        cluster = simulate_cluster(
            make_tasks(specs), config=small_config(num_nodes=1, cores_per_node=3)
        )
        single = simulate(
            FIFOScheduler(),
            make_tasks(specs),
            config=SimulationConfig(num_cores=3, record_utilization=False),
        )
        assert cluster.summary().p99_turnaround == pytest.approx(
            single.summary().p99_turnaround
        )
        assert cluster.summary().total_execution == pytest.approx(
            single.summary().total_execution
        )

    def test_submit_while_running_rejected(self):
        cluster = ClusterSimulator(config=small_config())
        cluster._running = True
        with pytest.raises(SimulationError):
            cluster.submit(make_tasks([(0.0, 1.0)]))


class TestNodeLifecycle:
    def test_deliver_to_draining_node_rejected(self):
        cluster = ClusterSimulator(config=small_config())
        node = cluster.nodes[0]
        node.start_draining()
        with pytest.raises(RuntimeError):
            node.deliver(make_tasks([(0.0, 1.0)])[0], now=0.0)

    def test_retire_with_inflight_rejected(self):
        cluster = ClusterSimulator(config=small_config())
        node = cluster.nodes[0]
        node.inflight = 1
        with pytest.raises(RuntimeError):
            node.retire(now=0.0)

    def test_booting_node_pays_cold_start(self):
        """Work arriving before any node is up waits for the boot to finish."""
        cluster = ClusterSimulator(config=small_config(num_nodes=1))
        cluster.drain_node(cluster.nodes[0])  # idle, retires immediately
        assert cluster.nodes[0].state is NodeState.RETIRED
        cluster.add_node(booting=True)
        tasks = make_tasks([(0.0, 0.5)])
        cluster.submit(tasks)
        result = cluster.run()
        assert result.completion_ratio == 1.0
        task = result.finished_tasks[0]
        assert task.response_time >= DEFAULT_NODE_BOOT_TIME
        assert result.nodes_added == 1
        assert result.nodes_removed == 1

    def test_arrival_with_no_nodes_at_all_is_an_error(self):
        cluster = ClusterSimulator(config=small_config(num_nodes=1))
        cluster.drain_node(cluster.nodes[0])
        cluster.submit(make_tasks([(0.0, 0.5)]))
        with pytest.raises(SimulationError):
            cluster.run()

    def test_draining_node_finishes_its_work_then_retires(self):
        cluster = ClusterSimulator(config=small_config(num_nodes=2))
        cluster.submit(make_tasks([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]))
        # Drain node 1 half-way through the run via a scheduled event.
        node = cluster.nodes[1]
        cluster.events.push(0.5, lambda: cluster.drain_node(node))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert node.state is NodeState.RETIRED
        assert node.tasks_completed > 0


class TestWholeFleetBootingOrDraining:
    """Arrivals while *no* node is active: the waiting backlog and the
    "no active or booting node" error, with and without a network RTT."""

    def all_booting_cluster(self, rtt: float = 0.0, booting: int = 2, cores: int = 1):
        """A cluster whose entire fleet is still paying its cold start."""
        from repro.cluster import NetworkSpec

        config = small_config(
            num_nodes=1,
            cores_per_node=cores,
            dispatcher="round_robin",
            network=NetworkSpec(rtt=rtt),
        )
        cluster = ClusterSimulator(config=config)
        cluster.drain_node(cluster.nodes[0])  # idle: retires immediately
        for _ in range(booting):
            cluster.add_node(booting=True)
        return cluster

    @pytest.mark.parametrize("rtt", [0.0, 0.2])
    def test_backlog_replay_preserves_arrival_order(self, rtt):
        """The parked backlog replays in exactly the (time, priority, seq)
        order the arrival events popped in.

        The whole backlog is replayed by the *first* node to finish booting
        (both boots share one timestamp; the lower seq wins the backlog), so
        on that 1-core FIFO node the service order — first_run_time — must
        follow arrival order exactly.
        """
        cluster = self.all_booting_cluster(rtt=rtt)
        # All four arrive (in seq order at two distinct times) before the
        # first boot completes at DEFAULT_NODE_BOOT_TIME.
        cluster.submit(make_tasks([(0.0, 0.3), (0.0, 0.3), (0.01, 0.3), (0.02, 0.3)]))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        tasks = sorted(result.finished_tasks, key=lambda t: t.task_id)
        replayer = tasks[0].node_id
        assert all(task.node_id == replayer for task in tasks)
        starts = [task.first_run_time for task in tasks]
        assert starts == sorted(starts)
        completions = [task.completion_time for task in tasks]
        assert completions == sorted(completions)

    @pytest.mark.parametrize("rtt", [0.0, 0.2])
    def test_same_timestamp_backlog_keeps_seq_order(self, rtt):
        """Tasks sharing one arrival timestamp park in submission (seq)
        order and replay in that same order."""
        cluster = self.all_booting_cluster(rtt=rtt, booting=1)
        cluster.submit(make_tasks([(0.0, 0.2)] * 4))
        seen = []
        original = cluster._dispatch

        def spy(task):
            seen.append(task.task_id)
            original(task)

        cluster._dispatch = spy
        result = cluster.run()
        assert result.completion_ratio == 1.0
        # First sweep: the four same-timestamp arrivals pop in seq order and
        # park; second sweep: the boot replays the backlog in the same order.
        assert seen == [0, 1, 2, 3, 0, 1, 2, 3]

    @pytest.mark.parametrize("rtt", [0.0, 0.2])
    def test_error_fires_only_with_no_booting_node(self, rtt):
        """The "no active or booting node" error is precise: a fleet that is
        merely *booting* parks arrivals instead of failing, an all-retired
        fleet fails loudly."""
        from repro.cluster import NetworkSpec

        config = small_config(
            num_nodes=1, cores_per_node=2, network=NetworkSpec(rtt=rtt)
        )
        alive = ClusterSimulator(config=config)
        alive.drain_node(alive.nodes[0])
        alive.add_node(booting=True)
        alive.submit(make_tasks([(0.0, 0.2)]))
        assert alive.run().completion_ratio == 1.0

        dead = ClusterSimulator(config=config)
        dead.drain_node(dead.nodes[0])
        dead.submit(make_tasks([(0.0, 0.2)]))
        with pytest.raises(SimulationError, match="no active or booting node"):
            dead.run()


#: The two fleet shapes every dispatcher's determinism is checked on.
FLEET_SHAPES = {
    "homogeneous": dict(num_nodes=4, cores_per_node=4),
    "heterogeneous": dict(
        node_specs=(
            NodeSpec(cores=8, count=1),
            NodeSpec(cores=4, count=1),
            NodeSpec(cores=2, speed_factor=2.0, count=2),
        )
    ),
}


def run_signature(result):
    """Everything observable about a run, for bit-identical comparison."""
    return [
        (t.task_id, t.completion_time, t.first_run_time,
         t.node_id, t.metadata.get("node_migrations", 0))
        for t in result.tasks
    ]


class TestDeterminism:
    @pytest.mark.parametrize("fleet", sorted(FLEET_SHAPES))
    @pytest.mark.parametrize("dispatcher", available_dispatchers())
    def test_same_seed_is_bit_identical_for_every_dispatcher(
        self, dispatcher, fleet
    ):
        """Seed sweep: every dispatcher x fleet shape replays exactly."""
        config = ClusterConfig(
            scheduler="fifo", dispatcher=dispatcher, seed=11, **FLEET_SHAPES[fleet]
        )
        first = simulate_cluster(scaled_workload(300, minutes=1), config=config)
        second = simulate_cluster(scaled_workload(300, minutes=1), config=config)
        assert run_signature(first) == run_signature(second)
        assert first.tasks_per_node() == second.tasks_per_node()

    @pytest.mark.parametrize("fleet", sorted(FLEET_SHAPES))
    @pytest.mark.parametrize("dispatcher", available_dispatchers())
    def test_every_task_completes_exactly_once(self, dispatcher, fleet):
        config = ClusterConfig(
            scheduler="fifo", dispatcher=dispatcher, seed=3, **FLEET_SHAPES[fleet]
        )
        result = simulate_cluster(scaled_workload(300, minutes=1), config=config)
        assert result.completion_ratio == 1.0
        per_node_ids = [
            t.task_id
            for node_result in result.node_results.values()
            for t in node_result.finished_tasks
        ]
        # Exactly once: node results partition the task set, no duplicates.
        assert sorted(per_node_ids) == sorted(t.task_id for t in result.tasks)
        # The run's one store tags each row with the node the task finished
        # on, and the per-node views are exactly those rows.
        rows = result.task_columns().data
        recorded = dict(zip(rows["task_id"].tolist(), rows["node_id"].tolist()))
        assert len(recorded) == len(rows) == len(result.tasks)
        for task in result.tasks:
            assert recorded[task.task_id] == task.node_id
        for node_id, node_result in result.node_results.items():
            view = node_result.task_columns().data
            assert (view["node_id"] == node_id).all()
            assert sorted(view["task_id"].tolist()) == sorted(
                t.task_id for t in node_result.tasks
            )

    @pytest.mark.parametrize("dispatcher", ["random", "power_of_two", "consistent_hash"])
    def test_same_seed_same_fleet_p99(self, dispatcher):
        config = small_config(
            num_nodes=4, cores_per_node=4, dispatcher=dispatcher, seed=11
        )
        first = simulate_cluster(scaled_workload(600, minutes=2), config=config)
        second = simulate_cluster(scaled_workload(600, minutes=2), config=config)
        assert first.summary().p99_turnaround == second.summary().p99_turnaround
        assert first.summary().p99_response == second.summary().p99_response
        assert first.tasks_per_node() == second.tasks_per_node()

    def test_different_seed_changes_random_routing(self):
        workload = [(i * 0.01, 0.2) for i in range(64)]
        first = simulate_cluster(
            make_tasks(workload),
            config=small_config(num_nodes=4, dispatcher="random", seed=1),
        )
        second = simulate_cluster(
            make_tasks(workload),
            config=small_config(num_nodes=4, dispatcher="random", seed=2),
        )
        assert first.tasks_per_node() != second.tasks_per_node()


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(cores_per_node=0)
        with pytest.raises(ValueError):
            ClusterConfig(node_boot_time=-1.0)

    def test_with_dispatcher_and_with_nodes(self):
        config = ClusterConfig(num_nodes=4, dispatcher="random")
        assert config.with_dispatcher("jsq").dispatcher == "jsq"
        assert config.with_nodes(8).num_nodes == 8

    def test_node_config_resized_to_cores_per_node(self):
        config = ClusterConfig(
            cores_per_node=6, node_config=SimulationConfig(num_cores=50)
        )
        assert config.build_node_config().num_cores == 6

    def test_hybrid_scheduler_runs_per_node(self):
        """Per-node schedulers come from the registry — including the hybrid."""
        config = small_config(
            num_nodes=2,
            cores_per_node=4,
            scheduler="fifo_preempt",
            scheduler_kwargs={"quantum": 0.5},
        )
        result = simulate_cluster(make_tasks([(0.0, 1.0)] * 8), config=config)
        assert result.completion_ratio == 1.0
        assert result.scheduler_name == "fifo_preempt"


class TestFleetSeries:
    def test_active_node_series_recorded(self):
        result = simulate_cluster(
            make_tasks([(0.0, 0.5), (0.1, 0.5)]), config=small_config()
        )
        points = result.series_values("cluster.active_nodes")
        assert points
        assert points[0].value == 2.0


class TestEngineParity:
    """Cluster nodes must honour the same engine contract as standalone runs."""

    def test_scheduler_on_start_fires_for_initial_fleet(self):
        """CFS load balancing / hybrid sampling arm via on_start — it must run."""
        cluster = ClusterSimulator(config=small_config(scheduler="cfs"))
        cluster.submit(make_tasks([(0.0, 0.5), (0.0, 0.5)]))
        cluster.run()
        for node in cluster.nodes:
            assert node._started
            assert node.activated_at == 0.0

    def test_cfs_balance_timer_actually_armed(self):
        """Activating a CFS node must put its periodic balance timer on the
        shared event queue (the regression was on_start never firing)."""
        config = small_config(num_nodes=1, cores_per_node=4, scheduler="cfs")
        cluster = ClusterSimulator(config=config)
        cluster.nodes[0].activate(0.0)
        assert cluster.events.cancel_pending("cfs-load-balance") == 1

    def test_node_config_record_utilization_produces_samples(self):
        config = small_config(
            num_nodes=2,
            node_config=SimulationConfig(
                num_cores=2, record_utilization=True, utilization_window=0.25
            ),
        )
        result = simulate_cluster(make_tasks([(0.0, 1.0)] * 4), config=config)
        for node_result in result.node_results.values():
            assert node_result.utilization_samples

    def test_node_config_max_simulated_time_is_honoured(self):
        config = small_config(
            num_nodes=1,
            node_config=SimulationConfig(
                num_cores=2, record_utilization=False, max_simulated_time=1.0
            ),
        )
        result = simulate_cluster(make_tasks([(0.0, 5.0)]), config=config)
        assert result.simulated_time == pytest.approx(1.0)
        assert result.completion_ratio < 1.0


class TestNodeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0)
        with pytest.raises(ValueError):
            NodeSpec(speed_factor=0.0)
        with pytest.raises(ValueError):
            NodeSpec(count=0)

    def test_capacity_is_cores_times_speed(self):
        assert NodeSpec(cores=8, speed_factor=1.5).capacity == pytest.approx(12.0)

    def test_cluster_config_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ClusterConfig(node_specs=())
        with pytest.raises(TypeError):
            ClusterConfig(node_specs=("not-a-spec",))

    def test_num_nodes_derived_from_specs(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=24, count=2), NodeSpec(cores=8, count=4))
        )
        assert config.num_nodes == 6
        assert config.is_heterogeneous
        assert config.total_capacity() == pytest.approx(2 * 24 + 4 * 8)

    def test_expanded_specs_in_node_id_order(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=24, count=2), NodeSpec(cores=8, count=4))
        )
        cores = [spec.cores for spec in config.expanded_specs()]
        assert cores == [24, 24, 8, 8, 8, 8]
        assert all(spec.count == 1 for spec in config.expanded_specs())

    def test_scale_up_spec_is_first_listed(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=24, count=2), NodeSpec(cores=8, count=4))
        )
        assert config.scale_up_spec().cores == 24

    def test_homogeneous_config_unchanged(self):
        config = ClusterConfig(num_nodes=3, cores_per_node=5)
        assert not config.is_heterogeneous
        assert [s.cores for s in config.expanded_specs()] == [5, 5, 5]
        assert config.build_node_config().num_cores == 5


class TestHeterogeneousFleet:
    def test_nodes_built_to_spec(self):
        cluster = ClusterSimulator(
            config=ClusterConfig(
                node_specs=(
                    NodeSpec(cores=4, speed_factor=2.0, label="big"),
                    NodeSpec(cores=2, count=2, label="little"),
                ),
                scheduler="fifo",
                dispatcher="jsq",
            )
        )
        assert [len(n.machine) for n in cluster.nodes] == [4, 2, 2]
        assert [n.capacity for n in cluster.nodes] == [8.0, 2.0, 2.0]
        assert cluster.nodes[0].spec.label == "big"

    def test_speed_factor_accelerates_service(self):
        """A 0.5s task on a speed-2.0 core completes in 0.25s."""
        config = ClusterConfig(node_specs=(NodeSpec(cores=1, speed_factor=2.0),))
        result = simulate_cluster(make_tasks([(0.0, 0.5)]), config=config)
        task = result.finished_tasks[0]
        assert task.turnaround_time == pytest.approx(0.25)
        # Metrics still bill the demanded service, not the wall time.
        assert task.service_time == pytest.approx(0.5)

    def test_all_tasks_finish_on_mixed_fleet(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=4), NodeSpec(cores=1, count=3)),
            scheduler="fifo",
            dispatcher="least_loaded",
        )
        result = simulate_cluster(
            make_tasks([(i * 0.02, 0.4) for i in range(40)]), config=config
        )
        assert result.completion_ratio == 1.0
        assert set(result.node_stats) == {0, 1, 2, 3}
        assert result.node_capacity(0) == pytest.approx(4.0)

    def test_add_node_uses_scale_up_spec(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=6), NodeSpec(cores=2, count=2)),
        )
        cluster = ClusterSimulator(config=config)
        node = cluster.add_node(booting=False)
        assert len(node.machine) == 6

    def test_user_node_config_resized_per_spec(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=3, speed_factor=1.5),),
            node_config=SimulationConfig(num_cores=50, record_utilization=False),
        )
        node_config = config.build_node_config(config.expanded_specs()[0])
        assert node_config.num_cores == 3
        assert node_config.core_speed == pytest.approx(1.5)

    def test_homogeneous_fleet_keeps_user_core_speed(self):
        """Without node_specs, a node_config's explicit core_speed survives."""
        config = ClusterConfig(
            num_nodes=2,
            cores_per_node=4,
            node_config=SimulationConfig(
                num_cores=4, core_speed=2.0, record_utilization=False
            ),
        )
        assert config.build_node_config().core_speed == pytest.approx(2.0)
        # The derived specs (and hence reported capacities) agree.
        assert config.expanded_specs()[0].speed_factor == pytest.approx(2.0)
        assert config.total_capacity() == pytest.approx(16.0)
        result = simulate_cluster(make_tasks([(0.0, 0.5)]), config=config)
        assert result.finished_tasks[0].turnaround_time == pytest.approx(0.25)
        assert result.node_capacity(0) == pytest.approx(8.0)


class TestHeterogeneousClaims:
    """The cluster_scaling acceptance claims, on the experiment's own fleet.

    Uses a 25% slice of the paper's bursty 10-minute workload so the suite
    stays fast; the orderings are stable from ~20% upward and at full scale
    (recorded by the experiment itself).
    """

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments.cluster_scaling import run_heterogeneous_sweep

        return run_heterogeneous_sweep(0.25)

    def test_capacity_normalized_jsq_beats_raw_on_p99(self, sweep):
        normalized = sweep["jsq_normalized"].summary().p99_turnaround
        raw = sweep["jsq_raw"].summary().p99_turnaround
        assert normalized < raw

    def test_work_stealing_beats_no_migration_on_p99(self, sweep):
        stealing = sweep["round_robin_stealing"].summary().p99_turnaround
        none = sweep["round_robin"].summary().p99_turnaround
        assert stealing < none
        assert sweep["round_robin_stealing"].tasks_migrated > 0

    def test_sweep_completes_every_invocation(self, sweep):
        for result in sweep.values():
            assert result.completion_ratio == 1.0
