"""Reactive autoscaler: thresholds, cold starts, bounds."""

import pytest

from repro.simulation.task import make_tasks
from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ReactiveAutoscaler,
    simulate_cluster,
)
from repro.cluster.node import NodeState
from repro.simulation.hooks import HookBus


def burst(count, service=1.0, spacing=0.0):
    """``count`` tasks arriving (near-)simultaneously."""
    return make_tasks([(i * spacing, service) for i in range(count)])


def cluster_config(**overrides) -> ClusterConfig:
    defaults = dict(num_nodes=1, cores_per_node=2, scheduler="fifo", dispatcher="jsq")
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestAutoscalerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(check_interval=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_load=1.0, scale_down_load=1.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(cooldown=-1.0)


class TestScaling:
    def test_scales_up_under_overload(self):
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=6, check_interval=0.5, cooldown=0.0)
        )
        result = simulate_cluster(
            burst(40, service=4.0), config=cluster_config(), autoscaler=autoscaler
        )
        assert result.completion_ratio == 1.0
        assert autoscaler.scale_ups > 0
        assert result.nodes_added == autoscaler.scale_ups
        peak = max(p.value for p in result.series_values("cluster.active_nodes"))
        assert peak > 1

    def test_respects_max_nodes(self):
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=3, check_interval=0.2, cooldown=0.0)
        )
        result = simulate_cluster(
            burst(80, service=4.0), config=cluster_config(), autoscaler=autoscaler
        )
        peak = max(p.value for p in result.series_values("cluster.active_nodes"))
        assert peak <= 3
        assert result.nodes_added <= 2

    def test_scales_down_when_idle(self):
        """A tail of light traffic after a burst lets the fleet drain."""
        tasks = burst(30, service=2.0) + make_tasks(
            [(20.0 + i, 0.05) for i in range(15)]
        )
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(
                min_nodes=1,
                max_nodes=6,
                check_interval=0.5,
                cooldown=0.0,
                scale_down_load=0.2,
            )
        )
        result = simulate_cluster(
            tasks, config=cluster_config(num_nodes=2), autoscaler=autoscaler
        )
        assert result.completion_ratio == 1.0
        assert autoscaler.scale_downs > 0
        assert result.nodes_removed > 0
        final = result.series_values("cluster.active_nodes")[-1].value
        assert final >= 1  # never below min_nodes

    def test_cooldown_limits_action_rate(self):
        eager = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=16, check_interval=0.25, cooldown=0.0)
        )
        calm = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=16, check_interval=0.25, cooldown=5.0)
        )
        simulate_cluster(burst(60, service=3.0), config=cluster_config(), autoscaler=eager)
        simulate_cluster(burst(60, service=3.0), config=cluster_config(), autoscaler=calm)
        assert calm.scale_ups < eager.scale_ups

    def test_new_nodes_pay_cold_start(self):
        """Scale-up capacity only helps after the configured boot delay."""
        config = cluster_config(node_boot_time=5.0)
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=4, check_interval=0.2, cooldown=0.0)
        )
        result = simulate_cluster(
            burst(20, service=2.0), config=config, autoscaler=autoscaler
        )
        assert result.nodes_added > 0
        growth = [
            p for p in result.series_values("cluster.active_nodes") if p.value > 1
        ]
        assert growth
        # First extra capacity cannot appear before one boot delay has passed.
        assert growth[0].time >= 5.0

    def test_load_signal_counts_waiting_backlog(self):
        autoscaler = ReactiveAutoscaler()

        class FakeNode:
            state = NodeState.ACTIVE
            inflight = 0

            def __init__(self):
                self.machine = [None] * 4

        class FakeCluster:
            hooks = HookBus()
            nodes = [FakeNode()]
            waiting_tasks = [object()] * 8

            def active_nodes(self):
                return self.nodes

        autoscaler.attach(FakeCluster())
        assert autoscaler.fleet_load() == pytest.approx(2.0)

    def test_load_signal_counts_ingress_work(self):
        """Tasks on the wire under a non-zero-RTT network are fleet load."""
        autoscaler = ReactiveAutoscaler()

        class FakeNode:
            state = NodeState.ACTIVE
            inflight = 2
            ingress = 6

            def __init__(self):
                self.machine = [None] * 4

        class FakeCluster:
            hooks = HookBus()
            nodes = [FakeNode()]
            waiting_tasks = []

            def active_nodes(self):
                return self.nodes

        autoscaler.attach(FakeCluster())
        assert autoscaler.fleet_load() == pytest.approx(2.0)

    def test_zero_core_fleet_is_not_masked(self):
        """Regression: ``max(1, total_cores)`` silently turned a coreless
        fleet into a one-core fleet.  No cores + pending work = infinite
        load (nothing can ever serve it); no cores + no work = idle."""
        autoscaler = ReactiveAutoscaler()

        class CorelessNode:
            state = NodeState.BOOTING
            inflight = 0

            def __init__(self):
                self.machine = []

        class FakeCluster:
            hooks = HookBus()
            nodes = [CorelessNode()]
            waiting_tasks = [object()] * 3

            def active_nodes(self):
                return []

        cluster = FakeCluster()
        autoscaler.attach(cluster)
        assert autoscaler.fleet_load() == float("inf")
        cluster.waiting_tasks = []
        assert autoscaler.fleet_load() == 0.0

    def test_waiting_backlog_alone_triggers_scale_up(self):
        """Regression for the documented signal: a backlog parked behind a
        booting fleet (zero inflight anywhere) must still trip the
        scale-up threshold."""
        from repro.cluster import ClusterSimulator

        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(
                min_nodes=1, max_nodes=4, check_interval=0.2, cooldown=0.0
            )
        )
        cluster = ClusterSimulator(
            config=cluster_config(num_nodes=1, node_boot_time=10.0),
            autoscaler=autoscaler,
        )
        # The whole fleet is one *booting* node: arrivals park in
        # waiting_tasks and nothing is inflight until t=10.
        cluster.drain_node(cluster.nodes[0])  # idle, retires immediately
        cluster.add_node(booting=True)
        cluster.submit(burst(12, service=0.5))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert autoscaler.scale_ups > 0
        # The scale-up decision happened while everything was still parked
        # (before the first boot completed at t=10).
        growth = [n for n in cluster.nodes if n.commissioned_at > 0.0]
        assert growth
        assert min(n.commissioned_at for n in growth) < 10.0


class TestAutoscalerMigrationInteraction:
    """Scale-downs must drain via stealing, never strand queued tasks."""

    def migration_config(self, **overrides) -> ClusterConfig:
        defaults = dict(
            num_nodes=2,
            cores_per_node=1,
            scheduler="fifo",
            dispatcher="jsq",
            migration="work_stealing",
            migration_kwargs={"interval": 0.1, "delay": 0.001},
        )
        defaults.update(overrides)
        return ClusterConfig(**defaults)

    def test_scaled_down_node_sheds_queue_to_survivors(self):
        """An autoscaler-driven drain moves the victim's backlog at once."""
        from repro.cluster import ClusterSimulator

        cluster = ClusterSimulator(config=self.migration_config())
        # jsq alternates 8 x 1s tasks: each 1-core node runs 1, queues 3.
        cluster.submit(burst(8, service=1.0))
        victim = cluster.nodes[1]
        cluster.events.push(0.5, lambda: cluster.drain_node(victim))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert victim.tasks_stolen_away == 3
        assert victim.state.value == "retired"
        # Retired the moment its one running task finished, not after the
        # 4s its original backlog would have taken.
        assert victim.retired_at == pytest.approx(1.0, abs=0.01)
        # The survivor executed everything that was stolen.
        assert result.tasks_migrated == 3
        assert result.tasks_per_node()[0] == 7

    def test_reactive_scale_down_never_strands_tasks(self):
        """Full loop: burst, growth, decay, drain — everything completes."""
        tasks = burst(30, service=2.0) + make_tasks(
            [(25.0 + i * 0.5, 0.05) for i in range(20)]
        )
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(
                min_nodes=1,
                max_nodes=6,
                check_interval=0.5,
                cooldown=0.0,
                scale_down_load=0.3,
            )
        )
        result = simulate_cluster(
            tasks,
            config=self.migration_config(num_nodes=2, cores_per_node=2),
            autoscaler=autoscaler,
        )
        assert result.completion_ratio == 1.0
        assert autoscaler.scale_downs > 0
        assert result.nodes_removed > 0

    def test_drained_backlog_rescue_beats_no_migration(self):
        """With stealing, draining a loaded node does not serialise its queue."""
        from repro.cluster import ClusterSimulator

        def run(migration):
            config = self.migration_config(migration=migration)
            cluster = ClusterSimulator(config=config)
            cluster.submit(burst(10, service=1.0))
            victim = cluster.nodes[1]
            cluster.events.push(0.25, lambda: cluster.drain_node(victim))
            return cluster.run()

        with_stealing = run("work_stealing")
        without = run(None)
        assert with_stealing.completion_ratio == without.completion_ratio == 1.0
        # Without migration the drained node works through its own queue;
        # with stealing the survivor absorbs it immediately.
        assert with_stealing.tasks_migrated > 0
        assert without.tasks_migrated == 0
        drained_with = [
            s for s in with_stealing.node_stats.values() if s["stolen_away"] > 0
        ]
        assert drained_with


class TestOneClusterPerAutoscaler:
    def test_second_cluster_is_refused_and_the_first_still_scales(self):
        """A second attach must not rebind the autoscaler: the first
        cluster's ticks would read the idle second fleet and never scale."""
        from repro.cluster import ClusterSimulator

        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=4, check_interval=0.5, cooldown=0.0)
        )
        config = cluster_config(num_nodes=1, cores_per_node=1)
        first = ClusterSimulator(config=config, autoscaler=autoscaler)
        with pytest.raises(ValueError, match="ReactiveAutoscaler"):
            ClusterSimulator(config=config, autoscaler=autoscaler)
        first.submit(burst(8, service=2.0))
        result = first.run()
        assert result.completion_ratio == 1.0
        assert result.nodes_added > 0
