"""Network delay model: NetworkSpec, per-node ingress queues, probe cost.

The tentpole contract: with the default zero-RTT spec the cluster engine is
bit-identical to instantaneous dispatch (no ingress events at all); with a
non-zero RTT every dispatched task crosses the target node's ingress queue —
counted by load signals, landing on the scheduler after the wire delay —
and load-probing dispatchers additionally pay the probe round trip.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    NetworkSpec,
    NodeSpec,
    NodeState,
    simulate_cluster,
)
from repro.cluster.dispatchers import bound_work, normalized_load
from repro.scenario import Scenario, Workload
from repro.simulation.task import make_tasks


def network_config(rtt, **overrides) -> ClusterConfig:
    defaults = dict(
        num_nodes=2,
        cores_per_node=2,
        scheduler="fifo",
        dispatcher="jsq",
        network=NetworkSpec(rtt=rtt),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestNetworkSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(rtt=-0.1)
        with pytest.raises(ValueError):
            NetworkSpec(probe_rtts=-1.0)

    def test_dispatch_delay_math(self):
        spec = NetworkSpec(rtt=0.2)
        # Every task pays the one-way trip; probing policies one extra RTT.
        assert spec.dispatch_delay(0.2, probes_load=False) == pytest.approx(0.1)
        assert spec.dispatch_delay(0.2, probes_load=True) == pytest.approx(0.3)
        free_probe = NetworkSpec(rtt=0.2, probe_rtts=0.0)
        assert free_probe.dispatch_delay(0.2, probes_load=True) == pytest.approx(0.1)

    def test_roundtrip_omits_defaults(self):
        assert NetworkSpec().to_dict() == {}
        spec = NetworkSpec(rtt=0.25, probe_rtts=2.0)
        assert NetworkSpec.from_dict(spec.to_dict()) == spec

    def test_node_spec_rtt_validated_and_serialised(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=4, rtt=-1.0)
        spec = NodeSpec(cores=4, rtt=0.05)
        assert NodeSpec.from_dict(spec.to_dict()) == spec
        assert "rtt" not in NodeSpec(cores=4).to_dict()

    def test_effective_rtt_prefers_spec_override(self):
        config = ClusterConfig(
            node_specs=(NodeSpec(cores=4, rtt=0.5), NodeSpec(cores=4)),
            network=NetworkSpec(rtt=0.1),
        )
        local, remote = config.expanded_specs()
        assert config.effective_rtt(local) == 0.5
        assert config.effective_rtt(remote) == 0.1
        assert config.effective_rtt(None) == 0.1

    def test_cluster_config_rejects_plain_dict_network(self):
        with pytest.raises(TypeError):
            ClusterConfig(network={"rtt": 0.1})

    def test_with_network_copy(self):
        config = ClusterConfig().with_network(rtt=0.3)
        assert config.network == NetworkSpec(rtt=0.3)


class TestZeroRttEquivalence:
    """rtt=0 must take the exact instantaneous pre-network code path."""

    def test_no_ingress_at_zero_rtt(self):
        result = simulate_cluster(
            make_tasks([(i * 0.1, 0.4) for i in range(10)]),
            config=network_config(rtt=0.0),
        )
        assert result.completion_ratio == 1.0
        assert result.tasks_ingressed() == 0
        assert result.mean_ingress_wait() == 0.0
        for task in result.finished_tasks:
            assert task.ingress_wait == 0.0

    def test_zero_rtt_bit_identical_to_default_config(self):
        specs = [(i * 0.07, 0.3 + (i % 3) * 0.2) for i in range(24)]
        with_network = simulate_cluster(
            make_tasks(specs), config=network_config(rtt=0.0)
        )
        without = simulate_cluster(
            make_tasks(specs),
            config=ClusterConfig(
                num_nodes=2, cores_per_node=2, scheduler="fifo", dispatcher="jsq"
            ),
        )
        assert with_network.summary().as_dict() == without.summary().as_dict()
        assert with_network.events_processed == without.events_processed


class TestIngressQueues:
    def test_every_task_pays_the_wire_delay(self):
        # Sparse arrivals on an idle fleet: response time is exactly the
        # jsq wire delay (one-way + probe RTT = 1.5 x rtt).
        result = simulate_cluster(
            make_tasks([(i * 2.0, 0.1) for i in range(6)]),
            config=network_config(rtt=0.2),
        )
        assert result.completion_ratio == 1.0
        assert result.tasks_ingressed() == 6
        for task in result.finished_tasks:
            assert task.ingress_wait == pytest.approx(0.3)
            assert task.response_time == pytest.approx(0.3)
        assert result.mean_ingress_wait() == pytest.approx(0.3)

    def test_locality_pays_only_the_one_way_trip(self):
        result = simulate_cluster(
            make_tasks([(i * 2.0, 0.1) for i in range(6)]),
            config=network_config(rtt=0.2, dispatcher="consistent_hash"),
        )
        for task in result.finished_tasks:
            assert task.ingress_wait == pytest.approx(0.1)

    def test_node_stats_count_ingress(self):
        result = simulate_cluster(
            make_tasks([(i * 0.5, 0.1) for i in range(8)]),
            config=network_config(rtt=0.1),
        )
        ingressed = sum(s["ingressed"] for s in result.node_stats.values())
        waited = sum(s["ingress_wait_total"] for s in result.node_stats.values())
        assert ingressed == 8
        assert waited == pytest.approx(8 * 0.15)

    def test_jsq_counts_ingress_pending_work(self):
        """Regression guard: a simultaneous burst must spread, not herd.

        While tasks are on the wire the landing node's ``inflight`` is still
        zero; if queue-depth signals ignored the ingress state every arrival
        in that window would see the same "shortest" queue and JSQ would
        herd the whole burst onto node 0.
        """
        result = simulate_cluster(
            make_tasks([(0.0, 1.0) for _ in range(8)]),
            config=network_config(rtt=0.2, num_nodes=4, cores_per_node=1),
        )
        counts = result.tasks_per_node()
        assert all(count == 2 for count in counts.values())

    def test_least_loaded_counts_ingress_pending_work(self):
        """Same herding regression for the busy-core signal: during the
        wire window no core is busy yet, so without the ingress term every
        pick of a simultaneous burst resolves to node 0."""
        result = simulate_cluster(
            make_tasks([(0.0, 1.0) for _ in range(8)]),
            config=network_config(
                rtt=0.2, num_nodes=4, cores_per_node=1, dispatcher="least_loaded"
            ),
        )
        counts = result.tasks_per_node()
        assert all(count == 2 for count in counts.values())

    def test_bound_work_tolerates_surfaces_without_ingress(self):
        class BareNode:
            node_id = 0
            inflight = 3
            capacity = 2.0

        assert bound_work(BareNode()) == 3
        assert normalized_load(BareNode()) == pytest.approx(1.5)

    def test_per_spec_rtt_override(self):
        """A same-rack node spec dispatches faster than the fleet default."""
        config = ClusterConfig(
            node_specs=(
                NodeSpec(cores=1, rtt=0.0, label="local"),
                NodeSpec(cores=1, label="remote"),
            ),
            scheduler="fifo",
            dispatcher="round_robin",
            network=NetworkSpec(rtt=0.4),
        )
        result = simulate_cluster(
            make_tasks([(0.0, 0.1), (0.0, 0.1)]), config=config
        )
        by_node = {
            task.node_id: task for task in result.finished_tasks
        }
        assert by_node[0].response_time == pytest.approx(0.0)  # local, rtt 0
        assert by_node[1].response_time == pytest.approx(0.2)  # one-way trip

    def test_ingress_lands_on_draining_node(self):
        """A task on the wire was committed at dispatch: the node must accept
        it mid-drain and only retire after it ran."""
        cluster = ClusterSimulator(
            config=network_config(rtt=0.2, num_nodes=2, cores_per_node=1)
        )
        cluster.submit(make_tasks([(0.0, 0.5), (0.0, 0.5)]))
        victim = cluster.nodes[1]
        # Drain strictly between dispatch (t=0) and landing (t=0.3).
        cluster.events.push(0.1, lambda: cluster.drain_node(victim))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert victim.state is NodeState.RETIRED
        assert victim.tasks_completed == 1
        # Retired only after the wire-delayed task landed and finished.
        assert victim.retired_at == pytest.approx(0.8)

    def test_retire_with_ingress_pending_rejected(self):
        """The invariant has teeth at its enforcement point: a node with
        work on the wire cannot retire, inflight or not."""
        cluster = ClusterSimulator(config=network_config(rtt=0.2))
        node = cluster.nodes[0]
        node.ingress = 1
        node.start_draining()
        with pytest.raises(RuntimeError, match="ingress queue"):
            node.retire(now=0.0)

    def test_scale_down_victim_counts_ingress_work(self):
        """The autoscaler drains the least *committed* node: work on the
        wire toward a node counts like delivered work."""
        from repro.cluster import AutoscalerConfig, ReactiveAutoscaler

        autoscaler = ReactiveAutoscaler(
            # Fleet load will be (3 ingress + 1 inflight) / 4 cores = 1.0.
            AutoscalerConfig(min_nodes=1, max_nodes=4, scale_down_load=1.2)
        )
        cluster = ClusterSimulator(
            config=network_config(rtt=0.2, num_nodes=2), autoscaler=autoscaler
        )
        # Node 0 has three tasks on the wire, node 1 one delivered task:
        # the victim must be node 1 (1 committed) not node 0 (3 committed).
        cluster.nodes[0].ingress = 3
        cluster.nodes[1].inflight = 1
        autoscaler.on_tick(now=10.0)
        assert autoscaler.scale_downs == 1
        assert cluster.nodes[1].state is NodeState.DRAINING
        assert cluster.nodes[0].state is NodeState.ACTIVE

    def test_draining_fleet_with_ingress_completes_without_error(self):
        """Even the *whole* fleet draining with work on the wire is legal:
        every ingress task force-lands on its draining target."""
        cluster = ClusterSimulator(
            config=network_config(rtt=0.2, num_nodes=2, cores_per_node=1)
        )
        cluster.submit(make_tasks([(0.0, 0.4), (0.0, 0.4)]))
        def drain_all():
            for node in list(cluster.active_nodes()):
                cluster.drain_node(node)
        cluster.events.push(0.1, drain_all)
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert all(n.state is NodeState.RETIRED for n in cluster.nodes)


class TestScenarioNetwork:
    def test_cluster_roundtrip_with_network(self):
        scenario = Scenario(
            workload=Workload("ten_minute", scale=0.02),
            num_nodes=2,
            scheduler="fifo",
            dispatcher="jsq",
            network=NetworkSpec(rtt=0.25),
        )
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert rebuilt.build_cluster_config().network == NetworkSpec(rtt=0.25)

    def test_network_accepts_plain_dict(self):
        scenario = Scenario(
            workload=Workload("ten_minute", scale=0.02),
            num_nodes=2,
            network={"rtt": 0.1, "probe_rtts": 0.0},
        )
        assert scenario.network == NetworkSpec(rtt=0.1, probe_rtts=0.0)

    def test_default_network_roundtrip_omitted(self):
        scenario = Scenario(
            workload=Workload("ten_minute", scale=0.02), num_nodes=2
        )
        assert "network" not in scenario.to_dict()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_single_machine_rejects_network(self):
        with pytest.raises(ValueError, match="cluster fields"):
            Scenario(
                workload=Workload("two_minute"), network=NetworkSpec(rtt=0.1)
            )


class TestLocalityVsRtt:
    """The acceptance claim, at reduced scale: once the RTT is non-zero,
    blind consistent hashing beats probe-paying JSQ on p99."""

    def test_consistent_hash_beats_jsq_under_rtt(self):
        from repro.experiments.cluster_scaling import run_locality_rtt_sweep

        results = run_locality_rtt_sweep(scale=0.02)
        p99 = {
            label: result.summary().p99_turnaround
            for label, result in results.items()
        }
        # Oracle-instant dispatch: JSQ cannot lose.
        assert p99["jsq_rtt0"] <= p99["consistent_hash_rtt0"]
        # Real RTT: the probe round trip costs JSQ the tail.
        assert p99["consistent_hash_rtt"] < p99["jsq_rtt"]
        # And the wire accounting explains it: hashing's mean ingress wait
        # is the one-way trip, JSQ's adds the probe RTT on top.
        assert results["consistent_hash_rtt"].mean_ingress_wait() < (
            results["jsq_rtt"].mean_ingress_wait()
        )
