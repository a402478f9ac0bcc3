"""Chaos subsystem: seeded failures, revocations, and checkpointed rescue.

Covers the PR's contract:

* spec + wiring — :class:`ChaosSpec` validation and JSON round-trips
  (scenario files, per-``NodeSpec`` rate overrides, the ``--chaos`` runner
  flag), chaos rejected on single-machine scenarios;
* seed-stream isolation — a zero-rate chaos run is bit-identical to a
  chaos-off run and still reproduces the pre-chaos golden metrics within
  1e-9; identical configs fail identically;
* crash semantics — queued and running work forfeits progress, re-enters
  through the ordinary ARRIVAL path, and completes exactly once; budgets,
  redispatch delay, billing stops at the failure instant;
* revocations — warning then teardown, drain-rescue under deadline
  pressure, idle nodes escaping, checkpointed migration preserving partial
  progress where plain stealing forfeits it;
* fleet-collapse edges — whole fleet failed or draining buffers arrivals
  into the backlog-replay path instead of raising, the load signal reads
  infinite, an autoscaler regrows the fleet and replaces failed capacity;
* races — node failure vs a task on the wire, a steal in transit, and an
  armed retry timer, each completing (or rejecting) exactly once.
"""

from __future__ import annotations

import json

import pytest

from golden_scenarios import assert_close, load_golden
from repro.chaos import ChaosInjector, ChaosSpec, build_injector
from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    NodeSpec,
    NodeState,
    simulate_cluster,
)
from repro.cluster.autoscaler import (
    AutoscalerConfig,
    ReactiveAutoscaler,
    fleet_load_signal,
)
from repro.cluster.config import NetworkSpec
from repro.cluster.migration import WorkStealingPolicy
from repro.experiments.common import run_experiment, two_minute_workload
from repro.middleware import TimeoutRetryMiddleware
from repro.scenario import Scenario, Workload
from repro.schedulers.registry import available_schedulers
from repro.simulation.events import EventPriority
from repro.simulation.task import Task, make_tasks


def chaos_config(**overrides) -> ClusterConfig:
    defaults = dict(
        num_nodes=2, cores_per_node=1, scheduler="fifo", dispatcher="round_robin"
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def at(cluster, time, callback, tag="test-chaos"):
    """Schedule a control-priority callback inside the run."""
    cluster.events.push(time, callback, priority=EventPriority.CONTROL, tag=tag)


# ---------------------------------------------------------------------- spec


class TestChaosSpec:
    def test_defaults_serialise_empty(self):
        assert ChaosSpec().to_dict() == {}
        assert ChaosSpec.from_dict({}) == ChaosSpec()

    def test_full_round_trip(self):
        spec = ChaosSpec(
            crash_rate=0.1,
            revocation_rate=0.2,
            warning=5.0,
            redispatch_delay=0.3,
            max_failures=2,
        )
        data = spec.to_dict()
        assert ChaosSpec.from_dict(json.loads(json.dumps(data))) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"revocation_rate": -1.0},
            {"warning": -2.0},
            {"redispatch_delay": -0.5},
            {"max_failures": 0},
        ],
    )
    def test_validates_arguments(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSpec(**kwargs)

    def test_build_injector_coercion(self):
        cluster = ClusterSimulator(config=chaos_config())
        assert build_injector(None, cluster) is None
        injector = build_injector({"crash_rate": 0.5}, cluster)
        assert isinstance(injector, ChaosInjector)
        assert injector.spec.crash_rate == 0.5
        with pytest.raises(TypeError):
            build_injector(42, cluster)

    def test_config_coerces_dict_and_rejects_garbage(self):
        config = chaos_config(chaos={"crash_rate": 0.25})
        assert isinstance(config.chaos, ChaosSpec)
        assert config.chaos.crash_rate == 0.25
        with pytest.raises(TypeError):
            chaos_config(chaos=object())

    def test_config_with_chaos_helper(self):
        config = chaos_config().with_chaos(revocation_rate=0.1, warning=3.0)
        assert config.chaos == ChaosSpec(revocation_rate=0.1, warning=3.0)

    def test_node_rates_overrides(self):
        config = ClusterConfig(
            node_specs=(
                NodeSpec(cores=1, label="spot"),
                NodeSpec(cores=1, label="reliable", crash_rate=0.0),
                NodeSpec(cores=1, label="fragile", crash_rate=9.0,
                         revocation_rate=1.5),
            ),
            scheduler="fifo",
            dispatcher="round_robin",
            chaos=ChaosSpec(crash_rate=0.5, revocation_rate=0.25),
        )
        cluster = ClusterSimulator(config=config)
        spot, reliable, fragile = cluster.nodes
        assert cluster._chaos.node_rates(spot) == (0.5, 0.25)
        assert cluster._chaos.node_rates(reliable) == (0.0, 0.25)
        assert cluster._chaos.node_rates(fragile) == (9.0, 1.5)

    def test_node_spec_rates_validated(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=1, crash_rate=-0.1)
        with pytest.raises(ValueError):
            NodeSpec(cores=1, revocation_rate=-0.1)


# ------------------------------------------------------------------ scenario


class TestScenarioWiring:
    def cluster_scenario(self, **kwargs) -> Scenario:
        defaults = dict(
            workload=Workload("two_minute", scale=0.02),
            num_nodes=2,
            cores_per_node=2,
            scheduler="fifo",
            dispatcher="round_robin",
        )
        defaults.update(kwargs)
        return Scenario(**defaults)

    def test_single_machine_scenario_rejects_chaos(self):
        with pytest.raises(ValueError):
            Scenario(
                workload=Workload("two_minute", scale=0.02),
                scheduler="fifo",
                chaos=ChaosSpec(crash_rate=0.1),
            )

    def test_scenario_json_round_trip(self):
        scenario = self.cluster_scenario(
            chaos=ChaosSpec(crash_rate=0.1, warning=4.0, max_failures=2),
        )
        clone = Scenario.from_json(scenario.to_json())
        assert clone.chaos == scenario.chaos
        assert clone == scenario

    def test_scenario_coerces_chaos_dict(self):
        scenario = self.cluster_scenario(chaos={"revocation_rate": 0.2})
        assert scenario.chaos == ChaosSpec(revocation_rate=0.2)

    def test_with_chaos_helper(self):
        scenario = self.cluster_scenario().with_chaos(crash_rate=0.3)
        assert scenario.chaos == ChaosSpec(crash_rate=0.3)

    def test_node_spec_rates_round_trip(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.02),
            node_specs=(
                NodeSpec(cores=2, label="spot", revocation_rate=0.5),
                NodeSpec(cores=2, label="reliable", revocation_rate=0.0),
            ),
            scheduler="fifo",
            dispatcher="round_robin",
            chaos=ChaosSpec(revocation_rate=0.25),
        )
        clone = Scenario.from_json(scenario.to_json())
        assert clone.node_specs[0].revocation_rate == 0.5
        assert clone.node_specs[1].revocation_rate == 0.0
        assert clone == scenario

    def test_build_cluster_config_carries_chaos(self):
        scenario = self.cluster_scenario(chaos=ChaosSpec(crash_rate=0.1))
        config = scenario.build_cluster_config()
        assert config.chaos == ChaosSpec(crash_rate=0.1)

    def test_runner_chaos_flag(self, capsys, tmp_path):
        from repro.experiments.runner import run_cli

        path = tmp_path / "chaotic.json"
        path.write_text(self.cluster_scenario().to_json())
        code = run_cli(
            ["--scenario", str(path), "--chaos", "crash_rate=2.0,max_failures=1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "nodes failed" in out

    def test_runner_chaos_flag_requires_scenario(self, capsys):
        from repro.experiments.runner import run_cli

        assert run_cli(["--chaos", "crash_rate=1.0"]) == 2

    def test_runner_chaos_flag_rejects_bad_fields(self, capsys, tmp_path):
        from repro.experiments.runner import run_cli

        path = tmp_path / "chaotic.json"
        path.write_text(self.cluster_scenario().to_json())
        assert run_cli(["--scenario", str(path), "--chaos", "bogus=1"]) == 2
        assert run_cli(["--scenario", str(path), "--chaos", "crash_rate"]) == 2
        capsys.readouterr()
        assert run_cli(["--scenario", str(path), "--chaos", "crash_rat=1"]) == 2
        assert "did you mean 'crash_rate'" in capsys.readouterr().err
        assert run_cli(["--scenario", str(path), "--chaos", "max_failures=x"]) == 2
        assert "max_failures must be an integer" in capsys.readouterr().err


# ------------------------------------------------------------ seed isolation


class TestSeedIsolation:
    def test_zero_rate_chaos_is_bit_identical_to_off(self):
        """Satellite contract: enabling chaos with zero rates draws nothing
        from the chaos stream and reproduces the chaos-off run exactly."""
        specs = [(i * 0.1, 0.4 + (i % 3) * 0.3) for i in range(30)]
        config = chaos_config(num_nodes=3, cores_per_node=2, migration="work_stealing")
        off = simulate_cluster(make_tasks(specs), config=config)
        on = simulate_cluster(
            make_tasks(specs), config=config, chaos=ChaosSpec()
        )
        key = lambda r: sorted(
            (t.task_id, t.first_run_time, t.completion_time) for t in r.tasks
        )
        assert key(on) == key(off)  # exact equality, not approx
        assert on.events_processed == off.events_processed
        assert on.tasks_migrated == off.tasks_migrated
        assert on.nodes_failed == 0 and on.tasks_lost == 0

    def test_zero_rate_chaos_matches_pre_chaos_golden(self):
        """The golden 1e-9 pin holds with a zero-rate injector attached."""
        from repro.simulation.metrics import TaskMetricsSummary

        config = ClusterConfig(
            node_specs=(
                NodeSpec(cores=24, count=2, label="big"),
                NodeSpec(cores=8, count=4, label="little"),
            ),
            scheduler="fifo",
            dispatcher="jsq",
            migration="work_stealing",
            chaos=ChaosSpec(),
        )
        result = simulate_cluster(two_minute_workload(0.1), config=config)
        observed = {
            key: float(value)
            for key, value in TaskMetricsSummary.from_tasks(result.tasks)
            .as_dict()
            .items()
        }
        observed["tasks_migrated"] = float(result.tasks_migrated)
        observed["simulated_time"] = float(result.simulated_time)
        for node_id, stats in sorted(result.node_stats.items()):
            observed[f"node{node_id}.assigned"] = float(stats["assigned"])
            observed[f"node{node_id}.completed"] = float(stats["completed"])
            observed[f"node{node_id}.stolen_in"] = float(stats["stolen_in"])
            observed[f"node{node_id}.stolen_away"] = float(stats["stolen_away"])
        golden = load_golden()["hetero_cluster_stealing"]
        assert_close("hetero_cluster_stealing (zero-rate chaos)", golden, observed)

    def test_same_config_fails_identically(self):
        specs = [(i * 0.05, 1.5) for i in range(40)]
        config = chaos_config(
            num_nodes=3, chaos=ChaosSpec(crash_rate=0.2, max_failures=1)
        )
        first = simulate_cluster(make_tasks(specs), config=config)
        second = simulate_cluster(make_tasks(specs), config=config)
        assert first.nodes_failed == second.nodes_failed == 1
        assert first.tasks_lost == second.tasks_lost
        assert sorted(t.completion_time for t in first.finished_tasks) == sorted(
            t.completion_time for t in second.finished_tasks
        )

    def test_chaos_stream_derives_from_config_seed(self):
        spec = ChaosSpec(crash_rate=0.2)
        draws = {}
        for seed in (0, 1):
            cluster = ClusterSimulator(config=chaos_config(seed=seed))
            injector = ChaosInjector(spec, cluster)
            draws[seed] = [injector.rng.expovariate(1.0) for _ in range(3)]
        assert draws[0] != draws[1]


# --------------------------------------------------------------------- crash


class TestCrashFailures:
    def test_crash_loses_queued_and_running_work_exactly_once(self):
        tasks = [
            Task(task_id=0, arrival_time=0.0, service_time=5.0),  # runs on node 0
            Task(task_id=1, arrival_time=0.0, service_time=5.0),  # runs on node 1
            Task(task_id=2, arrival_time=0.0, service_time=1.0),  # queues on node 0
        ]
        cluster = ClusterSimulator(config=chaos_config(), chaos=ChaosSpec())
        cluster.submit(tasks)
        at(cluster, 1.0, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert result.nodes_failed == 1
        assert result.tasks_lost == 2
        # Task 0 forfeited exactly its 1.0s of progress; task 2 never started.
        assert result.wasted_service == pytest.approx(1.0)
        assert {t.task_id for t in result.lost_tasks()} == {0, 2}
        for task in result.lost_tasks():
            assert task.metadata["node_failures"] == 1
        # Exactly-once completion across the fleet.
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == 3
        assert result.node_stats[0]["failed"] == 1.0
        assert result.node_stats[0]["lost"] == 2.0
        # Billing stops at the failure instant.
        assert result.node_stats[0]["uptime"] == pytest.approx(1.0)
        assert cluster.nodes[0].state is NodeState.FAILED

    def test_seeded_crashes_fire_and_everything_still_completes(self):
        specs = [(i * 0.05, 1.2) for i in range(60)]
        result = simulate_cluster(
            make_tasks(specs),
            config=chaos_config(
                num_nodes=3,
                cores_per_node=2,
                chaos=ChaosSpec(crash_rate=0.3, max_failures=2),
            ),
        )
        assert result.nodes_failed >= 1
        assert result.completion_ratio == 1.0
        assert result.unserved_tasks() == 0
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == len(specs)

    def test_max_failures_budget_is_respected(self):
        specs = [(i * 0.05, 2.0) for i in range(60)]
        result = simulate_cluster(
            make_tasks(specs),
            config=chaos_config(
                num_nodes=4,
                chaos=ChaosSpec(crash_rate=5.0, max_failures=2),
            ),
        )
        assert result.nodes_failed == 2
        assert result.completion_ratio == 1.0

    def test_redispatch_delay_defers_reentry(self):
        task = Task(task_id=0, arrival_time=0.0, service_time=2.0)
        cluster = ClusterSimulator(
            config=chaos_config(), chaos=ChaosSpec(redispatch_delay=0.5)
        )
        cluster.submit([task])
        at(cluster, 1.0, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        # Lost at t=1.0, re-admitted at 1.5, restarts from scratch on node 1.
        assert result.tasks[0].completion_time == pytest.approx(3.5)
        assert result.wasted_service == pytest.approx(1.0)

    def test_whole_fleet_crashed_without_autoscaler_ends_honestly(self):
        """No recovery path: the run terminates with an incomplete result
        (parked backlog) instead of raising or spinning forever."""
        specs = [(0.0, 2.0), (0.1, 2.0), (0.2, 2.0)]
        result = simulate_cluster(
            make_tasks(specs),
            config=chaos_config(num_nodes=2, chaos=ChaosSpec(crash_rate=10.0)),
        )
        assert result.nodes_failed == 2
        assert result.completion_ratio < 1.0
        assert result.unserved_tasks() > 0


class TestEverySchedulerSurvivesFailures:
    """Node failures work whatever per-node scheduler holds the queued work:
    the run completes and every submitted task is finished or unserved,
    finished exactly once."""

    @pytest.mark.parametrize("fault", ["crash_rate", "revocation_rate"])
    @pytest.mark.parametrize("scheduler", available_schedulers())
    def test_failures_conserve_tasks(self, scheduler, fault):
        tasks = two_minute_workload(0.05)
        result = simulate_cluster(
            tasks,
            config=ClusterConfig(
                num_nodes=4,
                cores_per_node=8,
                scheduler=scheduler,
                dispatcher="jsq",
                chaos=ChaosSpec(**{fault: 0.1}),
            ),
        )
        # Nodes failed with work on board.
        assert result.nodes_failed > 0 and result.tasks_lost > 0
        finished = [task for task in tasks if task.is_finished]
        unfinished = len(tasks) - len(finished)
        assert result.tasks_submitted == len(tasks)
        assert result.finished_count == len(finished)
        assert result.unserved_tasks() == unfinished
        assert len(finished) + result.unserved_tasks() == result.tasks_submitted
        # One row per completion: a task finishing twice would add two.
        assert len(result.task_columns()) == len(finished)
        completed = sum(stats["completed"] for stats in result.node_stats.values())
        assert completed == len(finished)


# --------------------------------------------------------------- revocations


class TestRevocations:
    def test_revocation_warns_drains_then_kills(self):
        task = Task(task_id=0, arrival_time=0.0, service_time=10.0)
        cluster = ClusterSimulator(
            config=chaos_config(), chaos=ChaosSpec(warning=1.0)
        )
        cluster.submit([task])
        at(cluster, 0.5, lambda: cluster._chaos._fire_revocation(cluster.nodes[0]))
        result = cluster.run()
        # Warned at 0.5, killed at 1.5 with 1.5s of progress forfeited; the
        # task restarts on node 1 and finishes at 11.5.
        assert cluster._chaos.revocations == 1
        assert result.nodes_failed == 1
        assert result.wasted_service == pytest.approx(1.5)
        assert result.tasks[0].completion_time == pytest.approx(11.5)
        assert cluster.nodes[0].state is NodeState.FAILED

    def test_idle_node_revocation_escapes(self):
        tasks = [Task(task_id=0, arrival_time=0.0, service_time=3.0)]
        cluster = ClusterSimulator(
            config=chaos_config(), chaos=ChaosSpec(warning=1.0)
        )
        cluster.submit(tasks)  # round robin puts the task on node 0
        at(cluster, 0.5, lambda: cluster._chaos._fire_revocation(cluster.nodes[1]))
        result = cluster.run()
        # Node 1 was idle: the drain retires it instantly and the kill finds
        # nothing to tear down.
        assert cluster._chaos.revocations == 1
        assert cluster._chaos.escapes == 1
        assert result.nodes_failed == 0
        assert cluster.nodes[1].state is NodeState.RETIRED
        assert result.completion_ratio == 1.0

    def test_revocation_of_already_draining_node_just_sets_the_deadline(self):
        tasks = [
            Task(task_id=0, arrival_time=0.0, service_time=5.0),
            Task(task_id=1, arrival_time=0.0, service_time=5.0),
        ]
        cluster = ClusterSimulator(
            config=chaos_config(), chaos=ChaosSpec(warning=1.0)
        )
        cluster.submit(tasks)
        at(cluster, 0.2, lambda: cluster.drain_node(cluster.nodes[0]))
        at(cluster, 0.5, lambda: cluster._chaos._fire_revocation(cluster.nodes[0]))
        result = cluster.run()
        # Already draining when the warning landed: no double drain, the
        # kill still fires at 1.5 and forfeits the running task's progress.
        assert cluster._chaos.revocations == 1
        assert result.nodes_failed == 1
        assert result.wasted_service == pytest.approx(1.5)
        assert result.completion_ratio == 1.0

    def test_drain_rescue_saves_queued_work_before_the_deadline(self):
        tasks = [
            Task(task_id=0, arrival_time=0.0, service_time=0.5),  # runs on node 0
            Task(task_id=1, arrival_time=0.0, service_time=0.1),  # runs on node 1
            Task(task_id=2, arrival_time=0.0, service_time=3.0),  # queues on node 0
            Task(task_id=3, arrival_time=0.0, service_time=3.0),  # queues on node 1
        ]
        # Both queued tasks land on node 0's queue? No: round robin
        # alternates, so 2 queues on node 0 and 3 on node 1.
        cluster = ClusterSimulator(
            config=chaos_config(
                migration="work_stealing", migration_kwargs={"interval": 10.0}
            ),
            chaos=ChaosSpec(warning=1.0),
        )
        cluster.submit(tasks)
        at(cluster, 0.2, lambda: cluster._chaos._fire_revocation(cluster.nodes[0]))
        result = cluster.run()
        # The drain triggers an immediate rescue pass: task 2 moves to node 1
        # before ever running; task 0 finishes at 0.5 and node 0 retires —
        # the kill at 1.2 finds it gone (escape), nothing is wasted.
        assert cluster._chaos.escapes == 1
        assert result.nodes_failed == 0
        assert result.tasks_migrated == 1
        assert result.wasted_service == 0.0
        assert result.completion_ratio == 1.0


# ---------------------------------------------------------------- checkpoint


class TestCheckpointedMigration:
    def _revoked_long_task(self, checkpoint: bool):
        task = Task(task_id=0, arrival_time=0.0, service_time=10.0)
        cluster = ClusterSimulator(
            config=chaos_config(
                migration="work_stealing",
                migration_kwargs={"interval": 10.0, "checkpoint": checkpoint},
            ),
            chaos=ChaosSpec(warning=2.0),
        )
        cluster.submit([task])
        at(cluster, 1.0, lambda: cluster._chaos._fire_revocation(cluster.nodes[0]))
        return cluster, cluster.run()

    def test_checkpoint_preserves_progress_where_forfeit_restarts(self):
        cluster_ckpt, with_ckpt = self._revoked_long_task(checkpoint=True)
        cluster_forf, without = self._revoked_long_task(checkpoint=False)

        # Checkpointed: the drain-triggered pass ships the running task with
        # its 1.0s of progress; it pays the checkpoint transfer + restore
        # overhead and finishes just after t=10.
        assert with_ckpt.tasks_checkpointed == 1
        assert with_ckpt.wasted_service == 0.0
        assert with_ckpt.tasks[0].metadata["checkpoints"] == 1
        ct_ckpt = with_ckpt.tasks[0].completion_time
        assert 10.0 < ct_ckpt < 10.1
        # The emptied node retires before the kill: a full escape.
        assert cluster_ckpt._chaos.escapes == 1
        assert with_ckpt.nodes_failed == 0

        # Forfeit: the task is still running at the kill (t=3.0), loses all
        # 3.0s of progress and restarts from scratch on the survivor.
        assert without.tasks_checkpointed == 0
        assert without.wasted_service == pytest.approx(3.0)
        assert without.tasks[0].completion_time == pytest.approx(13.0)
        assert without.nodes_failed == 1

        assert ct_ckpt < without.tasks[0].completion_time

    def test_restore_overhead_is_charged_once_at_snapshot_cut(self):
        policy = WorkStealingPolicy(checkpoint=True)
        _, result = self._revoked_long_task(checkpoint=True)
        ct = result.tasks[0].completion_time
        # 1.0s ran locally + transfer (delay + checkpoint_delay) + 9.0s left
        # + restore overhead.
        expected = (
            1.0
            + policy.delay
            + policy.checkpoint_delay
            + 9.0
            + policy.restore_overhead
        )
        assert ct == pytest.approx(expected)

    def test_transfer_delay_model(self):
        policy = WorkStealingPolicy(
            delay=0.01, checkpoint=True, checkpoint_delay=0.04
        )
        assert policy.transfer_delay(running=False) == pytest.approx(0.01)
        assert policy.transfer_delay(running=True) == pytest.approx(0.05)

    def test_checkpoint_knobs_validated(self):
        with pytest.raises(ValueError):
            WorkStealingPolicy(checkpoint_delay=-0.1)
        with pytest.raises(ValueError):
            WorkStealingPolicy(restore_overhead=-0.1)


# ------------------------------------------------------------ fleet collapse


class TestFleetCollapse:
    def test_load_signal_infinite_when_whole_fleet_failed(self):
        cluster = ClusterSimulator(config=chaos_config(), chaos=ChaosSpec())
        for node in list(cluster.nodes):
            cluster._fail_node(node, "crash")
        cluster.waiting_tasks.append(object())
        assert fleet_load_signal(cluster) == float("inf")
        cluster.waiting_tasks.clear()
        assert fleet_load_signal(cluster) == 0.0

    def test_arrival_while_whole_fleet_failed_buffers_and_replays(self):
        """Satellite regression: a simultaneous whole-fleet failure must
        park arrivals for the autoscaler's replacements, not raise."""
        tasks = make_tasks([(0.0, 1.0), (0.5, 1.0), (0.6, 1.0)])
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=4, check_interval=0.2, cooldown=0.0)
        )
        cluster = ClusterSimulator(
            config=chaos_config(), autoscaler=autoscaler, chaos=ChaosSpec()
        )
        cluster.submit(tasks)

        def wipe_fleet():
            for node in list(cluster.nodes):
                if not node.state.terminal:
                    cluster._fail_node(node, "crash")

        at(cluster, 0.4, wipe_fleet)
        result = cluster.run()
        assert result.nodes_failed == 2
        assert result.nodes_added >= 1
        assert result.completion_ratio == 1.0
        assert autoscaler.replacements >= 1

    def test_arrival_while_whole_fleet_draining_buffers(self):
        """A fleet mid-revocation (all DRAINING) is not a dead fleet: the
        arrival waits in the backlog and the autoscaler regrows capacity."""
        tasks = make_tasks([(0.0, 2.0), (1.0, 1.0)])
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=1, max_nodes=4, check_interval=0.2, cooldown=0.0)
        )
        cluster = ClusterSimulator(
            config=chaos_config(num_nodes=1), autoscaler=autoscaler
        )
        cluster.submit(tasks)
        # Node 0 is busy with the first task when it starts draining, so it
        # stays DRAINING (non-terminal) when the second task arrives.
        at(cluster, 0.5, lambda: cluster.drain_node(cluster.nodes[0]))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert result.nodes_added >= 1

    def test_autoscaler_replaces_failed_capacity_like_for_like(self):
        config = ClusterConfig(
            node_specs=(
                NodeSpec(cores=4, label="big"),
                NodeSpec(cores=1, label="little"),
            ),
            scheduler="fifo",
            dispatcher="round_robin",
        )
        autoscaler = ReactiveAutoscaler(AutoscalerConfig(min_nodes=1, max_nodes=4))
        cluster = ClusterSimulator(
            config=config, autoscaler=autoscaler, chaos=ChaosSpec()
        )
        cluster.submit(make_tasks([(0.0, 2.0), (0.0, 2.0), (0.0, 2.0)]))
        at(cluster, 0.5, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        assert autoscaler.replacements == 1
        assert result.nodes_added == 1
        # The replacement boots with the failed node's own shape.
        assert result.node_stats[2]["cores"] == 4.0
        assert result.completion_ratio == 1.0

    def test_replacement_respects_max_nodes(self):
        autoscaler = ReactiveAutoscaler(AutoscalerConfig(min_nodes=1, max_nodes=2))
        cluster = ClusterSimulator(
            config=chaos_config(num_nodes=3), autoscaler=autoscaler, chaos=ChaosSpec()
        )
        cluster.submit(make_tasks([(0.0, 2.0), (0.0, 2.0), (0.0, 2.0)]))
        at(cluster, 0.5, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        # Two survivors already fill the max_nodes budget: no replacement.
        assert autoscaler.replacements == 0
        assert result.nodes_added == 0
        assert result.completion_ratio == 1.0


# --------------------------------------------------------------------- races


class TestFailureRaces:
    def test_node_fails_while_task_on_the_wire(self):
        """Ingress race: the landing is lost and the task re-enters."""
        task = Task(task_id=0, arrival_time=0.0, service_time=1.0)
        cluster = ClusterSimulator(
            config=chaos_config(network=NetworkSpec(rtt=1.0)),
            chaos=ChaosSpec(),
        )
        cluster.submit([task])
        at(cluster, 0.25, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        # Dispatched to node 0 at t=0 (lands 0.5), node 0 dies at 0.25: the
        # landing is lost at 0.5, the task re-enters, pays the wire again to
        # node 1 and finishes at 2.0 — exactly once.
        assert result.completion_ratio == 1.0
        assert result.tasks_lost == 1
        assert result.node_stats[0]["lost"] == 1.0
        assert result.tasks[0].completion_time == pytest.approx(2.0)
        assert cluster.nodes[0].ingress == 0
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == 1

    def test_thief_fails_while_steal_in_transit(self):
        """A stolen task whose thief dies mid-flight round-trips home and
        completes exactly once; the void steal is not counted."""
        tasks = [
            Task(task_id=0, arrival_time=0.0, service_time=5.0),  # runs on node 0
            Task(task_id=1, arrival_time=0.0, service_time=0.2),  # runs on node 1
            Task(task_id=2, arrival_time=0.0, service_time=5.0),  # queues on node 0
        ]
        cluster = ClusterSimulator(
            config=chaos_config(
                migration="work_stealing",
                migration_kwargs={"interval": 0.3, "delay": 0.5},
            ),
            chaos=ChaosSpec(),
        )
        cluster.submit(tasks)
        # Node 1 goes idle at 0.2, steals task 2 at the 0.3 tick (in flight
        # until 0.8) and dies at 0.5 with the task on the wire.
        at(cluster, 0.5, lambda: cluster._fail_node(cluster.nodes[1], "crash"))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert result.tasks_migrated == 0  # the round trip is not a migration
        stolen_in = sum(s["stolen_in"] for s in result.node_stats.values())
        assert stolen_in == result.tasks_migrated
        stolen_away = sum(s["stolen_away"] for s in result.node_stats.values())
        assert stolen_away == 0  # voided on the way back
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == 3

    def test_armed_retry_timer_races_node_failure(self):
        """A retry timer armed on a node that fails must not double-land the
        task it was watching."""
        tasks = [
            Task(task_id=0, arrival_time=0.0, service_time=5.0),  # runs on node 0
            Task(task_id=1, arrival_time=0.0, service_time=5.0),  # runs on node 1
            Task(task_id=2, arrival_time=0.0, service_time=1.0),  # queues on node 0
        ]
        cluster = ClusterSimulator(
            config=chaos_config(),
            middleware=[TimeoutRetryMiddleware(timeout=1.0, max_retries=3, backoff=0.1)],
            chaos=ChaosSpec(),
        )
        cluster.submit(tasks)
        # Node 0 fails at 0.5 while task 2's retry timer (armed at t=0,
        # firing at t=1.0) is still pending.
        at(cluster, 0.5, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        assert result.completion_ratio == 1.0
        assert result.tasks_lost == 2
        completed = sum(s["completed"] for s in result.node_stats.values())
        assert completed == 3
        assert len(result.finished_tasks) + result.tasks_rejected == 3


# ----------------------------------------------------------------- telemetry


class TestChaosTelemetry:
    def test_crash_emits_instants_and_counters(self):
        from repro.telemetry import TelemetrySpec

        cluster = ClusterSimulator(
            config=chaos_config(),
            chaos=ChaosSpec(),
            telemetry=TelemetrySpec(),
        )
        cluster.submit(make_tasks([(0.0, 3.0), (0.0, 3.0)]))
        at(cluster, 1.0, lambda: cluster._fail_node(cluster.nodes[0], "crash"))
        result = cluster.run()
        snapshot = result.telemetry
        assert snapshot is not None
        names = [i[0] for i in snapshot.instants]
        assert "node-crash" in names
        assert "task-lost" in names
        counters = snapshot.counters
        assert counters.get("chaos.node_failures.crash") == 1.0
        assert counters.get("chaos.tasks_lost") == 1.0

    def test_revocation_emits_warning_then_failure(self):
        from repro.telemetry import TelemetrySpec

        cluster = ClusterSimulator(
            config=chaos_config(),
            chaos=ChaosSpec(warning=1.0),
            telemetry=TelemetrySpec(),
        )
        cluster.submit(make_tasks([(0.0, 5.0), (0.0, 5.0)]))
        at(cluster, 0.5, lambda: cluster._chaos._fire_revocation(cluster.nodes[0]))
        result = cluster.run()
        snapshot = result.telemetry
        names = [i[0] for i in snapshot.instants]
        assert "revocation-warning" in names
        assert "node-revocation" in names
        counters = snapshot.counters
        assert counters.get("chaos.revocation_warnings") == 1.0
        assert counters.get("chaos.node_failures.revocation") == 1.0
        # The warning span is balanced: opened at the warning, closed at
        # the kill.
        warning_spans = [s for s in snapshot.spans if s[0] == "revocation-warning"]
        assert len(warning_spans) == 1

    def test_escape_and_checkpoint_counters(self):
        from repro.telemetry import TelemetrySpec

        cluster = ClusterSimulator(
            config=chaos_config(
                migration="work_stealing",
                migration_kwargs={"interval": 10.0, "checkpoint": True},
            ),
            chaos=ChaosSpec(warning=2.0),
            telemetry=TelemetrySpec(),
        )
        cluster.submit([Task(task_id=0, arrival_time=0.0, service_time=10.0)])
        at(cluster, 1.0, lambda: cluster._chaos._fire_revocation(cluster.nodes[0]))
        result = cluster.run()
        counters = result.telemetry.counters
        assert counters.get("chaos.escapes") == 1.0
        assert counters.get("migration.checkpoints") == 1.0
        assert result.tasks_checkpointed == 1


# ---------------------------------------------------------------- experiment


def test_cluster_chaos_experiment_claims_hold_at_test_scale():
    output = run_experiment("cluster_chaos", scale=0.1)
    data = output.data
    assert data["crash_fired"]
    assert data["revocations_fired"]
    assert data["middleware_beats_bare_p99"]
    assert data["middleware_fewer_lost"]
    assert data["checkpoint_less_waste"]
