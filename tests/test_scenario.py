"""Scenario layer tests: serialisation round trips, pipeline equivalence.

The ISSUE-4 acceptance contract: ``Scenario -> dict -> Scenario -> run``
reproduces the direct-config run bit-identically for a single-machine and a
heterogeneous-cluster case, and the columnar metrics of a scenario run match
the golden fixture at 1e-9.
"""

import pytest

from golden_scenarios import TOLERANCE, assert_close, load_golden
from repro.cluster import ClusterConfig, NodeSpec, simulate_cluster
from repro.core.hybrid import HybridScheduler
from repro.cost.cost_model import ClusterCostBreakdown, CostBreakdown
from repro.experiments.common import (
    hybrid_kwargs,
    paper_hybrid_config,
    two_minute_workload,
)
from repro.scenario import CostSpec, Scenario, Workload, available_workloads, run
from repro.simulation.engine import simulate
from repro.simulation.metrics import TaskMetricsSummary


def roundtrip(scenario: Scenario) -> Scenario:
    return Scenario.from_json(scenario.to_json())


class TestSerialisation:
    def test_single_machine_roundtrip_equality(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.1),
            scheduler="hybrid",
            scheduler_kwargs=hybrid_kwargs(),
            seed=3,
            max_simulated_time=100.0,
        )
        assert roundtrip(scenario) == scenario
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_cluster_roundtrip_equality(self):
        scenario = Scenario(
            workload=Workload("ten_minute", scale=0.05),
            scheduler="fifo",
            node_specs=(
                NodeSpec(cores=24, count=2, label="big"),
                NodeSpec(cores=8, count=4, label="little", price_per_hour=0.1),
            ),
            dispatcher="jsq",
            migration="work_stealing",
            autoscaler={"min_nodes": 2, "max_nodes": 8},
            cost=CostSpec(include_request_fee=True),
        )
        assert roundtrip(scenario) == scenario

    def test_node_specs_accept_plain_dicts(self):
        scenario = Scenario(
            workload=Workload("two_minute"),
            node_specs=({"cores": 4}, {"cores": 8, "count": 2}),
        )
        assert scenario.node_specs == (NodeSpec(cores=4), NodeSpec(cores=8, count=2))

    def test_single_machine_rejects_cluster_fields(self):
        with pytest.raises(ValueError, match="cluster fields"):
            Scenario(workload=Workload("two_minute"), migration="work_stealing")
        with pytest.raises(ValueError, match="cluster fields"):
            # A non-default dispatcher without a fleet shape is a mistake,
            # not a silently ignored knob.
            Scenario(workload=Workload("two_minute"), dispatcher="jsq")
        with pytest.raises(ValueError, match="cluster fields"):
            Scenario(
                workload=Workload("two_minute"),
                dispatcher_kwargs={"normalized": False},
            )

    @pytest.mark.parametrize("seed", ["42", True, 4.2, 42.0])
    def test_seed_must_be_an_integer(self, seed):
        # A string seed used to seed a different RNG stream without a word.
        with pytest.raises(TypeError, match="seed"):
            Scenario.from_dict({"seed": seed})

    @pytest.mark.parametrize("num_cores", ["50", 50.0, True])
    def test_num_cores_must_be_an_integer(self, num_cores):
        # "50" used to fail with an unnamed "'<=' not supported" TypeError.
        with pytest.raises(TypeError, match="num_cores"):
            Scenario.from_dict({"num_cores": num_cores})

    def test_integer_seed_and_num_cores_accepted(self):
        import numpy as np

        scenario = Scenario.from_dict({"seed": np.int64(7), "num_cores": 16})
        assert (scenario.seed, scenario.num_cores) == (7, 16)
        assert Scenario.from_dict({"seed": None}).seed is None

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            Workload("two_minute", scale=0.0)
        with pytest.raises(ValueError):
            Workload("")

    def test_unknown_workload_rejected_at_run(self):
        with pytest.raises(KeyError, match="unknown workload"):
            run(Scenario(workload=Workload("no_such_trace")))

    def test_registry_lists_canonical_workloads(self):
        assert {"two_minute", "ten_minute", "firecracker"} <= set(available_workloads())


class TestPipelineRouting:
    def test_workload_required_without_tasks(self):
        with pytest.raises(ValueError, match="no workload"):
            run(Scenario())

    def test_cluster_rejects_scheduler_instance(self):
        scenario = Scenario(workload=Workload("two_minute", scale=0.05), num_nodes=2)
        with pytest.raises(ValueError, match="instance overrides"):
            run(scenario, scheduler=object())

    def test_single_machine_cost_report(self):
        result = run(Scenario(workload=Workload("two_minute", scale=0.05)))
        assert not result.is_cluster
        assert isinstance(result.cost, CostBreakdown)
        assert result.cost.total > 0
        assert result.scheduler is not None

    def test_cluster_cost_report(self):
        result = run(
            Scenario(workload=Workload("two_minute", scale=0.05), num_nodes=4)
        )
        assert result.is_cluster
        assert isinstance(result.cost, ClusterCostBreakdown)
        assert result.cost.node_hours > 0
        assert result.cost.node_cost > 0
        assert result.cost.total > result.cost.user_cost


class TestSingleMachineEquivalence:
    """Scenario -> dict -> Scenario -> run == the direct instance-based run."""

    def test_fifo_bit_identical(self):
        direct = simulate(
            __import__("repro.schedulers.fifo", fromlist=["FIFOScheduler"]).FIFOScheduler(),
            two_minute_workload(0.05),
        )
        scenario = roundtrip(
            Scenario(workload=Workload("two_minute", scale=0.05), scheduler="fifo")
        )
        declarative = run(scenario).result
        assert declarative.summary().as_dict() == direct.summary().as_dict()
        assert declarative.total_preemptions() == direct.total_preemptions()

    def test_hybrid_bit_identical(self):
        direct = simulate(
            HybridScheduler(paper_hybrid_config()), two_minute_workload(0.05)
        )
        scenario = roundtrip(
            Scenario(
                workload=Workload("two_minute", scale=0.05),
                scheduler="hybrid",
                scheduler_kwargs=hybrid_kwargs(),
            )
        )
        declarative = run(scenario).result
        assert declarative.summary().as_dict() == direct.summary().as_dict()


class TestClusterEquivalence:
    def test_heterogeneous_cluster_bit_identical(self):
        specs = (
            NodeSpec(cores=24, count=2, label="big"),
            NodeSpec(cores=8, count=4, label="little"),
        )
        direct = simulate_cluster(
            two_minute_workload(0.1),
            config=ClusterConfig(
                node_specs=specs,
                scheduler="fifo",
                dispatcher="jsq",
                migration="work_stealing",
            ),
        )
        scenario = roundtrip(
            Scenario(
                workload=Workload("two_minute", scale=0.1),
                scheduler="fifo",
                node_specs=specs,
                dispatcher="jsq",
                migration="work_stealing",
            )
        )
        declarative = run(scenario).result
        assert declarative.summary().as_dict() == direct.summary().as_dict()
        assert declarative.tasks_migrated == direct.tasks_migrated
        assert {
            nid: (s["assigned"], s["completed"], s["stolen_in"], s["stolen_away"])
            for nid, s in declarative.node_stats.items()
        } == {
            nid: (s["assigned"], s["completed"], s["stolen_in"], s["stolen_away"])
            for nid, s in direct.node_stats.items()
        }

    def test_scenario_columnar_metrics_match_golden_fixture(self):
        """The golden hetero-stealing metrics, via the scenario pipeline.

        The fixture was captured from the pre-virtual-time engine at
        ``bf121a5`` with list-based metrics; the declarative run's columnar
        summaries must reproduce it within 1e-9.
        """
        golden = load_golden()["hetero_cluster_stealing"]
        scenario = roundtrip(
            Scenario(
                workload=Workload("two_minute", scale=0.1),
                scheduler="fifo",
                node_specs=(
                    NodeSpec(cores=24, count=2, label="big"),
                    NodeSpec(cores=8, count=4, label="little"),
                ),
                dispatcher="jsq",
                migration="work_stealing",
            )
        )
        result = run(scenario).result
        observed = {
            key: float(value)
            for key, value in TaskMetricsSummary.from_columns(
                result.task_columns()
            ).as_dict().items()
        }
        observed["tasks_migrated"] = float(result.tasks_migrated)
        observed["simulated_time"] = float(result.simulated_time)
        for node_id, stats in sorted(result.node_stats.items()):
            observed[f"node{node_id}.assigned"] = float(stats["assigned"])
            observed[f"node{node_id}.completed"] = float(stats["completed"])
            observed[f"node{node_id}.stolen_in"] = float(stats["stolen_in"])
            observed[f"node{node_id}.stolen_away"] = float(stats["stolen_away"])
        assert TOLERANCE == 1e-9
        assert_close("hetero_cluster_stealing(scenario)", golden, observed)
