"""The one spec protocol: every JSON spec validates and round-trips alike.

Two properties over all thirteen specs: a wrongly typed or unknown value
fails with an error naming its dotted path, and ``from_dict`` inverts
``to_dict`` through JSON for any valid spec.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from spec_strategies import spec_strategy

from repro.chaos.spec import ChaosSpec
from repro.cluster.config import NetworkSpec, NodeSpec
from repro.middleware.spec import MiddlewareSpec
from repro.scenario.scenario import CostSpec, Scenario, Workload
from repro.sweep import GridAxis, PointSpec, RandomAxis, SweepSpec
from repro.telemetry.spec import TelemetrySpec
from repro.workload.streaming import StreamSpec

SPECS = (
    Scenario,
    Workload,
    CostSpec,
    NodeSpec,
    NetworkSpec,
    StreamSpec,
    ChaosSpec,
    TelemetrySpec,
    MiddlewareSpec,
    GridAxis,
    RandomAxis,
    PointSpec,
    SweepSpec,
)


@pytest.mark.parametrize(
    "cls, data, path",
    [
        (Scenario, {"record_utilization": "false"}, "record_utilization"),
        (Scenario, {"chaos": {"max_failures": 2.5}}, "chaos.max_failures"),
        (Scenario, {"chaos": {"crash_rate": True}}, "chaos.crash_rate"),
        (Scenario, {"stream": {"chunk": 10.5}}, "stream.chunk"),
        (Scenario, {"stream": {"metrics_cap": True}}, "stream.metrics_cap"),
        (Scenario, {"scheduler": 3}, "scheduler"),
        (Scenario, {"scheduler_kwargs": [1]}, "scheduler_kwargs"),
        # A fleet, so the single-machine check cannot name the field first.
        (Scenario, {"num_nodes": 2, "autoscaler": 3}, "autoscaler"),
        (NodeSpec, {"cores": 4.5}, "cores"),
        (CostSpec, {"include_request_fee": "no"}, "include_request_fee"),
        (Workload, {"source": "two_minute", "sacle": 0.1}, "sacle"),
        (MiddlewareSpec, {"name": "admission", "parms": {}}, "parms"),
        (Scenario, {"workload": {"source": "two_minute", "sacle": 0.1}}, "workload.sacle"),
        (
            Scenario,
            {"num_nodes": 2, "middleware": ["slo_tracker", {"name": "admission", "parms": {}}]},
            "middleware[1].parms",
        ),
        (Scenario, {"network": {"rtt": "0.01"}}, "network.rtt"),
        (Scenario, {"chaos": {"crash_rate": "0.1"}}, "chaos.crash_rate"),
        (Scenario, {"workload": {"source": "two_minute", "scale": "0.1"}}, "workload.scale"),
        (Scenario, {"node_specs": [{"cores": "4"}]}, "node_specs[0].cores"),
        (Scenario, {"schedular": "fifo"}, "schedular"),
        (SweepSpec, {"base": {"num_cores": "4"}, "points": [{"label": "a"}]}, "base.num_cores"),
        (
            SweepSpec,
            {"base": {}, "axes": [{"field": "seed", "low": 0, "high": 1, "lgo": True}]},
            "axes[0].lgo",
        ),
    ],
)
def test_bad_value_is_named_by_its_dotted_path(cls, data, path):
    with pytest.raises((TypeError, ValueError)) as info:
        cls.from_dict(data)
    assert path in str(info.value)


def test_unknown_key_suggests_the_nearest_field():
    with pytest.raises(ValueError, match=r"'schedular' \(did you mean 'scheduler'\?\)"):
        Scenario.from_dict({"schedular": "fifo"})


def test_constructor_coerces_nested_dicts_and_names_paths():
    scenario = Scenario(num_nodes=2, network={"rtt": 0.01}, middleware=["slo_tracker"])
    assert scenario.network == NetworkSpec(rtt=0.01)
    assert scenario.middleware == (MiddlewareSpec("slo_tracker"),)
    with pytest.raises(TypeError, match=r"node_specs\[0\]\.cores"):
        Scenario(node_specs=[{"cores": True}])


def test_to_dict_omits_defaults():
    assert Scenario().to_dict() == {}
    assert Scenario(scheduler="cfs", num_cores=8).to_dict() == {
        "scheduler": "cfs",
        "num_cores": 8,
    }


@pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_json_round_trip(cls, data):
    spec = data.draw(spec_strategy(cls))
    assert cls.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
