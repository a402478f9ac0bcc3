"""Telemetry subsystem: spec round-trip, tracing, gauges, sampler, exporters.

Covers the acceptance criteria of the telemetry PR: the TelemetrySpec rides a
Scenario through JSON, a traced cluster run exports schema-valid Chrome
trace-event JSON (balanced begin/end pairs per track, instants for autoscaler
decisions), gauge timelines match the recorded spans, the ``record_series``
back-compat shim keeps legacy series names, and telemetry-off runs produce
bit-identical metrics to telemetry-on runs.
"""

import io
import json

import numpy as np
import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    NetworkSpec,
    ReactiveAutoscaler,
    simulate_cluster,
)
from repro.scenario import Scenario, Workload, run
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.clock import VirtualClock
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator, simulate
from repro.simulation.events import EventQueue
from repro.simulation.machine import Machine
from repro.simulation.task import make_tasks
from repro.telemetry import (
    SAMPLER_TAG,
    CounterRegistry,
    GaugeRegistry,
    ProgressReporter,
    TelemetrySpec,
    Tracer,
    chrome_trace,
    timeline_table,
    write_chrome_trace,
    write_timeline_csv,
)
from repro.telemetry.export import TIMELINE_DTYPE
from repro.telemetry.tracer import (
    AUTOSCALER_TID,
    CLUSTER_PID,
    DISPATCH_TID,
    MACHINE_PID,
    node_pid,
)

# An interval that never coincides with the task arrival/service grid used
# below, so "gauge at sample time" vs "span covers sample time" is unambiguous.
ODD_INTERVAL = 0.0131


# --------------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def standalone_traced():
    """A traced 2-core CFS run with queueing and preemption."""
    specs = [(i * 0.07, 0.3 + (i % 5) * 0.11) for i in range(40)]
    result = simulate(
        CFSScheduler(),
        make_tasks(specs),
        config=SimulationConfig(num_cores=2),
        telemetry=TelemetrySpec(sample_interval=0.1),
    )
    return specs, result


@pytest.fixture(scope="module")
def autoscale_traced():
    """A traced autoscaling cluster run with ingress delay and stealing."""
    tasks = make_tasks([(i * 0.01, 0.8) for i in range(120)])
    config = ClusterConfig(
        num_nodes=2,
        cores_per_node=2,
        scheduler="fifo",
        dispatcher="jsq",
        migration="work_stealing",
        network=NetworkSpec(rtt=0.004),
    )
    autoscaler = ReactiveAutoscaler(
        AutoscalerConfig(
            min_nodes=2,
            max_nodes=6,
            check_interval=0.25,
            scale_up_load=1.0,
            cooldown=0.5,
        )
    )
    result = simulate_cluster(
        tasks,
        config=config,
        autoscaler=autoscaler,
        telemetry=TelemetrySpec(sample_interval=0.05),
    )
    return tasks, result


@pytest.fixture(scope="module")
def gauge_run():
    """A plain FIFO cluster (no migration, no ingress delay) for gauge checks."""
    tasks = make_tasks([(i * 0.1, 0.53) for i in range(30)])
    config = ClusterConfig(
        num_nodes=2, cores_per_node=2, scheduler="fifo", dispatcher="round_robin"
    )
    return simulate_cluster(
        tasks, config=config, telemetry=TelemetrySpec(sample_interval=ODD_INTERVAL)
    )


# ------------------------------------------------------------------------- spec


class TestTelemetrySpec:
    def test_defaults(self):
        spec = TelemetrySpec()
        assert spec.trace
        assert spec.sample_interval is None
        assert not spec.progress
        assert spec.drive_interval is None

    def test_drive_interval_prefers_sample_interval(self):
        assert TelemetrySpec(sample_interval=0.25).drive_interval == 0.25
        # Progress alone still needs a heartbeat.
        assert TelemetrySpec(progress=True).drive_interval == 1.0
        assert TelemetrySpec(progress=True, sample_interval=0.5).drive_interval == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetrySpec(sample_interval=0.0)
        with pytest.raises(ValueError):
            TelemetrySpec(sample_interval=-1.0)
        with pytest.raises(ValueError):
            TelemetrySpec(progress_interval=-0.1)
        with pytest.raises(ValueError):
            TelemetrySpec(max_events=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trace", "false"),
            ("trace", 1),
            ("progress", "true"),
            ("progress", None),
            ("max_events", 2.5),
            ("max_events", True),
            ("max_events", "100"),
            ("sample_interval", "1.0"),
            ("sample_interval", True),
            ("progress_interval", "5"),
            ("progress_interval", None),
        ],
    )
    def test_scenario_rejects_wrongly_typed_fields(self, field, value):
        with pytest.raises(TypeError, match=field):
            Scenario.from_dict({"telemetry": {field: value}})

    def test_scenario_accepts_numeric_fields(self):
        spec = Scenario.from_dict(
            {"telemetry": {"sample_interval": 1, "max_events": None,
                           "progress_interval": 0}}
        ).telemetry
        assert spec.sample_interval == 1 and spec.max_events is None

    def test_to_dict_omits_defaults(self):
        assert TelemetrySpec().to_dict() == {}

    def test_dict_round_trip(self):
        spec = TelemetrySpec(
            trace=False, sample_interval=0.5, progress=True,
            progress_interval=2.0, max_events=10,
        )
        assert TelemetrySpec.from_dict(spec.to_dict()) == spec

    def test_scenario_json_round_trip(self):
        spec = TelemetrySpec(sample_interval=0.5, progress_interval=2.0)
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.05), telemetry=spec
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored.telemetry == spec
        # Absent telemetry stays absent (and off the wire format).
        bare = Scenario(workload=Workload("two_minute", scale=0.05))
        assert "telemetry" not in bare.to_dict()
        assert Scenario.from_json(bare.to_json()).telemetry is None

    def test_scenario_accepts_dict_form(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.05),
            telemetry={"sample_interval": 0.25},
        )
        assert scenario.telemetry == TelemetrySpec(sample_interval=0.25)

    def test_with_telemetry_helper(self):
        scenario = Scenario(workload=Workload("two_minute", scale=0.05))
        traced = scenario.with_telemetry(sample_interval=0.5)
        assert traced.telemetry == TelemetrySpec(sample_interval=0.5)
        assert scenario.telemetry is None


# ----------------------------------------------------------------- tracer unit


class TestTracer:
    def test_begin_end_stores_span(self):
        tracer = Tracer()
        tracer.begin(("q", 1), "queued", 2, 0, 1.0, task_id=1)
        tracer.end(("q", 1), 3.5)
        assert tracer.spans == [("queued", 2, 0, 1.0, 3.5, 1)]

    def test_begin_on_open_key_closes_previous(self):
        tracer = Tracer()
        tracer.begin(("q", 1), "queued", 2, 0, 1.0, task_id=1)
        tracer.begin(("q", 1), "queued", 3, 0, 2.0, task_id=1)
        tracer.end(("q", 1), 4.0)
        assert tracer.spans == [
            ("queued", 2, 0, 1.0, 2.0, 1),
            ("queued", 3, 0, 2.0, 4.0, 1),
        ]

    def test_end_without_begin_is_noop(self):
        tracer = Tracer()
        tracer.end(("q", 99), 1.0)
        assert tracer.spans == []

    def test_finish_closes_open_spans(self):
        tracer = Tracer()
        tracer.begin(("r", 7), "run", 1, 2, 0.5, task_id=7)
        assert tracer.open_span_count() == 1
        tracer.finish(9.0)
        assert tracer.open_span_count() == 0
        assert tracer.spans == [("run", 1, 2, 0.5, 9.0, 7)]

    def test_instants_and_names(self):
        tracer = Tracer()
        tracer.name_process(1, "node 0")
        tracer.name_track(1, 0, "queue")
        tracer.instant("node-boot", 1, 0, 2.0, value=3.0)
        assert tracer.instants == [("node-boot", 1, 0, 2.0, -1, 3.0)]
        assert tracer.process_names[1] == "node 0"
        assert tracer.track_names[(1, 0)] == "queue"

    def test_max_events_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.instant("x", 0, 0, float(i))
        assert tracer.event_count == 2
        assert tracer.dropped == 3
        # Spans beyond the cap are dropped too.
        tracer.begin(("q", 1), "queued", 0, 0, 0.0)
        tracer.end(("q", 1), 1.0)
        assert len(tracer.spans) == 0
        assert tracer.dropped == 4


# --------------------------------------------------------- gauges and counters


class TestGaugesAndCounters:
    def test_register_sample_unregister(self):
        gauges = GaugeRegistry()
        sink = {}
        state = {"depth": 2.0}
        gauges.register("queue_depth", lambda: state["depth"], sink)
        gauges.sample_all(1.0)
        state["depth"] = 5.0
        gauges.sample_all(2.0)
        points = sink["queue_depth"]
        assert [(p.time, p.value) for p in points] == [(1.0, 2.0), (2.0, 5.0)]
        assert gauges.samples_recorded == 2
        gauges.unregister("queue_depth")
        gauges.sample_all(3.0)
        assert len(sink["queue_depth"]) == 2
        assert gauges.registered() == []

    def test_record_is_the_ad_hoc_path(self):
        gauges = GaugeRegistry()
        sink = {}
        gauges.record(sink, "autoscaler.load", 1.5, 0.75)
        assert gauges.points_recorded == 1
        assert sink["autoscaler.load"][0].value == 0.75

    def test_counters(self):
        counters = CounterRegistry()
        counters.inc("steals")
        counters.inc("steals", 2.0)
        assert counters.get("steals") == 3.0
        assert counters.get("missing") == 0.0
        assert counters.as_dict() == {"steals": 3.0}


# ------------------------------------------- sampler timer and cancel_pending


class TestGaugeSampler:
    """Satellite: tagged payload events driving the sampler, cancellation."""

    @staticmethod
    def _fresh(interval=0.5, can_continue=lambda: False):
        telemetry = TelemetrySpec(trace=False, sample_interval=interval).build()
        events, clock = EventQueue(), VirtualClock()
        telemetry.start(events, clock, can_continue)
        return telemetry, events, clock

    def test_start_arms_one_tagged_payload_event(self):
        telemetry, events, clock = self._fresh()
        assert telemetry.sampler.armed
        event = events.pop()
        assert event is not None
        assert event.tag == SAMPLER_TAG
        assert event.payload is telemetry.sampler
        assert event.time == 0.5
        assert events.pop() is None

    def test_tick_samples_and_rearms_while_work_remains(self):
        state = {"work": 3}
        telemetry, events, clock = self._fresh(can_continue=lambda: state["work"] > 0)
        sink = {}
        telemetry.gauges.register("work", lambda: float(state["work"]), sink)
        ticks = 0
        while True:
            event = events.pop()
            if event is None:
                break
            clock.advance_to(event.time)
            event.payload.on_tick()
            ticks += 1
            state["work"] -= 1
        # Three ticks re-arm (work remained), the fourth sees work == 0.
        assert ticks == 4
        assert telemetry.sampler.ticks == 4
        assert [p.time for p in sink["work"]] == [0.5, 1.0, 1.5, 2.0]
        assert not telemetry.sampler.armed

    def test_cancel_pending_by_tag_kills_armed_tick(self):
        telemetry, events, clock = self._fresh()
        assert events.cancel_pending(SAMPLER_TAG) == 1
        assert events.pop() is None

    def test_stop_cancels_and_is_idempotent(self):
        telemetry, events, clock = self._fresh()
        telemetry.sampler.stop()
        telemetry.sampler.stop()
        assert not telemetry.sampler.armed
        assert events.pop() is None

    def test_restart_replaces_the_armed_event(self):
        telemetry, events, clock = self._fresh()
        telemetry.sampler.start(events, clock, lambda: False)
        # The first armed event was cancelled; exactly one live tick remains.
        event = events.pop()
        assert event is not None and event.tag == SAMPLER_TAG
        assert events.pop() is None

    def test_engine_drains_sampler_at_end_of_run(self):
        telemetry = TelemetrySpec(sample_interval=0.05).build()
        result = simulate(
            FIFOScheduler(),
            make_tasks([(0.0, 1.0), (0.1, 0.5)]),
            config=SimulationConfig(num_cores=1),
            telemetry=telemetry,
        )
        assert telemetry.sampler.ticks > 0
        assert not telemetry.sampler.armed
        # The end-of-run drain takes one final sample at the finish clock.
        assert result.telemetry.samples == telemetry.gauges.samples_recorded
        busy = result.series["machine.busy_cores"]
        assert busy[-1].time == pytest.approx(result.simulated_time)


# ------------------------------------------------------------ standalone runs


class TestStandaloneTracing:
    def test_result_carries_snapshot(self, standalone_traced):
        specs, result = standalone_traced
        snapshot = result.telemetry
        assert snapshot is not None
        assert snapshot.span_count > 0
        assert snapshot.samples > 0
        assert snapshot.process_names[MACHINE_PID] == "machine"

    def test_every_task_has_queue_and_run_spans(self, standalone_traced):
        specs, result = standalone_traced
        spans = result.telemetry.spans
        run_tasks = {s[5] for s in spans if s[0] == "run"}
        queued_tasks = {s[5] for s in spans if s[0] == "queued"}
        assert run_tasks == set(range(len(specs)))
        assert queued_tasks == set(range(len(specs)))
        # CFS on 2 cores over this burst timeshares: more run slices than tasks.
        assert sum(1 for s in spans if s[0] == "run") > len(specs)

    def test_arrival_instants(self, standalone_traced):
        specs, result = standalone_traced
        arrivals = [i for i in result.telemetry.instants if i[0] == "arrival"]
        assert len(arrivals) == len(specs)
        assert sorted(i[3] for i in arrivals) == [a for a, _ in specs]

    def test_run_spans_live_on_core_tracks(self, standalone_traced):
        _, result = standalone_traced
        core_tids = {
            tid for (pid, tid) in result.telemetry.track_names
            if pid == MACHINE_PID and tid > 0
        }
        assert core_tids == {1, 2}
        assert all(s[2] in core_tids for s in result.telemetry.spans if s[0] == "run")

    def test_describe_mentions_telemetry(self, standalone_traced):
        _, result = standalone_traced
        assert "telemetry" in result.describe()
        assert result.telemetry.summary_line() in result.describe()

    def test_busy_cores_gauge_sampled(self, standalone_traced):
        _, result = standalone_traced
        points = result.series["machine.busy_cores"]
        assert len(points) > 10
        assert all(0.0 <= p.value <= 2.0 for p in points)

    def test_metrics_identical_with_telemetry_off(self, standalone_traced):
        specs, traced = standalone_traced
        plain = simulate(
            CFSScheduler(), make_tasks(specs), config=SimulationConfig(num_cores=2)
        )
        assert plain.telemetry is None
        assert "telemetry" not in plain.describe()
        assert np.array_equal(
            np.sort(plain.turnaround_times()), np.sort(traced.turnaround_times())
        )
        assert plain.summary() == traced.summary()

    def test_max_events_cap_reports_dropped(self):
        result = simulate(
            FIFOScheduler(),
            make_tasks([(i * 0.1, 0.2) for i in range(20)]),
            telemetry=TelemetrySpec(max_events=5),
        )
        assert result.telemetry.dropped > 0
        assert "dropped" in result.telemetry.summary_line()

    def test_record_series_shim_counts_points(self):
        cfg = SimulationConfig(num_cores=1)
        scheduler = FIFOScheduler()
        machine = Machine(cfg, groups=scheduler.preferred_groups(cfg.num_cores))
        simulator = Simulator(
            machine, scheduler, config=cfg, telemetry=TelemetrySpec()
        )
        simulator.record_series("custom.signal", 42.0)
        assert simulator.collector.series["custom.signal"][0].value == 42.0
        assert simulator.telemetry.gauges.points_recorded == 1


# --------------------------------------------------------------- cluster runs


class TestClusterTracing:
    def test_cluster_metrics_identical_with_telemetry_off(self):
        specs = [(i * 0.05, 0.4) for i in range(40)]
        config = ClusterConfig(
            num_nodes=3, cores_per_node=2, scheduler="fifo", dispatcher="jsq",
            network=NetworkSpec(rtt=0.002),
        )
        traced = simulate_cluster(
            make_tasks(specs), config=config,
            telemetry=TelemetrySpec(sample_interval=0.1),
        )
        plain = simulate_cluster(make_tasks(specs), config=config)
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert plain.summary() == traced.summary()
        assert plain.tasks_per_node() == traced.tasks_per_node()

    def test_node_processes_named(self, autoscale_traced):
        _, result = autoscale_traced
        names = result.telemetry.process_names
        assert names[CLUSTER_PID] == "cluster"
        for node_id in range(2):
            assert names[node_pid(node_id)] == f"node {node_id}"

    def test_dispatch_instants_target_valid_nodes(self, autoscale_traced):
        tasks, result = autoscale_traced
        dispatches = [i for i in result.telemetry.instants if i[0] == "dispatch"]
        assert len(dispatches) == len(tasks)
        node_pids = {p for p in result.telemetry.process_names if p != CLUSTER_PID}
        for _, pid, tid, _, task_id, value in dispatches:
            assert (pid, tid) == (CLUSTER_PID, DISPATCH_TID)
            assert node_pid(int(value)) in node_pids
            assert 0 <= task_id < len(tasks)

    def test_autoscaler_decisions_recorded(self, autoscale_traced):
        _, result = autoscale_traced
        snapshot = result.telemetry
        scale_ups = [i for i in snapshot.instants if i[0] == "scale-up"]
        assert scale_ups, "burst workload must trigger at least one scale-up"
        assert all(
            (i[1], i[2]) == (CLUSTER_PID, AUTOSCALER_TID) for i in scale_ups
        )
        # The instant's value is the fleet load signal that crossed the bar.
        assert all(i[5] >= 1.0 for i in scale_ups)
        assert snapshot.counters["autoscaler.scale_ups"] == len(scale_ups)
        boots = [i for i in snapshot.instants if i[0] == "node-boot"]
        assert len(boots) == len(scale_ups)

    def test_migration_counters_match_result(self, autoscale_traced):
        _, result = autoscale_traced
        counters = result.telemetry.counters
        if result.tasks_migrated:
            assert counters["migration.completed"] == result.tasks_migrated
            planned = counters.get("migration.steals_planned", 0) + counters.get(
                "migration.rescues_planned", 0
            )
            assert planned >= result.tasks_migrated

    def test_wire_spans_cover_ingress(self, autoscale_traced):
        tasks, result = autoscale_traced
        wires = [s for s in result.telemetry.spans if s[0] == "wire"]
        assert 0 < len(wires) <= len(tasks)
        # Every task pays at least the one-way trip (rtt / 2) on the wire.
        assert all(s[4] - s[3] >= 0.002 - 1e-12 for s in wires)

    def test_fleet_load_gauge_sampled(self, autoscale_traced):
        _, result = autoscale_traced
        points = result.series_values("cluster.fleet_load")
        assert len(points) > 10
        assert max(p.value for p in points) >= 1.0
        # The legacy autoscaler series survives under its old name alongside.
        assert result.series_values("autoscaler.load")


class TestRecordSeriesBackCompat:
    """The autoscaler.load series keeps its name with telemetry on and off."""

    @staticmethod
    def _run(telemetry):
        tasks = make_tasks([(i * 0.02, 0.6) for i in range(60)])
        config = ClusterConfig(
            num_nodes=2, cores_per_node=2, scheduler="fifo", dispatcher="jsq"
        )
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(min_nodes=2, max_nodes=4, check_interval=0.25,
                             scale_up_load=1.0, cooldown=0.5)
        )
        return simulate_cluster(
            tasks, config=config, autoscaler=autoscaler, telemetry=telemetry
        )

    def test_series_identical_on_and_off(self):
        on = self._run(TelemetrySpec())
        off = self._run(None)
        on_points = on.series_values("autoscaler.load")
        off_points = off.series_values("autoscaler.load")
        assert on_points and off_points
        assert [(p.time, p.value) for p in on_points] == [
            (p.time, p.value) for p in off_points
        ]
        # With telemetry on the shim counts those ad-hoc points.
        assert on.telemetry.points >= len(on_points)


class TestGaugeTimeline:
    """Acceptance: the sampled queue-depth series matches the recorded spans."""

    @staticmethod
    def _active(spans, pid, name, t):
        return sum(
            1 for s in spans if s[1] == pid and s[0] == name and s[3] <= t < s[4]
        )

    def test_queue_depth_series_matches_queued_spans(self, gauge_run):
        snapshot = gauge_run.telemetry
        checked = busy_samples = 0
        for node_id in range(2):
            points = gauge_run.series_values(f"cluster.node{node_id}.queue_depth")
            assert points
            for point in points:
                expected = self._active(
                    snapshot.spans, node_pid(node_id), "queued", point.time
                )
                assert point.value == expected
                checked += 1
                busy_samples += expected > 0
        assert checked > 50
        assert busy_samples > 0, "the overloaded fleet must show queueing"

    def test_busy_cores_series_matches_run_spans(self, gauge_run):
        snapshot = gauge_run.telemetry
        for node_id in range(2):
            points = gauge_run.series_values(f"cluster.node{node_id}.busy_cores")
            assert points
            for point in points:
                expected = self._active(
                    snapshot.spans, node_pid(node_id), "run", point.time
                )
                assert point.value == expected


# ------------------------------------------------------------------- exporters


def _check_chrome_schema(trace, snapshot):
    """Schema-check one Chrome trace-event JSON object."""
    events = trace["traceEvents"]
    assert events and trace["displayTimeUnit"] == "ms"

    # Metadata names every pid and every (pid, tid) track.
    meta_pids = {
        e["pid"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert meta_pids == set(snapshot.process_names)
    meta_tracks = {
        (e["pid"], e["tid"]) for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert meta_tracks == set(snapshot.track_names)

    # Sync B/E pairs nest per track: scanning each track's (contiguous,
    # internally ordered) stream, depth never goes negative and ends at 0.
    depth = {}
    for event in events:
        if event["ph"] == "B":
            key = (event["pid"], event["tid"])
            depth[key] = depth.get(key, 0) + 1
        elif event["ph"] == "E":
            key = (event["pid"], event["tid"])
            depth[key] = depth.get(key, 0) - 1
            assert depth[key] >= 0, f"unbalanced E on track {key}"
    assert all(v == 0 for v in depth.values())

    # Async b/e pairs balance per (pid, tid, id, name).
    async_counts = {}
    for event in events:
        if event["ph"] in ("b", "e"):
            key = (event["pid"], event["tid"], event["id"], event["name"])
            async_counts.setdefault(key, [0, 0])[event["ph"] == "e"] += 1
    assert all(b == e for b, e in async_counts.values())

    begins = sum(1 for e in events if e["ph"] == "B")
    async_begins = sum(1 for e in events if e["ph"] == "b")
    assert begins + async_begins == snapshot.span_count

    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == snapshot.instant_count
    assert all(e["s"] == "p" for e in instants)
    assert all(e["ts"] >= 0 for e in events if "ts" in e)


class TestExporters:
    def test_cluster_chrome_trace_schema(self, autoscale_traced):
        _, result = autoscale_traced
        trace = chrome_trace(result)
        _check_chrome_schema(trace, result.telemetry)
        # Autoscaler decisions surface as instants in the export.
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert {"scale-up", "node-boot", "dispatch", "arrival"} <= names
        # Gauge series become counter tracks.
        counter_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "C"
        }
        assert "cluster.fleet_load" in counter_names

    def test_standalone_chrome_trace_schema(self, standalone_traced):
        _, result = standalone_traced
        _check_chrome_schema(chrome_trace(result), result.telemetry)

    def test_trace_is_json_serialisable(self, autoscale_traced):
        _, result = autoscale_traced
        restored = json.loads(json.dumps(chrome_trace(result)))
        assert restored["traceEvents"]

    def test_write_chrome_trace(self, standalone_traced, tmp_path):
        _, result = standalone_traced
        path = tmp_path / "trace.json"
        count = write_chrome_trace(result, path)
        data = json.loads(path.read_text())
        assert count == len(data["traceEvents"]) > 0

    def test_timeline_table(self, standalone_traced):
        _, result = standalone_traced
        table = timeline_table(result)
        snapshot = result.telemetry
        assert table.dtype == TIMELINE_DTYPE
        assert len(table) == snapshot.span_count + snapshot.instant_count
        assert np.all(np.diff(table["start"]) >= 0)
        instants = table[table["kind"] == "instant"]
        assert np.array_equal(instants["start"], instants["end"])
        spans = table[table["kind"] == "span"]
        assert np.all(spans["end"] >= spans["start"])

    def test_write_timeline_csv(self, standalone_traced, tmp_path):
        _, result = standalone_traced
        path = tmp_path / "timeline.csv"
        count = write_timeline_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("kind,name,pid,tid,start,end")
        assert len(lines) == count + 1

    def test_exporters_reject_untraced_results(self):
        result = simulate(FIFOScheduler(), make_tasks([(0.0, 1.0)]))
        with pytest.raises(ValueError, match="no telemetry"):
            chrome_trace(result)
        with pytest.raises(ValueError, match="no telemetry"):
            timeline_table(result)


# ------------------------------------------------------------------- progress


class TestProgressReporter:
    def test_reports_and_closes(self):
        stream = io.StringIO()
        reporter = ProgressReporter(min_wall_interval=0.0, stream=stream)
        assert reporter.report(1.5, 3, 10)
        assert reporter.report(2.5, 7, 10)
        reporter.close(3.0, 10, 10)
        output = stream.getvalue()
        assert "3/10 tasks (30.0%)" in output
        assert "done: 10/10 tasks in 3.0s" in output
        assert reporter.lines_written == 3

    def test_wall_clock_throttling(self):
        stream = io.StringIO()
        reporter = ProgressReporter(min_wall_interval=1000.0, stream=stream)
        assert reporter.report(1.0, 1, 10)
        assert not reporter.report(2.0, 2, 10)
        assert reporter.lines_written == 1

    def test_progress_spec_drives_reporting_through_a_run(self):
        telemetry = TelemetrySpec(progress=True, progress_interval=0.0).build()
        telemetry.progress.stream = io.StringIO()
        simulate(
            FIFOScheduler(),
            make_tasks([(i * 0.5, 0.4) for i in range(10)]),
            config=SimulationConfig(num_cores=1),
            telemetry=telemetry,
        )
        output = telemetry.progress.stream.getvalue()
        assert "[telemetry] t=" in output
        assert "done: 10/10" in output


# ----------------------------------------------------------- scenario and CLI


class TestScenarioIntegration:
    def test_run_result_exposes_telemetry(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.05),
            telemetry=TelemetrySpec(sample_interval=0.5),
        )
        result = run(scenario)
        assert result.telemetry is not None
        assert result.telemetry.span_count > 0
        assert "machine.busy_cores" in result.series
        # The exporter unwraps the RunResult transparently.
        _check_chrome_schema(chrome_trace(result), result.telemetry)

    def test_cluster_scenario_telemetry(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.05),
            num_nodes=2,
            dispatcher="jsq",
            telemetry=TelemetrySpec(sample_interval=0.5),
        )
        result = run(scenario)
        assert result.telemetry is not None
        assert "cluster.fleet_load" in result.series
        assert "telemetry" in result.describe()

    def test_untraced_scenario_has_no_telemetry(self):
        result = run(Scenario(workload=Workload("two_minute", scale=0.05)))
        assert result.telemetry is None


class TestRunnerCLI:
    def test_trace_flags_with_scenario(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            Scenario(workload=Workload("two_minute", scale=0.05)).to_json()
        )
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            ["--scenario", str(scenario_path), "--trace-out", str(trace_path),
             "--sample-interval", "0.5"]
        )
        assert rc == 0
        data = json.loads(trace_path.read_text())
        assert data["traceEvents"]
        out = capsys.readouterr().out
        assert "[telemetry] wrote" in out
        assert "telemetry" in out

    def test_trace_flags_require_scenario(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        rc = run_cli(["--trace-out", str(tmp_path / "trace.json")])
        assert rc == 2
        assert "require --scenario" in capsys.readouterr().err
