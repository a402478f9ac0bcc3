"""Streaming trace replay: lazy arrival sources, chunked feeding, equivalence.

Covers the acceptance criteria of streamed replay: a ``StreamingWorkload``
fed through ``submit_stream`` is *bit-identical* to submitting the fully
materialised task list — on a single machine and on a cluster, with and
without a network RTT, for any chunk size (hypothesis property) — while
the run retains no task objects.  Also covers the CSV ingester for the
Azure per-minute invocation-count format, the StreamSpec scenario knobs,
the runner CLI flags, and unknown-total progress output.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    NetworkSpec,
    simulate_cluster,
)
from repro.scenario import Scenario, Workload, build_stream_source, run
from repro.scenario.workloads import available_stream_sources, create_stream_source
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.telemetry import ProgressReporter, TelemetrySpec
from repro.workload.extraction import TraceBucket
from repro.workload.streaming import (
    BucketStreamSource,
    StreamFeed,
    StreamSpec,
    StreamingWorkload,
    csv_stream_source,
    load_invocation_csv,
)


def make_buckets():
    """A small three-bucket trace with idle cells and uneven minutes."""
    return [
        TraceBucket(
            fibonacci_n=25,
            duration=0.05,
            per_minute_counts=np.array([6.0, 0.0, 9.0, 4.0]),
            memory_sizes_mb=[128, 256],
            memory_weights=[0.7, 0.3],
        ),
        TraceBucket(
            fibonacci_n=30,
            duration=0.4,
            per_minute_counts=np.array([3.0, 5.0, 0.0, 2.0]),
            memory_sizes_mb=[512],
            memory_weights=[1.0],
        ),
        TraceBucket(
            fibonacci_n=33,
            duration=1.8,
            per_minute_counts=np.array([0.0, 2.0, 1.0, 0.0]),
            memory_sizes_mb=[1024],
            memory_weights=[1.0],
        ),
    ]


def make_source(limit=None, minutes=4, seed=7):
    return BucketStreamSource(make_buckets(), minutes=minutes, seed=seed, limit=limit)


TOTAL_TASKS = 32  # sum of all per-minute counts above


def assert_same_columns(ref, got):
    """Exact (bitwise) equality of two runs' finished-task columns."""
    ref_rows = np.sort(ref.task_columns().data, order="task_id")
    got_rows = np.sort(got.task_columns().data, order="task_id")
    assert np.array_equal(ref_rows, got_rows)


# ------------------------------------------------------------------ StreamFeed


class TestStreamFeed:
    def test_rechunks_across_windows(self):
        feed = StreamFeed(make_source(), chunk=5)
        chunks = []
        while True:
            chunk = feed.next_chunk()
            if not chunk:
                break
            chunks.append(chunk)
        assert feed.exhausted
        assert feed.fed == TOTAL_TASKS
        assert [len(c) for c in chunks[:-1]] == [5] * (len(chunks) - 1)
        flat = [t for c in chunks for t in c]
        arrivals = [t.arrival_time for t in flat]
        assert arrivals == sorted(arrivals)
        assert [t.task_id for t in flat] == list(range(TOTAL_TASKS))

    def test_skips_empty_windows(self):
        # Minute 4 is beyond every bucket's counts: a globally idle window.
        feed = StreamFeed(make_source(minutes=6), chunk=1000)
        first = feed.next_chunk()
        assert len(first) == TOTAL_TASKS
        assert feed.next_chunk() == []
        assert feed.exhausted

    def test_chunk_must_be_positive(self):
        with pytest.raises(ValueError):
            StreamFeed(make_source(), chunk=0)


# ----------------------------------------------------------- BucketStreamSource


class TestBucketStreamSource:
    def test_materialise_equals_batches(self):
        source = make_source()
        flat = [t for batch in source.batches() for t in batch]
        materialised = source.materialise()
        assert len(materialised) == TOTAL_TASKS
        assert [(t.task_id, t.arrival_time, t.service_time, t.memory_mb) for t in flat] == [
            (t.task_id, t.arrival_time, t.service_time, t.memory_mb)
            for t in materialised
        ]

    def test_replay_is_deterministic(self):
        a = make_source().materialise()
        b = make_source().materialise()
        assert [(t.arrival_time, t.service_time, t.memory_mb) for t in a] == [
            (t.arrival_time, t.service_time, t.memory_mb) for t in b
        ]

    def test_draws_are_window_local(self):
        # Truncating the replay must not change the tasks that are emitted:
        # each (bucket, minute) cell has its own RNG stream, so what came
        # before cannot perturb what comes after.
        full = make_source().materialise()
        limited = make_source(limit=10).materialise()
        assert [(t.arrival_time, t.service_time, t.memory_mb) for t in limited] == [
            (t.arrival_time, t.service_time, t.memory_mb) for t in full[:10]
        ]

    def test_total_hint_and_limit(self):
        assert make_source().total_hint() == TOTAL_TASKS
        assert make_source(limit=10).total_hint() == 10
        assert make_source(limit=10 ** 9).total_hint() == TOTAL_TASKS

    def test_arrivals_globally_sorted(self):
        arrivals = [t.arrival_time for t in make_source().materialise()]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            BucketStreamSource([], minutes=4)
        with pytest.raises(ValueError):
            BucketStreamSource(make_buckets(), minutes=0)
        with pytest.raises(ValueError):
            BucketStreamSource(make_buckets(), minutes=4, limit=0)
        with pytest.raises(ValueError):
            BucketStreamSource(make_buckets(), minutes=4, duration_jitter=1.0)
        with pytest.raises(TypeError, match="minutes"):
            BucketStreamSource(make_buckets(), minutes=2.5)
        with pytest.raises(TypeError, match="limit"):
            BucketStreamSource(make_buckets(), minutes=4, limit=True)


# ---------------------------------------------------- streaming == materialised


class TestSingleMachineEquivalence:
    def test_stream_matches_materialised(self):
        config = SimulationConfig(num_cores=2)
        ref = simulate(FIFOScheduler(), make_source().materialise(), config=config)
        got = simulate(FIFOScheduler(), make_source(), config=config, chunk=7)
        assert not got.tasks  # streaming runs retain no task objects
        assert len(got.task_columns()) == TOTAL_TASKS
        assert_same_columns(ref, got)
        assert ref.summary() == got.summary()

    def test_stream_matches_under_preemption(self):
        config = SimulationConfig(num_cores=1)
        ref = simulate(CFSScheduler(), make_source().materialise(), config=config)
        got = simulate(CFSScheduler(), make_source(), config=config, chunk=3)
        assert_same_columns(ref, got)

    def test_until_cuts_both_paths_identically(self):
        config = SimulationConfig(num_cores=1)
        ref = simulate(
            FIFOScheduler(), make_source().materialise(), config=config, until=130.0
        )
        got = simulate(
            FIFOScheduler(), make_source(), config=config, until=130.0, chunk=4
        )
        assert len(got.task_columns()) == len(ref.task_columns())
        assert_same_columns(ref, got)
        # "Submitted" counts the arrivals taken in before the cut, on both
        # feeds and both simulators, whatever the chunk size.
        arrived = sum(
            1 for task in make_source().materialise() if task.arrival_time <= 130.0
        )
        assert 0 < arrived < TOTAL_TASKS
        cluster_config = ClusterConfig(**CLUSTER_KW)
        cluster_ref = simulate_cluster(
            make_source().materialise(), config=cluster_config, until=130.0
        )
        for result in (ref, cluster_ref):
            assert result.tasks_submitted == result.total_tasks == arrived
        assert cluster_ref.unserved_tasks() == arrived - cluster_ref.finished_count
        for chunk in (1, 4, 8192):
            got = simulate(
                FIFOScheduler(), make_source(), config=config, until=130.0, chunk=chunk
            )
            assert got.tasks_submitted == got.total_tasks == arrived
            assert got.finished_count == ref.finished_count
            cluster_got = simulate_cluster(
                make_source(), config=cluster_config, until=130.0, chunk=chunk
            )
            assert cluster_got.tasks_submitted == cluster_got.total_tasks == arrived
            assert cluster_got.finished_count == cluster_ref.finished_count
            assert cluster_got.unserved_tasks() == cluster_ref.unserved_tasks()


CLUSTER_KW = dict(num_nodes=3, cores_per_node=2, scheduler="fifo", dispatcher="jsq")


class TestClusterEquivalence:
    def test_stream_matches_materialised(self):
        config = ClusterConfig(**CLUSTER_KW)
        ref = simulate_cluster(make_source().materialise(), config=config)
        got = simulate_cluster(make_source(), config=config, chunk=7)
        assert not got.tasks
        assert got.tasks_submitted == TOTAL_TASKS
        assert got.finished_count == len(ref.finished_tasks)
        assert_same_columns(ref, got)
        assert ref.summary() == got.summary()
        assert got.tasks_per_node() == ref.tasks_per_node()
        assert got.unserved_tasks() == ref.unserved_tasks() == 0

    def test_stream_matches_with_network_rtt(self):
        # A non-zero RTT makes every arrival take a second ingress hop at the
        # same (time, priority) an arrival could land on — exactly the tie the
        # reserved negative sequence range exists to break.
        config = ClusterConfig(network=NetworkSpec(rtt=0.004), **CLUSTER_KW)
        ref = simulate_cluster(make_source().materialise(), config=config)
        got = simulate_cluster(make_source(), config=config, chunk=5)
        assert_same_columns(ref, got)
        assert got.mean_ingress_wait() == ref.mean_ingress_wait()

    def test_stream_matches_with_work_stealing(self):
        config = ClusterConfig(migration="work_stealing", **CLUSTER_KW)
        ref = simulate_cluster(make_source().materialise(), config=config)
        got = simulate_cluster(make_source(), config=config, chunk=9)
        assert_same_columns(ref, got)


class TestChunkInvariance:
    """The hypothesis property behind the tentpole: chunk boundaries are
    invisible — any chunk size replays the same run."""

    @given(chunk=st.integers(min_value=1, max_value=40))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_single_machine(self, chunk):
        config = SimulationConfig(num_cores=2)
        ref = simulate(FIFOScheduler(), make_source().materialise(), config=config)
        got = simulate(FIFOScheduler(), make_source(), config=config, chunk=chunk)
        assert_same_columns(ref, got)
        assert ref.summary() == got.summary()

    @given(chunk=st.integers(min_value=1, max_value=40))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cluster_with_rtt(self, chunk):
        config = ClusterConfig(network=NetworkSpec(rtt=0.01), **CLUSTER_KW)
        ref = simulate_cluster(make_source().materialise(), config=config)
        got = simulate_cluster(make_source(), config=config, chunk=chunk)
        assert_same_columns(ref, got)


# ------------------------------------------------------- unknown-total progress


class _UnboundedSource(StreamingWorkload):
    """A source that cannot cheaply count itself (total_hint -> None)."""

    def __init__(self, inner):
        self.inner = inner

    def total_hint(self):
        return None

    def batches(self):
        return self.inner.batches()


class TestUnknownTotalProgress:
    def test_reporter_rate_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(min_wall_interval=0.0, stream=stream)
        assert reporter.report(12.0, 340, None)
        reporter.close(60.0, 900, None)
        output = stream.getvalue()
        assert "340 tasks" in output
        assert "/s)" in output  # throughput, not a percentage
        assert "%" not in output
        assert "done: 900 tasks" in output

    def test_streaming_run_reports_without_total(self):
        telemetry = TelemetrySpec(progress=True, progress_interval=0.0).build()
        telemetry.progress.stream = io.StringIO()
        result = simulate(
            FIFOScheduler(),
            _UnboundedSource(make_source()),
            config=SimulationConfig(num_cores=2),
            telemetry=telemetry,
            chunk=8,
        )
        assert len(result.task_columns()) == TOTAL_TASKS
        output = telemetry.progress.stream.getvalue()
        assert "done: 32 tasks" in output
        assert "%" not in output

    def test_streaming_run_uses_hint_when_available(self):
        telemetry = TelemetrySpec(progress=True, progress_interval=0.0).build()
        telemetry.progress.stream = io.StringIO()
        simulate(
            FIFOScheduler(),
            make_source(),
            config=SimulationConfig(num_cores=2),
            telemetry=telemetry,
            chunk=8,
        )
        assert "done: 32/32" in telemetry.progress.stream.getvalue()


# ----------------------------------------------------------------- CSV ingestion


CSV_HEADER = "HashOwner,HashApp,HashFunction,Trigger,1,2,3,4,5"


def write_csv(tmp_path, lines, name="trace.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestInvocationCsv:
    def test_round_trip_counts(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                CSV_HEADER,
                "o1,a1,f1,http,60,0,30,0,10",
                "o1,a1,f2,timer,0,120,0,80,0",
                "o2,a2,f3,queue,50,50,100,200,200",
            ],
        )
        trace = load_invocation_csv(path)
        assert trace.config.num_functions == 3
        assert trace.config.minutes == 5
        source = csv_stream_source(path)
        # downscale_factor defaults to 1.0 for ingested traces: counts replay
        # as-is -> 100 + 200 + 600 invocations.
        assert source.total_hint() == 900
        assert len(csv_stream_source(path, limit=50).materialise()) == 50

    def test_duration_and_memory_overrides(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                CSV_HEADER + ",AverageDuration,MemoryMB",
                "o1,a1,f1,http,10,0,0,0,0,2.5,512",
            ],
        )
        trace = load_invocation_csv(path)
        profile = trace.functions[0]
        assert profile.average_duration == 2.5
        assert profile.memory_mb == 512

    def test_defaults_are_seeded(self, tmp_path):
        path = write_csv(tmp_path, [CSV_HEADER, "o1,a1,f1,http,5,0,0,0,0"])
        first = load_invocation_csv(path, seed=3).functions[0]
        second = load_invocation_csv(path, seed=3).functions[0]
        other = load_invocation_csv(path, seed=4).functions[0]
        assert (first.average_duration, first.memory_mb) == (
            second.average_duration,
            second.memory_mb,
        )
        assert (first.average_duration, first.memory_mb) != (
            other.average_duration,
            other.memory_mb,
        )

    def test_rejects_non_invocation_format(self, tmp_path):
        path = write_csv(tmp_path, ["a,b,c", "1,2,3"])
        with pytest.raises(ValueError, match="no numeric per-minute columns"):
            load_invocation_csv(path)

    def test_rejects_headerless_and_rowless_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty invocation-count CSV"):
            load_invocation_csv(str(empty))
        no_rows = write_csv(tmp_path, [CSV_HEADER], name="norows.csv")
        with pytest.raises(ValueError, match="no function rows"):
            load_invocation_csv(no_rows)

    def test_csv_replay_runs_end_to_end(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                CSV_HEADER + ",AverageDuration,MemoryMB",
                "o1,a1,f1,http,20,10,0,5,0,0.2,128",
                "o2,a2,f2,timer,0,15,25,0,10,0.8,256",
            ],
        )
        source = csv_stream_source(path)
        result = simulate_cluster(
            source, config=ClusterConfig(num_nodes=2, cores_per_node=2), chunk=16
        )
        assert result.finished_count == 85


# ------------------------------------------------------- StreamSpec and Scenario


class TestStreamSpec:
    def test_defaults_round_trip_empty(self):
        assert StreamSpec().to_dict() == {}
        assert StreamSpec.from_dict({}) == StreamSpec()

    def test_round_trip(self):
        spec = StreamSpec(chunk=512, metrics_cap=1000, metrics_policy="spill")
        assert StreamSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(chunk=0)
        with pytest.raises(TypeError):
            StreamSpec(low_water=3)  # the cursor has no low-water mark
        with pytest.raises(ValueError):
            StreamSpec(metrics_cap=0)
        with pytest.raises(ValueError):
            StreamSpec(metrics_policy="bogus")


class TestStreamScenario:
    def test_json_round_trip(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.02),
            stream=StreamSpec(chunk=256, metrics_cap=500),
        )
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.stream.chunk == 256

    def test_stream_dict_is_coerced(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.02), stream={"chunk": 128}
        )
        assert isinstance(scenario.stream, StreamSpec)
        assert scenario.stream.chunk == 128

    def test_registered_sources(self):
        names = available_stream_sources()
        assert {"two_minute", "ten_minute", "azure_day"} <= set(names)
        with pytest.raises(KeyError, match="unknown stream source"):
            create_stream_source("nope")

    def test_build_stream_source_prefers_csv(self, tmp_path):
        path = write_csv(tmp_path, [CSV_HEADER, "o1,a1,f1,http,10,0,0,0,0"])
        source = build_stream_source(None, StreamSpec(trace_csv=path))
        assert source.total_hint() == 10
        with pytest.raises(ValueError, match="workload source name or a trace_csv"):
            build_stream_source(None, StreamSpec())

    def test_single_machine_streaming_scenario(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.02), stream=StreamSpec(chunk=64)
        )
        result = run(scenario)
        assert not result.result.tasks
        assert len(result.result.task_columns()) > 0

    def test_cluster_streaming_scenario_is_chunk_invariant(self):
        # Scenario-level chunk invariance: the chunk size is an execution
        # detail, never a result knob.
        workload = Workload("two_minute", scale=0.02)
        coarse = run(
            Scenario(
                workload=workload,
                num_nodes=2,
                dispatcher="jsq",
                stream=StreamSpec(chunk=128),
            )
        )
        fine = run(
            Scenario(
                workload=workload,
                num_nodes=2,
                dispatcher="jsq",
                stream=StreamSpec(chunk=17),
            )
        )
        assert fine.result.summary() == coarse.result.summary()
        assert fine.cost == coarse.cost

    def test_stream_source_without_stream_section_fails_cleanly(self):
        scenario = Scenario(workload=Workload("azure_day", scale=0.002), num_nodes=2)
        message = r"workload\.source 'azure_day' is a stream source.*`stream` section"
        with pytest.raises(ValueError, match=message):
            run(scenario)

    def test_streaming_scenario_rejects_explicit_tasks(self):
        scenario = Scenario(
            workload=Workload("two_minute", scale=0.02), stream=StreamSpec()
        )
        with pytest.raises(ValueError, match="lazily"):
            run(scenario, tasks=make_source().materialise())


# ------------------------------------------------------------------- runner CLI


class TestRunnerStreamFlags:
    def write_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            Scenario(workload=Workload("two_minute", scale=0.02)).to_json()
        )
        return path

    def test_stream_chunk_flag_opts_into_streaming(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        rc = run_cli(
            ["--scenario", str(self.write_scenario(tmp_path)), "--stream-chunk", "64"]
        )
        assert rc == 0
        assert "tasks" in capsys.readouterr().out

    def test_trace_csv_flag(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        csv_path = write_csv(
            tmp_path,
            [CSV_HEADER + ",AverageDuration,MemoryMB", "o1,a1,f1,http,30,0,10,0,0,0.3,128"],
        )
        rc = run_cli(
            [
                "--scenario",
                str(self.write_scenario(tmp_path)),
                "--trace-csv",
                csv_path,
                "--metrics-cap",
                "16",
                "--metrics-policy",
                "spill",
            ]
        )
        assert rc == 0
        capsys.readouterr()

    def test_bad_stream_flags_fail_cleanly(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        rc = run_cli(
            ["--scenario", str(self.write_scenario(tmp_path)), "--stream-chunk", "0"]
        )
        assert rc == 2
        assert "bad stream flags" in capsys.readouterr().err

    def test_unknown_stream_source_fails_cleanly(self, capsys):
        """A scenario whose workload has no stream source exits 2 with the list."""
        from pathlib import Path

        from repro.experiments.runner import run_cli

        diurnal = Path(__file__).resolve().parent.parent / "scenarios" / "diurnal.json"
        rc = run_cli(["--scenario", str(diurnal), "--stream-chunk", "512"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown stream source 'diurnal'")
        for name in ("azure_day", "ten_minute", "two_minute"):
            assert name in err

    def test_stream_source_without_stream_flags_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        path = tmp_path / "stream.json"
        path.write_text(
            '{"workload": {"source": "azure_day"}, "num_nodes": 4, '
            '"cores_per_node": 8, "dispatcher": "jsq"}'
        )
        rc = run_cli(["--scenario", str(path), "--scale", "0.002"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workload.source 'azure_day' is a stream source")
        assert "--stream-chunk" in err

    def test_missing_trace_csv_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        missing = tmp_path / "absent.csv"
        rc = run_cli(
            ["--scenario", str(self.write_scenario(tmp_path)), "--trace-csv", str(missing)]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: trace CSV {missing} not found\n"

    def test_malformed_trace_csv_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        cases = {
            "a,b\n1,2\n": "not an Azure invocation-count CSV",
            "HashFunction,1,2\nf0,3,4\nf1,5,x\n": (
                "function row 2, minute column '2': count 'x' is not a number"
            ),
        }
        scenario = str(self.write_scenario(tmp_path))
        for index, (text, message) in enumerate(cases.items()):
            bad = tmp_path / f"bad{index}.csv"
            bad.write_text(text)
            rc = run_cli(["--scenario", scenario, "--trace-csv", str(bad)])
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                f"error: trace CSV {bad}: {message}"
            )

    def test_stream_flags_require_scenario(self, capsys):
        from repro.experiments.runner import run_cli

        rc = run_cli(["--stream-chunk", "64"])
        assert rc == 2
        assert "require --scenario" in capsys.readouterr().err
