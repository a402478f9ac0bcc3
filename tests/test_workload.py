"""Tests for the workload substrate: Fibonacci, calibration, trace, pipeline."""

import numpy as np
import pytest

from repro.workload.azure import AzureTraceConfig, generate_trace
from repro.workload.calibration import (
    CalibrationEntry,
    CalibrationTable,
    DeterministicCalibration,
    MeasuredCalibration,
    default_calibration_table,
)
from repro.workload.extraction import ExtractionPipeline, TraceBucket
from repro.workload.fibonacci import (
    fibonacci,
    fibonacci_recursive,
    fibonacci_recursive_cost,
    relative_cost,
)
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadItem,
    WorkloadItems,
    WorkloadSpec,
    build_workload,
    items_to_tasks,
)
from repro.workload.memory import AZURE_MEMORY_DISTRIBUTION, MemoryDistribution
from repro.workload.trace_io import load_workload_csv, save_workload_csv


class TestFibonacci:
    def test_values(self):
        assert [fibonacci(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_recursive_matches_iterative(self):
        for n in range(12):
            assert fibonacci_recursive(n) == fibonacci(n)

    def test_cost_recurrence(self):
        assert fibonacci_recursive_cost(0) == 1
        assert fibonacci_recursive_cost(5) == (
            fibonacci_recursive_cost(4) + fibonacci_recursive_cost(3) + 1
        )

    def test_cost_grows_roughly_geometrically(self):
        ratio = fibonacci_recursive_cost(30) / fibonacci_recursive_cost(29)
        assert 1.55 < ratio < 1.70

    def test_relative_cost(self):
        assert relative_cost(36, reference=36) == 1.0
        assert relative_cost(37, reference=36) > 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci(-1)
        with pytest.raises(ValueError):
            fibonacci_recursive(-1)


class TestCalibration:
    def test_deterministic_table_monotonic(self):
        table = DeterministicCalibration().calibrate()
        assert table.n_values == list(range(36, 47))
        assert table.durations == sorted(table.durations)
        assert table.duration_of(36) == pytest.approx(0.15)

    def test_nearest_n_and_bucketing(self):
        table = default_calibration_table()
        assert table.nearest_n(0.01) == 36
        assert table.nearest_n(1000.0) == 46
        mid = table.duration_of(40)
        assert table.bucket_duration(mid * 1.01) == pytest.approx(mid)

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationTable([])
        with pytest.raises(ValueError):
            CalibrationTable([CalibrationEntry(36, -1.0)])
        with pytest.raises(ValueError):
            CalibrationTable([CalibrationEntry(36, 1.0), CalibrationEntry(36, 2.0)])
        with pytest.raises(KeyError):
            default_calibration_table().duration_of(10)
        with pytest.raises(ValueError):
            default_calibration_table().nearest_n(0.0)

    def test_measured_calibration_orders_durations(self):
        table = MeasuredCalibration(n_values=(10, 14, 18), repetitions=1).calibrate()
        assert len(table) == 3
        assert table.durations == sorted(table.durations)


class TestMemoryDistribution:
    def test_azure_distribution_matches_study(self):
        assert AZURE_MEMORY_DISTRIBUTION.fraction_at_most(400) >= 0.9
        assert AZURE_MEMORY_DISTRIBUTION.mean_mb() > 128

    def test_sampling_deterministic_with_seed(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        a = AZURE_MEMORY_DISTRIBUTION.sample(rng_a, 50)
        b = AZURE_MEMORY_DISTRIBUTION.sample(rng_b, 50)
        assert list(a) == list(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryDistribution(sizes_mb=(128,), weights=(0.5,))
        with pytest.raises(ValueError):
            MemoryDistribution(sizes_mb=(128, 256), weights=(1.0,))


class TestSyntheticTrace:
    def test_duration_skew_matches_azure(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=500))
        assert 0.7 <= trace.fraction_under(1.0) <= 0.92

    def test_deterministic_given_seed(self):
        config = AzureTraceConfig(minutes=2, num_functions=100, seed=3)
        a = generate_trace(config)
        b = generate_trace(config)
        assert a.total_invocations() == b.total_invocations()
        assert a.functions[5].average_duration == b.functions[5].average_duration

    def test_first_two_minutes_volume_close_to_target(self):
        config = AzureTraceConfig(minutes=2, num_functions=500)
        trace = generate_trace(config)
        per_minute = trace.invocations_per_minute()
        total = int(per_minute[:2].sum())
        assert total == pytest.approx(config.target_invocations_first_two_minutes, rel=0.05)

    def test_duration_cdf_monotonic(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=200))
        points, cdf = trace.duration_cdf()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)


class TestExtractionPipeline:
    def test_bucketing_and_downscale(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=300))
        pipeline = ExtractionPipeline(downscale_factor=100.0)
        buckets = pipeline.run(trace)
        assert buckets
        assert all(36 <= b.fibonacci_n <= 46 for b in buckets)
        raw_total = trace.total_invocations()
        scaled_total = ExtractionPipeline.total_invocations(buckets)
        assert scaled_total == pytest.approx(raw_total / 100.0, rel=0.1)
        report = pipeline.cleaning_report
        assert report is not None and report.kept > 0

    def test_memory_weights_normalised(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=200))
        buckets = ExtractionPipeline().run(trace)
        for bucket in buckets:
            if bucket.memory_weights:
                assert sum(bucket.memory_weights) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionPipeline(downscale_factor=0.0)
        with pytest.raises(ValueError):
            ExtractionPipeline(max_duration=0.0)


def loop_reference_items(buckets, spec):
    """Items drawn one invocation at a time, as the generator did before numpy."""
    rng = np.random.default_rng(spec.seed)
    items = []
    for bucket in buckets:
        for minute in range(spec.minutes):
            count = bucket.invocations_in_minute(minute)
            if count <= 0:
                continue
            interval = 60.0 / count
            memory_choices = rng.choice(
                np.array(bucket.memory_sizes_mb or [128]),
                size=count,
                p=np.array(bucket.memory_weights or [1.0]),
            )
            for k in range(count):
                duration = bucket.duration
                if spec.duration_jitter > 0:
                    duration *= 1.0 + rng.uniform(-spec.duration_jitter, spec.duration_jitter)
                items.append(
                    WorkloadItem(
                        minute * 60.0 + k * interval,
                        bucket.fibonacci_n,
                        float(duration),
                        int(memory_choices[k]),
                    )
                )
    items.sort(key=lambda item: (item.arrival_time, item.fibonacci_n))
    return items[: spec.limit]


class TestWorkloadGenerator:
    @pytest.mark.parametrize(
        "spec",
        [
            WorkloadSpec(minutes=3),
            WorkloadSpec(minutes=3, limit=20, seed=3),
            WorkloadSpec(minutes=2, duration_jitter=0.3, seed=11),
        ],
    )
    def test_items_match_one_at_a_time_reference(self, spec):
        """Same values, types and order; two buckets share fib(30) to exercise ties."""
        buckets = [
            TraceBucket(30, 0.4, np.array([6.0, 0.0, 9.0]), [128, 256], [0.7, 0.3]),
            TraceBucket(25, 0.05, np.array([3.0, 7.0, 4.0])),
            TraceBucket(30, 0.9, np.array([3.0, 5.0, 1.0]), [512.0, 1024.0], [0.5, 0.5]),
        ]
        got = list(WorkloadGenerator(buckets).generate_items(spec))
        want = loop_reference_items(buckets, spec)
        assert got == want
        assert [tuple(map(type, vars(i).values())) for i in got] == [
            tuple(map(type, vars(i).values())) for i in want
        ]

    def test_items_sorted_and_limited(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=300))
        buckets = ExtractionPipeline().run(trace)
        generator = WorkloadGenerator(buckets)
        items = generator.generate_items(WorkloadSpec(minutes=2, limit=500))
        assert len(items) == 500
        arrivals = [item.arrival_time for item in items]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 120.0 for a in arrivals)

    def test_duration_percentile(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=300))
        generator = WorkloadGenerator(ExtractionPipeline().run(trace))
        p50 = generator.duration_percentile(50, minutes=2)
        p95 = generator.duration_percentile(95, minutes=2)
        assert p50 <= p95

    def test_items_to_tasks(self):
        items = [
            WorkloadItem(arrival_time=0.0, fibonacci_n=36, duration=0.2, memory_mb=128),
            WorkloadItem(arrival_time=1.0, fibonacci_n=40, duration=1.0, memory_mb=256),
        ]
        tasks = items_to_tasks(items)
        assert [t.task_id for t in tasks] == [0, 1]
        assert tasks[1].fibonacci_n == 40
        assert tasks[1].memory_mb == 256

    def test_build_workload_end_to_end(self):
        tasks = build_workload(
            minutes=2,
            limit=300,
            trace_config=AzureTraceConfig(minutes=2, num_functions=200),
        )
        assert len(tasks) == 300

    def test_item_validation(self):
        with pytest.raises(ValueError):
            WorkloadItem(arrival_time=-1.0, fibonacci_n=36, duration=0.1, memory_mb=128)
        with pytest.raises(ValueError):
            WorkloadItem(arrival_time=0.0, fibonacci_n=36, duration=0.0, memory_mb=128)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_item_rejects_non_finite_arrival(self, value):
        with pytest.raises(ValueError, match="arrival_time"):
            WorkloadItem(arrival_time=value, fibonacci_n=36, duration=0.1, memory_mb=128)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_item_rejects_non_finite_duration(self, value):
        with pytest.raises(ValueError, match="duration"):
            WorkloadItem(arrival_time=0.0, fibonacci_n=36, duration=value, memory_mb=128)

    @pytest.mark.parametrize("field", ["minutes", "limit"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_spec_rejects_non_integer_counts(self, field, value):
        with pytest.raises(TypeError, match=field):
            WorkloadSpec(**{field: value})

    def test_spec_accepts_numpy_integers(self):
        spec = WorkloadSpec(minutes=np.int64(2), limit=np.int32(10))
        assert spec.minutes == 2 and spec.limit == 10

    def test_tasks_of_one_function_share_labels_not_metadata(self):
        items = [
            WorkloadItem(arrival_time=0.0, fibonacci_n=36, duration=0.2, memory_mb=128),
            WorkloadItem(arrival_time=0.5, fibonacci_n=36, duration=0.2, memory_mb=256),
            WorkloadItem(arrival_time=1.0, fibonacci_n=36, duration=0.2, memory_mb=128),
        ]
        first, other_memory, second = items_to_tasks(items)
        assert first.name is second.name and first.name == "fib(36)"
        fid = first.function_id
        assert fid is second.function_id and fid == "fib(36)/128mb"
        assert other_memory.function_id == "fib(36)/256mb"
        assert first.metadata is not second.metadata
        first.metadata["attempt"] = 2
        assert "attempt" not in second.metadata


def item_columns():
    return {
        "arrival_time": [0.0, 0.5, 1.0],
        "fibonacci_n": [36, 37, 38],
        "duration": [0.2, 0.3, 0.4],
        "memory_mb": [128, 256, 512],
    }


class TestWorkloadItems:
    def test_sequence_of_items(self):
        items = WorkloadItems(**item_columns())
        assert len(items) == 3
        assert items[1] == WorkloadItem(0.5, 37, 0.3, 256)
        assert items[-1] == WorkloadItem(1.0, 38, 0.4, 512)
        assert list(items) == [WorkloadItem(*row) for row in zip(*item_columns().values())]
        with pytest.raises(IndexError):
            items[3]

    def test_slice_shares_value_objects(self):
        items = WorkloadItems(**item_columns())
        part = items[1:]
        assert isinstance(part, WorkloadItems)
        assert list(part) == list(items)[1:]
        assert part.columns[0][0] is items.columns[0][1]
        assert items_to_tasks(part)[0].arrival_time is items.columns[0][1]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_time", -1.0),
            ("arrival_time", float("nan")),
            ("arrival_time", float("inf")),
            ("duration", 0.0),
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("memory_mb", 0),
            ("memory_mb", -128),
        ],
    )
    def test_column_checks_match_item_checks(self, field, value):
        columns = item_columns()
        columns[field][2] = value
        with pytest.raises(ValueError, match=field) as from_columns:
            WorkloadItems(**columns)
        with pytest.raises(ValueError) as from_item:
            WorkloadItem(**{name: column[2] for name, column in columns.items()})
        assert str(from_columns.value) == str(from_item.value)

    def test_columns_must_have_one_length(self):
        columns = item_columns()
        columns["duration"].pop()
        with pytest.raises(ValueError, match="differ in length"):
            WorkloadItems(**columns)

    def test_generated_items_are_columns(self):
        trace = generate_trace(AzureTraceConfig(minutes=2, num_functions=200))
        generator = WorkloadGenerator(ExtractionPipeline().run(trace))
        items = generator.generate_items(WorkloadSpec(minutes=2, limit=300))
        assert isinstance(items, WorkloadItems) and len(items) == 300
        rows = [tuple(vars(item).values()) for item in items]
        assert [
            (t.arrival_time, t.fibonacci_n, t.service_time, t.memory_mb)
            for t in items_to_tasks(items)
        ] == rows


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        items = [
            WorkloadItem(arrival_time=0.5, fibonacci_n=38, duration=0.4, memory_mb=256),
            WorkloadItem(arrival_time=1.5, fibonacci_n=42, duration=2.7, memory_mb=512),
        ]
        path = save_workload_csv(items, tmp_path / "workload.csv")
        loaded = load_workload_csv(path)
        assert len(loaded) == 2
        assert loaded[0].fibonacci_n == 38
        assert loaded[1].memory_mb == 512
        assert loaded[1].arrival_time == pytest.approx(1.5)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_workload_csv(tmp_path / "nope.csv")

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("arrival_time,duration\n0.0,1.0\n")
        with pytest.raises(ValueError):
            load_workload_csv(bad)
