"""Golden trace suite: the recorded telemetry stays bit-identical.

Runs the two traced runs of :mod:`golden_telemetry` and asserts that their
spans, instants, track names, counters and series hash to the digests in
``tests/golden/golden_telemetry.json``.  The cluster run also has to record
every span, instant, counter family and gauge family the telemetry layer
emits, so each lifecycle hook is exercised by the comparison.
"""

from __future__ import annotations

import pytest

from golden_telemetry import RUNS, fingerprint, load_golden

#: Span names every hook of the cluster run must produce.
CLUSTER_SPANS = {
    "queued", "run", "wire", "backoff", "migrate", "checkpoint-migrate",
    "revocation-warning",
}
#: Instant names (exact) the cluster run must produce.
CLUSTER_INSTANTS = {
    "arrival", "dispatch", "task-lost", "mw-defer", "node-boot",
    "node-active", "node-drain", "node-retire", "node-crash",
    "node-revocation", "revocation-warning", "scale-up", "scale-down",
    "replace",
}
#: Instant-name prefixes the cluster run must produce.
CLUSTER_INSTANT_PREFIXES = ("reject:",)
#: Counter families (exact names or ``prefix.`` families).
CLUSTER_COUNTERS = (
    "chaos.", "middleware.deferred", "middleware.rejected.",
    "middleware.retry.timeouts", "migration.", "autoscaler.",
)
#: Gauge series (exact names or ``prefix`` families).
CLUSTER_GAUGES = (
    "cluster.fleet_load", "cluster.node", "middleware.slo_attainment",
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def results():
    return {name: run() for name, run in RUNS.items()}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_matches_golden(run, golden, results):
    observed = fingerprint(results[run])
    assert observed == golden[run]


def _present(names, wanted):
    return all(
        any(name == want or (want.endswith((".", ":")) and name.startswith(want))
            for name in names)
        for want in wanted
    )


def test_cluster_run_exercises_every_hook(results):
    result = results["cluster_faults"]
    snapshot = result.telemetry
    spans = {span[0] for span in snapshot.spans}
    instants = {instant[0] for instant in snapshot.instants}
    assert CLUSTER_SPANS <= spans, CLUSTER_SPANS - spans
    assert CLUSTER_INSTANTS <= instants, CLUSTER_INSTANTS - instants
    assert _present(instants, CLUSTER_INSTANT_PREFIXES)
    assert _present(snapshot.counters, CLUSTER_COUNTERS), sorted(snapshot.counters)
    series = list(result.series)
    assert "cluster.fleet_load" in series
    assert "middleware.slo_attainment" in series
    for suffix in ("queue_depth", "busy_cores", "ingress"):
        assert any(
            name.startswith("cluster.node") and name.endswith(suffix)
            for name in series
        ), suffix
    node_pids = [pid for pid in snapshot.process_names if pid > 0]
    assert len(node_pids) > 4  # the autoscaler grew the fleet


def test_standalone_run_exercises_machine_hooks(results):
    result = results["standalone_hybrid"]
    snapshot = result.telemetry
    assert {span[0] for span in snapshot.spans} == {"queued", "run"}
    assert {instant[0] for instant in snapshot.instants} == {"arrival"}
    assert snapshot.process_names == {1: "machine"}
    assert "machine.busy_cores" in result.series
