"""Ablation benchmarks for the design choices called out in DESIGN.md §6.

These are not paper figures; they quantify how sensitive the headline result
is to the simulator's own knobs (context-switch cost, CFS placement of
preempted tasks, adaptive-window length), which is the evidence DESIGN.md
promises for the substitution choices.
"""

from conftest import run_once

from repro.core.config import CFSPlacement
from repro.core.hybrid import HybridScheduler
from repro.experiments.common import (
    paper_hybrid_config,
    standard_config,
    two_minute_workload,
)
from repro.schedulers.cfs import CFSScheduler
from repro.simulation.context_switch import ContextSwitchModel
from repro.simulation.engine import simulate


def _total_execution(result):
    return result.summary().total_execution


def test_bench_ablation_context_switch_cost(benchmark, bench_scale):
    """CFS's cost penalty exists even with free context switches (pure
    time-sharing), and grows further when switches cost more."""

    def run_ablation():
        free = simulate(
            CFSScheduler(),
            two_minute_workload(bench_scale),
            config=standard_config(context_switch=ContextSwitchModel(switch_cost=0.0)),
        )
        expensive = simulate(
            CFSScheduler(),
            two_minute_workload(bench_scale),
            config=standard_config(context_switch=ContextSwitchModel(switch_cost=200e-6)),
        )
        return _total_execution(free), _total_execution(expensive)

    free_exec, expensive_exec = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    assert free_exec > 0
    assert expensive_exec >= free_exec


def test_bench_ablation_cfs_placement(benchmark, bench_scale):
    """Round-robin vs least-loaded placement of preempted tasks: both keep the
    hybrid far below CFS-level execution times."""

    def run_ablation():
        round_robin = simulate(
            HybridScheduler(paper_hybrid_config(cfs_placement=CFSPlacement.ROUND_ROBIN)),
            two_minute_workload(bench_scale),
        )
        least_loaded = simulate(
            HybridScheduler(paper_hybrid_config(cfs_placement=CFSPlacement.LEAST_LOADED)),
            two_minute_workload(bench_scale),
        )
        cfs = simulate(CFSScheduler(), two_minute_workload(bench_scale))
        return (
            _total_execution(round_robin),
            _total_execution(least_loaded),
            _total_execution(cfs),
        )

    rr_exec, ll_exec, cfs_exec = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    assert rr_exec < cfs_exec
    assert ll_exec < cfs_exec


def test_bench_ablation_adaptive_window(benchmark, bench_scale):
    """The sliding-window length (100 in the paper) is not a sensitive knob:
    25 vs 400 entries changes total execution by far less than CFS vs FIFO."""

    def run_ablation():
        small = simulate(
            HybridScheduler(paper_hybrid_config().with_adaptive_limit(90, window=25)),
            two_minute_workload(bench_scale),
        )
        large = simulate(
            HybridScheduler(paper_hybrid_config().with_adaptive_limit(90, window=400)),
            two_minute_workload(bench_scale),
        )
        return _total_execution(small), _total_execution(large)

    small_exec, large_exec = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    ratio = max(small_exec, large_exec) / max(1e-9, min(small_exec, large_exec))
    assert ratio < 5.0
