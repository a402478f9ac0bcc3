"""Golden-equivalence suite for the virtual-time core rewrite.

Runs the three representative scenarios of :mod:`golden_scenarios` on their
fixed seeds and asserts that the lazily-materialized virtual-time accounting
reproduces the eager O(n)-sync engine's turnaround / p99 / preemption
metrics within 1e-9 (fixture captured at commit ``bf121a5``, immediately
before the rewrite), that fixed-seed runs stay bit-identical run to run,
and that each scenario's finished-task columns hash to the digests pinned
in ``golden_columns.json``.
"""

from __future__ import annotations

import pytest

from golden_scenarios import (
    RUNS,
    SCENARIOS,
    TOLERANCE,
    assert_close,
    columns_digest,
    load_golden,
    load_golden_columns,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def observed():
    """Each scenario run twice: once to compare, once for determinism."""
    return {name: (run(), run()) for name, run in SCENARIOS.items()}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_matches_pre_refactor_engine(scenario, golden, observed):
    assert_close(scenario, golden[scenario], observed[scenario][0])


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fixed_seed_runs_are_bit_identical(scenario, observed):
    first, second = observed[scenario]
    assert first == second, f"{scenario}: two same-seed runs diverged"


@pytest.mark.parametrize("scenario", sorted(RUNS))
def test_finished_task_columns_are_bit_identical(scenario):
    """Every finished task's row hashes as it did before the hot-path rewrite."""
    assert columns_digest(RUNS[scenario]()) == load_golden_columns()[scenario]


def test_tolerance_is_the_contract():
    """The ISSUE's acceptance bound: metrics equivalent within 1e-9."""
    assert TOLERANCE == 1e-9
