"""Per-invocation call budget of the shared event-loop hot path.

Host time is noisy; the number of Python-level calls a run makes is not.
Each case profiles only the ``run()`` call of one scenario over pre-built
tasks (the first 2,488 invocations of the paper's 2-minute trace) and
asserts ``total calls / tasks submitted`` stays within a budget.  The
budgets sit about 10% above the counts measured on CPython 3.11 when they
were set.  The headroom absorbs other interpreter and numpy versions; a
change that adds about ten calls to every invocation's path fails.

Counts when the budgets were set (CPython 3.11, numpy 2.4), before → after
the flat event heap and single-pop drain, and for ``fleet_mw`` before →
after the fleet backlog became an O(1) counter (admission and load-aware
shedding used to rescan every node's queue on each arrival):

========  ======  =====
case      before  after
========  ======  =====
fifo        96.5   67.0
cfs        149.3   89.0
hybrid     135.9   92.6
fleet      128.4   98.5
fleet_mw   173.7   50.9
========  ======  =====

``fleet_mw`` counts fewer calls than ``fleet`` because its caps reject more
than half of the arrivals, which never reach a node.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.core.config import PAPER_FIXED_TIME_LIMIT
from repro.scenario import Scenario, run
from repro.scenario.workloads import two_minute_workload

#: Share of the 2-minute trace each case replays (2,488 invocations).
SCALE = 0.2

CASES = {
    # The paper's 50-core node under each of its three schedulers.
    "fifo": Scenario(scheduler="fifo", num_cores=50),
    "cfs": Scenario(scheduler="cfs", num_cores=50),
    "hybrid": Scenario(
        scheduler="hybrid",
        scheduler_kwargs={
            "fifo_cores": 25,
            "cfs_cores": 25,
            "time_limit": PAPER_FIXED_TIME_LIMIT,
        },
        num_cores=50,
    ),
    # A small fleet: dispatch and the load index on top of the node path.
    "fleet": Scenario(
        num_nodes=4, cores_per_node=8, scheduler="fifo", dispatcher="jsq", seed=42
    ),
    # The fleet behind admission and load-aware shedding, capped low enough
    # that a backlog forms: each arrival reads the fleet backlog.
    "fleet_mw": Scenario(
        num_nodes=4,
        cores_per_node=8,
        scheduler="fifo",
        dispatcher="jsq",
        seed=42,
        middleware=(
            {"name": "admission", "params": {"max_queue_depth": 64}},
            {
                "name": "deadline_shed",
                "params": {"relative_deadline": 2.0, "load_aware": True},
            },
        ),
    ),
}

#: Python calls per submitted invocation that each case may not exceed.
BUDGETS = {
    "fifo": 74.0,
    "cfs": 98.0,
    "hybrid": 102.0,
    "fleet": 108.0,
    "fleet_mw": 56.0,
}


def calls_per_invocation(scenario: Scenario) -> float:
    tasks = two_minute_workload(SCALE)
    profile = cProfile.Profile()
    profile.enable()
    outcome = run(scenario, tasks=tasks)
    profile.disable()
    # Every task finished, or was rejected at admission.
    rejected = sum(1 for task in tasks if "rejected" in task.metadata)
    assert len(outcome.task_columns()) + rejected == len(tasks)
    return pstats.Stats(profile).total_calls / len(tasks)


@pytest.mark.parametrize("case", sorted(CASES))
def test_calls_per_invocation_within_budget(case):
    measured = calls_per_invocation(CASES[case])
    assert measured <= BUDGETS[case], (
        f"{case}: {measured:.1f} Python calls per invocation, budget "
        f"{BUDGETS[case]:.0f}: a change added calls to the per-invocation path"
    )
