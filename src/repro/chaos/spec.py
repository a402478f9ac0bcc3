"""Declarative fault-injection configuration.

:class:`ChaosSpec` is the one knob a run exposes: a frozen value object
carried by :class:`~repro.scenario.scenario.Scenario` (round-tripping
through its JSON form by the shared :mod:`repro.spec` protocol) or passed
directly to :class:`~repro.cluster.simulator.ClusterSimulator`.  It
describes two Poisson revocation processes per node:

* **crashes** — the node disappears with no warning: queued and running
  tasks are lost, forfeit all progress, and re-enter through the ordinary
  ARRIVAL re-admission path (so retry/shedding middleware sees them again);
* **spot revocations** — the provider gives ``warning`` seconds of notice:
  the node starts draining immediately (triggering migration rescue under
  deadline pressure) and whatever work is still on it when the warning
  expires is lost like a crash.

Per-:class:`~repro.cluster.config.NodeSpec` ``crash_rate`` /
``revocation_rate`` overrides let one fleet mix reliable on-demand nodes
with revocable spot nodes.  ``None`` (no spec) keeps the cluster on the
exact pre-chaos code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.spec import Spec, validate


@dataclass(frozen=True)
class ChaosSpec(Spec):
    """Tuning knobs of the fault injector.

    Attributes:
        crash_rate: Mean crash-style failures per node per simulated second
            (exponential inter-arrival; 0 disables crashes).  Overridable
            per node shape via :attr:`~repro.cluster.config.NodeSpec.crash_rate`.
        revocation_rate: Mean spot-style revocations per node per simulated
            second (0 disables revocations).  Overridable per node shape via
            :attr:`~repro.cluster.config.NodeSpec.revocation_rate`.
        warning: Seconds between a revocation warning and the node being
            torn down — the drain-rescue window (spot-market lead time).
        redispatch_delay: Seconds between a node failing and its lost tasks
            re-entering dispatch (failure-detection lag); 0 re-admits at the
            failure instant.
        max_failures: Cap on total node failures per run (crashes plus
            revocation teardowns); ``None`` is unbounded.  Each node fails
            at most once regardless.
    """

    crash_rate: float = 0.0
    revocation_rate: float = 0.0
    warning: float = 2.0
    redispatch_delay: float = 0.0
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        validate(self)
        if self.crash_rate < 0:
            raise ValueError(f"crash_rate must be >= 0, got {self.crash_rate!r}")
        if self.revocation_rate < 0:
            raise ValueError(
                f"revocation_rate must be >= 0, got {self.revocation_rate!r}"
            )
        if self.warning < 0:
            raise ValueError(f"warning must be >= 0, got {self.warning!r}")
        if self.redispatch_delay < 0:
            raise ValueError(
                f"redispatch_delay must be >= 0, got {self.redispatch_delay!r}"
            )
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(
                f"max_failures must be >= 1 when set, got {self.max_failures!r}"
            )
