"""Scheduler registry.

Experiments and examples refer to policies by name; the registry maps those
names to factories so new policies (including user-defined ones) can be
plugged into the harness without touching experiment code.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.schedulers.base import Scheduler
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.edf import EDFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.fifo_preempt import FIFOPreemptScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.shinjuku import ShinjukuScheduler
from repro.schedulers.sjf import SJFScheduler
from repro.schedulers.srtf import SRTFScheduler

SchedulerFactory = Callable[..., Scheduler]

_REGISTRY: Dict[str, SchedulerFactory] = {}


def register_scheduler(name: str, factory: SchedulerFactory, *, overwrite: bool = False) -> None:
    """Register a scheduler factory under ``name``.

    Args:
        name: Registry key (e.g. ``"fifo"``).
        factory: Callable returning a fresh scheduler instance.
        overwrite: Allow replacing an existing registration.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"scheduler {name!r} is already registered")
    _REGISTRY[key] = factory


def create_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key](**kwargs)


def available_schedulers() -> List[str]:
    """Names of every registered scheduler, sorted."""
    return sorted(_REGISTRY)


def _hybrid_factory(**kwargs) -> Scheduler:
    """Build the hybrid FIFO+CFS scheduler from plain (JSON-able) kwargs.

    Deferred import: :mod:`repro.core.hybrid` itself imports the scheduler
    base, so importing it at module load would be circular.  ``cfs_placement``
    accepts the enum's string value so serialised scenarios round-trip.
    """
    from repro.core.config import CFSPlacement, HybridConfig
    from repro.core.hybrid import HybridScheduler

    placement = kwargs.get("cfs_placement")
    if isinstance(placement, str):
        kwargs["cfs_placement"] = CFSPlacement(placement)
    return HybridScheduler(HybridConfig(**kwargs))


def _register_builtins() -> None:
    register_scheduler("fifo", FIFOScheduler, overwrite=True)
    register_scheduler("fifo_preempt", FIFOPreemptScheduler, overwrite=True)
    register_scheduler("cfs", CFSScheduler, overwrite=True)
    register_scheduler("round_robin", RoundRobinScheduler, overwrite=True)
    register_scheduler("edf", EDFScheduler, overwrite=True)
    register_scheduler("sjf", SJFScheduler, overwrite=True)
    register_scheduler("srtf", SRTFScheduler, overwrite=True)
    register_scheduler("shinjuku", ShinjukuScheduler, overwrite=True)
    register_scheduler("hybrid", _hybrid_factory, overwrite=True)


_register_builtins()
