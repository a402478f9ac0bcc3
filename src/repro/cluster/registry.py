"""Dispatcher and migration-policy registries.

Experiments refer to dispatch and migration policies by name, mirroring
:mod:`repro.schedulers.registry`: the registries map names to factories so new
policies (including user-defined ones) plug into the cluster harness without
touching experiment code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.dispatchers import (
    ConsistentHashDispatcher,
    Dispatcher,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
)
from repro.cluster.migration import MigrationPolicy, WorkStealingPolicy

DispatcherFactory = Callable[..., Dispatcher]
MigrationPolicyFactory = Callable[..., MigrationPolicy]

_REGISTRY: Dict[str, DispatcherFactory] = {}
_MIGRATION_REGISTRY: Dict[str, MigrationPolicyFactory] = {}


def register_dispatcher(
    name: str, factory: DispatcherFactory, *, overwrite: bool = False
) -> None:
    """Register a dispatcher factory under ``name``.

    Args:
        name: Registry key (e.g. ``"power_of_two"``).
        factory: Callable returning a fresh dispatcher instance.
        overwrite: Allow replacing an existing registration.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"dispatcher {name!r} is already registered")
    _REGISTRY[key] = factory


def create_dispatcher(name: str, **kwargs) -> Dispatcher:
    """Instantiate a registered dispatcher by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown dispatcher {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key](**kwargs)


def available_dispatchers() -> List[str]:
    """Names of every registered dispatcher, sorted."""
    return sorted(_REGISTRY)


def register_migration_policy(
    name: str, factory: MigrationPolicyFactory, *, overwrite: bool = False
) -> None:
    """Register a migration-policy factory under ``name``.

    Args:
        name: Registry key (e.g. ``"work_stealing"``).
        factory: Callable returning a fresh migration policy instance.
        overwrite: Allow replacing an existing registration.
    """
    key = name.lower()
    if key in _MIGRATION_REGISTRY and not overwrite:
        raise ValueError(f"migration policy {name!r} is already registered")
    _MIGRATION_REGISTRY[key] = factory


def create_migration_policy(name: str, **kwargs) -> MigrationPolicy:
    """Instantiate a registered migration policy by name."""
    key = name.lower()
    if key not in _MIGRATION_REGISTRY:
        raise KeyError(
            f"unknown migration policy {name!r}; available: "
            f"{', '.join(sorted(_MIGRATION_REGISTRY))}"
        )
    return _MIGRATION_REGISTRY[key](**kwargs)


def build_migration_policy(config) -> Optional[MigrationPolicy]:
    """The migration policy a cluster config names, or None for none."""
    if config.migration is None:
        return None
    return create_migration_policy(config.migration, **config.migration_kwargs)


def available_migration_policies() -> List[str]:
    """Names of every registered migration policy, sorted."""
    return sorted(_MIGRATION_REGISTRY)


def _register_builtins() -> None:
    register_dispatcher("random", RandomDispatcher, overwrite=True)
    register_dispatcher("round_robin", RoundRobinDispatcher, overwrite=True)
    register_dispatcher("least_loaded", LeastLoadedDispatcher, overwrite=True)
    register_dispatcher("jsq", JoinShortestQueueDispatcher, overwrite=True)
    register_dispatcher("power_of_two", PowerOfTwoDispatcher, overwrite=True)
    register_dispatcher("consistent_hash", ConsistentHashDispatcher, overwrite=True)
    register_migration_policy("work_stealing", WorkStealingPolicy, overwrite=True)


_register_builtins()
