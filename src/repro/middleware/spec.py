"""Declarative middleware reference carried by scenarios and configs.

A :class:`MiddlewareSpec` is pure data — a registry name plus factory
parameters — so a middleware stack round-trips through ``Scenario`` JSON
by the shared :mod:`repro.spec` protocol::

    "middleware": [
      {"name": "admission", "params": {"max_queue_depth": 256}},
      "slo_tracker"
    ]

Plain strings are accepted wherever a spec is (a name with default params).
This module deliberately imports nothing from the cluster or registry at
import time, so configuration layers can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Any, Dict, Union

from repro.spec import Spec, check, validate


@dataclass(frozen=True)
class MiddlewareSpec(Spec):
    """One middleware in a declarative chain: registry name + parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate(self)
        if not self.name:
            raise ValueError(f"middleware name must be a non-empty string, got {self.name!r}")

    def build(self):
        """Instantiate the registered middleware this spec names."""
        from repro.middleware.registry import create_middleware

        return create_middleware(self.name, **self.params)

    @classmethod
    def coerce(cls, value: Union[str, Dict[str, Any], "MiddlewareSpec"]) -> "MiddlewareSpec":
        """Normalise a name, a dict, or a spec into a :class:`MiddlewareSpec`."""
        return check(value, MiddlewareEntry, "middleware")


def _by_name(value: Any, path: str) -> Any:
    """A bare registry name is shorthand for a spec with default params."""
    return MiddlewareSpec(name=value) if isinstance(value, str) else value


#: One chain entry as a field type: a spec, its dict form or a bare name.
MiddlewareEntry = Annotated[MiddlewareSpec, _by_name]
