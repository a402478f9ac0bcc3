"""Hypothesis strategies for the JSON specs, derived from their field types.

:func:`spec_strategy` reads a spec dataclass's field annotations (the same
ones :mod:`repro.spec` validates against) and draws every field from the
strategy of its type, recursing into nested specs.  Values a constructor
rejects with a range ``ValueError`` are discarded with ``assume``, so every
drawn spec is valid.  A scenario fuzzer can draw whole scenarios from
``spec_strategy(Scenario)``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections.abc import Mapping
from typing import Any

from hypothesis import assume
from hypothesis import strategies as st

from repro.workload.streaming import METRICS_POLICIES, StreamSpec

#: Field values that must come from a fixed set; anything else is rejected
#: by the constructor and would only waste draws.
CHOICES = {
    (StreamSpec, "metrics_policy"): st.sampled_from(METRICS_POLICIES),
}

#: JSON scalars for ``Any`` fields and free-form parameter dicts.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.text(max_size=6),
)

#: Ints are valid float-field values, so both are drawn.
numbers = st.one_of(st.integers(0, 1000), st.floats(0.0, 1e6, allow_nan=False))


def type_strategy(kind: Any) -> st.SearchStrategy:
    """Values of one spec field type."""
    origin = typing.get_origin(kind)
    args = typing.get_args(kind)
    if origin is typing.Annotated:
        return type_strategy(args[0])
    if origin is typing.Union:
        return st.one_of([type_strategy(arg) for arg in args])
    if kind is type(None):
        return st.none()
    if kind is Any or kind is object:
        return json_scalars
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(0, 1000)
    if kind is float:
        return numbers
    if kind is str:
        return st.text(min_size=1, max_size=8)
    if origin is tuple:
        return st.lists(type_strategy(args[0]), max_size=3).map(tuple)
    if origin is dict or origin is Mapping:
        return st.dictionaries(st.text(max_size=6), json_scalars, max_size=3)
    if dataclasses.is_dataclass(kind):
        return spec_strategy(kind)
    raise TypeError(f"no strategy for spec field type {kind!r}")


@functools.lru_cache(maxsize=None)
def spec_strategy(cls: type) -> st.SearchStrategy:
    """Valid instances of spec dataclass ``cls``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = {}
    for f in dataclasses.fields(cls):
        choice = CHOICES.get((cls, f.name))
        fields[f.name] = type_strategy(hints[f.name]) if choice is None else choice

    @st.composite
    def build(draw):
        kwargs = {name: draw(strategy) for name, strategy in fields.items()}
        try:
            return cls(**kwargs)
        except ValueError:
            assume(False)

    return build()
