"""One protocol for the declarative JSON specs.

Every spec -- a :class:`~repro.scenario.scenario.Scenario`, the blocks it
carries and the sweep specs -- is a frozen dataclass deriving from
:class:`Spec`, whose field types are its schema.  The types are resolved
once, when the class is defined, and give every spec the same:

* :func:`validate`, called first in each spec's ``__post_init__``: checks
  the type of every field and coerces nested mappings into their spec
  classes;
* ``to_dict``: the JSON-friendly dict form, omitting every field equal to
  its default;
* ``from_dict``: the inverse, rejecting unknown keys with a suggestion.

Errors name the bad value by its dotted path (``stream.chunk``,
``node_specs[0].cores``).  Field types understood: ``bool``; ``int`` (any
integral, never a bool); ``float`` (any real, ints included, never a
bool); ``str``; ``Optional[...]``; nested spec dataclasses (a mapping is
coerced); ``Tuple[X, ...]`` (a list or tuple); ``Dict``/``Mapping``
(copied); ``Any``/``object``; and ``Annotated[X, parse]``, where
``parse(value, path)`` first expands a shorthand (a bare middleware name,
a grid-or-random sweep axis) into an ``X``.

This module imports nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import numbers
import re
import typing
from collections.abc import Mapping
from typing import Any, Dict, Sequence, Tuple

_REQUIRED = object()
_NONE = type(None)


def suggest(name: str, candidates: Sequence[str]) -> str:
    """``" (did you mean 'x'?)"`` for the closest candidate, else ``""``."""
    matches = difflib.get_close_matches(name, candidates, n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, Any, Any], ...]:
    """``((name, type, default), ...)`` of a spec class."""
    hints = cls._field_types
    fields = []
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            default = _REQUIRED
        fields.append((f.name, hints[f.name], default))
    return tuple(fields)


def _kind(cls: type) -> str:
    """The class name in words, for messages: ``"sweep spec"``."""
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def check(value: Any, kind: Any, path: str) -> Any:
    """``value`` checked (and coerced) as a field of type ``kind``.

    Raises:
        TypeError: naming ``path`` when ``value`` does not fit ``kind``.
    """
    origin = typing.get_origin(kind)
    if origin is typing.Annotated:
        kind, parse = typing.get_args(kind)
        return check(parse(value, path), kind, path)
    optional = False
    if origin is typing.Union:
        args = typing.get_args(kind)
        if value is None and _NONE in args:
            return None
        members = tuple(arg for arg in args if arg is not _NONE)
        optional = len(members) < len(args)
        if len(members) > 1:
            if isinstance(value, members):
                return value
            raise TypeError(
                f"{path} must be one of {', '.join(m.__name__ for m in members)}, "
                f"got {value!r}"
            )
        kind = members[0]
        origin = typing.get_origin(kind)
    if kind is Any or kind is object:
        return value
    if kind is bool:
        if isinstance(value, bool):
            return value
        expected = "a bool"
    elif kind is int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return value
        expected = "an integer"
    elif kind is float:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return value
        expected = "a number"
    elif kind is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            item = typing.get_args(kind)[0]
            return tuple(
                check(entry, item, f"{path}[{index}]")
                for index, entry in enumerate(value)
            )
        expected = "a list"
    elif origin is dict or origin is Mapping:
        if isinstance(value, Mapping):
            return dict(value)
        expected = "a mapping"
    elif dataclasses.is_dataclass(kind):
        if isinstance(value, kind):
            return value
        if isinstance(value, Mapping):
            return load(kind, value, path)
        expected = f"a {kind.__name__} or a mapping"
    else:
        raise TypeError(f"{path} has a field type specs do not support: {kind!r}")
    if optional:
        expected += " or None"
    raise TypeError(f"{path} must be {expected}, got {value!r}")


def validate(spec: Any) -> None:
    """Check every field of a spec dataclass, coercing values in place."""
    for name, kind, default in _schema(type(spec)):
        value = getattr(spec, name)
        if value is default:
            continue
        checked = check(value, kind, name)
        if checked is not value:
            object.__setattr__(spec, name, checked)


def load(cls: type, data: Any, path: str = "") -> Any:
    """Build spec ``cls`` from its dict form; errors name the dotted path."""
    fields = _schema(cls)
    if not isinstance(data, Mapping):
        raise TypeError(f"{path or _kind(cls)} must be a mapping, got {data!r}")
    names = [name for name, _, _ in fields]
    for key in data:
        if key not in names:
            raise ValueError(
                f"unknown {_kind(cls)} field {_join(path, str(key))!r}"
                f"{suggest(str(key), names)}"
            )
    kwargs = {}
    for name, kind, default in fields:
        if name in data:
            kwargs[name] = check(data[name], kind, _join(path, name))
        elif default is _REQUIRED:
            raise ValueError(
                f"{_kind(cls)} is missing required field {_join(path, name)!r}"
            )
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if not path:
            raise
        # Range checks name the field but not where the spec sits.
        raise type(exc)(f"{path}: {exc}") from exc


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return dump(value)
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    if isinstance(value, Mapping):
        # Copied all the way down: a dict form shares nothing with its spec.
        return {key: _plain(entry) for key, entry in value.items()}
    return value


def dump(spec: Any) -> Dict[str, Any]:
    """JSON-friendly dict form of a spec, omitting fields at their defaults."""
    data = {}
    for name, _, default in _schema(type(spec)):
        value = getattr(spec, name)
        if value != default:
            data[name] = _plain(value)
    return data


class Spec:
    """Base of every JSON spec dataclass: ``to_dict`` and ``from_dict``.

    A subclass's field types are resolved once, when the class is defined,
    so every name they use must be bound above the class.
    """

    to_dict = dump
    from_dict = classmethod(load)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._field_types = typing.get_type_hints(cls, include_extras=True)
