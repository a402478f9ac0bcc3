"""Declarative sweep specifications.

A :class:`SweepSpec` describes a study as data: one base
:class:`~repro.scenario.scenario.Scenario` plus either

* **axes** — :class:`GridAxis` (cartesian product) and/or
  :class:`RandomAxis` (seeded sampling, requires ``samples``) over any
  scenario field, or
* **points** — an explicit list of labelled :class:`PointSpec` override
  dicts (what the ported experiments use: "run exactly these variants").

Fields are addressed by *dotted path* into the scenario's dict form, so
nested middleware/chaos/network/stream parameters are sweepable without
special cases: ``workload.scale``, ``scheduler_kwargs.quantum``,
``chaos.crash_rate``, ``network.rtt``, ``migration_kwargs.checkpoint``.
Unknown top-level fields fail with an error that names the bad field
(and suggests the nearest real one) instead of surfacing a ``TypeError``
from the scenario constructor three layers down.

Expansion is canonical: grid axes are multiplied in sorted-field order
and random axes draw from per-field seeded streams, so two specs that
differ only in axis *ordering* expand to the same points in the same
order — one of the determinism guarantees the executor builds on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Annotated, Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.scenario.scenario import Scenario
from repro.spec import Spec, load, validate


class SweepError(ValueError):
    """A malformed sweep spec or override; the message names the bad field."""


def apply_overrides(
    base: Scenario, overrides: Mapping[str, object]
) -> Scenario:
    """Patch a scenario with dotted-path overrides and rebuild it.

    Works on the scenario's dict form so every JSON-serialisable field —
    including nested spec blocks that the base scenario leaves at their
    defaults — is reachable.  Intermediate dicts are created on demand;
    a path that descends into a non-dict value is an error.
    """
    data = base.to_dict()
    for path, value in overrides.items():
        if not path or not isinstance(path, str):
            raise SweepError(f"override field names must be non-empty strings, got {path!r}")
        parts = path.split(".")
        node = data
        for depth, part in enumerate(parts[:-1]):
            child = node.get(part)
            if child is None:
                child = node[part] = {}
            elif not isinstance(child, dict):
                prefix = ".".join(parts[: depth + 1])
                raise SweepError(
                    f"override {path!r} descends into {prefix!r}, "
                    f"which is {type(child).__name__}, not a mapping"
                )
            node = child
        node[parts[-1]] = value
    try:
        return Scenario.from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        applied = ", ".join(sorted(overrides))
        raise SweepError(
            f"overrides [{applied}] do not form a valid scenario: {exc}"
        ) from exc


def derive_seed(sweep_seed: int, index: int) -> int:
    """Stable per-point seed: independent of host, process and axis order."""
    digest = hashlib.blake2b(
        f"{sweep_seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class GridAxis(Spec):
    """Every value of ``field``, crossed with every other grid axis.

    ``labels`` (optional, same length as ``values``) replaces the default
    ``field=value`` fragment in point labels — the ported experiments use
    it to keep their historical row names.
    """

    field: str
    values: Tuple[object, ...]
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        validate(self)
        if not self.field:
            raise SweepError(f"grid axis field must be a non-empty string, got {self.field!r}")
        if not self.values:
            raise SweepError(f"grid axis {self.field!r} has no values")
        if self.labels is not None and len(self.labels) != len(self.values):
            raise SweepError(
                f"grid axis {self.field!r} has {len(self.values)} values "
                f"but {len(self.labels)} labels"
            )

    def label_for(self, position: int) -> str:
        if self.labels is not None:
            return self.labels[position]
        return f"{self.field}={_format_value(self.values[position])}"


@dataclass(frozen=True)
class RandomAxis(Spec):
    """A seeded uniform (optionally log-uniform / integer) draw per sample.

    Each axis draws from its own RNG stream keyed by (sweep seed, field),
    so adding, removing or reordering axes never shifts another axis's
    values.
    """

    field: str
    low: float
    high: float
    log: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        validate(self)
        if not self.field:
            raise SweepError(f"random axis field must be a non-empty string, got {self.field!r}")
        if not self.high >= self.low:
            raise SweepError(
                f"random axis {self.field!r} needs high >= low, "
                f"got low={self.low!r} high={self.high!r}"
            )
        if self.log and self.low <= 0:
            raise SweepError(
                f"log-scale random axis {self.field!r} needs low > 0, got {self.low!r}"
            )

    def draw(self, sweep_seed: int, sample: int) -> object:
        # One independent, order-insensitive stream per (seed, field, sample),
        # so reordering or adding axes never shifts another axis's draws.
        rng = random.Random(
            hashlib.blake2b(
                f"{sweep_seed}:{self.field}:{sample}".encode(), digest_size=8
            ).digest()
        )
        if self.log:
            value: float = math.exp(
                rng.uniform(math.log(self.low), math.log(self.high))
            )
        else:
            value = rng.uniform(self.low, self.high)
        if self.integer:
            return int(round(value))
        return value


def _axis(value: Any, path: str) -> Any:
    """A grid or a random axis from its dict form.

    An axis is random when it says ``"random": true`` or gives ``low``
    without ``values``; anything else is a grid axis.
    """
    if not isinstance(value, Mapping):
        return value
    if value.get("random") or ("low" in value and "values" not in value):
        fields = {key: entry for key, entry in value.items() if key != "random"}
        return load(RandomAxis, fields, path)
    return load(GridAxis, value, path)


Axis = Annotated[Union[GridAxis, RandomAxis], _axis]


@dataclass(frozen=True)
class PointSpec(Spec):
    """One explicit sweep point: a label plus a dotted-path override dict."""

    label: str
    overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate(self)
        if not self.label:
            raise SweepError(f"point labels must be non-empty strings, got {self.label!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One expanded point: the scenario to run plus its table identity."""

    index: int
    label: str
    overrides: Dict[str, object]
    scenario: Scenario


@dataclass(frozen=True)
class SweepSpec(Spec):
    """A declarative study: base scenario + axes or explicit points."""

    base: Scenario
    axes: Tuple[Axis, ...] = ()
    points: Tuple[PointSpec, ...] = ()
    samples: int = 0
    seed: int = 0
    derive_seeds: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        validate(self)
        if self.points and self.axes:
            raise SweepError("a sweep takes either axes or explicit points, not both")
        if not self.points and not self.axes:
            raise SweepError("a sweep needs at least one axis or one explicit point")
        randoms = [a for a in self.axes if isinstance(a, RandomAxis)]
        if randoms and self.samples <= 0:
            names = ", ".join(repr(a.field) for a in randoms)
            raise SweepError(
                f"random axes ({names}) need samples > 0, got {self.samples!r}"
            )
        if self.samples and not randoms:
            raise SweepError(
                "samples is only meaningful with random axes; "
                "grid-only sweeps enumerate every combination"
            )
        seen: Dict[str, Axis] = {}
        for axis in self.axes:
            if axis.field in seen:
                raise SweepError(f"duplicate sweep axis for field {axis.field!r}")
            seen[axis.field] = axis
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise SweepError(f"duplicate point labels: {', '.join(dupes)}")

    # -- expansion ---------------------------------------------------------

    def expand(self) -> List[SweepPoint]:
        """Materialise every point, in canonical (axis-order-free) order."""
        if self.points:
            raw = [(p.label, dict(p.overrides)) for p in self.points]
        elif any(isinstance(a, RandomAxis) for a in self.axes):
            raw = self._expand_random()
        else:
            raw = self._expand_grid()
        points: List[SweepPoint] = []
        for index, (label, overrides) in enumerate(raw):
            if self.derive_seeds and "seed" not in overrides:
                overrides = dict(overrides)
                overrides["seed"] = derive_seed(self.seed, index)
            scenario = apply_overrides(self.base, overrides)
            points.append(SweepPoint(index, label, dict(overrides), scenario))
        return points

    def _sorted_axes(self) -> List[Axis]:
        return sorted(self.axes, key=lambda axis: axis.field)

    def _expand_grid(self) -> List[Tuple[str, Dict[str, object]]]:
        axes = self._sorted_axes()
        raw = []
        for combo in itertools.product(*(range(len(a.values)) for a in axes)):
            overrides = {a.field: a.values[i] for a, i in zip(axes, combo)}
            label = ",".join(a.label_for(i) for a, i in zip(axes, combo))
            raw.append((label, overrides))
        return raw

    def _expand_random(self) -> List[Tuple[str, Dict[str, object]]]:
        axes = self._sorted_axes()
        raw = []
        for sample in range(self.samples):
            overrides: Dict[str, object] = {}
            fragments = []
            for axis in axes:
                if isinstance(axis, RandomAxis):
                    value = axis.draw(self.seed, sample)
                    fragments.append(f"{axis.field}={_format_value(value)}")
                else:
                    position = random.Random(
                        hashlib.blake2b(
                            f"{self.seed}:{axis.field}:{sample}".encode(),
                            digest_size=8,
                        ).digest()
                    ).randrange(len(axis.values))
                    value = axis.values[position]
                    fragments.append(axis.label_for(position))
                overrides[axis.field] = value
            raw.append((f"s{sample:03d}:" + ",".join(fragments), overrides))
        return raw

    # -- JSON round trip ---------------------------------------------------

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        try:
            return load(cls, data)
        except (TypeError, ValueError) as exc:
            raise SweepError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError(f"sweep spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
