"""Declarative parameter-space specification for design-space exploration.

A :class:`ParameterSpace` names the knobs the explorer may turn — array
geometry (:class:`~repro.cgra.shape.ArrayShape` fields), the
reconfiguration-cache size, speculation, and any other
:class:`~repro.dim.params.DimParams` policy field — and the discrete
values each may take.  A :class:`Candidate` is one point of the joint
space; the space can enumerate itself deterministically, sample itself
from a caller-seeded RNG, produce the local-mutation neighbourhood of a
point, price a point with the Table 3 area model, and build the
:class:`~repro.system.config.SystemConfig` the evaluation engines run.

Constraints (currently: a total-gate area budget) are part of the space,
not of the strategies — every enumeration/sampling/neighbourhood call
returns only feasible points, so a tight budget makes any search cheap:
infeasible points are pruned before any simulation happens.

Spaces are declarative data: :meth:`ParameterSpace.to_dict` /
:meth:`ParameterSpace.from_dict` round-trip through JSON, which is what
``repro explore --space file.json`` loads.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.cgra.shape import ArrayShape, default_immediate_slots
from repro.dim.params import DimParams
from repro.sim.stats import TimingModel
from repro.system.area import AreaParams, area_report
from repro.system.config import SystemConfig, SystemSpec

#: ArrayShape fields an axis may target, in constructor order.
SHAPE_AXES: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ArrayShape))

#: DimParams fields an axis may target (``cache_slots`` and
#: ``speculation`` are ordinary axes; the rest ride in the wire spec's
#: ``dim`` extras when a batch is dispatched to ``repro serve``).
DIM_AXES: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(DimParams))

#: every axis name a space may declare.
KNOWN_AXES: Tuple[str, ...] = SHAPE_AXES + DIM_AXES

#: the shape fields carried verbatim in a serve wire spec.
WIRE_SHAPE_FIELDS: Tuple[str, ...] = SHAPE_AXES

#: axis names registered by :class:`ParameterSpace` extensions
#: (namespace -> names); see :func:`register_axes`.
_EXTENSION_AXES: Dict[str, Tuple[str, ...]] = {}


def register_axes(namespace: str, names: Iterable[str]) -> None:
    """Extend the closed axis vocabulary with an extension's axes.

    The axis vocabulary stays closed — an unknown name is still a
    :class:`ValueError` — but subsystems layering new search dimensions
    on the explorer (``repro.mpsoc`` registers its ``cores`` and
    ``array<i>`` allocation axes this way) declare them here once at
    import time.  Registration is idempotent; a namespace's names
    simply replace its previous set.
    """
    _EXTENSION_AXES[namespace] = tuple(names)


def known_axes() -> Tuple[str, ...]:
    """Every currently valid axis name (built-in + registered)."""
    extras = tuple(name for names in _EXTENSION_AXES.values()
                   for name in names)
    return KNOWN_AXES + extras


@dataclass(frozen=True)
class Candidate:
    """One point of the design space: a frozen axis -> value mapping.

    Values are canonically sorted by axis name so equal points compare
    and hash equal regardless of how they were constructed.
    """

    values: Tuple[Tuple[str, object], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, object]) -> "Candidate":
        return cls(tuple(sorted(mapping.items())))

    def get(self, name: str, default: object = None) -> object:
        for key, value in self.values:
            if key == name:
                return value
        return default

    def as_dict(self) -> Dict[str, object]:
        return dict(self.values)

    @property
    def id(self) -> str:
        """Canonical text identity, the deterministic tie-breaker every
        ranking in :mod:`repro.dse.strategies` sorts by."""
        return ",".join(f"{key}={value}" for key, value in self.values)

    def mutated(self, name: str, value: object) -> "Candidate":
        updated = self.as_dict()
        updated[name] = value
        return Candidate.of(updated)


@dataclass(frozen=True)
class Axis:
    """One explorable knob and its discrete value set."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self):
        valid = known_axes()
        if self.name not in valid:
            raise ValueError(
                f"unknown axis {self.name!r}: valid axes are "
                f"{', '.join(valid)}")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@lru_cache(maxsize=4096)
def _gates(shape: ArrayShape, params: AreaParams) -> int:
    return area_report(shape, params).total_gates


@dataclass(frozen=True)
class ParameterSpace:
    """The joint search space plus its feasibility constraints.

    Either ``axes`` (a cartesian grid) or ``explicit`` (a fixed candidate
    list, see :meth:`for_shapes`) describes the raw points;
    ``area_budget_gates`` prunes the infeasible ones before any
    evaluation happens.
    """

    axes: Tuple[Axis, ...] = ()
    explicit: Optional[Tuple[Candidate, ...]] = None
    area_budget_gates: Optional[int] = None
    area_params: AreaParams = AreaParams()

    def __post_init__(self):
        if self.explicit is None and not self.axes:
            raise ValueError("a space needs axes or explicit candidates")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axes: {names}")

    # ------------------------------------------------------------------
    # Enumeration, sampling, neighbourhoods.
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Raw point count before constraint filtering."""
        if self.explicit is not None:
            return len(self.explicit)
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def _raw(self) -> Iterable[Candidate]:
        if self.explicit is not None:
            return iter(self.explicit)
        return (Candidate.of(dict(zip([a.name for a in self.axes], combo)))
                for combo in itertools.product(
                    *(a.values for a in self.axes)))

    def candidates(self) -> List[Candidate]:
        """Every feasible point, in deterministic enumeration order
        (axis-major cartesian product, or the explicit list's order)."""
        return [c for c in self._raw() if self.satisfies(c)]

    def sample(self, n: int, rng: random.Random) -> List[Candidate]:
        """``n`` distinct feasible points drawn with the caller's seeded
        RNG — same seed, same space, same sample, on every platform."""
        pool = self.candidates()
        return rng.sample(pool, min(n, len(pool)))

    def neighbors(self, candidate: Candidate) -> List[Candidate]:
        """The feasible one-step mutations of ``candidate``: each axis
        moved to the adjacent value in its declared ordering."""
        if self.explicit is not None:
            return []
        moved: List[Candidate] = []
        for axis in self.axes:
            current = candidate.get(axis.name)
            index = axis.values.index(current)
            for step in (-1, 1):
                neighbor = index + step
                if 0 <= neighbor < len(axis.values):
                    moved.append(candidate.mutated(
                        axis.name, axis.values[neighbor]))
        return [c for c in moved if self.satisfies(c)]

    def satisfies(self, candidate: Candidate) -> bool:
        if self.area_budget_gates is None:
            return True
        return self.gates_of(candidate) <= self.area_budget_gates

    # ------------------------------------------------------------------
    # Point -> system.
    # ------------------------------------------------------------------
    def shape_of(self, candidate: Candidate) -> ArrayShape:
        fields: Dict[str, object] = {}
        for name in SHAPE_AXES:
            value = candidate.get(name)
            if value is not None:
                fields[name] = value
        missing = [name for name in ("rows", "alus_per_row",
                                     "mults_per_row", "ldsts_per_row")
                   if name not in fields]
        if missing:
            raise ValueError(
                f"space does not pin the array shape: candidate "
                f"{candidate.id!r} is missing {', '.join(missing)} "
                f"(pin fixed dimensions with single-value axes)")
        if "immediate_slots" not in fields:
            fields["immediate_slots"] = default_immediate_slots(
                int(fields["rows"]))
        return ArrayShape(**fields)

    def dim_of(self, candidate: Candidate,
               base: Optional[DimParams] = None) -> DimParams:
        base = base if base is not None else DimParams()
        overrides = {name: candidate.get(name) for name in DIM_AXES
                     if candidate.get(name) is not None}
        return dataclasses.replace(base, **overrides)

    def spec_of(self, candidate: Candidate,
                base_dim: Optional[DimParams] = None) -> SystemSpec:
        """The canonical :class:`~repro.system.config.SystemSpec` a
        candidate denotes; every other form of it is derived here."""
        return SystemSpec.of(self.shape_of(candidate),
                             self.dim_of(candidate, base_dim))

    def config_of(self, candidate: Candidate,
                  base_dim: Optional[DimParams] = None,
                  timing: Optional[TimingModel] = None) -> SystemConfig:
        """The complete system a candidate denotes.

        The configuration name is canonical and injective over the
        space (see :func:`repro.system.config.custom_name`), which is
        what lets serve-dispatched batches slice their results back out
        by name.
        """
        return self.spec_of(candidate, base_dim).build(timing=timing)

    def gates_of(self, candidate: Candidate) -> int:
        """Table 3a total gates of the candidate's array."""
        return _gates(self.shape_of(candidate), self.area_params)

    def wire_spec(self, candidate: Candidate,
                  base_dim: Optional[DimParams] = None
                  ) -> Dict[str, object]:
        """The candidate as a ``repro.serve`` protocol config object.

        The inverse lives in
        :func:`repro.serve.protocol.system_spec`; both sides are the
        canonical :class:`~repro.system.config.SystemSpec` wire form,
        so they build identically-named configurations by construction
        (asserted by the differential tests in ``tests/test_dse.py``).
        """
        return self.spec_of(candidate, base_dim).to_dict()

    # ------------------------------------------------------------------
    # Declarative round-trip.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "axes": {axis.name: list(axis.values) for axis in self.axes},
            "area_budget_gates": self.area_budget_gates,
        }
        if self.explicit is not None:
            payload["explicit"] = [c.as_dict() for c in self.explicit]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ParameterSpace":
        axes = tuple(Axis(name, tuple(values))
                     for name, values in payload.get("axes", {}).items())
        explicit = payload.get("explicit")
        if explicit is not None:
            explicit = tuple(Candidate.of(entry) for entry in explicit)
        budget = payload.get("area_budget_gates")
        if budget is not None:
            budget = int(budget)
        return cls(axes=axes, explicit=explicit,
                   area_budget_gates=budget)

    @classmethod
    def for_shapes(cls, shapes: Sequence[ArrayShape],
                   area_budget_gates: Optional[int] = None,
                   area_params: AreaParams = AreaParams()
                   ) -> "ParameterSpace":
        """An explicit space over a fixed shape list (no dim axes), in
        list order — the form a plain shape search scores with a
        :class:`~repro.dse.runner.TraceRunner`."""
        explicit = tuple(
            Candidate.of({name: getattr(shape, name)
                          for name in SHAPE_AXES})
            for shape in shapes)
        return cls(axes=(), explicit=explicit,
                   area_budget_gates=area_budget_gates,
                   area_params=area_params)


def default_space() -> ParameterSpace:
    """The built-in exploration grid around Table 1's designs.

    64 points: rows x ALUs/line x LD-STs/line x cache slots x
    speculation, with the immediate table following the shared
    two-slots-per-line convention
    (:func:`repro.cgra.shape.default_immediate_slots`).
    """
    return ParameterSpace(axes=(
        Axis("rows", (16, 24, 48, 96)),
        Axis("alus_per_row", (4, 8)),
        Axis("mults_per_row", (2,)),
        Axis("ldsts_per_row", (2, 6)),
        Axis("cache_slots", (16, 64)),
        Axis("speculation", (False, True)),
    ))


def dynflow_space() -> ParameterSpace:
    """The dynamic control-flow exploration grid.

    :func:`default_space` with the ``dynflow_mode`` axis opened up: the
    same geometry/cache/speculation grid, each point additionally
    evaluated with loop-aware configurations, predicated dual-path
    merge, both, or neither (``DimParams.dynflow_mode``).  The
    frontier over this space dominates (weakly, and strictly somewhere
    on loop-heavy mixes) the frontier of :func:`default_space`, since
    the ``off`` plane *is* the default space — asserted by the dynflow
    smoke suite.
    """
    base = default_space()
    return ParameterSpace(axes=base.axes + (
        Axis("dynflow_mode", ("off", "loop", "dual", "both")),
    ))


def load_space(path) -> ParameterSpace:
    """Load a declarative space spec from a JSON file."""
    with open(Path(path)) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: space spec must be a JSON object")
    return ParameterSpace.from_dict(payload)
