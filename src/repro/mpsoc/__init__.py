"""``repro.mpsoc`` — heterogeneous MPSoC scenario exploration.

The paper evaluates exactly one system point: a single MIPS core
coupled to one DIM-fed array.  Its area and energy accounting (Table
3, Figures 5/6) begs the system-level question this subsystem answers:
given a fixed area budget, what *mix* of plain cores and
differently-shaped arrays serves a multi-workload traffic mix best?

One :class:`MpsocSpec` (budget + accelerator catalog + weighted
traffic mix + phase model) induces an :class:`AllocationSpace` over
``cores`` x ``array<i>`` axes — a :class:`repro.dse.space.
ParameterSpace` extension, so all four DSE strategies and the
Pareto/hypervolume frontier rank allocations out of the box.  Scoring
is two-tier: the catalog x workloads affinity matrix evaluates ONCE
through :func:`repro.system.sweep.evaluate_matrix` (inline, or as one
``sweep`` job against a ``repro serve`` service / ``repro fleet``
coordinator — byte-identical either way), then every candidate
allocation is a cheap dispatch + Amdahl composition over those shared
per-workload rows (:mod:`repro.mpsoc.dispatch`,
:mod:`repro.mpsoc.phases`).

>>> from repro import mpsoc
>>> result = mpsoc.explore_mix(preset="sys-s", mix="crc:2,sha:1",
...                            strategy="grid")
>>> len(result.frontier.points) >= 1
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.dse import explore as dse_explore
from repro.dse.frontier import FrontierResult

from repro.mpsoc.allocator import (
    AllocationSpace,
    InfeasibleBudgetError,
    allocation_space,
)
from repro.mpsoc.dispatch import (
    PLAIN_CORE,
    DispatchRow,
    MpsocRunner,
    MpsocStats,
    dispatch_mix,
)
from repro.mpsoc.phases import compose_mix, throughput_rate
from repro.mpsoc.spec import (
    MAX_ARRAY_SLOTS,
    NO_ARRAY,
    MpsocSpec,
    budget_presets,
    default_catalog,
    mpsoc_spec,
    parse_mix,
)

#: mix-level objectives default to all three axes — an MPSoC trade
#: study is about speedup *and* die area *and* energy.
DEFAULT_OBJECTIVES = ("speedup", "area")


@dataclass(frozen=True)
class MpsocExploration:
    """One scenario exploration: the frontier plus its dispatch story.

    ``frontier`` is the ordinary DSE
    :class:`~repro.dse.frontier.FrontierResult` (allocation candidates,
    mix-level objectives, exact hypervolume); :meth:`to_json` delegates
    to it verbatim, so the golden/byte-identity guarantees are the
    frontier's own.  ``dispatch`` maps each frontier allocation name to
    its per-workload :class:`~repro.mpsoc.dispatch.DispatchRow` table.
    """

    spec: MpsocSpec
    frontier: FrontierResult
    dispatch: Tuple[Tuple[str, Tuple[DispatchRow, ...]], ...]
    stats: MpsocStats

    def to_json(self) -> str:
        return self.frontier.to_json()

    def dispatch_tables(self) -> Dict[str, Tuple[DispatchRow, ...]]:
        return dict(self.dispatch)


def explore_mix(spec: Optional[MpsocSpec] = None, *,
                preset: Optional[str] = None,
                area_budget_gates: Optional[int] = None,
                mix=None,
                strategy: str = "grid",
                objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                budget: Optional[int] = None,
                seed: int = 0,
                jobs: int = 1,
                cache=None, client=None,
                energy_params=None, telemetry=None,
                **spec_kwargs) -> MpsocExploration:
    """Explore one MPSoC scenario; return frontier + dispatch tables.

    Either pass a ready :class:`MpsocSpec`, or let the keyword form
    build one (``preset``/``area_budget_gates``, ``mix``, plus any
    :class:`MpsocSpec` field).  ``strategy``/``objectives``/``budget``/
    ``seed`` are the usual DSE knobs; ``client`` dispatches the catalog
    matrix to a running service or fleet coordinator.  Raises the
    structured :class:`InfeasibleBudgetError` when the budget admits no
    allocation.  The frontier JSON is deterministic for a fixed seed
    and byte-identical across inline, serve-dispatched and
    fleet-dispatched evaluation.
    """
    from repro.system.energy import EnergyParams

    if spec is None:
        spec = mpsoc_spec(preset=preset,
                          area_budget_gates=area_budget_gates,
                          mix=mix, **spec_kwargs)
    elif (preset is not None or area_budget_gates is not None
          or mix is not None or spec_kwargs):
        raise ValueError("pass either a spec or the keyword form, "
                         "not both")
    space = allocation_space(spec)
    runner = MpsocRunner(
        spec, space,
        energy_params=(energy_params if energy_params is not None
                       else EnergyParams()),
        jobs=jobs, cache=cache, client=client,
        telemetry=telemetry)
    feasible = len(space.candidates())
    runner.stats.feasible_allocations = feasible
    runner.stats.pruned_allocations = space.size - feasible
    if telemetry is not None and telemetry.enabled:
        telemetry.emit("mpsoc.space_pruned", feasible=feasible,
                       pruned=space.size - feasible,
                       budget_gates=spec.area_budget_gates)
    frontier = dse_explore(space=space, strategy=strategy,
                           objectives=objectives, budget=budget,
                           seed=seed, telemetry=telemetry,
                           runner=runner)
    dispatch = tuple(
        (point.system, runner.dispatch_table(point.candidate))
        for point in frontier.points)
    return MpsocExploration(spec=spec, frontier=frontier,
                            dispatch=dispatch, stats=runner.stats)


def score_allocation(spec: MpsocSpec, cores: int,
                     arrays: Sequence[str] = (), **runner_kwargs):
    """Score one explicit allocation; returns ``(evaluation,
    dispatch_rows)``.

    The single-point entry the degenerate-case tests build on: with
    one core and one catalog array, the dispatch rows reproduce the
    single-system ``repro.api.evaluate`` numbers bit for bit.
    """
    space = allocation_space(spec)
    values: Dict[str, object] = {"cores": cores}
    for i in range(spec.max_arrays):
        values[f"array{i}"] = (arrays[i] if i < len(arrays)
                               else NO_ARRAY)
    from repro.dse.space import Candidate

    candidate = Candidate.of(values)
    gates = space.gates_of(candidate)
    if gates > spec.area_budget_gates:
        raise InfeasibleBudgetError(
            spec.area_budget_gates, gates,
            what=f"allocation {space.allocation_name(candidate)}")
    if not space.satisfies(candidate):
        raise ValueError(
            f"infeasible allocation "
            f"{space.allocation_name(candidate)}: arrays must pair "
            f"with cores and follow catalog order")
    runner = MpsocRunner(spec, space, **runner_kwargs)
    evaluation = runner.evaluate([candidate])[0]
    return evaluation, runner.dispatch_table(candidate)


__all__ = [
    "AllocationSpace",
    "DEFAULT_OBJECTIVES",
    "DispatchRow",
    "InfeasibleBudgetError",
    "MAX_ARRAY_SLOTS",
    "MpsocExploration",
    "MpsocRunner",
    "MpsocSpec",
    "MpsocStats",
    "NO_ARRAY",
    "PLAIN_CORE",
    "allocation_space",
    "budget_presets",
    "compose_mix",
    "default_catalog",
    "dispatch_mix",
    "explore_mix",
    "mpsoc_spec",
    "parse_mix",
    "score_allocation",
    "throughput_rate",
]


import sys as _sys  # noqa: E402


# Importing any submodule rebinds the ``mpsoc`` attribute of the
# ``repro`` package from the :func:`repro.api.mpsoc` facade verb to
# this module, so the module itself must stay callable for
# ``repro.mpsoc(...)`` to keep working after the first call.
class _CallableModule(_sys.modules[__name__].__class__):
    def __call__(self, spec=None, **kwargs):
        return explore_mix(spec, **kwargs)


_sys.modules[__name__].__class__ = _CallableModule
