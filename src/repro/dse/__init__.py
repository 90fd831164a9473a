"""``repro.dse`` — multi-objective design-space exploration.

The paper's stated future work is "finding the ideal shape for the
reconfigurable array"; this subsystem does that search.  A declarative
:class:`ParameterSpace` names the knobs (array geometry,
reconfiguration-cache slots, speculation, any ``DimParams`` policy
field) and their feasible values; a :class:`Strategy` spends a bounded
evaluation budget on candidates; a runner scores every batch through
the trace-once / replay-many engine (inline, multi-process, or
dispatched to a running ``repro serve``); and the result is a true
Pareto :class:`FrontierResult` over pluggable objectives — geomean
speedup, total gates (Table 3), geomean energy ratio (Figures 5-6) —
not a single scalar ranking.

Everything is deterministic by construction: enumeration order is
fixed, sampling comes from one caller-seeded RNG, ties break on
candidate identity, and evaluation floats are identical across serial,
``--jobs N`` and serve-dispatched execution — so the frontier JSON is
byte-identical across all three (asserted in ``tests/test_dse.py``).

>>> from repro import dse
>>> result = dse.explore(strategy="shalving", seed=7, budget=12,
...                      workloads=["crc", "quicksort"])
>>> len(result.points) >= 1
True
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

from repro.dse.frontier import (
    FrontierResult,
    build_frontier,
    dominates,
    hypervolume,
    objective_vector,
    pareto_indices,
)
from repro.dse.objectives import (
    MAXIMIZE,
    MINIMIZE,
    OBJECTIVES,
    Objective,
    resolve_objectives,
)
from repro.dse.runner import (
    DseStats,
    Evaluation,
    MatrixRunner,
    TraceRunner,
)
from repro.dse.space import (
    Axis,
    Candidate,
    ParameterSpace,
    default_space,
    load_space,
)
from repro.dse.strategies import (
    STRATEGIES,
    GridSearch,
    HillClimb,
    RandomSearch,
    Strategy,
    SuccessiveHalving,
    resolve_strategy,
)

#: the default objective selection: the paper's speedup-vs-area
#: trade-off (Figures 5-6 add energy; pass ``objectives=("speedup",
#: "area", "energy")`` for all three axes).
DEFAULT_OBJECTIVES = ("speedup", "area")


def explore(space: Optional[ParameterSpace] = None,
            strategy: str = "grid",
            objectives: Sequence[str] = DEFAULT_OBJECTIVES,
            workloads: Optional[Sequence[str]] = None,
            budget: Optional[int] = None,
            seed: int = 0,
            jobs: int = 1,
            cache=None, client=None,
            base_dim=None, timing=None, energy_params=None,
            telemetry=None,
            runner=None) -> FrontierResult:
    """Run one seeded, budget-bounded exploration; return the frontier.

    ``space`` defaults to :func:`default_space`; ``strategy`` is a
    :data:`STRATEGIES` name; ``budget`` caps candidate-evaluations at
    any fidelity (``None`` = exhaust the space).  Pass ``client`` (a
    :class:`repro.serve.ServeClient`) to dispatch evaluation batches to
    a running service instead of evaluating inline; pass ``runner`` to
    substitute the whole execution layer (e.g. a
    :class:`TraceRunner` over pre-simulated traces).  The returned
    :class:`FrontierResult` serialises to byte-identical JSON for the
    same (space, strategy, seed, budget, objectives, workloads)
    regardless of ``jobs``, cache temperature, or dispatch mode.
    """
    from repro.system.energy import EnergyParams

    space = space if space is not None else default_space()
    resolved_objectives = resolve_objectives(objectives)
    resolved_strategy = resolve_strategy(strategy)
    if runner is None:
        runner = MatrixRunner(
            space, workloads=workloads, base_dim=base_dim,
            timing=timing,
            energy_params=(energy_params if energy_params is not None
                           else EnergyParams()),
            jobs=jobs, cache=cache, client=client,
            telemetry=telemetry)
    start = time.perf_counter()
    evaluations = resolved_strategy.explore(
        space, resolved_objectives, runner, budget, random.Random(seed))
    unique = {}
    for evaluation in evaluations:
        unique.setdefault(evaluation.candidate.id, evaluation)
    front, dominated, volume = build_frontier(
        list(unique.values()), resolved_objectives)
    runner.stats.frontier_points = len(front)
    runner.stats.dominated = dominated
    runner.stats.total_seconds = time.perf_counter() - start
    sink = runner.telemetry
    if sink is not None and sink.enabled:
        sink.emit("dse.frontier_computed", strategy=resolved_strategy.name,
                  seed=seed, points=len(front), dominated=dominated,
                  evaluations=runner.stats.evaluations,
                  hypervolume=volume)
        sink.count_many(runner.stats.counters())
        for name, seconds in runner.stats.timer_values().items():
            sink.add_time(name, seconds)
    return FrontierResult(
        strategy=resolved_strategy.name, seed=seed, budget=budget,
        objectives=resolved_objectives, workloads=runner.workloads,
        space=space.to_dict(), points=tuple(front), dominated=dominated,
        evaluations=runner.stats.evaluations, cells=runner.stats.cells,
        hypervolume=volume)


__all__ = [
    "Axis",
    "Candidate",
    "DEFAULT_OBJECTIVES",
    "DseStats",
    "Evaluation",
    "FrontierResult",
    "GridSearch",
    "HillClimb",
    "MAXIMIZE",
    "MINIMIZE",
    "MatrixRunner",
    "OBJECTIVES",
    "Objective",
    "ParameterSpace",
    "RandomSearch",
    "STRATEGIES",
    "Strategy",
    "SuccessiveHalving",
    "TraceRunner",
    "build_frontier",
    "default_space",
    "dominates",
    "explore",
    "hypervolume",
    "load_space",
    "objective_vector",
    "pareto_indices",
    "resolve_objectives",
    "resolve_strategy",
]
