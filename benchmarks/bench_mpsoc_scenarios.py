"""MPSoC allocation search quality: shalving vs the exhaustive grid.

Guards this PR's acceptance bar for :mod:`repro.mpsoc`: on a Sys-L
scenario with six candidate core counts and two array slots over the
C1/C2/C3 catalog (54 feasible allocations), budget-bounded successive
halving must find a mix within 5% of the exhaustive grid's frontier
hypervolume while spending at most 30% of its allocation evaluations.

The objectives are the tentpole's mix-level pair — throughput speedup
(max) and energy ratio (min) — composed per allocation from the shared
catalog x workloads affinity matrix, so both searches score identical
dispatch arithmetic and the bench measures search quality, not
simulation noise.  Hypervolumes are compared under one shared
reference corner (the componentwise worst of both frontiers), the
comparable-figure convention of
:func:`repro.dse.frontier.hypervolume`.

Evaluation accounting, deterministic by construction: the exhaustive
grid scores all 54 feasible allocations; successive halving with
budget 15 (seed 1) screens a seeded 12-allocation rung on the cheap
workload subset and promotes the top 3 to the full mix — 15
allocation evaluations, 27.8% of exhaustive.  Everything is seeded
float arithmetic over deterministic traces, so the figures are exact
and reproducible; they are written to ``BENCH_mpsoc.json`` next to
this file so the trajectory is tracked PR-over-PR.
"""

import json
import time
from pathlib import Path

import pytest

from repro.dse import hypervolume, resolve_objectives
from repro.dse.frontier import objective_vector
from repro.mpsoc import allocation_space, explore_mix, mpsoc_spec

from conftest import artifact_cache

MIX = "crc:2,sha:1,dijkstra:1,quicksort:1"
CORE_COUNTS = (1, 2, 3, 4, 6, 8)
OBJECTIVES = ("speedup", "energy")
BUDGET = 15
SEED = 1

#: search outcomes recorded below; dumped to BENCH_mpsoc.json.
RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if RESULTS:
        path = Path(__file__).with_name("BENCH_mpsoc.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


def test_shalving_vs_exhaustive_allocation_search(capsys):
    spec = mpsoc_spec(preset="sys-l", mix=MIX,
                      core_counts=CORE_COUNTS, max_arrays=2)
    cache = artifact_cache()
    objectives = resolve_objectives(OBJECTIVES)

    def vectors(frontier):
        return [objective_vector(point, objectives)
                for point in frontier.points]

    start = time.perf_counter()
    exhaustive = explore_mix(spec, strategy="grid",
                             objectives=OBJECTIVES,
                             cache=cache)
    grid_seconds = time.perf_counter() - start
    grid_evals = exhaustive.stats.evaluations
    feasible = len(allocation_space(spec).candidates())
    assert grid_evals == feasible

    start = time.perf_counter()
    halved = explore_mix(spec, strategy="shalving",
                         objectives=OBJECTIVES, budget=BUDGET,
                         seed=SEED, cache=cache)
    sh_seconds = time.perf_counter() - start
    sh_evals = halved.stats.evaluations

    # one shared reference corner makes the two figures comparable
    grid_vecs = vectors(exhaustive.frontier)
    sh_vecs = vectors(halved.frontier)
    reference = [
        (max if obj.sense == "min" else min)(
            vec[d] for vec in grid_vecs + sh_vecs)
        for d, obj in enumerate(objectives)]
    grid_hv = hypervolume(grid_vecs, objectives, reference=reference)
    sh_hv = hypervolume(sh_vecs, objectives, reference=reference)

    grid_best = exhaustive.frontier.best("speedup").geomean_speedup
    sh_best = halved.frontier.best("speedup").geomean_speedup
    quality = sh_hv / grid_hv if grid_hv else 1.0
    eval_ratio = sh_evals / grid_evals
    RESULTS["feasible_allocations"] = feasible
    RESULTS["grid_evaluations"] = grid_evals
    RESULTS["grid_seconds"] = grid_seconds
    RESULTS["grid_hypervolume"] = grid_hv
    RESULTS["grid_frontier_points"] = len(grid_vecs)
    RESULTS["grid_best_speedup"] = grid_best
    RESULTS["shalving_budget"] = BUDGET
    RESULTS["shalving_seed"] = SEED
    RESULTS["shalving_evaluations"] = sh_evals
    RESULTS["shalving_seconds"] = sh_seconds
    RESULTS["shalving_hypervolume"] = sh_hv
    RESULTS["shalving_frontier_points"] = len(sh_vecs)
    RESULTS["shalving_best_speedup"] = sh_best
    RESULTS["shalving_quality"] = quality
    RESULTS["shalving_eval_ratio"] = eval_ratio
    with capsys.disabled():
        print(f"\nexhaustive grid: {len(grid_vecs)}-point frontier, "
              f"hypervolume {grid_hv:.4g}, best {grid_best:.2f}x over "
              f"{grid_evals} allocations ({grid_seconds:.2f}s); "
              f"shalving (budget {BUDGET}, seed {SEED}): hypervolume "
              f"{sh_hv:.4g}, best {sh_best:.2f}x over {sh_evals} "
              f"allocations ({sh_seconds:.2f}s) -> {quality:.1%} of "
              f"the hypervolume at {eval_ratio:.1%} of the "
              f"evaluations")

    # acceptance bar: within 5% of the exhaustive frontier's
    # hypervolume...
    assert quality >= 0.95
    # ...and of its best mix speedup...
    assert sh_best >= 0.95 * grid_best
    # ...using at most 30% of its allocation evaluations.
    assert eval_ratio <= 0.30
