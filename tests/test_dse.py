"""The design-space exploration subsystem (:mod:`repro.dse`).

Four families of guarantees:

1. Space algebra: enumeration/sampling/neighbourhood determinism, area
   budget feasibility, JSON round-trips, canonical candidate identity.
2. Frontier mathematics: dominance is irreflexive and transitive, the
   Pareto filter never drops a non-dominated point, hypervolume matches
   hand computation.
3. The transparency contract: the frontier JSON is byte-identical
   whether batches evaluate serially, with ``--jobs``, or dispatched to
   a running ``repro serve`` instance — and a seeded smoke exploration
   matches the committed golden frontier byte for byte.
4. Back-compat: a :class:`TraceRunner` shape search reproduces the
   historical (pre-``repro.dse``) float arithmetic bit for bit, and the
   ``dse.*`` telemetry namespace stays closed and collector-mapped.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from repro.cgra.shape import ArrayShape, default_immediate_slots
from repro.dim.params import DimParams
from repro.dse import (
    Axis,
    Candidate,
    Evaluation,
    GridSearch,
    ParameterSpace,
    TraceRunner,
    build_frontier,
    default_space,
    dominates,
    explore,
    hypervolume,
    load_space,
    objective_vector,
    pareto_indices,
    resolve_objectives,
    resolve_strategy,
)
from repro.dse.runner import DseStats
from repro.obs import EVENT_TYPES, Telemetry, validate_jsonl
from repro.obs.schema import dse_counters, dse_timers
from repro.serve import (
    EvalService,
    ServeClient,
    start_http,
    validate_submission,
)
from repro.sim.cpu import run_program
from repro.sim.stats import TimingModel
from repro.system.area import AreaParams, area_report
from repro.system.config import SystemConfig
from repro.system.traceeval import baseline_metrics
from repro.workloads import load_workload
from tests.oracle import TranslationMemo, evaluate_memoized

SMOKE_SPACE = Path(__file__).parent.parent / "examples" \
    / "dse_smoke_space.json"
GOLDEN_FRONTIER = Path(__file__).parent / "data" \
    / "dse_smoke_frontier.json"
SMOKE_WORKLOADS = ("crc", "quicksort")

SPEEDUP_AREA = resolve_objectives(("speedup", "area"))

#: a coarse but representative shape grid around Table 1's designs.
SHAPE_GRID = [
    ArrayShape(rows=rows, alus_per_row=alus, mults_per_row=2,
               ldsts_per_row=ldsts,
               immediate_slots=default_immediate_slots(rows))
    for rows in (16, 24, 48, 96, 150)
    for alus in (4, 8, 12)
    for ldsts in (2, 6)
]


@pytest.fixture(scope="module")
def traces():
    return {name: run_program(load_workload(name), collect_trace=True).trace
            for name in ("crc", "quicksort", "sha")}


@pytest.fixture(scope="module")
def row_store():
    """One row store for the module's TraceRunners, which all replay the
    same trace objects (each runner would otherwise lower them again)."""
    return {}


def _trace_runner(space, traces, row_store):
    runner = TraceRunner(space, traces)
    runner.row_store = row_store
    return runner


# ----------------------------------------------------------------------
# Space algebra.
# ----------------------------------------------------------------------
def test_candidate_identity_is_canonical():
    a = Candidate.of({"rows": 16, "alus_per_row": 4})
    b = Candidate.of({"alus_per_row": 4, "rows": 16})
    assert a == b and a.id == b.id == "alus_per_row=4,rows=16"
    assert a.mutated("rows", 24).get("rows") == 24
    assert a.get("rows") == 16  # mutation does not alias


def test_axis_rejects_unknown_and_empty():
    with pytest.raises(ValueError, match="unknown axis"):
        Axis("wings", (2,))
    with pytest.raises(ValueError, match="no values"):
        Axis("rows", ())


def test_space_enumeration_and_sampling_are_deterministic():
    space = default_space()
    assert space.size == 64
    pool = space.candidates()
    assert pool == space.candidates()
    assert len(set(c.id for c in pool)) == len(pool) == 64
    sample = space.sample(8, random.Random(7))
    assert sample == space.sample(8, random.Random(7))
    assert len(sample) == 8
    # oversampling caps at the feasible pool
    assert len(space.sample(1000, random.Random(7))) == 64


def test_space_neighbors_step_one_axis():
    space = default_space()
    corner = space.candidates()[0]
    for neighbor in space.neighbors(corner):
        diff = [k for k in neighbor.as_dict()
                if neighbor.get(k) != corner.get(k)]
        assert len(diff) == 1


def test_area_budget_prunes_before_evaluation():
    budget = 1_000_000
    space = ParameterSpace.for_shapes(SHAPE_GRID,
                                      area_budget_gates=budget)
    pool = space.candidates()
    assert 0 < len(pool) < len(SHAPE_GRID)
    assert all(space.gates_of(c) <= budget for c in pool)


def test_space_requires_pinned_geometry():
    space = ParameterSpace(axes=(Axis("rows", (16,)),))
    with pytest.raises(ValueError, match="missing.*alus_per_row"):
        space.shape_of(space.candidates()[0])


def test_space_json_round_trip(tmp_path):
    space = default_space()
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_dict()))
    assert load_space(path).candidates() == space.candidates()
    assert load_space(SMOKE_SPACE).size == 8


def test_immediate_slots_default_is_shared():
    space = load_space(SMOKE_SPACE)
    for candidate in space.candidates():
        shape = space.shape_of(candidate)
        assert shape.immediate_slots == \
            default_immediate_slots(shape.rows)


def test_resolvers_name_the_valid_sets():
    with pytest.raises(ValueError, match="speedup"):
        resolve_objectives(("speedup", "latency"))
    with pytest.raises(ValueError, match="duplicate"):
        resolve_objectives(("area", "area"))
    with pytest.raises(ValueError, match="shalving"):
        resolve_strategy("annealing")


# ----------------------------------------------------------------------
# Frontier mathematics.
# ----------------------------------------------------------------------
def _evaluation(ident, speedup, gates, energy=1.0):
    return Evaluation(candidate=Candidate.of({"rows": ident}),
                      system=f"s{ident}", workloads=("crc",),
                      geomean_speedup=speedup,
                      geomean_energy_ratio=energy, gates=gates,
                      full=True)


def test_dominance_is_irreflexive_and_transitive():
    rng = random.Random(11)
    objectives = resolve_objectives(("speedup", "area", "energy"))
    points = [objective_vector(
        _evaluation(i, rng.uniform(1, 4),
                    rng.randrange(100, 5000) * 1000,
                    rng.uniform(0.5, 3)), objectives)
        for i in range(24)]
    for p in points:
        assert not dominates(p, p, objectives)
    for a, b, c in itertools.permutations(points, 3):
        if dominates(a, b, objectives) and dominates(b, c, objectives):
            assert dominates(a, c, objectives)
        if dominates(a, b, objectives):
            assert not dominates(b, a, objectives)


def test_frontier_never_drops_a_non_dominated_point():
    rng = random.Random(23)
    vectors = [objective_vector(
        _evaluation(i, rng.uniform(1, 4),
                    rng.randrange(100, 5000) * 1000), SPEEDUP_AREA)
        for i in range(40)]
    kept = set(pareto_indices(vectors, SPEEDUP_AREA))
    for i, p in enumerate(vectors):
        dominated = any(dominates(q, p, SPEEDUP_AREA)
                        for j, q in enumerate(vectors) if j != i)
        assert (i in kept) == (not dominated)


def test_frontier_keeps_duplicate_optima():
    twins = [(2.0, 1000.0), (2.0, 1000.0)]
    assert len(pareto_indices(twins, SPEEDUP_AREA)) == 2


def test_hypervolume_matches_hand_computation():
    # maximize speedup, minimize area; reference defaults to the worst
    # corner of the set (speedup 1, area 4000).  The lone non-trivial
    # box is (3-1) speedup x (4000-1000) gates = 6000.
    vectors = [(3.0, 1000.0), (1.0, 4000.0)]
    assert hypervolume(vectors, SPEEDUP_AREA) == pytest.approx(6000.0)
    # a dominated interior point adds only its own dominated slab:
    # (2-1) x (4000-2000) is already inside the first box.
    vectors.append((2.0, 2000.0))
    assert hypervolume(vectors, SPEEDUP_AREA) == pytest.approx(6000.0)


def test_build_frontier_counts_dominated():
    points = [_evaluation(0, 3.0, 1000), _evaluation(1, 2.0, 2000),
              _evaluation(2, 1.0, 4000)]
    front, dominated, volume = build_frontier(points, SPEEDUP_AREA)
    assert [e.system for e in front] == ["s0"]
    assert dominated == 2 and volume > 0


# ----------------------------------------------------------------------
# Strategies on a real (trace-scored) space.
# ----------------------------------------------------------------------
def _shape_space(count=8, budget=None):
    return ParameterSpace.for_shapes(SHAPE_GRID[:count],
                                     area_budget_gates=budget)


def test_strategies_respect_budget_and_determinism(traces, row_store):
    space = _shape_space()
    for name, budget in (("random", 5), ("shalving", 6),
                         ("hillclimb", 5), ("grid", 4)):
        first = explore(space=space, strategy=name, budget=budget,
                        seed=3,
                        runner=_trace_runner(space, traces, row_store))
        again = explore(space=space, strategy=name, budget=budget,
                        seed=3,
                        runner=_trace_runner(space, traces, row_store))
        assert first.to_json() == again.to_json()
        assert first.evaluations <= budget
        assert first.points, name


def test_shalving_promotes_only_full_evaluations(traces):
    space = _shape_space()
    runner = TraceRunner(space, traces)
    result = explore(space=space, strategy="shalving", budget=6,
                     seed=7, runner=runner)
    assert all(point.full for point in result.points)
    assert runner.stats.cheap_evaluations == 4
    assert runner.stats.full_evaluations == 1
    assert runner.stats.cells == 4 * 1 + 1 * len(traces)


def test_trace_runner_builds_one_context_per_trace(traces, monkeypatch):
    """Batches share the sweep row's warm columnar contexts."""
    import repro.system.sweep as sweep

    built = []

    class CountingContext(sweep.ColumnarContext):
        def __init__(self, trace, name="", coltrace=None):
            built.append(name)
            super().__init__(trace, name=name, coltrace=coltrace)

    monkeypatch.setattr(sweep, "ColumnarContext", CountingContext)
    space = _shape_space(count=4)
    runner = TraceRunner(space, traces)
    candidates = space.candidates()
    runner.evaluate(candidates[:2])
    runner.evaluate(candidates[2:])
    assert runner.stats.batches == 2
    assert sorted(built) == sorted(traces)


def test_grid_exploration_matches_legacy_pareto(traces, row_store):
    space = _shape_space()
    result = explore(space=space, strategy="grid",
                     runner=_trace_runner(space, traces, row_store))
    shape, _, speedup, _ = _rank_shapes(traces, SHAPE_GRID[:8],
                                        row_store)[0]
    best = result.best("speedup")
    assert best.geomean_speedup == speedup
    assert space.shape_of(best.candidate) == shape


# ----------------------------------------------------------------------
# Shape search back-compat: bit-identical to the historical loop.
# ----------------------------------------------------------------------
def _rank_shapes(traces, shapes, row_store, area_budget_gates=None,
                 rank_by="speedup"):
    """An exhaustive shape search on :mod:`repro.dse`: every shape of an
    explicit space scored by one :class:`TraceRunner`, ranked by
    speedup or by speedup per million gates, as
    ``(shape, gates, geomean, efficiency)`` rows."""
    space = ParameterSpace.for_shapes(shapes,
                                      area_budget_gates=area_budget_gates)
    evaluations = _trace_runner(space, traces, row_store).evaluate(
        space.candidates())
    rows = [(space.shape_of(e.candidate), e.gates, e.geomean_speedup,
             e.geomean_speedup / (e.gates / 1e6)) for e in evaluations]
    key = (lambda r: r[2]) if rank_by == "speedup" else (lambda r: r[3])
    return sorted(rows, key=key, reverse=True)


def _legacy_search_shapes(traces, shapes, area_budget_gates=None,
                          rank_by="speedup"):
    """The pre-``repro.dse`` implementation, replicated verbatim."""
    dim = DimParams(cache_slots=64, speculation=True)
    timing = TimingModel()
    baselines = {name: baseline_metrics(trace, timing)
                 for name, trace in traces.items()}
    memos = {name: TranslationMemo() for name in traces}
    rows = []
    for shape in shapes:
        gates = area_report(shape, AreaParams()).total_gates
        if area_budget_gates is not None and gates > area_budget_gates:
            continue
        config = SystemConfig(shape, dim, timing,
                              name=f"{shape.rows}r{shape.alus_per_row}a")
        product = 1.0
        for name, trace in traces.items():
            metrics = evaluate_memoized(trace, config, memos[name])
            product *= baselines[name].cycles / metrics.cycles
        geomean = product ** (1.0 / len(traces))
        rows.append((shape, gates, geomean, geomean / (gates / 1e6)))
    key = (lambda r: r[2]) if rank_by == "speedup" else (lambda r: r[3])
    return sorted(rows, key=key, reverse=True)


@pytest.mark.parametrize("rank_by", ["speedup", "efficiency"])
@pytest.mark.parametrize("budget", [None, 1_000_000])
def test_search_shapes_is_bit_identical_to_legacy(traces, row_store,
                                                  rank_by, budget):
    shapes = SHAPE_GRID[:8]
    new = _rank_shapes(traces, shapes, row_store, rank_by=rank_by,
                       area_budget_gates=budget)
    old = _legacy_search_shapes(traces, shapes, rank_by=rank_by,
                                area_budget_gates=budget)
    assert new == old  # floats compared bit-exact


# ----------------------------------------------------------------------
# Wire round-trip: client spec -> protocol validation -> same system.
# ----------------------------------------------------------------------
def test_wire_spec_round_trips_through_the_protocol():
    space = ParameterSpace(axes=(
        Axis("rows", (16, 24)), Axis("alus_per_row", (4,)),
        Axis("mults_per_row", (2,)), Axis("ldsts_per_row", (2,)),
        Axis("cache_slots", (16, 64)), Axis("speculation", (True,)),
        Axis("predictor_entries", (256, 1024)),
    ))
    base = DimParams(misspec_penalty=6)
    for candidate in space.candidates():
        spec = space.wire_spec(candidate, base_dim=base)
        request = validate_submission({"kind": "sweep",
                                       "names": ["crc"],
                                       "configs": [spec]})
        rebuilt = request.configs[0].build()
        local = space.config_of(candidate, base_dim=base)
        assert rebuilt.name == local.name
        assert rebuilt.shape == local.shape
        assert rebuilt.dim == local.dim


# ----------------------------------------------------------------------
# The transparency contract.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    svc = EvalService(workers=0, cache_root=None, batch_window=0.01)
    svc.start()
    server, thread = start_http(svc)
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout=120.0)
    yield svc, client
    if not svc._stopped:
        svc.stop(drain=False)
    server.shutdown()


def _smoke_explore(**kwargs):
    return explore(space=load_space(SMOKE_SPACE), strategy="shalving",
                   objectives=("speedup", "area"),
                   workloads=SMOKE_WORKLOADS, budget=6, seed=7,
                   cache=None, **kwargs)


def test_frontier_is_byte_identical_serial_parallel_served(service):
    _, client = service
    serial = _smoke_explore().to_json()
    parallel = _smoke_explore(jobs=4).to_json()
    served = _smoke_explore(client=client).to_json()
    assert serial == parallel == served


def test_smoke_frontier_matches_committed_golden():
    golden = GOLDEN_FRONTIER.read_text()
    assert _smoke_explore().to_json() + "\n" == golden


# ----------------------------------------------------------------------
# Telemetry: the dse.* namespace stays closed and collector-mapped.
# ----------------------------------------------------------------------
def test_dse_event_namespace_is_closed():
    for event in ("dse.batch_evaluated", "dse.rung_promoted",
                  "dse.frontier_computed"):
        assert event in EVENT_TYPES
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        tel.emit("dse.rung_started")


def test_dse_collectors_map_every_stat():
    stats = DseStats(evaluations=9, cells=27, batches=2,
                     full_evaluations=3, cheap_evaluations=6,
                     promotions=3, dispatched_batches=1,
                     frontier_points=2, dominated=1,
                     total_seconds=1.5, evaluate_seconds=1.25)
    assert dse_counters(stats) == {
        "dse.evaluations": 9, "dse.cells": 27, "dse.batches": 2,
        "dse.full_evaluations": 3, "dse.cheap_evaluations": 6,
        "dse.promotions": 3, "dse.dispatched_batches": 1,
        "dse.frontier_points": 2, "dse.dominated": 1,
    }
    assert dse_timers(stats) == {"dse.total_seconds": 1.5,
                                 "dse.evaluate_seconds": 1.25}


def test_explore_telemetry_validates_and_never_perturbs(tmp_path):
    tel = Telemetry()
    with_tel = _smoke_explore(telemetry=tel).to_json()
    without = _smoke_explore().to_json()
    assert with_tel == without
    # shalving with budget 6: a 4-candidate rung plus 1 promotion
    assert tel.counters["dse.evaluations"] == 5
    assert tel.counters["dse.frontier_points"] >= 1
    assert tel.counters["dse.promotions"] == 1
    assert any(r["type"] == "dse.frontier_computed"
               for r in tel.events)
    path = tmp_path / "dse.jsonl"
    tel.write_jsonl(path)
    assert validate_jsonl(path.read_text().splitlines()) == []
