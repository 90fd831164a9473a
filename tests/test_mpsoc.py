"""The MPSoC scenario layer (:mod:`repro.mpsoc`).

Five families of guarantees:

1. Scenario algebra: spec validation and JSON round-trips, live-derived
   budget presets, mix parsing, canonical allocation dedup.
2. Budget edge cases: a budget below the cheapest allocation raises the
   structured :class:`InfeasibleBudgetError` (machine-readable, never a
   crash); a budget that only affords the small array prunes the big
   ones out of every allocation.
3. The degenerate contract: a one-core/one-array allocation reproduces
   the single-system ``repro.api.evaluate`` numbers bit for bit, and a
   singleton mix collapses to the raw speedup exactly.
4. The transparency contract: the frontier JSON is byte-identical
   inline, with ``--jobs`` and dispatched to a running ``repro serve``
   — and a seeded smoke exploration matches the committed golden.
5. Telemetry: the ``mpsoc.*`` namespace stays closed and
   collector-mapped, and the CLI surfaces the whole scenario.
"""

import itertools
import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main as cli_main
from repro.dse.space import Candidate, known_axes
from repro.mpsoc import (
    NO_ARRAY,
    InfeasibleBudgetError,
    MpsocSpec,
    MpsocStats,
    allocation_space,
    budget_presets,
    default_catalog,
    explore_mix,
    mpsoc_spec,
    parse_mix,
    score_allocation,
)
from repro.obs import EVENT_TYPES, Telemetry, validate_jsonl
from repro.obs.schema import (
    MPSOC_COUNTERS,
    MPSOC_TIMERS,
    mpsoc_counters,
    mpsoc_timers,
)
from repro.serve import EvalService, ServeClient, start_http
from repro.system.area import AreaParams, area_report, mips_core_gates
from repro.system.config import PAPER_SHAPES, SystemSpec

GOLDEN_FRONTIER = Path(__file__).parent / "data" \
    / "mpsoc_smoke_frontier.json"

#: the CI smoke scenario — keep in sync with the mpsoc-smoke job.
SMOKE_KWARGS = dict(preset="sys-s", mix="crc:2,sha:1",
                    strategy="shalving", budget=6, seed=7)

_smoke_cache = {}


def _smoke_explore(**overrides):
    key = tuple(sorted(overrides.items()))
    if key not in _smoke_cache:
        kwargs = dict(SMOKE_KWARGS)
        kwargs.update(overrides)
        _smoke_cache[key] = explore_mix(cache=None, **kwargs)
    return _smoke_cache[key]


# ----------------------------------------------------------------------
# Scenario algebra.
# ----------------------------------------------------------------------
def test_budget_presets_derive_from_the_area_model():
    params = AreaParams()
    presets = budget_presets(params)
    core = mips_core_gates(params)
    gates = {name: area_report(PAPER_SHAPES[name], params).total_gates
             for name in ("C1", "C2", "C3")}
    assert presets["sys-s"] == 2 * core + gates["C1"]
    assert presets["sys-m"] == 4 * core + gates["C1"] + gates["C2"]
    assert presets["sys-l"] == 8 * core + 2 * gates["C3"]
    assert presets["sys-s"] < presets["sys-m"] < presets["sys-l"]


def test_parse_mix_forms():
    assert parse_mix("crc:2,sha:1") == (("crc", 2.0), ("sha", 1.0))
    assert parse_mix("crc, sha:0.5") == (("crc", 1.0), ("sha", 0.5))
    with pytest.raises(ValueError, match="bad mix weight"):
        parse_mix("crc:lots")


def test_spec_validation_edge_cases():
    with pytest.raises(ValueError, match="must not be empty"):
        MpsocSpec(area_budget_gates=10**6, mix=())
    with pytest.raises(ValueError, match="unknown workload"):
        mpsoc_spec(preset="sys-s", mix="nonesuch:1")
    with pytest.raises(ValueError, match="duplicate workload"):
        mpsoc_spec(preset="sys-s", mix="crc:1,crc:2")
    with pytest.raises(ValueError, match="must be positive"):
        mpsoc_spec(preset="sys-s", mix=(("crc", 0.0),))
    with pytest.raises(ValueError, match="strictly increasing"):
        mpsoc_spec(preset="sys-s", mix="crc:1", core_counts=(2, 1))
    with pytest.raises(ValueError, match="unknown budget preset"):
        mpsoc_spec(preset="sys-xl", mix="crc:1")
    with pytest.raises(ValueError, match="exactly one"):
        mpsoc_spec(mix="crc:1")
    with pytest.raises(ValueError, match="exactly one"):
        mpsoc_spec(preset="sys-s", area_budget_gates=10**6, mix="crc:1")


def test_spec_defaults_whole_suite_at_equal_weights():
    from repro.workloads import workload_names

    spec = mpsoc_spec(preset="sys-m")
    assert spec.workloads == tuple(workload_names())
    assert len(set(w for _, w in spec.mix)) == 1
    assert spec.name == "sys-m"


def test_spec_json_round_trip():
    spec = mpsoc_spec(
        area_budget_gates=2_000_000, mix="crc:2,sha:1",
        catalog=default_catalog(slots=16, speculation=False),
        core_counts=(1, 2), max_arrays=1, serial_fraction=0.25,
        name="custom")
    payload = json.loads(json.dumps(spec.to_dict()))
    assert MpsocSpec.from_dict(payload) == spec
    with pytest.raises(ValueError, match="unknown spec fields"):
        MpsocSpec.from_dict({**spec.to_dict(), "bogus": 1})


def test_weights_normalise_per_subset_in_mix_order():
    spec = mpsoc_spec(preset="sys-s", mix="crc:2,sha:1,dijkstra:1")
    assert spec.weights() == (("crc", 0.5), ("sha", 0.25),
                              ("dijkstra", 0.25))
    assert spec.weights(("sha", "crc")) == \
        (("crc", 2.0 / 3.0), ("sha", 1.0 / 3.0))
    with pytest.raises(ValueError, match="no mix workloads"):
        spec.weights(("quicksort",))


# ----------------------------------------------------------------------
# The allocation space.
# ----------------------------------------------------------------------
def test_allocation_axes_join_the_dse_vocabulary():
    assert {"cores", "array0", "array7"} <= set(known_axes())


def test_canonical_ordering_dedupes_slot_permutations():
    spec = mpsoc_spec(preset="sys-l", mix="crc:1")
    space = allocation_space(spec)
    names = [space.allocation_name(c) for c in space.candidates()]
    assert len(names) == len(set(names))
    # C1 in slot 1 with slot 0 empty is the same multiset as C1 in
    # slot 0; only the canonical form survives.
    swapped = Candidate.of({"cores": 2, "array0": NO_ARRAY,
                            "array1": "C1"})
    assert not space.satisfies(swapped)
    canonical = Candidate.of({"cores": 2, "array0": "C1",
                              "array1": NO_ARRAY})
    assert space.satisfies(canonical)
    # ... and catalog order within the slots is canonical too.
    assert not space.satisfies(Candidate.of(
        {"cores": 2, "array0": "C2", "array1": "C1"}))
    assert space.satisfies(Candidate.of(
        {"cores": 2, "array0": "C1", "array1": "C2"}))


def test_arrays_must_pair_with_cores():
    spec = mpsoc_spec(preset="sys-l", mix="crc:1")
    space = allocation_space(spec)
    assert not space.satisfies(Candidate.of(
        {"cores": 1, "array0": "C1", "array1": "C1"}))


def test_gates_account_cores_plus_table3a_arrays():
    spec = mpsoc_spec(preset="sys-l", mix="crc:1")
    space = allocation_space(spec)
    candidate = Candidate.of({"cores": 2, "array0": "C1",
                              "array1": NO_ARRAY})
    c1 = area_report(PAPER_SHAPES["C1"], AreaParams()).total_gates
    assert space.gates_of(candidate) == \
        2 * spec.core_gates + c1


# ----------------------------------------------------------------------
# Budget edge cases.
# ----------------------------------------------------------------------
def test_zero_budget_is_a_structured_error():
    with pytest.raises(InfeasibleBudgetError) as excinfo:
        explore_mix(area_budget_gates=0, mix="crc:1")
    error = excinfo.value.as_dict()["error"]
    assert error["code"] == "infeasible_budget"
    assert error["budget_gates"] == 0
    assert error["cheapest_allocation_gates"] == mips_core_gates()
    json.dumps(error)  # machine readable all the way down


def test_budget_below_one_core_is_infeasible():
    with pytest.raises(InfeasibleBudgetError):
        allocation_space(mpsoc_spec(
            area_budget_gates=mips_core_gates() - 1, mix="crc:1"))


def test_tight_budget_prunes_expensive_arrays():
    # Enough for a core + C1, nowhere near C2/C3: every feasible
    # allocation uses at most the small array.
    budget = mips_core_gates() + \
        area_report(PAPER_SHAPES["C1"], AreaParams()).total_gates
    spec = mpsoc_spec(area_budget_gates=budget, mix="crc:1")
    space = allocation_space(spec)
    candidates = space.candidates()
    assert candidates
    arrays = set(itertools.chain.from_iterable(
        space.arrays_of(c) for c in candidates))
    assert arrays <= {"C1"}
    assert space.size > len(candidates)  # pruning really happened


def test_explicit_over_budget_allocation_names_itself():
    spec = mpsoc_spec(area_budget_gates=mips_core_gates() * 2,
                      mix="crc:1")
    with pytest.raises(InfeasibleBudgetError, match="allocation 1c"):
        score_allocation(spec, 1, ("C3",))


# ----------------------------------------------------------------------
# The degenerate contract: 1 core + 1 array == repro.api.evaluate.
# ----------------------------------------------------------------------
def test_degenerate_allocation_reproduces_evaluate_bit_for_bit():
    spec = mpsoc_spec(area_budget_gates=10_000_000, mix=["crc", "sha"],
                      core_counts=(1,), max_arrays=1)
    evaluation, rows = score_allocation(spec, 1, ("C2",))
    suite = repro.evaluate(
        SystemSpec(array="C2", slots=64, speculation=True).build(),
        names=["crc", "sha"])
    by_name = {r.workload: r for r in suite.results}
    for row in rows:
        assert row.tile == "C2"
        assert row.speedup == by_name[row.workload].speedup
        assert row.energy_ratio == by_name[row.workload].energy_ratio


def test_singleton_mix_collapses_to_the_raw_speedup():
    spec = mpsoc_spec(area_budget_gates=10_000_000, mix=["crc"],
                      core_counts=(1,), max_arrays=1)
    evaluation, rows = score_allocation(spec, 1, ("C2",))
    suite = repro.evaluate(
        SystemSpec(array="C2", slots=64, speculation=True).build(),
        names=["crc"])
    assert evaluation.geomean_speedup == suite.results[0].speedup
    assert evaluation.geomean_energy_ratio == \
        suite.results[0].energy_ratio


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


def test_smoke_frontier_matches_committed_golden():
    golden = GOLDEN_FRONTIER.read_text()
    assert _smoke_explore().to_json() + "\n" == golden


def test_frontier_identical_inline_parallel_and_served(service):
    _, client = service
    inline = _smoke_explore().to_json()
    assert _smoke_explore(jobs=2).to_json() == inline
    served = explore_mix(cache=None, client=client, **SMOKE_KWARGS)
    assert served.to_json() == inline
    assert served.stats.dispatched_batches >= 1


@pytest.mark.parametrize("strategy", ("grid", "random", "shalving",
                                      "hillclimb"))
def test_every_strategy_is_deterministic(strategy):
    first = _smoke_explore(strategy=strategy)
    again = explore_mix(cache=None,
                        **{**SMOKE_KWARGS, "strategy": strategy})
    assert again.to_json() == first.to_json()


def test_dispatch_tables_cover_the_frontier():
    result = _smoke_explore()
    tables = result.dispatch_tables()
    assert set(tables) == {p.system for p in result.frontier.points}
    for rows in tables.values():
        assert [r.workload for r in rows] == ["crc", "sha"]
        assert abs(sum(r.weight for r in rows) - 1.0) < 1e-12
        json.dumps([r.as_dict() for r in rows])


# ----------------------------------------------------------------------
# Telemetry: the mpsoc.* namespace stays closed and collector-mapped.
# ----------------------------------------------------------------------
def test_mpsoc_event_namespace_is_closed():
    for event in ("mpsoc.space_pruned", "mpsoc.allocation_scored"):
        assert event in EVENT_TYPES
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        tel.emit("mpsoc.allocation_skipped")


def test_mpsoc_collectors_map_every_stat():
    stats = MpsocStats(allocations_scored=5, feasible_allocations=5,
                       pruned_allocations=43, dispatch_accelerated=4,
                       dispatch_plain=6, matrix_cells=6,
                       compose_seconds=0.25)
    counters = mpsoc_counters(stats)
    assert set(counters) == set(MPSOC_COUNTERS)
    assert counters["mpsoc.pruned_allocations"] == 43
    timers = mpsoc_timers(stats)
    assert set(timers) == set(MPSOC_TIMERS)
    # the merged view exports both namespaces
    merged = stats.counters()
    assert "dse.evaluations" in merged
    assert "mpsoc.matrix_cells" in merged
    assert stats.timer_values()["mpsoc.compose_seconds"] == 0.25


def test_exploration_emits_valid_mpsoc_events():
    # an unbounded-enough log: the replay's rcache/predictor flood must
    # not drop-oldest the early mpsoc.space_pruned record
    telemetry = Telemetry(max_events=4_000_000)
    explore_mix(cache=None, telemetry=telemetry, **SMOKE_KWARGS)
    types = {r["type"] for r in telemetry.events}
    assert "mpsoc.space_pruned" in types
    assert "mpsoc.allocation_scored" in types
    assert not validate_jsonl(telemetry.events.to_jsonl().splitlines())
    counters = telemetry.counters
    assert counters.get("mpsoc.allocations_scored", 0) > 0


# ----------------------------------------------------------------------
# The CLI surfaces the whole scenario.
# ----------------------------------------------------------------------
def test_cli_mpsoc_writes_the_golden_frontier(tmp_path, capsys):
    out = tmp_path / "frontier.json"
    rc = cli_main(["mpsoc", "--preset", "sys-s",
                   "--mix", "crc:2,sha:1", "--strategy", "shalving",
                   "--budget", "6", "--seed", "7",
                   "--no-cache", "--frontier", str(out)])
    assert rc == 0
    assert out.read_text() == GOLDEN_FRONTIER.read_text()
    stdout = capsys.readouterr().out
    assert "frontier" in stdout and "dispatch for" in stdout


def test_cli_mpsoc_structured_infeasible_error():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["mpsoc", "--area-budget", "10", "--mix", "crc:1",
                  "--no-cache"])
    payload = json.loads(str(excinfo.value))
    assert payload["error"]["code"] == "infeasible_budget"


def test_cli_mpsoc_rejects_preset_plus_budget():
    with pytest.raises(SystemExit, match="exactly one"):
        cli_main(["mpsoc", "--preset", "sys-s", "--area-budget",
                  "99999", "--mix", "crc:1", "--no-cache"])


def test_cli_parser_knows_the_subcommand():
    args = build_parser().parse_args(
        ["mpsoc", "--preset", "sys-m", "--mix", "crc:1"])
    assert args.preset == "sys-m" and args.array == "C1,C2,C3"


def test_facade_verb_survives_submodule_import():
    # importing repro.mpsoc rebinds the package attribute from the
    # repro.api.mpsoc function to the module; the module is callable
    # so the facade spelling keeps working either way
    import repro
    import repro.mpsoc

    assert callable(repro.mpsoc)
    result = repro.mpsoc(preset="sys-s", mix="crc", strategy="grid",
                         cache=None)
    assert len(result.frontier.points) >= 1
    assert repro.mpsoc.explore_mix is explore_mix
