"""Sweep row lifetimes: who owns a row, and when its memory is freed.

A one-shot :func:`evaluate_matrix` frees each workload row (trace plus
columnar context) as soon as its cells are folded, without the cyclic
collector; callers that replay the same rows batch after batch own a
:data:`~repro.system.sweep.RowStore` and reuse its rows, but never a
row traced from another source.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro.system.colreplay as colreplay
import repro.system.sweep as sweep
from repro.sim import cpu
from repro.sim.trace import BasicBlock
from repro.system import paper_system
from repro.system.artifacts import ArtifactCache
from repro.system.config import SystemSpec
from repro.system.sweep import evaluate_matrix
from repro.workloads import (
    Workload,
    load_workload,
    register_workload,
    run_workload,
    trace_workload,
    unregister_generated,
)


def _loop_source(count: int) -> str:
    return ("int main() {\n"
            "    int i; int total = 0;\n"
            f"    for (i = 0; i < {count}; i = i + 1) {{\n"
            "        if (i & 1) total = total + i; else total = total ^ i;\n"
            "    }\n"
            "    print_int(total);\n"
            "    return 0;\n"
            "}\n")


@pytest.fixture
def gen_x():
    """Registers ``gen_x`` with a given source; unregisters after."""
    def register(count: int) -> None:
        register_workload(Workload(name="gen_x", paper_name="gen_x",
                                   category="mid",
                                   source=_loop_source(count)))

    yield register
    unregister_generated()


def _baseline_cycles(matrix) -> int:
    return matrix.suites[0].results[0].baseline_cycles


@pytest.mark.parametrize("shared_store", [False, True])
def test_reregistered_source_never_replays_the_old_row(
        gen_x, tmp_path, shared_store):
    """Register ``gen_x`` (source A), sweep, sweep a new config so the
    trace comes off disk, re-register with source B: the third sweep
    traces B, whether or not the caller keeps a row store."""
    rows = {} if shared_store else None
    first, second = (paper_system("C1", 16, False),
                     paper_system("C2", 64, True))
    gen_x(20)
    small = evaluate_matrix([first], names=["gen_x"],
                            cache=ArtifactCache(tmp_path), row_store=rows)
    warm = evaluate_matrix([second], names=["gen_x"],
                           cache=ArtifactCache(tmp_path), row_store=rows)
    assert warm.instrumentation.traces_simulated == 0
    unregister_generated()
    gen_x(400)
    cache = ArtifactCache(tmp_path)
    big = evaluate_matrix([second], names=["gen_x"],
                          cache=cache, row_store=rows)
    inst = big.instrumentation
    assert (inst.traces_simulated, inst.traces_in_memory) == (1, 0)
    fresh = evaluate_matrix([second], names=["gen_x"])
    assert big.results_json() == fresh.results_json()
    assert _baseline_cycles(big) > 10 * _baseline_cycles(small)
    # what the third sweep stored under B's keys is B's answer
    again = evaluate_matrix([second], names=["gen_x"],
                            cache=ArtifactCache(tmp_path))
    assert again.instrumentation.cells_replayed == 0
    assert again.results_json() == fresh.results_json()


def test_one_shot_row_is_freed_without_the_collector(monkeypatch):
    """With ``gc`` disabled, a one-shot row leaves nothing behind: every
    context, trace, basic block (whose static costs the shared cost
    model computed), template and tracing simulator dies with its last
    reference, and the collector finds no ``repro`` object."""
    import repro.workloads as workloads

    monkeypatch.setattr(workloads, "_RUNS", {})
    alive = {}

    def watch(cls, label, target=lambda self: self):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            alive.setdefault(label, []).append(weakref.ref(target(self)))

        monkeypatch.setattr(cls, "__init__", __init__)

    watch(colreplay.ColumnarContext, "context")
    watch(colreplay.ColumnarContext, "trace", lambda self: self.trace)
    # templates are slotted without weakref support; their translated
    # configuration is referenced by the template alone.
    watch(colreplay._Template, "template", lambda self: self.config)
    watch(cpu.Simulator, "simulator")
    watch(BasicBlock, "block")
    configs = [paper_system("C1", 16, False), paper_system("C2", 64, True)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        evaluate_matrix(configs, names=["susan_c"])
        assert set(alive) == {"context", "trace", "template", "simulator",
                              "block"}
        assert {label: sum(ref() is not None for ref in refs)
                for label, refs in alive.items()} == dict.fromkeys(alive, 0)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage
                  if type(obj).__module__.startswith("repro")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leaked == []


def test_one_shot_sweep_leaves_only_cached_placements_alive():
    """After a one-shot sweep of every workload, which keeps no program
    (and with the run cache cleared), the only decoded instructions
    still alive are the keys of ``placement_record``'s bounded,
    value-keyed ``lru_cache`` (plus a few module constants).  Run in a
    fresh interpreter so no other test's programs are counted."""
    script = (
        "import gc\n"
        "import repro.workloads as workloads\n"
        "from repro.cgra.dataflow import placement_record\n"
        "from repro.isa.instruction import Instruction\n"
        "from repro.system import paper_system\n"
        "from repro.system.sweep import evaluate_matrix\n"
        "evaluate_matrix([paper_system('C1', 16, False)], cache=None)\n"
        "workloads._RUNS.clear()\n"
        "gc.collect()\n"
        "live = sum(type(o) is Instruction for o in gc.get_objects())\n"
        "cached = placement_record.cache_info().currsize\n"
        "assert cached > 0, cached\n"
        "assert live <= cached + 8, (live, cached)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_trace_workload_leaves_the_program_cache_as_it_found_it(
        monkeypatch):
    """An absent program is loaded outside the cache, so it dies with
    the run; a cached one is reused — the very object, whose block
    factories the run compiles."""
    import repro.workloads as workloads

    monkeypatch.setattr(workloads, "_PROGRAMS", {})
    uncached = trace_workload("crc")
    assert workloads._PROGRAMS == {}
    program = load_workload("crc")
    assert not program.fastpath_cache
    cached = trace_workload("crc")
    assert workloads._PROGRAMS == {"crc": program}
    assert workloads._PROGRAMS["crc"] is program
    assert program.fastpath_cache
    assert cached.events == uncached.events


class _Counting:
    """Counts columnar lowerings and fresh traces while installed."""

    def __init__(self, monkeypatch):
        self.lowered = 0
        self.traced = 0
        counter = self

        class CountingTrace(colreplay.ColumnarTrace):
            def __init__(self, *args, **kwargs):
                counter.lowered += 1
                super().__init__(*args, **kwargs)

        real_trace = sweep.trace_workload

        def trace_workload(name):
            counter.traced += 1
            return real_trace(name)

        monkeypatch.setattr(colreplay, "ColumnarTrace", CountingTrace)
        monkeypatch.setattr(sweep, "trace_workload", trace_workload)


def test_serve_warm_batch_never_relowers(monkeypatch):
    """Two serve batches of one fingerprint: the second finds both rows
    in the worker's store, so it neither traces nor lowers anything."""
    import repro.workloads as workloads
    from repro.serve import scheduler

    monkeypatch.setattr(workloads, "_RUNS", {})
    monkeypatch.setattr(scheduler, "_WORKER_ROWS", {})
    counting = _Counting(monkeypatch)
    names = ["crc", "sha"]

    def batch(job_id, config):
        return scheduler.run_batch({
            "mode": "matrix", "cache_root": None,
            "cache_scope": None, "names": names,
            "jobs": [{"id": job_id, "kind": "evaluate",
                      "configs": [config]}]})

    cold = batch("a", SystemSpec(array="C2", slots=64,
                                 speculation=True))["counters"]
    assert (counting.traced, counting.lowered) == (2, 2)
    assert cold["sweep.traces_simulated"] == 2
    warm = batch("b", SystemSpec(array="C3", slots=16))["counters"]
    assert (counting.traced, counting.lowered) == (2, 2)
    assert warm["sweep.traces_simulated"] == 0
    assert warm["sweep.traces_in_memory"] == 2
    assert set(scheduler._WORKER_ROWS) == set(names)


def test_matrix_runner_batches_reuse_their_store(monkeypatch):
    """A MatrixRunner owns one store: a later batch replays the rows an
    earlier batch traced, and a second runner starts empty."""
    import repro.workloads as workloads
    from repro.dse import MatrixRunner, default_space

    monkeypatch.setattr(workloads, "_RUNS", {})
    counting = _Counting(monkeypatch)
    space = default_space()
    candidates = space.candidates()[:4]
    runner = MatrixRunner(space, workloads=["crc"])
    runner.evaluate(candidates[:2])
    runner.evaluate(candidates[2:])
    assert (counting.traced, counting.lowered) == (1, 1)
    assert list(runner.row_store) == ["crc"]
    MatrixRunner(space, workloads=["crc"]).evaluate(
        candidates[:1])
    assert (counting.traced, counting.lowered) == (2, 2)


def test_sweep_reuses_a_run_left_in_memory(monkeypatch):
    """A trace a run_workload caller left behind is reused, and the
    sweep itself adds no run to that cache."""
    import repro.workloads as workloads

    monkeypatch.setattr(workloads, "_RUNS", {})
    run_workload("crc")
    inst = evaluate_matrix([paper_system("C1", 16, False)],
                           names=["crc", "sha"]).instrumentation
    assert (inst.traces_in_memory, inst.traces_simulated) == (1, 1)
    assert list(workloads._RUNS) == ["crc"]
