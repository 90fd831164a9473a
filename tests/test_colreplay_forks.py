"""Both sides of every size-selected fork in the columnar engine agree.

Exit codes, extension-gate and flush verdicts, and predictor timelines
are each computed by a scalar walk below an occurrence-count threshold
and by numpy at or above it.  A workload only exercises the side its
own sizes pick, so each threshold is forced to 0 (numpy everywhere) and
to a very large value (scalar everywhere) and the metrics compared with
the default split.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.dim.params import DimParams
from repro.sim import coltrace, run_program
from repro.system import colreplay
from repro.system.colreplay import ColumnarContext, evaluate_trace_columnar
from repro.system.config import PAPER_SHAPES, custom_system, paper_system
from repro.system.traceeval import evaluate_trace
from repro.workloads import run_workload

WORKLOAD = "crc"

THRESHOLDS = [
    (colreplay, "EXIT_CODES_NUMPY_MIN"),
    (colreplay, "VERDICTS_NUMPY_MIN"),
    (coltrace, "GROUPED_TIMELINE_MIN"),
]


def fork_configs():
    """A spec config building linear, loop and dual templates, and LRU
    and FIFO no-spec configs under capacity pressure."""
    both = paper_system("C1", 4, True)
    both = dataclasses.replace(
        both, dim=dataclasses.replace(both.dim, dynflow_mode="both"),
        name=f"{both.name}+both")
    lru = DimParams(cache_slots=4, cache_policy="lru")
    return [both,
            custom_system(PAPER_SHAPES["C2"], lru),
            paper_system("C1", 4, False)]


def replay(trace):
    context = ColumnarContext(trace, name=WORKLOAD)
    return [evaluate_trace_columnar(trace, config, name=WORKLOAD,
                                    context=context)
            for config in fork_configs()]


@pytest.fixture(scope="module")
def default_split():
    trace = run_workload(WORKLOAD).trace
    return trace, replay(trace)


def test_fork_configs_exercise_every_template_kind(default_split):
    spec, lru, fifo = default_split[1]
    dim = spec.dim
    assert dim.loop_configs and dim.dual_configs
    assert dim.config_writes > dim.loop_configs + dim.dual_configs
    assert dim.loop_executions and dim.dual_executions and dim.flushes
    assert lru.cache_evictions and fifo.cache_evictions


@pytest.mark.parametrize("value", [0, 1 << 40], ids=["numpy", "scalar"])
@pytest.mark.parametrize("module,constant", THRESHOLDS,
                         ids=[name for _, name in THRESHOLDS])
def test_forced_fork_matches_default_split(monkeypatch, default_split,
                                           module, constant, value):
    trace, expected = default_split
    monkeypatch.setattr(module, constant, value)
    assert replay(trace) == expected


def _jump_chain(blocks: int, trips: int) -> str:
    """A loop whose body is ``blocks`` short blocks chained by ``j``."""
    lines = ["__start:", f"    li $s0, {trips}", "loop:"]
    for index in range(blocks):
        lines += [f"b{index}:", "    addiu $t0, $t0, 1",
                  "    addiu $t1, $t1, 3", f"    j b{index + 1}"]
    lines += [f"b{blocks}:", "    addiu $s0, $s0, -1",
              "    bne $s0, $zero, loop", "    li $v0, 10", "    syscall"]
    return "\n".join(lines)


@pytest.mark.parametrize("value", [0, 1 << 40], ids=["numpy", "scalar"])
def test_exit_codes_beyond_one_byte_stay_exact(monkeypatch, value):
    """Exit codes are packed one byte each only while they fit: a
    configuration of more than 252 blocks keeps them in a list, and
    its replay still matches the event engine."""
    monkeypatch.setattr(colreplay, "EXIT_CODES_NUMPY_MIN", value)
    monkeypatch.setattr(colreplay, "VERDICTS_NUMPY_MIN", value)
    trace = run_program(assemble(_jump_chain(300, 12)),
                        collect_trace=True).trace
    config = custom_system(PAPER_SHAPES["ideal"],
                           DimParams(max_blocks=400, speculation=True))
    context = ColumnarContext(trace, name="chain")
    assert evaluate_trace_columnar(trace, config, context=context) \
        == evaluate_trace(trace, config)
    assert any(path.ncodes > 256 and isinstance(path.code_list, list)
               for path in context._paths.values())
