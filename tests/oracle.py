"""The event-engine oracle for matrix results.

Builds the results JSON of a workloads x configurations matrix the
slow, obvious way: every cell is one :func:`evaluate_trace` plus one
:func:`baseline_metrics` on the workload's trace, folded through the
same :func:`result_from_metrics` the sweep engine uses.  The columnar
sweep must match it byte for byte.

As a script it takes the selection options of ``repro sweep`` and
writes the oracle JSON of the same cells::

    PYTHONPATH=src python -m tests.oracle --only crc,sha \\
        --arrays C1,C3 --slots 16,64 --json oracle.json

It also holds :class:`TranslationMemo`, which speeds the event replay
up across the systems of a matrix without touching it:
:func:`evaluate_memoized` routes the replay's translations through a
memo for the length of one :func:`evaluate_trace` call.  The DIM
hardware memoizes nothing, so the memo lives here, not in ``repro``.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cgra.configuration import Configuration
from repro.cgra.shape import ArrayShape
from repro.dim.params import policy_key
from repro.dim.translator import PROBE_DIRECTION, Probe, Translator
from repro.sim.trace import BasicBlock, Trace
from repro.system.config import SystemConfig
from repro.system.energy import EnergyParams
from repro.system.metrics import SystemMetrics
from repro.system.sweep import MatrixResult
from repro.system.traceeval import baseline_metrics, evaluate_trace
from repro.workloads import run_workload, workload_names
from repro.workloads.suite import SuiteResult, result_from_metrics

_MemoKey = Tuple[BasicBlock, ArrayShape, Tuple]
#: (recorded probes, pristine template or None when too short to cache).
_Variant = Tuple[Tuple[Probe, ...], Optional[Configuration]]


def _instantiate(template: Optional[Configuration]
                 ) -> Optional[Configuration]:
    """A fresh engine-owned clone of a pristine template."""
    if template is None:
        return None
    return Configuration(
        start_pc=template.start_pc,
        blocks=template.blocks,
        result=template.result,
        shape=template.shape,
        extendable=template.extendable,
        kind=template.kind,
        dual_taken=template.dual_taken,
        dual_fallthrough=template.dual_fallthrough,
        gate_cycles=template.gate_cycles,
        loop_check_cycles=template.loop_check_cycles,
    )


class TranslationMemo:
    """Probe-validated translation cache shared across event replays.

    A translation's outcome is a pure function of its first block (blocks
    hash by identity per trace table), the array shape, the policy knobs
    of :func:`~repro.dim.params.policy_key`, and the answers the walk
    receives from the predictor and the block provider.  The first three
    form the key.  The first translation under a key records every query
    and its answer (``probe_log`` of :meth:`Translator.translate`); a
    later call replays the recorded queries against the live predictor
    and provider and reuses the stored result only when every answer
    matches, so a hit builds exactly what a fresh translation would.

    Stored configurations are pristine templates: every hit (and the
    miss that made the template) hands out a fresh clone, because the
    engine mutates runtime fields (``extendable``, ``misspec_count``)
    in place.  The block list and the allocation result are shared.
    Keys pin blocks in memory, so scope one memo to one trace.
    """

    #: bound on stored (probe-set, result) variants per key; distinct
    #: variants correspond to distinct predictor phases of the entry
    #: branch region, which is small in practice.
    MAX_VARIANTS = 16

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[_MemoKey, List[_Variant]] = {}
        self.hits = 0
        self.misses = 0

    def translate(self, translator: Translator,
                  block: BasicBlock) -> Optional[Configuration]:
        """Memoized equivalent of ``translator.translate(block)``."""
        key = (block, translator.shape, policy_key(translator.params))
        variants = self._entries.get(key)
        if variants is not None:
            predictor = translator.predictor
            provider = translator.block_provider
            for index, (probes, template) in enumerate(variants):
                for kind, pc, answer in probes:
                    if kind == PROBE_DIRECTION:
                        if predictor.saturated_direction(pc) is not answer:
                            break
                    elif provider(pc) is not answer:
                        break
                else:
                    self.hits += 1
                    if index:  # move-to-front: phases cluster in time
                        variants.insert(0, variants.pop(index))
                    return _instantiate(template)
        probe_log: List[Probe] = []
        config = translator.translate(block, probe_log)
        self.misses += 1
        if variants is None:
            variants = self._entries[key] = []
        elif len(variants) >= self.MAX_VARIANTS:
            variants.pop()
        variants.insert(0, (tuple(probe_log), config))
        return _instantiate(config)


def evaluate_memoized(trace: Trace, config: SystemConfig,
                      memo: TranslationMemo,
                      name: str = "") -> SystemMetrics:
    """:func:`evaluate_trace`, its translations served through ``memo``.

    Patches :meth:`Translator.translate` for the length of the call.  A
    call without a probe log (the event engine's) goes through the memo;
    one with a log (the memo's own misses) runs the original walk.
    """
    original = Translator.translate

    def translate(translator, block, probe_log=None):
        if probe_log is not None:
            return original(translator, block, probe_log)
        return memo.translate(translator, block)

    Translator.translate = translate
    try:
        return evaluate_trace(trace, config, name=name)
    finally:
        Translator.translate = original


def event_matrix(configs: Sequence[SystemConfig],
                 names: Optional[Sequence[str]] = None) -> MatrixResult:
    """Every cell evaluated alone on the event engine."""
    names = list(names) if names is not None else workload_names()
    traces = {name: run_workload(name).trace for name in names}
    suites = []
    for config in configs:
        suites.append(SuiteResult(config.name, [
            result_from_metrics(
                name, config, baseline_metrics(trace, config.timing),
                evaluate_trace(trace, config, name=name), EnergyParams())
            for name, trace in traces.items()]))
    return MatrixResult(names=names, suites=suites)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import _activate_corpus, _build_configs, build_parser
    from repro.commands import _subset_names

    args = build_parser().parse_args(["sweep", *(argv or sys.argv[1:])])
    corpus_names = _activate_corpus(args.corpus)
    matrix = event_matrix(_build_configs(args),
                          _subset_names(args, corpus_names))
    with open(args.json, "w") as handle:
        handle.write(matrix.results_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
