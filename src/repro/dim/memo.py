"""Cross-engine memoization of DIM translations.

Translating a block tree is the hot path of a design-space sweep: the
profile of a single `evaluate_trace` call is ~80% translator+allocator
work, and a Table 2 matrix re-runs that work once per (workload, system)
cell even though systems that differ only in reconfiguration-cache slots
or timing produce *identical* translations.

:class:`TranslationMemo` removes that redundancy.  A translation's
outcome is a pure function of

- the first block (identity — blocks hash by identity per trace table),
- the array shape,
- the translation-policy knobs of :class:`~repro.dim.params.DimParams`
  (speculation, depth/blocks limits, minimum cached length), and
- the answers the translation walk receives from the bimodal predictor
  (``saturated_direction``) and the block provider.

The first three form the memo key.  The fourth is handled by *probe
validation*: the first translation under a key records every query and
its answer (see ``probe_log`` in
:meth:`repro.dim.translator.Translator.translate`); a later call replays
the recorded queries against the live predictor/provider and reuses the
stored result only when every answer matches.  Because the walk's
control flow is fully determined by the key plus the probe answers, a
validated hit is guaranteed to reproduce what a fresh translation would
have built — sweep results stay byte-identical with or without the memo
(asserted by the test suite).

Stored configurations are pristine templates; every hit (and the miss
that created the template) hands out a fresh :class:`Configuration`
clone, because the engine mutates runtime fields (``extendable``,
``misspec_count``, cache ``hits``/``builds``) in place.  The immutable
parts — the block list and the :class:`AllocationResult` — are shared.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cgra.configuration import Configuration
from repro.cgra.shape import ArrayShape
from repro.dim.params import policy_key
from repro.dim.translator import (
    PROBE_DIRECTION,
    Probe,
    Translator,
)
from repro.sim.trace import BasicBlock

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
    """Probe-validated translation cache shared across DIM engines.

    One memo instance is scoped to a single workload trace (keys include
    block identities, so sharing wider is safe but pins every trace's
    blocks in memory — the sweep engine creates one memo per workload
    and drops it when the workload's row of the matrix completes).
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

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
