"""Columnar replay: vectorized DIM cost-model evaluation.

:func:`repro.system.traceeval.evaluate_trace` replays a trace with one
Python iteration per event *per configuration*; a matrix sweep therefore
pays ``events x configurations`` interpreter steps even though almost
everything it computes is shared.  This module restructures the replay
around the columnar lowering of :mod:`repro.sim.coltrace` and two
configuration-independence facts proved there: the bimodal-predictor
update sequence and the evaluator's ``seen`` set are pure functions of
the trace, identical under every configuration.

With those fixed, a replay decomposes into:

- **per-block cost tables** — the core cost of executing a block
  normally (miss path / baseline) is static per (block, terminator
  outcome), so core totals are one ``bincount`` + matrix product over
  the event columns;
- **per-occurrence decision columns** — every translation, extension
  gate, speculation verdict and flush trigger depends on the predictor
  only through ``saturated_direction`` at a known event boundary, which
  the precomputed timeline answers without replaying the predictor.

Two engines cover the configuration space:

- **Tier A** (``speculation=False``): translations make *zero*
  predictor/provider probes, so each block has one one-block
  configuration and the replay vectorizes — the only sequential piece
  is the FIFO/LRU occupancy simulation, which collapses to a rank test
  when the working set fits the cache and otherwise runs once per
  (cacheable-block set, slots, policy), shared by every array shape
  that caches the same blocks.  A block's hits are its configuration's
  executions, exiting by the tail's outcome.
- **Tier B** (speculation): the reconfiguration-cache state machine is
  genuinely sequential, but each iteration reduces to list lookups: a
  configuration's exit outcome at its ``r``-th occurrence (commit /
  reprocess / mis-speculate at depth ``m``) is precomputed as an *exit
  code* (the codes of :mod:`repro.system.costmodel`, which the event
  engine returns too), and each code indexes an events-consumed count
  and a flush verdict.  Codes, counts and verdicts depend on the block
  chain alone, so they live on a :class:`_Path` that every template of
  the chain shares, across array shapes and policies.  The dynamic
  control-flow kinds (``repro.dim.params.DYNFLOW_MODES``) extend the
  same machinery: dual-path templates add four resolution codes
  (actual direction x winner-tail outcome), and loop templates — whose
  consumed-event count varies with the trip count — are walked on
  demand, counting their extra trips.

Both tiers price what they counted with the cost model the event
engine uses: per-block core rows for the events run on the core and
:func:`~repro.system.costmodel.fold_executions` over each
configuration's exit-code histogram.  They are **bit-identical** to
:func:`evaluate_trace` — same cycles, same :class:`DimStats`, same cache
counters, same serialized JSON — enforced by the differential tests in
``tests/test_colreplay.py`` across every workload and a grid of
configurations.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cgra.configuration import Configuration
from repro.dim.engine import DimStats
from repro.dim.params import policy_key
from repro.dim.translator import (
    PROBE_DIRECTION,
    PROBE_SUCCESSOR,
    Translator,
)
from repro.isa.opcodes import InstrClass
from repro.sim.coltrace import (
    CLASS_NONE,
    CLASS_NOT_TAKEN,
    CLASS_TAKEN,
    ColumnarTrace,
    NO_BOUND,
    PredictorTimeline,
)
from repro.sim.stats import TimingModel
from repro.sim.trace import BasicBlock, Trace
from repro.system.config import SystemConfig
from repro.system.costmodel import (
    MIS,
    NFIELDS,
    core_row,
    exit_code_count,
    exit_rows,
    fold_executions,
    shared_cost_model,
)
from repro.system.metrics import SystemMetrics

#: occurrence-memo sentinel (None is a valid "no translation" answer).
_ABSENT = object()

__all__ = [
    "ColumnarContext",
    "baseline_metrics_columnar",
    "evaluate_trace_columnar",
]

class _PhasePredictor:
    """The predictor as seen at one event boundary of the timeline.

    Translations only query ``saturated_direction``; answering from the
    timeline at the translation's boundary reproduces exactly what the
    live predictor would have said at that point of the replay.
    """

    __slots__ = ("_timeline", "_t")

    def __init__(self, timeline: PredictorTimeline, t: int):
        self._timeline = timeline
        self._t = t

    def saturated_direction(self, pc: int) -> Optional[bool]:
        return self._timeline.saturated_direction(pc, self._t)


class _Path:
    """The shape-free tables of one block chain.

    A chain is the start block plus, per block, ``(block_id,
    includes_terminator, expected_taken)``, the kind, and whether the
    last block covers nothing (:func:`_path_key`).  Everything here is a
    pure function of the trace, the chain and (for the verdicts) the
    predictor entries — no shape, covered count or policy enters — so
    every template of one chain shares one path: C1, C2 and C3, and
    every policy replayed on the same context.

    Most importantly it holds the **exit codes**: a linear or dual
    configuration's exit at its ``r``-th trace occurrence depends only
    on the trace slice there, so it is one pass per chain; each code
    then indexes a template's metric-delta row and the consumed count.
    Loop exits are walked per execution (:meth:`loop_exit`).  The
    per-occurrence columns (exit codes, extension gates, flush verdicts)
    are ``bytes``, one byte per occurrence: a large row holds hundreds
    of chains with thousands of occurrences each, and a list would
    spend eight bytes on each.
    """

    __slots__ = ("start_block", "K", "kindcode", "ncodes", "consumed",
                 "code_list", "reset_exit", "prior_reset", "int_pcs",
                 "int_opps", "_merged_cond", "last_term_none",
                 "gate_always", "last_branch_pc", "back_expected_bit",
                 "back_opp", "_gates", "_opps", "_coltrace")

    def __init__(self, coltrace: ColumnarTrace, config: Configuration):
        # the lowered trace, not its context: a path the context holds
        # must not point back at it (the row would be a cycle).
        self._coltrace = coltrace
        self.start_block = config.blocks[0].block
        self.kindcode = {"linear": 0, "loop": 1, "dual": 2}[config.kind]
        last = config.blocks[-1].block
        term = last.terminator
        self.last_term_none = term is None
        # maybe_extend retranslates unconditionally for a merged-`j`
        # tail; a branch tail is gated on the counter being saturated.
        self.gate_always = term is not None \
            and term.klass is not InstrClass.BRANCH
        self.last_branch_pc = last.branch_pc
        K = len(config.blocks)
        self.K = K
        # misspec_count resets on every *matched* merged branch, so the
        # count after an exit depends only on whether a merged branch
        # preceded the exit point (engine.speculation_outcome).
        merged_branch = [cb.includes_terminator and cb.block.is_conditional
                         for cb in config.blocks]
        self.reset_exit = any(merged_branch[:K - 1])
        self.prior_reset = [any(merged_branch[:m]) for m in range(K - 1)]
        # interior merged-conditional lookup tables (flush verdicts:
        # answered inline by the loop/dual replay branches, precomputed
        # per occurrence by flush_opp for linear chains).
        self.int_pcs = [cb.block.branch_pc for cb in config.blocks[:K - 1]]
        self.int_opps = [0 if cb.expected_taken else 1
                         for cb in config.blocks[:K - 1]]
        #: (depth, expected taken bit) of every interior merged branch.
        self._merged_cond = [
            (m, 1 if config.blocks[m].expected_taken else 0)
            for m in range(K - 1) if merged_branch[m]]
        self._gates: Dict[int, Optional[bytes]] = {}
        self._opps: Dict[int, bytes] = {}
        self.back_expected_bit = 0
        self.back_opp = 0
        self.ncodes = exit_code_count(config)
        mismatches = [m + 1 for m in range(K - 1)]
        if self.kindcode == 1:
            # loop: exit codes, trip counts and consumed-event counts
            # vary with the trip count, so they are computed per executed
            # occurrence by loop_exit() instead of eagerly per rank.
            back = config.blocks[-1]
            self.back_expected_bit = 1 if back.expected_taken else 0
            self.back_opp = 0 if back.expected_taken else 1
            self.code_list = None
            self.consumed = None
        elif self.kindcode == 2:
            self.consumed = [K + 1] * 4 + mismatches
            self.code_list = self._exit_codes(4, 0, ((K - 1, 2), (K, 1)))
        else:
            self.consumed = [K - 1, K, K] + mismatches
            if config.blocks[-1].covered == 0:  # reprocess
                self.code_list = self._exit_codes(3, 0, ())
            else:
                self.code_list = self._exit_codes(3, 1, ((K - 1, 1),))

    def _exit_codes(self, mis_base: int, base: int,
                    terms: Tuple[Tuple[int, int], ...]) -> Sequence[int]:
        """Exit code per occurrence of the start block.

        The first interior merged branch that mismatches, at depth
        ``m``, gives ``mis_base + m``; an occurrence at ``position``
        whose merged branches all match gets ``base`` plus
        ``weight * taken[position + offset]`` for each of the (at most
        two) ``terms``.  Packed one byte per occurrence whenever every
        code fits (``ncodes <= 256``), which default policies guarantee.
        """
        import numpy as np

        coltrace = self._coltrace
        positions = coltrace.occ[self.start_block.block_id]
        last_event = coltrace.n - 1
        tk = coltrace.tk
        codes = np.full(len(positions), base, dtype=np.int64)
        for offset, weight in terms:
            codes += weight * tk[np.minimum(positions + offset, last_event)]
        # earliest mismatched merged branch wins: walk depths ascending,
        # assigning only still-pending occurrences.
        pending = np.ones(len(positions), dtype=bool)
        for m, expected in self._merged_cond:
            branch_positions = np.minimum(positions + m, last_event)
            mismatch = pending & (tk[branch_positions] != expected)
            codes[mismatch] = mis_base + m
            pending &= ~mismatch
        if self.ncodes <= 256:
            return codes.astype(np.uint8).tobytes()
        return codes.tolist()

    def loop_exit(self, position: int) -> Tuple[int, int, int]:
        """(code, extra trips, events consumed) of one loop execution.

        Walks the taken column from ``position``, one step per consumed
        event: trips continue while every interior merged branch matches
        and the back-edge resolves in the looping direction.  Loop spans
        are consumed exactly once by the replay, so the total walk cost
        over a trace is linear — which is why these are computed on
        demand rather than eagerly per rank (an eager walk would be
        quadratic in the trip count across overlapping occurrences).
        """
        tk = self._coltrace.tk_list
        last = self._coltrace.n - 1
        K = self.K
        back_bit = self.back_expected_bit
        merged = self._merged_cond
        t = 0
        while True:
            base = position + t * K
            if base + K - 1 > last:  # pragma: no cover
                raise RuntimeError(
                    "trace/configuration divergence in loop replay at "
                    f"event {base}")
            for m, expected in merged:
                if tk[base + m] != expected:
                    return (1 + m, t, t * K + m + 1)
            if tk[base + K - 1] != back_bit:
                return (0, t, (t + 1) * K)
            t += 1

    def ext_gate(self, timeline: PredictorTimeline) -> Optional[bytes]:
        """Per-occurrence extension gate, or None when ungated.

        ``maybe_extend`` only retranslates a branch-tailed configuration
        when the tail branch's counter is saturated *before* the event's
        own update — boundary ``i`` for a hit at event ``i``.
        """
        if self.gate_always:
            return None
        gate = self._gates.get(timeline.entries)
        if gate is None:
            classes = timeline.class_for_many(
                self.last_branch_pc,
                self._coltrace.occ[self.start_block.block_id])
            gate = (classes != CLASS_NONE).tobytes()
            self._gates[timeline.entries] = gate
        return gate

    def flush_opp(self, timeline: PredictorTimeline) -> bytes:
        """Per-occurrence "counter reached the opposite value" verdicts.

        Evaluated only at mismatch exits; the predictor state queried is
        *after* the mismatched branch's own update (boundary
        ``position + m + 1``), exactly as ``speculation_outcome`` updates
        first and reads second.
        """
        opp = self._opps.get(timeline.entries)
        if opp is None:
            import numpy as np

            positions = self._coltrace.occ[self.start_block.block_id]
            codes = self.code_list
            codes = np.frombuffer(codes, dtype=np.uint8) \
                if isinstance(codes, bytes) else np.asarray(codes)
            verdict = np.zeros(len(positions), dtype=bool)
            for m, _ in self._merged_cond:
                mask = codes == 3 + m
                if not mask.any():
                    continue
                classes = timeline.class_for_many(
                    self.int_pcs[m], positions[mask] + m + 1)
                verdict[mask] = classes == self.int_opps[m]
            opp = verdict.tobytes()
            self._opps[timeline.entries] = opp
        return opp


class _Template:
    """One distinct translated configuration of a start block.

    Holds what depends on the array shape and the policy — the
    configuration and its exit-code rows per timing model
    (:func:`~repro.system.costmodel.exit_rows`) — and reads everything
    that depends on the block chain alone off its shared :class:`_Path`.
    """

    __slots__ = ("config", "path", "covered_instructions", "extendable0",
                 "_rows")

    def __init__(self, path: _Path, config: Configuration):
        self.path = path
        self.config = config
        self.covered_instructions = config.covered_instructions
        self.extendable0 = config.extendable
        self._rows: Dict[TimingModel, List[List[int]]] = {}

    def rows(self, timing: TimingModel) -> List[List[int]]:
        """The exit-code rows under one timing model (memoized)."""
        rows = self._rows.get(timing)
        if rows is None:
            rows = self._rows[timing] = exit_rows(
                self.config, shared_cost_model(timing))
        return rows


class _TranslationTimeline:
    """Probe-validated translation results along the replay timeline.

    The columnar analogue of :class:`repro.dim.memo.TranslationMemo`: a
    translation at event boundaries ``(t_pred, t_seen)`` is a pure
    function of the start block plus the probe answers.  Each start
    block has a *probe universe* (every PC any of its translations
    probed), and a query is answered, cheapest first, by:

    1. the per-block query-point memo (a repeat of the same point);
    2. the block's last *validity box*: the maximal ``(t_pred,
       t_seen)`` rectangle over which every universe PC's answer is
       constant, with the template answered there; a query inside the
       box hits without touching the universe at all;
    3. the *signature* (the universe's answers at the point) looked up
       among the block's known signatures, then revalidation of the
       stored ``(probes, template)`` variants;
    4. a fresh translation, which grows the universe.

    Steps 3 and 4 leave the point's box, over the universe as it
    stands after the step, as the block's box; so a universe that grows
    also replaces the box.  An older box would stay sound (it fixes the
    answer of every PC its template's translation probed), but the
    newest box is the region the replay is in.
    """

    __slots__ = ("coltrace", "translator", "timeline", "templates", "paths",
                 "_dpcs", "_sthr", "_sigmap", "_probed", "_occmemo",
                 "_boxes", "hits", "misses")

    def __init__(self, coltrace: ColumnarTrace, config: SystemConfig,
                 timeline: PredictorTimeline,
                 templates: Dict[Tuple, _Template],
                 paths: Dict[Tuple, _Path]):
        self.coltrace = coltrace
        self.timeline = timeline
        self.templates = templates
        self.paths = paths
        # per-block probe universe: every branch PC any past translation
        # of the block direction-probed, and the seen-set thresholds
        # (first occurrence + 1) of every successor-probed PC.  The
        # translator is deterministic, so two query points with equal
        # classes over the whole universe take the same probe path and
        # produce the same template (see translate_at).
        self._dpcs: Dict[int, List[int]] = {}
        self._sthr: Dict[int, List[int]] = {}
        self._sigmap: Dict[int, Dict[Tuple, Optional[_Template]]] = {}
        #: per-block (probes, template) pairs, append-only.  When a
        #: universe grows, signatures keyed by the old universe can no
        #: longer match; probe revalidation against these recovers the
        #: answer without re-running the translator.
        self._probed: Dict[int, List[Tuple[List, Optional[_Template]]]] = {}
        #: per-block query-point memo (see translate_at).
        self._occmemo: Dict[int, Dict[int, Optional[_Template]]] = {}
        #: per-block last validity box and its answer:
        #: (plo, phi, slo, shi, template).
        self._boxes: Dict[int, Tuple] = {}
        self.hits = 0
        self.misses = 0
        # the provider below is rebound per translation (closures over
        # t_seen); the Translator only keeps references.
        self.translator = Translator(config.shape, config.dim,
                                     None, None)

    def _provider(self, t_seen: int):
        table = self.coltrace.table
        first_event_by_pc = self.coltrace.first_event_by_pc

        def provider(pc: int) -> Optional[BasicBlock]:
            first = first_event_by_pc.get(pc)
            if first is None or first >= t_seen:
                return None
            return table.get_by_pc(pc)

        return provider

    def _signature(self, block_id: int, t_pred: int,
                   t_seen: int) -> Tuple[Tuple, int, int, int, int]:
        """(signature, box) of the block's probe universe at one point.

        The signature is the tuple of saturation classes of every
        direction-probed PC at ``t_pred`` followed by the seen-bits of
        every successor threshold at ``t_seen``; the box is the maximal
        (pred, seen) rectangle over which the signature is constant.
        """
        class_span = self.timeline.class_span
        plo, phi = 0, NO_BOUND
        slo, shi = 0, NO_BOUND
        sig = []
        for pc in self._dpcs[block_id]:
            klass, lo, hi = class_span(pc, t_pred)
            sig.append(klass)
            if lo > plo:
                plo = lo
            if hi < phi:
                phi = hi
        for threshold in self._sthr[block_id]:
            if t_seen >= threshold:
                sig.append(1)
                if threshold > slo:
                    slo = threshold
            else:
                sig.append(0)
                if threshold < shi:
                    shi = threshold
        return tuple(sig), plo, phi, slo, shi

    def _probes_hold(self, probes, t_pred: int, t_seen: int) -> bool:
        """Would a stored probe set get the same answers at this point?"""
        class_at = self.timeline.class_at
        first_event_by_pc = self.coltrace.first_event_by_pc
        for kind, pc, answer in probes:
            if kind == PROBE_DIRECTION:
                if class_at(pc, t_pred) != answer:
                    return False
            else:
                first = first_event_by_pc.get(pc)
                seen = first is not None and first < t_seen
                if seen != (answer is not None):
                    return False
        return True

    def translate_at(self, block: BasicBlock, t_pred: int,
                     t_seen: int) -> Optional[_Template]:
        """Template for translating ``block`` at one replay point.

        Soundness of the signature memo: the translator is a
        deterministic sequential prober — its next probe is a function
        of the answers so far.  If two query points agree on the
        answers of *every* PC in the block's probe universe (which
        contains all PCs any past translation of the block probed),
        they take the same probe path, receive the same answers, and
        yield the same template by induction over the probe sequence.
        """
        block_id = block.block_id
        # replay queries only ever come as (p+1, p+1) (translate after a
        # miss at position p) or (p, p+1) (extension attempt at a hit),
        # so (t_seen, t_seen - t_pred) identifies the query point and an
        # int-keyed per-occurrence memo answers repeats — in particular
        # the same point queried by every slot variant of the namespace.
        occ = self._occmemo.get(block_id)
        key = (t_seen << 1) | (t_seen - t_pred)
        if occ is None:
            occ = self._occmemo[block_id] = {}
        else:
            template = occ.get(key, _ABSENT)
            if template is not _ABSENT:
                self.hits += 1
                return template
        box = self._boxes.get(block_id)
        if box is not None:
            plo, phi, slo, shi, template = box
            if plo <= t_pred < phi and slo <= t_seen < shi:
                self.hits += 1
                occ[key] = template
                return template
        known = self._sigmap.get(block_id)
        if known is not None:
            sig, plo, phi, slo, shi = self._signature(block_id,
                                                      t_pred, t_seen)
            template = known.get(sig, _ABSENT)
            if template is _ABSENT:
                # new signature: revalidate stored probe sets before
                # paying for a fresh translation (a past variant may
                # still answer — the new signature merely refines a
                # grown universe).
                for probes, variant in self._probed[block_id]:
                    if self._probes_hold(probes, t_pred, t_seen):
                        template = known[sig] = variant
                        break
            if template is not _ABSENT:
                self.hits += 1
                self._boxes[block_id] = (plo, phi, slo, shi, template)
                occ[key] = template
                return template
        self.misses += 1
        translator = self.translator
        translator.predictor = _PhasePredictor(self.timeline, t_pred)
        translator.block_provider = self._provider(t_seen)
        probe_log: List[Tuple[int, int, object]] = []
        config = translator.translate(block, probe_log)
        template: Optional[_Template] = None
        if config is not None:
            template_key = _template_key(config)
            template = self.templates.get(template_key)
            if template is None:
                path_key = _path_key(config)
                path = self.paths.get(path_key)
                if path is None:
                    path = self.paths[path_key] = _Path(self.coltrace,
                                                        config)
                template = _Template(path, config)
                self.templates[template_key] = template
        # grow the probe universe with any PC this translation touched,
        # then key the result by the signature over the *updated*
        # universe.  Entries keyed by an older (shorter) universe can
        # no longer be matched — harmless, they are just dead weight.
        if known is None:
            known = self._sigmap[block_id] = {}
            self._probed[block_id] = []
            dpcs = self._dpcs[block_id] = []
            sthr = self._sthr[block_id] = []
        else:
            dpcs = self._dpcs[block_id]
            sthr = self._sthr[block_id]
        first_event_by_pc = self.coltrace.first_event_by_pc
        probes = []
        for kind, pc, answer in probe_log:
            if kind == PROBE_DIRECTION:
                # normalize to the timeline vocabulary: saturation class
                probes.append((kind, pc, CLASS_NONE if answer is None
                               else (CLASS_TAKEN if answer
                                     else CLASS_NOT_TAKEN)))
                if pc not in dpcs:
                    dpcs.append(pc)
            else:
                probes.append((kind, pc,
                               None if answer is None else answer.block_id))
                first = first_event_by_pc.get(pc)
                threshold = NO_BOUND if first is None else first + 1
                if threshold not in sthr:
                    sthr.append(threshold)
        self._probed[block_id].append((probes, template))
        sig, plo, phi, slo, shi = self._signature(block_id, t_pred, t_seen)
        known[sig] = template
        # the box over the (possibly grown) universe replaces the old one
        self._boxes[block_id] = (plo, phi, slo, shi, template)
        occ[key] = template
        return template


def _template_key(config: Configuration) -> Tuple:
    """The identity of a translated configuration within one (shape,
    policy) partition: its block chain, kind and dual sides."""
    return (tuple((cb.block.block_id, cb.covered, cb.includes_terminator,
                   cb.expected_taken) for cb in config.blocks),
            config.extendable, config.kind,
            None if config.dual_taken is None else
            (config.dual_taken.block.block_id, config.dual_taken.covered),
            None if config.dual_fallthrough is None else
            (config.dual_fallthrough.block.block_id,
             config.dual_fallthrough.covered))


def _path_key(config: Configuration) -> Tuple:
    """The identity of a configuration's block chain across shapes and
    policies: what :class:`_Path` reads of it, and nothing else."""
    return (tuple((cb.block.block_id, cb.includes_terminator,
                   cb.expected_taken) for cb in config.blocks),
            config.kind, config.blocks[-1].covered == 0)


class ColumnarContext:
    """Shared per-workload state for replaying many configurations.

    Owns the lowered trace, the per-timing cost tables, the per-(shape,
    policy) translation timelines and templates, and the path tables
    every template of one block chain shares whatever its shape or
    policy; one context per workload replaces the per-workload
    :class:`TranslationMemo` of the event path.
    ``alloc_hits``/``alloc_misses`` accumulate the translation reuse
    counters for sweep instrumentation.
    """

    def __init__(self, trace: Trace, name: str = "",
                 coltrace: Optional[ColumnarTrace] = None):
        self.trace = trace
        self.name = name
        self.coltrace = coltrace if coltrace is not None \
            else ColumnarTrace(trace)
        self._miss_tables: Dict[TimingModel, object] = {}
        self._nospec: Dict[Tuple, dict] = {}
        self._residency: Dict[Tuple[bytes, int, str], Tuple] = {}
        self._timelines: Dict[Tuple, _TranslationTimeline] = {}
        self._templates: Dict[Tuple, Dict[Tuple, _Template]] = {}
        self._paths: Dict[Tuple, _Path] = {}
        self.alloc_hits = 0
        self.alloc_misses = 0

    # ------------------------------------------------------------------
    # Normal-execution cost tables (miss path and baseline).
    # ------------------------------------------------------------------
    def miss_table(self, timing: TimingModel):
        """Row ``2*block + taken`` -> the cost row of executing the
        whole block on the core (:func:`~repro.system.costmodel.
        core_row`)."""
        table = self._miss_tables.get(timing)
        if table is None:
            import numpy as np

            model = shared_cost_model(timing)
            blocks = self.coltrace.table.blocks
            table = np.zeros((2 * len(blocks), NFIELDS), dtype=np.int64)
            occurring = self.coltrace.first_occ < self.coltrace.n
            for block in blocks:
                if not occurring[block.block_id]:
                    continue
                for taken in (0, 1):
                    table[2 * block.block_id + taken] = core_row(
                        model, block, taken == 1)
            self._miss_tables[timing] = table
        return table

    def event_totals(self, timing: TimingModel) -> List[int]:
        """Whole-trace normal-execution totals (the MIPS baseline)."""
        import numpy as np

        coltrace = self.coltrace
        counts = np.bincount(coltrace.key2,
                             minlength=2 * coltrace.nblocks)
        return (counts @ self.miss_table(timing)).tolist()

    # ------------------------------------------------------------------
    # Tier A: speculation disabled.
    # ------------------------------------------------------------------
    def nospec_tables(self, config: SystemConfig) -> dict:
        """Per-block translations for a no-speculation policy.

        Translation without speculation makes no predictor/provider
        probes, so each block has exactly one outcome per (shape,
        policy): a one-block configuration, or None when uncacheable.
        Holds the configurations (without their placement records,
        which pricing never reads), their covered counts and
        cacheability as columns, and their exit-code rows per timing
        model.
        """
        key = (config.shape, policy_key(config.dim))
        tables = self._nospec.get(key)
        if tables is None:
            import numpy as np

            blocks = self.coltrace.table.blocks
            translator = Translator(config.shape, config.dim, None, None)
            occurring = self.coltrace.first_occ < self.coltrace.n
            configs = [translator.translate(block)
                       if occurring[block.block_id] else None
                       for block in blocks]
            configs = [None if translated is None else replace(
                translated, result=replace(translated.result,
                                           placements=()))
                       for translated in configs]
            tables = {
                "configs": configs,
                "covered": np.array(
                    [0 if translated is None
                     else translated.covered_instructions
                     for translated in configs], dtype=np.int64),
                "cacheable": np.array(
                    [translated is not None for translated in configs],
                    dtype=bool),
                "rows": {}}
            self._nospec[key] = tables
        return tables

    def residency(self, cacheable, slots: int, policy: str) -> Tuple:
        """(hit mask, insertion positions, evictions) of the FIFO/LRU
        residency walk of a no-speculation cache under capacity
        pressure.

        Without speculation a block's hit depends only on which blocks
        can be cached, the cache size and the replacement policy — not
        on the array shape — so the walk is memoized on exactly that
        key and shared by every shape whose translations cache the same
        blocks.  Only cacheable events enter the cache; a miss on the
        last event translates nothing and so inserts nothing.
        """
        key = (cacheable.tobytes(), slots, policy)
        walk = self._residency.get(key)
        if walk is None:
            import numpy as np

            n = self.coltrace.n
            last = n - 1
            cacheable_list = cacheable.tolist()
            hit = bytearray(n)
            inserts = array("q")
            evictions = 0
            lru = policy == "lru"
            # insertion-ordered residency, as in _replay_spec: the first
            # key is the next victim; only LRU moves a hit block to the
            # back.
            occupancy: Dict[int, None] = {}
            for position, b in enumerate(self.coltrace.ev_list):
                if not cacheable_list[b]:
                    continue
                if b in occupancy:
                    hit[position] = 1
                    if lru:
                        del occupancy[b]
                        occupancy[b] = None
                elif position < last:
                    if len(occupancy) >= slots:
                        del occupancy[next(iter(occupancy))]
                        evictions += 1
                    occupancy[b] = None
                    inserts.append(position)
            hit_mask = np.frombuffer(hit, dtype=bool)
            positions = np.frombuffer(inserts, dtype=np.int64)
            hit_mask.flags.writeable = False
            positions.flags.writeable = False
            walk = self._residency[key] = (hit_mask, positions, evictions)
        return walk

    # ------------------------------------------------------------------
    # Tier B plumbing.
    # ------------------------------------------------------------------
    def translation_timeline(
            self, config: SystemConfig) -> _TranslationTimeline:
        key = (config.shape, policy_key(config.dim),
               config.dim.predictor_entries)
        timeline = self._timelines.get(key)
        if timeline is None:
            template_key = (config.shape, policy_key(config.dim))
            templates = self._templates.get(template_key)
            if templates is None:
                templates = self._templates[template_key] = {}
            timeline = _TranslationTimeline(
                self.coltrace, config,
                self.coltrace.timeline(config.dim.predictor_entries),
                templates, self._paths)
            self._timelines[key] = timeline
        return timeline


# ----------------------------------------------------------------------
# Public entry points.
# ----------------------------------------------------------------------
def baseline_metrics_columnar(context: ColumnarContext,
                              timing: Optional[TimingModel] = None
                              ) -> SystemMetrics:
    """Columnar equivalent of :func:`traceeval.baseline_metrics`."""
    return SystemMetrics.from_totals(
        "mips", context.event_totals(timing or TimingModel()))


def _finish_metrics(name: str, config: SystemConfig, totals: List[int],
                    stats: DimStats, lookups: int, hits: int,
                    insertions: int, evictions: int, invalidations: int,
                    timeline: PredictorTimeline) -> SystemMetrics:
    stats.misspeculations = totals[MIS]
    return SystemMetrics.from_totals(
        name or config.name, totals,
        dim=stats,
        cache_lookups=lookups,
        cache_hits=hits,
        cache_insertions=insertions,
        cache_evictions=evictions,
        cache_invalidations=invalidations,
        predictor_accuracy=timeline.hits / timeline.updates
        if timeline.updates else 0.0,
    )


def _replay_nospec(context: ColumnarContext, config: SystemConfig,
                   name: str) -> SystemMetrics:
    """Tier A: vectorized replay of a no-speculation system."""
    import numpy as np

    coltrace = context.coltrace
    n = coltrace.n
    tables = context.nospec_tables(config)
    cacheable = tables["cacheable"]
    covered = tables["covered"]
    ev = coltrace.ev
    event_cacheable = cacheable[ev]

    slots = config.dim.cache_slots
    distinct_cacheable = int(np.count_nonzero(
        cacheable & (coltrace.first_occ < n)))
    stats = DimStats()
    evictions = 0
    if distinct_cacheable <= slots:
        # the working set fits: a cacheable block hits on every
        # occurrence after its first, and nothing is ever evicted.
        hit_mask = event_cacheable & (coltrace.rank > 0)
        miss_head = ~hit_mask[:n - 1] if n else hit_mask[:0]
        stats.translations = int(np.count_nonzero(miss_head))
        insert_mask = miss_head & event_cacheable[:n - 1]
        insertions = int(np.count_nonzero(insert_mask))
        stats.translated_instructions = int(
            covered[ev[:n - 1]][insert_mask].sum())
    else:
        # capacity pressure: the FIFO/LRU walk over cacheable events,
        # shared by every shape caching the same blocks (uncacheable
        # blocks never enter the cache and are folded in vectorially).
        hit_mask, inserts, evictions = context.residency(
            cacheable, slots, config.dim.cache_policy)
        insertions = len(inserts)
        stats.translations = insertions + int(
            np.count_nonzero(~event_cacheable[:n - 1]))
        stats.translated_instructions = int(covered[ev[inserts]].sum())
    stats.config_writes = insertions

    key2 = coltrace.key2
    nrows = 2 * coltrace.nblocks
    totals = (np.bincount(key2[~hit_mask], minlength=nrows)
              @ context.miss_table(config.timing)).tolist()
    # a hit executes its block's one-block configuration, exiting by
    # the tail's outcome: exit code 1 (not taken) or 2 (taken).
    hit_counts = np.bincount(key2[hit_mask], minlength=nrows).tolist()
    rows = tables["rows"].get(config.timing)
    if rows is None:
        model = shared_cost_model(config.timing)
        rows = tables["rows"][config.timing] = [
            None if translated is None else exit_rows(translated, model)
            for translated in tables["configs"]]
    configs = tables["configs"]
    for b in np.flatnonzero(cacheable).tolist():
        not_taken, taken = hit_counts[2 * b], hit_counts[2 * b + 1]
        if not_taken or taken:
            fold_executions(totals, stats, configs[b],
                            (0, not_taken, taken, 0), rows[b], config.dim)

    timeline = coltrace.timeline(config.dim.predictor_entries)
    return _finish_metrics(name, config, totals, stats, n,
                           int(np.count_nonzero(hit_mask)), insertions,
                           evictions, 0, timeline)


def _replay_spec(context: ColumnarContext, config: SystemConfig,
                 name: str) -> SystemMetrics:
    """Tier B: indexed sequential replay of a speculating system.

    One Python iteration per *cache transaction* (not per metric), with
    every decision reduced to a precomputed list lookup.  Entries are
    flat lists ``[path, misspec_count, extendable, code_stats, codes,
    consumed, flush_opp, ext_gate, kindcode, template]``: the chain's
    shared tables first, the template (shape-dependent costs) last,
    read only when an extension compares coverage.  ``code_stats`` is
    shared per template so exit-code counts aggregate across
    reinsertion, with one trailing slot that accumulates extra loop
    trips (always zero for other kinds).  Loop and dual templates
    dispatch on ``kindcode``: their flush/retire verdicts are answered
    inline from the predictor timeline because the query boundary
    depends on the per-execution trip count, and loop exits are walked
    on demand (``_Path.loop_exit``) rather than precomputed per rank.
    """
    import numpy as np

    coltrace = context.coltrace
    params = config.dim
    timeline = coltrace.timeline(params.predictor_entries)
    translation = context.translation_timeline(config)
    translate_at = translation.translate_at
    blocks = coltrace.table.blocks

    ev = coltrace.ev_list
    rank = coltrace.rank_list
    n = coltrace.n
    last = n - 1
    slots = params.cache_slots
    lru = params.cache_policy == "lru"
    threshold = params.misspec_flush_threshold

    nrows = 2 * coltrace.nblocks
    miss_counts = [0] * nrows
    code_stats: Dict[_Template, List[int]] = {}
    protos: Dict[_Template, list] = {}
    cache: Dict[int, list] = {}
    cache_get = cache.get
    hits = misses = 0
    insertions = evictions = invalidations = 0
    translations = extensions = flushes = 0
    translated_instructions = 0
    writes = [0, 0, 0]  # configuration writes per kindcode
    loop_retired = dual_retired = 0
    tk = coltrace.tk_list
    class_at = timeline.class_at

    def fresh_entry(template: _Template) -> list:
        # prototype per template: reinsertion after a flush only needs a
        # shallow copy (slots 1-2 are the entry's private scalars; the
        # stats list is intentionally shared across reinsertion).
        proto = protos.get(template)
        if proto is None:
            path = template.path
            kindcode = path.kindcode
            st = code_stats[template] = [0] * (path.ncodes + 1)
            if kindcode == 0:
                proto = protos[template] = [
                    path, 0, template.extendable0, st, path.code_list,
                    path.consumed, path.flush_opp(timeline),
                    path.ext_gate(timeline)
                    if template.extendable0 else None, 0, template]
            else:
                # loop/dual configurations are closed: never extendable,
                # verdicts answered inline from the timeline.
                proto = protos[template] = [
                    path, 0, False, st, path.code_list, path.consumed,
                    None, None, kindcode, template]
        return proto.copy()

    i = 0
    while i < n:
        b = ev[i]
        entry = cache_get(b)
        if entry is None:
            misses += 1
            miss_counts[2 * b + tk[i]] += 1
            if i < last:
                # consider_translation: peek is a guaranteed miss here
                template = translate_at(blocks[b], i + 1, i + 1)
                translations += 1
                if template is not None:
                    translated_instructions += \
                        template.covered_instructions
                    writes[template.path.kindcode] += 1
                    if len(cache) >= slots:
                        del cache[next(iter(cache))]
                        evictions += 1
                    cache[b] = fresh_entry(template)
                    insertions += 1
            i += 1
            continue

        hits += 1
        if lru:
            del cache[b]
            cache[b] = entry
        path = entry[0]
        # ---- maybe_extend --------------------------------------------
        if entry[2]:
            if path.last_term_none:
                entry[2] = False
            else:
                gate = entry[7]
                if gate is None or gate[rank[i]]:
                    translations += 1
                    new = translate_at(blocks[b], i, i + 1)
                    if new is not None and new.covered_instructions \
                            > entry[9].covered_instructions:
                        extensions += 1
                        translated_instructions += \
                            new.covered_instructions
                        entry = fresh_entry(new)
                        path = entry[0]
                        writes[path.kindcode] += 1
                        cache[b] = entry   # in-place slot rewrite
                    else:
                        entry[2] = new is not None and new.extendable0

        # ---- array execution (precomputed exit) ----------------------
        kindcode = entry[8]
        if kindcode == 0:
            r = rank[i]
            code = entry[4][r]
            entry[3][code] += 1
            if code >= 3:
                count = 1 if path.prior_reset[code - 3] \
                    else entry[1] + 1
                entry[1] = count
                if entry[6][r] or count >= threshold:
                    del cache[b]
                    flushes += 1
                    invalidations += 1
            elif path.reset_exit:
                entry[1] = 0
            i += entry[5][code]
        elif kindcode == 1:
            # loop: the back-edge resets the mis-speculation count every
            # trip; a clean exit retires the configuration (not a flush)
            # when the counter saturated in the exit direction.  Verdict
            # boundaries sit right after the exit's own update, i.e. at
            # ``i + consumed`` (engine.loop_backedge updates first).
            code, trips, consumed = path.loop_exit(i)
            st = entry[3]
            st[code] += 1
            st[-1] += trips
            if code == 0:
                entry[1] = 0
                if class_at(path.last_branch_pc, i + consumed) \
                        == path.back_opp:
                    del cache[b]
                    invalidations += 1
                    loop_retired += 1
            else:
                m = code - 1
                count = 1 if (trips or path.prior_reset[m]) \
                    else entry[1] + 1
                entry[1] = count
                if count >= threshold or class_at(
                        path.int_pcs[m], i + consumed) \
                        == path.int_opps[m]:
                    del cache[b]
                    flushes += 1
                    invalidations += 1
            i += consumed
        else:
            # dual: resolution always resets the count (predication is
            # not a mis-speculation) and retires the configuration once
            # the branch saturates either way, clearing the slot for a
            # deeper speculative rebuild (engine.dual_resolution).
            r = rank[i]
            code = entry[4][r]
            entry[3][code] += 1
            if code < 4:
                entry[1] = 0
                if class_at(path.last_branch_pc,
                            i + path.K) != CLASS_NONE:
                    del cache[b]
                    invalidations += 1
                    dual_retired += 1
            else:
                m = code - 4
                count = 1 if path.prior_reset[m] else entry[1] + 1
                entry[1] = count
                if count >= threshold or class_at(
                        path.int_pcs[m], i + m + 1) \
                        == path.int_opps[m]:
                    del cache[b]
                    flushes += 1
                    invalidations += 1
            i += entry[5][code]

    # ---- pricing ------------------------------------------------------
    totals = (np.asarray(miss_counts, dtype=np.int64)
              @ context.miss_table(config.timing)).tolist()
    stats = DimStats(
        translations=translations,
        translated_instructions=translated_instructions,
        extensions=extensions,
        flushes=flushes,
        config_writes=sum(writes),
        loop_configs=writes[1],
        dual_configs=writes[2],
        loop_retired=loop_retired,
        dual_retired=dual_retired,
    )
    for template, st in code_stats.items():
        fold_executions(totals, stats, template.config, st,
                        template.rows(config.timing), params)
        if template.path.kindcode == 2:
            # the losing side's instructions were placed but never
            # commit (engine.dual_resolution).
            dual_config = template.config
            stats.dual_squashed_instructions += \
                (st[0] + st[1]) * dual_config.dual_taken.covered \
                + (st[2] + st[3]) * dual_config.dual_fallthrough.covered

    context.alloc_hits += translation.hits
    context.alloc_misses += translation.misses
    translation.hits = 0
    translation.misses = 0
    return _finish_metrics(name, config, totals, stats, hits + misses,
                           hits, insertions, evictions, invalidations,
                           timeline)


def evaluate_trace_columnar(trace: Trace, config: SystemConfig,
                            name: str = "",
                            context: Optional[ColumnarContext] = None
                            ) -> SystemMetrics:
    """Columnar equivalent of :func:`traceeval.evaluate_trace`.

    Bit-identical metrics by construction (and by differential test);
    pass a shared ``context`` to amortize lowering and translation
    across many configurations of one trace.
    """
    if context is None:
        context = ColumnarContext(trace, name)
    if config.dim.speculation:
        return _replay_spec(context, config, name)
    return _replay_nospec(context, config, name)
