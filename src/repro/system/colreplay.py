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

- **per-block cost tables** — the metric deltas of executing a block
  normally (miss path / baseline) or from the array (hit path) are
  static per (block, terminator outcome), so totals are one
  ``bincount`` + matrix product over the event columns;
- **per-occurrence decision columns** — every translation, extension
  gate, speculation verdict and flush trigger depends on the predictor
  only through ``saturated_direction`` at a known event boundary, which
  the precomputed timeline answers without replaying the predictor.

Two engines cover the configuration space:

- **Tier A** (``speculation=False``): translations make *zero*
  predictor/provider probes, so the whole replay vectorizes — the only
  sequential piece is the FIFO/LRU occupancy simulation, and even that
  collapses to a rank test when the working set fits the cache.
- **Tier B** (speculation): the reconfiguration-cache state machine is
  genuinely sequential, but each iteration reduces to list lookups: a
  configuration's exit outcome at its ``r``-th occurrence (commit /
  reprocess / mis-speculate at depth ``m``) is precomputed as an *exit
  code*, and each code indexes a per-template metric-delta row, an
  events-consumed count and a flush verdict.  The dynamic control-flow
  kinds (``repro.dim.params.DYNFLOW_MODES``) extend the same machinery:
  dual-path templates add four resolution codes (actual direction x
  winner-tail outcome), and loop templates — whose consumed-event count
  varies with the trip count — are walked on demand, with per-trip
  costs folded in as a rank-independent trip row.

Exit codes of a configuration of ``K`` blocks ``B0..B(K-1)``, by kind
(``m`` is the depth of the first interior merged branch whose outcome
differs from its ``expected_taken``: a mis-speculation consuming
``m+1`` events, plus ``K`` per extra trip of a loop):

=======  ===========================================  ==========
kind     all interior merged branches match           mismatch
=======  ===========================================  ==========
linear   0 — final block covers nothing: reprocess,   ``3+m``
         ``K-1`` events consumed;
         1 / 2 — final tail not taken / taken,
         ``K`` events consumed
loop     0 — clean back-edge exit after the walked    ``1+m``
         trips (codes, trips and consumed counts
         are walked per execution)
dual     0–3 — ``2*actual + successor taken``: the    ``4+m``
         predicated branch's direction and the
         winner block's own terminator outcome,
         ``K+1`` events consumed
=======  ===========================================  ==========

Both tiers are **bit-identical** to :func:`evaluate_trace` — same
cycles, same :class:`DimStats`, same cache counters, same serialized
JSON — enforced by the differential tests in ``tests/test_colreplay.py``
across every workload and a grid of configurations.  The comments below
cite the event-engine lines they mirror; change those, change these.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cgra.configuration import Configuration
from repro.dim.engine import DimStats
from repro.dim.memo import policy_key
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
from repro.system.costmodel import shared_cost_model
from repro.system.metrics import SystemMetrics, _prefix_mem_ops

#: occurrence-memo sentinel (None is a valid "no translation" answer).
_ABSENT = object()

__all__ = [
    "ColumnarContext",
    "baseline_metrics_columnar",
    "evaluate_trace_columnar",
]

#: metric-delta column indices shared by every cost table.  CYC excludes
#: reconfiguration stalls and mis-speculation penalties (applied from
#: per-template execution counts and the MIS column); COM is the array's
#: committed-instruction count (``DimStats.array_instructions``).
CYC, INS, FET, LDS, STS, BRA, TAK, LUS, HILO, SYS, COM, MIS = range(12)
NFIELDS = 12

#: occurrence counts from which a template's exit codes, and its
#: extension-gate / flush verdicts, are computed with numpy instead of
#: a scalar walk: below them numpy's per-call overhead dominates.  Both
#: forms give identical lists (tests/test_colreplay_forks.py forces
#: each side).
EXIT_CODES_NUMPY_MIN = 256
VERDICTS_NUMPY_MIN = 48


def _add_tail_cost(row, cost, block, taken: bool) -> None:
    """Add the normal-execution ``cost`` of ``block``'s tail, leaving
    ``taken`` or not, to a 12-field ``row`` whose COM column already
    counts the instructions committed ahead of the tail."""
    row[CYC] += cost.cycles(taken)
    row[INS] = row[COM] + cost.instructions
    row[FET] += cost.fetches
    row[LDS] += cost.loads
    row[STS] += cost.stores
    row[BRA] += cost.branches
    row[LUS] += cost.load_use_stalls
    row[HILO] += cost.hilo_stalls
    row[SYS] += cost.syscalls
    terminator = block.terminator
    if terminator is not None and (
            terminator.klass is InstrClass.JUMP or taken):
        row[TAK] += 1


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


class _Template:
    """One distinct translated configuration of a start block.

    Everything the replay loop needs per execution is precomputed here,
    most importantly the **exit codes** of the module table: a linear or
    dual configuration's exit at its ``r``-th trace occurrence depends
    only on the trace slice there, so it is one pass per template; each
    code then indexes the metric-delta row (per timing model) and the
    consumed count.  Loop exits are walked per execution
    (:meth:`loop_exit`).  The per-occurrence columns (exit codes,
    extension gates, flush verdicts) are ``bytes``, one byte per
    occurrence: a large row holds hundreds of templates with thousands
    of occurrences each, and a list would spend eight bytes on each.
    """

    __slots__ = ("config", "start_block", "blocks", "covered_instructions",
                 "exec_cycles", "rc_cycles", "alu_ops", "mult_ops",
                 "mem_ops", "lines_used", "extendable0", "last_term_none",
                 "gate_always", "last_branch_pc", "K", "ncodes", "consumed",
                 "reset_exit", "prior_reset", "code_list", "_deltas",
                 "_gates", "_opps", "_coltrace", "kind", "kindcode", "chk",
                 "trip_cycles", "_trip_row", "int_pcs", "int_opps",
                 "back_expected_bit", "back_opp", "_merged_cond")

    def __init__(self, coltrace: ColumnarTrace, config: Configuration):
        # the lowered trace, not its context: a template the context
        # holds must not point back at it (the row would be a cycle).
        self._coltrace = coltrace
        self.config = config
        self.blocks = config.blocks
        self.start_block = config.blocks[0].block
        self.covered_instructions = config.covered_instructions
        self.exec_cycles = config.exec_cycles
        self.rc_cycles = config.reconfiguration_cycles
        result = config.result
        self.alu_ops = result.alu_ops
        self.mult_ops = result.mult_ops
        self.mem_ops = result.mem_ops
        self.lines_used = result.lines_used
        self.extendable0 = config.extendable
        self.kind = config.kind
        self.kindcode = {"linear": 0, "loop": 1, "dual": 2}[config.kind]
        self.chk = config.loop_check_cycles
        self.trip_cycles = config.trip_cycles
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
        # per occurrence by flush_opp for linear templates).
        self.int_pcs = [cb.block.branch_pc for cb in config.blocks[:K - 1]]
        self.int_opps = [0 if cb.expected_taken else 1
                         for cb in config.blocks[:K - 1]]
        #: (depth, expected taken bit) of every interior merged branch.
        self._merged_cond = [
            (m, 1 if config.blocks[m].expected_taken else 0)
            for m in range(K - 1) if merged_branch[m]]
        self._deltas: Dict[TimingModel, List[List[int]]] = {}
        self._gates: Dict[int, Optional[bytes]] = {}
        self._opps: Dict[int, bytes] = {}
        self._trip_row: Optional[List[int]] = None
        self.back_expected_bit = 0
        self.back_opp = 0
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
            self.ncodes = K
        elif self.kindcode == 2:
            self.ncodes = 4 + (K - 1)
            self.consumed = [K + 1] * 4 + mismatches
            self.code_list = self._exit_codes(4, 0, ((K - 1, 2), (K, 1)))
        else:
            self.ncodes = 3 + (K - 1)
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
        coltrace = self._coltrace
        positions = coltrace.occ[self.start_block.block_id]
        last_event = coltrace.n - 1
        merged = self._merged_cond
        if len(positions) < EXIT_CODES_NUMPY_MIN:
            tk = coltrace.tk_list
            # fixed arity: a zero-weight pad term adds nothing.
            (o1, w1), (o2, w2) = (terms + ((0, 0), (0, 0)))[:2]
            codes = []
            for position in positions.tolist():
                for m, expected in merged:
                    if tk[min(position + m, last_event)] != expected:
                        codes.append(mis_base + m)
                        break
                else:
                    codes.append(base
                                 + w1 * tk[min(position + o1, last_event)]
                                 + w2 * tk[min(position + o2, last_event)])
            return bytes(codes) if self.ncodes <= 256 else codes
        import numpy as np

        tk = coltrace.tk
        codes = np.full(len(positions), base, dtype=np.int64)
        for offset, weight in terms:
            codes += weight * tk[np.minimum(positions + offset, last_event)]
        # earliest mismatched merged branch wins: walk depths ascending,
        # assigning only still-pending occurrences.
        pending = np.ones(len(positions), dtype=bool)
        for m, expected in merged:
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

    def _chain(self, mis_base: int) -> Tuple[List[List[int]], List[int]]:
        """(rows, run) of the merged-chain walk every kind starts with.

        ``rows`` has one row per exit code, of which only the
        mis-speculation rows (``mis_base + q`` for a merged branch at
        depth ``q``) are filled; ``run`` is the running total after the
        final block's covered prefix, before its terminator.
        """
        rows = [[0] * NFIELDS for _ in range(self.ncodes)]
        run = [0] * NFIELDS
        run[CYC] = self.exec_cycles
        K = self.K
        for q, cfg_block in enumerate(self.blocks):
            block = cfg_block.block
            loads, stores = _prefix_mem_ops(block, cfg_block.covered)
            run[COM] += cfg_block.covered
            run[LDS] += loads
            run[STS] += stores
            if q == K - 1:
                break
            if block.is_conditional:
                # this merged branch mis-speculated: its terminator
                # still committed and the actual direction is the
                # opposite of the expected one.
                mis = list(run)
                mis[COM] += 1
                mis[BRA] += 1
                if not cfg_block.expected_taken:
                    mis[TAK] += 1
                mis[MIS] = 1
                mis[INS] = mis[COM]
                rows[mis_base + q] = mis
            # matched merged terminator: committed + branch, transfer
            # taken for jumps and taken-expected branches.
            run[COM] += 1
            run[BRA] += 1
            if not block.is_conditional or cfg_block.expected_taken:
                run[TAK] += 1
        return rows, run

    def delta(self, timing: TimingModel) -> List[List[int]]:
        """Metric-delta rows, one per exit code, under one timing model.

        Mirrors the array-execution walk of ``evaluate_trace`` (and its
        ``_run_loop`` / ``_run_dual`` variants) with the running totals
        checkpointed at every possible exit.
        """
        rows = self._deltas.get(timing)
        if rows is not None:
            return rows
        model = shared_cost_model(timing)
        if self.kindcode == 1:
            # loop base (zero-extra-trip) rows.  Row 0 is the clean
            # back-edge exit of the first trip: it pays the exit check
            # and its transfer goes the non-looping direction.  Row 1+m
            # is an interior mis-speculation before any back-edge was
            # reached, so no check is charged.  Executions with extra
            # trips add trip_row() once per trip (traceeval._run_loop).
            rows, row = self._chain(1)
            row[CYC] += self.chk
            row[COM] += 1
            row[BRA] += 1
            if not self.blocks[-1].expected_taken:
                row[TAK] += 1
            row[INS] = row[COM]
            rows[0] = row
        elif self.kindcode == 2:
            # dual: the predicated terminator always commits, then each
            # resolution code adds the winning side's covered prefix plus
            # the normal-execution cost of the winner block's tail
            # (traceeval._run_dual).
            rows, run = self._chain(4)
            run[COM] += 1
            run[BRA] += 1
            config = self.config
            for actual, side in ((0, config.dual_fallthrough),
                                 (1, config.dual_taken)):
                wblk = side.block
                wloads, wstores = _prefix_mem_ops(wblk, side.covered)
                cost = model.cost(wblk, side.covered)
                for succ in (0, 1):
                    row = list(run)
                    row[TAK] += actual
                    row[COM] += side.covered
                    row[LDS] += wloads
                    row[STS] += wstores
                    _add_tail_cost(row, cost, wblk, succ == 1)
                    rows[2 * actual + succ] = row
        else:
            rows, run = self._chain(3)
            last = self.blocks[-1]
            if last.covered == 0:
                run[INS] = run[COM]
                rows[0] = run
            else:
                cost = model.cost(last.block, last.covered)
                for taken, code in ((False, 1), (True, 2)):
                    row = list(run)
                    _add_tail_cost(row, cost, last.block, taken)
                    rows[code] = row
        self._deltas[timing] = rows
        return rows

    def trip_row(self) -> List[int]:
        """Metric delta of one extra loop trip (timing-independent).

        A continuation re-executes the whole chain (all terminators
        included), pays the marginal dataflow depth plus the exit check,
        and its back-edge transfers in the looping direction.
        """
        row = self._trip_row
        if row is None:
            row = [0] * NFIELDS
            row[CYC] = self.trip_cycles + self.chk
            K = self.K
            for q, cfg_block in enumerate(self.blocks):
                block = cfg_block.block
                loads, stores = _prefix_mem_ops(block, cfg_block.covered)
                row[COM] += cfg_block.covered + 1
                row[LDS] += loads
                row[STS] += stores
                row[BRA] += 1
                if q == K - 1:
                    if cfg_block.expected_taken:
                        row[TAK] += 1
                elif not block.is_conditional or cfg_block.expected_taken:
                    row[TAK] += 1
            row[INS] = row[COM]
            self._trip_row = row
        return row

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
            positions = self._coltrace.occ[self.start_block.block_id]
            if len(positions) < VERDICTS_NUMPY_MIN:
                pc = self.last_branch_pc
                gate = bytes(timeline.class_at(pc, t) != CLASS_NONE
                             for t in positions.tolist())
            else:
                classes = timeline.class_for_many(self.last_branch_pc,
                                                  positions)
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
            positions = self._coltrace.occ[self.start_block.block_id]
            if len(positions) < VERDICTS_NUMPY_MIN:
                opp = bytearray(len(positions))
                for index, (position, code) in enumerate(
                        zip(positions.tolist(), self.code_list)):
                    if code < 3:
                        continue
                    m = code - 3
                    opp[index] = timeline.class_at(
                        self.int_pcs[m], position + m + 1) \
                        == self.int_opps[m]
                opp = bytes(opp)
            else:
                import numpy as np

                codes = np.fromiter(self.code_list, dtype=np.int64,
                                    count=len(positions))
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

    __slots__ = ("coltrace", "translator", "timeline", "templates", "_dpcs",
                 "_sthr", "_sigmap", "_probed", "_occmemo", "_boxes",
                 "hits", "misses")

    def __init__(self, coltrace: ColumnarTrace, config: SystemConfig,
                 timeline: PredictorTimeline,
                 templates: Dict[Tuple, _Template]):
        self.coltrace = coltrace
        self.timeline = timeline
        self.templates = templates
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
                template = _Template(self.coltrace, config)
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


class ColumnarContext:
    """Shared per-workload state for replaying many configurations.

    Owns the lowered trace, the per-timing cost tables and the
    per-(shape, policy) translation caches; one context per workload
    replaces the per-workload :class:`TranslationMemo` of the event
    path.  ``alloc_hits``/``alloc_misses`` accumulate the translation
    reuse counters for sweep instrumentation.
    """

    def __init__(self, trace: Trace, name: str = "",
                 coltrace: Optional[ColumnarTrace] = None):
        self.trace = trace
        self.name = name
        self.coltrace = coltrace if coltrace is not None \
            else ColumnarTrace(trace)
        self._miss_tables: Dict[TimingModel, object] = {}
        self._nospec: Dict[Tuple, dict] = {}
        self._nospec_exec: Dict[Tuple, object] = {}
        self._timelines: Dict[Tuple, _TranslationTimeline] = {}
        self._templates: Dict[Tuple, Dict[Tuple, _Template]] = {}
        self.alloc_hits = 0
        self.alloc_misses = 0

    # ------------------------------------------------------------------
    # Normal-execution cost tables (miss path and baseline).
    # ------------------------------------------------------------------
    def miss_table(self, timing: TimingModel):
        """Row ``2*block + taken`` -> the 12 metric deltas of executing
        the whole block normally (traceeval's ``_account_normal``)."""
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
                cost = model.cost(block, 0)
                for taken in (0, 1):
                    row = [0] * NFIELDS
                    _add_tail_cost(row, cost, block, taken == 1)
                    table[2 * block.block_id + taken] = row
            self._miss_tables[timing] = table
        return table

    def event_totals(self, timing: TimingModel):
        """Whole-trace normal-execution totals (the MIPS baseline)."""
        import numpy as np

        coltrace = self.coltrace
        counts = np.bincount(coltrace.key2,
                             minlength=2 * coltrace.nblocks)
        return counts @ self.miss_table(timing)

    # ------------------------------------------------------------------
    # Tier A: speculation disabled.
    # ------------------------------------------------------------------
    def nospec_tables(self, config: SystemConfig) -> dict:
        """Per-block translation columns for a no-speculation policy.

        Translation without speculation makes no predictor/provider
        probes, so each block has exactly one outcome per (shape,
        policy): covered prefix length, cacheability, execution cycles,
        reconfiguration stall and the per-execution op counts.
        """
        key = (config.shape, policy_key(config.dim))
        tables = self._nospec.get(key)
        if tables is None:
            import numpy as np

            blocks = self.coltrace.table.blocks
            nblocks = len(blocks)
            translator = Translator(config.shape, config.dim, None, None)
            occurring = self.coltrace.first_occ < self.coltrace.n
            covered = np.zeros(nblocks, dtype=np.int64)
            cacheable = np.zeros(nblocks, dtype=bool)
            exec_cycles = np.zeros(nblocks, dtype=np.int64)
            stall = np.zeros(nblocks, dtype=np.int64)
            alu = np.zeros(nblocks, dtype=np.int64)
            mult = np.zeros(nblocks, dtype=np.int64)
            mem = np.zeros(nblocks, dtype=np.int64)
            lines = np.zeros(nblocks, dtype=np.int64)
            overlap = config.dim.reconfig_overlap
            for block in blocks:
                if not occurring[block.block_id]:
                    continue
                translated = translator.translate(block)
                if translated is None:
                    continue
                b = block.block_id
                cacheable[b] = True
                covered[b] = translated.covered_instructions
                exec_cycles[b] = translated.exec_cycles
                stall[b] = max(0, translated.reconfiguration_cycles
                               - overlap)
                result = translated.result
                alu[b] = result.alu_ops
                mult[b] = result.mult_ops
                mem[b] = result.mem_ops
                lines[b] = result.lines_used
            tables = {"covered": covered, "cacheable": cacheable,
                      "exec_cycles": exec_cycles, "stall": stall,
                      "alu": alu, "mult": mult, "mem": mem, "lines": lines}
            self._nospec[key] = tables
        return tables

    def nospec_exec_table(self, config: SystemConfig,
                          tables: dict):
        """Row ``2*block + taken`` -> hit-path metric deltas (array
        execution of the covered prefix + normal tail)."""
        key = (config.shape, policy_key(config.dim), config.timing)
        table = self._nospec_exec.get(key)
        if table is None:
            import numpy as np

            model = shared_cost_model(config.timing)
            blocks = self.coltrace.table.blocks
            table = np.zeros((2 * len(blocks), NFIELDS), dtype=np.int64)
            cacheable = tables["cacheable"]
            covered = tables["covered"]
            exec_cycles = tables["exec_cycles"]
            for block in blocks:
                b = block.block_id
                if not cacheable[b]:
                    continue
                prefix = int(covered[b])
                loads, stores = _prefix_mem_ops(block, prefix)
                cost = model.cost(block, prefix)
                for taken in (0, 1):
                    row = [0] * NFIELDS
                    row[CYC] = int(exec_cycles[b])
                    row[LDS] = loads
                    row[STS] = stores
                    row[COM] = prefix
                    _add_tail_cost(row, cost, block, taken == 1)
                    table[2 * b + taken] = row
            self._nospec_exec[key] = table
        return table

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
                templates)
            self._timelines[key] = timeline
        return timeline


# ----------------------------------------------------------------------
# Public entry points.
# ----------------------------------------------------------------------
def _metrics(name: str, totals, **dim_fields) -> SystemMetrics:
    """:class:`SystemMetrics` from the 12-field ``totals``, plus any
    DIM and cache fields."""
    return SystemMetrics(
        name=name,
        cycles=int(totals[CYC]),
        instructions=int(totals[INS]),
        fetches=int(totals[FET]),
        loads=int(totals[LDS]),
        stores=int(totals[STS]),
        branches=int(totals[BRA]),
        taken_transfers=int(totals[TAK]),
        load_use_stalls=int(totals[LUS]),
        hilo_stalls=int(totals[HILO]),
        syscalls=int(totals[SYS]),
        **dim_fields,
    )


def baseline_metrics_columnar(context: ColumnarContext,
                              timing: Optional[TimingModel] = None
                              ) -> SystemMetrics:
    """Columnar equivalent of :func:`traceeval.baseline_metrics`."""
    return _metrics("mips", context.event_totals(timing or TimingModel()))


def _finish_metrics(name: str, config: SystemConfig, fields,
                    stats: DimStats, lookups: int, hits: int,
                    insertions: int, evictions: int, invalidations: int,
                    timeline: PredictorTimeline) -> SystemMetrics:
    stats.misspeculations = int(fields[MIS])
    stats.array_instructions = int(fields[COM])
    return _metrics(
        name or config.name, fields,
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
    """Tier A: fully-vectorized replay of a no-speculation system."""
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
        # capacity pressure: simulate FIFO/LRU occupancy over cacheable
        # events only (uncacheable blocks never enter the cache and are
        # folded in vectorially below).
        insertions = 0
        translations = 0
        translated_instructions = 0
        covered_list = covered.tolist()
        last = n - 1
        positions = np.flatnonzero(event_cacheable)
        bids = ev[positions].tolist()
        hit_positions: List[int] = []
        append_hit = hit_positions.append
        # insertion-ordered residency, as in _replay_spec: the first key
        # is the next victim; only LRU moves a hit block to the back.
        lru = config.dim.cache_policy == "lru"
        occupancy: Dict[int, None] = {}
        for position, b in zip(positions.tolist(), bids):
            if b in occupancy:
                append_hit(position)
                if lru:
                    del occupancy[b]
                    occupancy[b] = None
            elif position < last:
                translations += 1
                translated_instructions += covered_list[b]
                if len(occupancy) >= slots:
                    del occupancy[next(iter(occupancy))]
                    evictions += 1
                occupancy[b] = None
                insertions += 1
        hit_mask = np.zeros(n, dtype=bool)
        if hit_positions:
            hit_mask[np.asarray(hit_positions, dtype=np.int64)] = True
        translations += int(np.count_nonzero(~event_cacheable[:n - 1]))
        stats.translations = translations
        stats.translated_instructions = translated_instructions
    stats.config_writes = insertions

    key2 = coltrace.key2
    nrows = 2 * coltrace.nblocks
    miss_counts = np.bincount(key2[~hit_mask], minlength=nrows)
    hit_counts = np.bincount(key2[hit_mask], minlength=nrows)
    fields = miss_counts @ context.miss_table(config.timing) \
        + hit_counts @ context.nospec_exec_table(config, tables)

    # per-execution DIM stats from per-block hit counts
    block_hits = np.bincount(ev[hit_mask], minlength=coltrace.nblocks)
    executions = int(block_hits.sum())
    stats.array_executions = executions
    stats.array_alu_ops = int(block_hits @ tables["alu"])
    stats.array_mult_ops = int(block_hits @ tables["mult"])
    stats.array_mem_ops = int(block_hits @ tables["mem"])
    array_cycles = int(block_hits @ tables["exec_cycles"])
    stats.array_cycles = array_cycles
    stats.array_line_cycles = int(
        block_hits @ (tables["lines"] * tables["exec_cycles"]))
    stats.array_potential_line_cycles = \
        min(config.shape.rows, 1 << 20) * array_cycles
    stalls = int(block_hits @ tables["stall"])
    stats.reconfiguration_stalls = stalls

    hits = int(np.count_nonzero(hit_mask))
    timeline = coltrace.timeline(config.dim.predictor_entries)
    total = fields.copy()
    total[CYC] += stalls
    return _finish_metrics(name, config, total, stats, n, hits,
                           insertions, evictions, 0, timeline)


def _replay_spec(context: ColumnarContext, config: SystemConfig,
                 name: str) -> SystemMetrics:
    """Tier B: indexed sequential replay of a speculating system.

    One Python iteration per *cache transaction* (not per metric), with
    every decision reduced to a precomputed list lookup.  Entries are
    flat lists ``[template, misspec_count, extendable, code_stats,
    codes, consumed, flush_opp, ext_gate, kindcode]``; ``code_stats``
    is shared per template so exit-code counts aggregate across
    reinsertion, with one trailing slot that accumulates extra loop
    trips (always zero for other kinds).  Loop and dual templates
    dispatch on ``kindcode``: their flush/retire verdicts are answered
    inline from the predictor timeline because the query boundary
    depends on the per-execution trip count, and loop exits are walked
    on demand (``_Template.loop_exit``) rather than precomputed per
    rank.
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
            kindcode = template.kindcode
            st = code_stats[template] = [0] * (template.ncodes + 1)
            if kindcode == 0:
                proto = protos[template] = [
                    template, 0, template.extendable0, st,
                    template.code_list, template.consumed,
                    template.flush_opp(timeline),
                    template.ext_gate(timeline)
                    if template.extendable0 else None, 0]
            else:
                # loop/dual configurations are closed: never extendable,
                # verdicts answered inline from the timeline.
                proto = protos[template] = [
                    template, 0, False, st, template.code_list,
                    template.consumed, None, None, kindcode]
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
                    writes[template.kindcode] += 1
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
        template = entry[0]
        # ---- maybe_extend --------------------------------------------
        if entry[2]:
            if template.last_term_none:
                entry[2] = False
            else:
                gate = entry[7]
                if gate is None or gate[rank[i]]:
                    translations += 1
                    new = translate_at(blocks[b], i, i + 1)
                    if new is not None and new.covered_instructions \
                            > template.covered_instructions:
                        extensions += 1
                        translated_instructions += \
                            new.covered_instructions
                        writes[new.kindcode] += 1
                        entry = fresh_entry(new)
                        cache[b] = entry   # in-place slot rewrite
                        template = new
                    else:
                        entry[2] = new is not None and new.extendable0

        # ---- array execution (precomputed exit) ----------------------
        kindcode = entry[8]
        if kindcode == 0:
            r = rank[i]
            code = entry[4][r]
            entry[3][code] += 1
            if code >= 3:
                count = 1 if template.prior_reset[code - 3] \
                    else entry[1] + 1
                entry[1] = count
                if entry[6][r] or count >= threshold:
                    del cache[b]
                    flushes += 1
                    invalidations += 1
            elif template.reset_exit:
                entry[1] = 0
            i += entry[5][code]
        elif kindcode == 1:
            # loop: the back-edge resets the mis-speculation count every
            # trip; a clean exit retires the configuration (not a flush)
            # when the counter saturated in the exit direction.  Verdict
            # boundaries sit right after the exit's own update, i.e. at
            # ``i + consumed`` (engine.loop_backedge updates first).
            code, trips, consumed = template.loop_exit(i)
            st = entry[3]
            st[code] += 1
            st[-1] += trips
            if code == 0:
                entry[1] = 0
                if class_at(template.last_branch_pc, i + consumed) \
                        == template.back_opp:
                    del cache[b]
                    invalidations += 1
                    loop_retired += 1
            else:
                m = code - 1
                count = 1 if (trips or template.prior_reset[m]) \
                    else entry[1] + 1
                entry[1] = count
                if count >= threshold or class_at(
                        template.int_pcs[m], i + consumed) \
                        == template.int_opps[m]:
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
                if class_at(template.last_branch_pc,
                            i + template.K) != CLASS_NONE:
                    del cache[b]
                    invalidations += 1
                    dual_retired += 1
            else:
                m = code - 4
                count = 1 if template.prior_reset[m] else entry[1] + 1
                entry[1] = count
                if count >= threshold or class_at(
                        template.int_pcs[m], i + m + 1) \
                        == template.int_opps[m]:
                    del cache[b]
                    flushes += 1
                    invalidations += 1
            i += entry[5][code]

    # ---- assembly -----------------------------------------------------
    fields = np.asarray(miss_counts, dtype=np.int64) \
        @ context.miss_table(config.timing)
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
    stalls = 0
    array_cycles = 0
    for template, st in code_stats.items():
        # per-execution costs from the exit-code rows plus one trip row
        # per extra loop trip; ops and array busy time scale with trips,
        # stalls with executions only (engine.begin_execution /
        # engine.loop_iteration).
        extra = st[-1]
        counts = st[:-1]
        executions = sum(counts)
        if not executions:
            continue
        fields = fields + np.asarray(counts, dtype=np.int64) \
            @ np.asarray(template.delta(config.timing), dtype=np.int64)
        if extra:
            fields = fields + extra * np.asarray(template.trip_row(),
                                                 dtype=np.int64)
        runs = executions + extra
        stats.array_executions += executions
        stats.array_alu_ops += template.alu_ops * runs
        stats.array_mult_ops += template.mult_ops * runs
        stats.array_mem_ops += template.mem_ops * runs
        busy = template.exec_cycles * executions \
            + template.trip_cycles * extra
        array_cycles += busy
        stats.array_line_cycles += template.lines_used * busy
        stalls += max(0, template.rc_cycles
                      - params.reconfig_overlap) * executions
        if template.kindcode == 1:
            stats.loop_executions += executions
            stats.loop_trips += runs
        elif template.kindcode == 2:
            # both sides' ops were priced above (the allocation covers
            # the union); the losing side's instructions never commit.
            stats.dual_executions += executions
            dual_config = template.config
            stats.dual_squashed_instructions += \
                (st[0] + st[1]) * dual_config.dual_taken.covered \
                + (st[2] + st[3]) * dual_config.dual_fallthrough.covered
    stats.array_cycles = array_cycles
    stats.array_potential_line_cycles = \
        min(config.shape.rows, 1 << 20) * array_cycles
    stats.reconfiguration_stalls = stalls

    context.alloc_hits += translation.hits
    context.alloc_misses += translation.misses
    translation.hits = 0
    translation.misses = 0

    total = fields.copy()
    total[CYC] += stalls + int(total[MIS]) * params.misspec_penalty
    return _finish_metrics(name, config, total, stats, hits + misses,
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
