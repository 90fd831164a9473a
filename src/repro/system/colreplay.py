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

Both tiers are **bit-identical** to :func:`evaluate_trace` — same
cycles, same :class:`DimStats`, same cache counters, same serialized
JSON — enforced by the differential tests in ``tests/test_colreplay.py``
across every workload and a grid of configurations.  The comments below
cite the event-engine lines they mirror; change those, change these.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

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
from repro.system.traceeval import SystemMetrics, _prefix_mem_ops

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
    most importantly the **exit codes**: at its ``r``-th trace
    occurrence, a configuration of blocks ``B0..B(K-1)`` deterministically
    exits via

    - code 0 — final block covers 0 instructions: reprocess, ``K-1``
      events consumed (traceeval's ``covered == 0 -> break``);
    - code 1 / 2 — full walk, final block tail executed normally with
      terminator not-taken / taken, ``K`` events consumed;
    - code ``3+m`` — first merged branch whose outcome differs from its
      ``expected_taken`` is at depth ``m``: mis-speculation, ``m+1``
      events consumed.

    The code depends only on the trace slice at the occurrence, so it is
    one vectorized pass per template; each code then indexes the
    metric-delta row (per timing model) and the consumed count.
    """

    __slots__ = ("config", "start_block", "blocks", "covered_instructions",
                 "exec_cycles", "rc_cycles", "alu_ops", "mult_ops",
                 "mem_ops", "lines_used", "extendable0", "last_term_none",
                 "gate_always", "last_branch_pc", "K", "ncodes", "consumed",
                 "reset_exit", "prior_reset", "code_list", "_deltas",
                 "_gates", "_opps", "_ctx", "kind", "kindcode", "chk",
                 "trip_cycles", "_trip_row", "int_pcs", "int_opps",
                 "back_expected_bit", "back_opp", "_merged_cond")

    def __init__(self, ctx: "ColumnarContext", config: Configuration):
        import numpy as np

        self._ctx = ctx
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
        # interior merged-conditional lookup tables (flush verdicts for
        # the loop/dual replay branches; the linear branch uses the
        # precomputed flush_opp lists instead).
        self.int_pcs = [cb.block.branch_pc for cb in config.blocks[:K - 1]]
        self.int_opps = [0 if cb.expected_taken else 1
                         for cb in config.blocks[:K - 1]]
        self._deltas: Dict[TimingModel, List[List[int]]] = {}
        self._gates: Dict[int, Optional[List[bool]]] = {}
        self._opps: Dict[int, List[bool]] = {}
        self._trip_row: Optional[List[int]] = None
        if self.kindcode == 1:
            # loop: code 0 = clean back-edge exit, 1+m = interior merged
            # branch at depth m mis-speculated.  Exit codes, trip counts
            # and consumed-event counts vary with the trip count, so
            # they are computed per executed occurrence by loop_exit()
            # instead of eagerly per rank.
            back = config.blocks[-1]
            self.back_expected_bit = 1 if back.expected_taken else 0
            self.back_opp = 0 if back.expected_taken else 1
            self._merged_cond = [
                (m, 1 if config.blocks[m].expected_taken else 0)
                for m in range(K - 1) if merged_branch[m]]
            self.code_list = None
            self.consumed = None
            self.ncodes = K
            return
        self.back_expected_bit = 0
        self.back_opp = 0
        self._merged_cond = []
        if self.kindcode == 2:
            # dual: codes 0-3 = resolution (2*actual + successor taken),
            # 4+m = interior merged branch at depth m mis-speculated.
            self.ncodes = 4 + (K - 1)
            self.consumed = [K + 1] * 4 + [m + 1 for m in range(K - 1)]
            self._compute_dual_codes(np)
            return
        self.ncodes = 3 + (K - 1)
        self.consumed = [K - 1, K, K] + [m + 1 for m in range(K - 1)]

        # ---- exit code per occurrence --------------------------------
        positions = ctx.coltrace.occ[self.start_block.block_id]
        n = ctx.coltrace.n
        last_event = n - 1
        reprocess = config.blocks[-1].covered == 0
        merged = [(m, 1 if config.blocks[m].expected_taken else 0)
                  for m in range(K - 1)
                  if merged_branch[m]]
        if len(positions) < 256:
            # numpy per-template overhead dominates small occurrence
            # sets; the scalar walk is faster there.
            tk_list = ctx.coltrace.tk_list
            codes_py = []
            for position in positions.tolist():
                for m, expected in merged:
                    if tk_list[min(position + m, last_event)] != expected:
                        codes_py.append(3 + m)
                        break
                else:
                    codes_py.append(
                        0 if reprocess else
                        1 + tk_list[min(position + K - 1, last_event)])
            self.code_list = codes_py
        else:
            tk = ctx.coltrace.tk
            if reprocess:
                codes = np.zeros(len(positions), dtype=np.int64)
            else:
                # tail outcome decides between codes 1 and 2
                tail_positions = np.minimum(positions + (K - 1),
                                            last_event)
                codes = np.where(tk[tail_positions] == 1, 2, 1)
            # earliest mismatched merged branch wins: walk depths
            # ascending, assigning only still-pending occurrences.
            pending = np.ones(len(positions), dtype=bool)
            for m, expected in merged:
                branch_positions = np.minimum(positions + m, last_event)
                mismatch = pending & (tk[branch_positions] != expected)
                codes[mismatch] = 3 + m
                pending &= ~mismatch
            self.code_list = codes.tolist()

    def _compute_dual_codes(self, np) -> None:
        """Exit code per occurrence of a dual-path configuration.

        Interior depths mirror the linear walk; when every interior
        matches, the resolution code packs the predicated branch's
        actual direction with the winner block's own terminator outcome
        (the event consumed by the mid-block normal tail).
        """
        ctx = self._ctx
        positions = ctx.coltrace.occ[self.start_block.block_id]
        last_event = ctx.coltrace.n - 1
        K = self.K
        merged = [(m, 1 if self.blocks[m].expected_taken else 0)
                  for m in range(K - 1)
                  if self.blocks[m].includes_terminator
                  and self.blocks[m].block.is_conditional]
        if len(positions) < 256:
            tk_list = ctx.coltrace.tk_list
            codes_py = []
            for position in positions.tolist():
                for m, expected in merged:
                    if tk_list[min(position + m, last_event)] != expected:
                        codes_py.append(4 + m)
                        break
                else:
                    actual = tk_list[min(position + K - 1, last_event)]
                    succ = tk_list[min(position + K, last_event)]
                    codes_py.append(2 * actual + succ)
            self.code_list = codes_py
        else:
            tk = ctx.coltrace.tk
            branch_positions = np.minimum(positions + (K - 1), last_event)
            succ_positions = np.minimum(positions + K, last_event)
            codes = (2 * tk[branch_positions]
                     + tk[succ_positions]).astype(np.int64)
            pending = np.ones(len(positions), dtype=bool)
            for m, expected in merged:
                bp = np.minimum(positions + m, last_event)
                mismatch = pending & (tk[bp] != expected)
                codes[mismatch] = 4 + m
                pending &= ~mismatch
            self.code_list = codes.tolist()

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
        tk = self._ctx.coltrace.tk_list
        last = self._ctx.coltrace.n - 1
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
            rows = self._delta_loop()
        elif self.kindcode == 2:
            rows = self._delta_dual(model)
        else:
            rows = self._delta_linear(model)
        self._deltas[timing] = rows
        return rows

    def _delta_linear(self, model) -> List[List[int]]:
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
                # exit 3+q: this merged branch mis-speculated.  Its
                # terminator still committed and the actual direction is
                # the opposite of the expected one.
                mis = list(run)
                mis[COM] += 1
                mis[BRA] += 1
                if not cfg_block.expected_taken:
                    mis[TAK] += 1
                mis[MIS] = 1
                mis[INS] = mis[COM]
                rows[3 + q] = mis
            # matched merged terminator: committed + branch, transfer
            # taken for jumps and taken-expected branches.
            run[COM] += 1
            run[BRA] += 1
            if not block.is_conditional or cfg_block.expected_taken:
                run[TAK] += 1
        last = self.blocks[-1]
        if last.covered == 0:
            row = list(run)
            row[INS] = row[COM]
            rows[0] = row
        else:
            cost = model.cost(last.block, last.covered)
            for taken, code in ((False, 1), (True, 2)):
                row = list(run)
                _add_tail_cost(row, cost, last.block, taken)
                rows[code] = row
        return rows

    def _delta_loop(self) -> List[List[int]]:
        """Base (zero-extra-trip) rows of a loop configuration.

        Row 0 is the clean back-edge exit of the first trip: it pays the
        exit check and its transfer goes the non-looping direction.  Row
        ``1+m`` is an interior mis-speculation before any back-edge was
        reached, so no check is charged.  Executions with extra trips
        add ``trip_row()`` once per trip on top (``traceeval._run_loop``).
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
                mis = list(run)
                mis[COM] += 1
                mis[BRA] += 1
                if not cfg_block.expected_taken:
                    mis[TAK] += 1
                mis[MIS] = 1
                mis[INS] = mis[COM]
                rows[1 + q] = mis
            run[COM] += 1
            run[BRA] += 1
            if not block.is_conditional or cfg_block.expected_taken:
                run[TAK] += 1
        back = self.blocks[-1]
        row = list(run)
        row[CYC] += self.chk
        row[COM] += 1
        row[BRA] += 1
        if not back.expected_taken:
            row[TAK] += 1
        row[INS] = row[COM]
        rows[0] = row
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

    def _delta_dual(self, model) -> List[List[int]]:
        """Rows of a dual-path configuration.

        The merged chain accumulates like the linear walk; the
        predicated terminator always commits, then each resolution code
        adds the winning side's covered prefix plus the normal-execution
        cost of the winner block's tail (``traceeval._run_dual``).
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
                mis = list(run)
                mis[COM] += 1
                mis[BRA] += 1
                if not cfg_block.expected_taken:
                    mis[TAK] += 1
                mis[MIS] = 1
                mis[INS] = mis[COM]
                rows[4 + q] = mis
            run[COM] += 1
            run[BRA] += 1
            if not block.is_conditional or cfg_block.expected_taken:
                run[TAK] += 1
        # the predicated terminator itself always commits
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
        return rows

    def ext_gate(self, timeline: PredictorTimeline) -> Optional[List[bool]]:
        """Per-occurrence extension gate, or None when ungated.

        ``maybe_extend`` only retranslates a branch-tailed configuration
        when the tail branch's counter is saturated *before* the event's
        own update — boundary ``i`` for a hit at event ``i``.
        """
        if self.gate_always:
            return None
        gate = self._gates.get(timeline.entries)
        if gate is None:
            positions = self._ctx.coltrace.occ[self.start_block.block_id]
            if len(positions) < 48:
                pc = self.last_branch_pc
                gate = [timeline.class_at(pc, t) != CLASS_NONE
                        for t in positions.tolist()]
            else:
                classes = timeline.class_for_many(self.last_branch_pc,
                                                  positions)
                gate = (classes != CLASS_NONE).tolist()
            self._gates[timeline.entries] = gate
        return gate

    def flush_opp(self, timeline: PredictorTimeline) -> List[bool]:
        """Per-occurrence "counter reached the opposite value" verdicts.

        Evaluated only at mismatch exits; the predictor state queried is
        *after* the mismatched branch's own update (boundary
        ``position + m + 1``), exactly as ``speculation_outcome`` updates
        first and reads second.
        """
        opp = self._opps.get(timeline.entries)
        if opp is None:
            positions = self._ctx.coltrace.occ[self.start_block.block_id]
            if len(positions) < 48:
                opp = [False] * len(positions)
                for index, (position, code) in enumerate(
                        zip(positions.tolist(), self.code_list)):
                    if code < 3:
                        continue
                    m = code - 3
                    cfg_block = self.blocks[m]
                    opposite = 0 if cfg_block.expected_taken else 1
                    opp[index] = timeline.class_at(
                        cfg_block.block.branch_pc,
                        position + m + 1) == opposite
            else:
                import numpy as np

                codes = np.asarray(self.code_list, dtype=np.int64)
                verdict = np.zeros(len(positions), dtype=bool)
                for m in range(self.K - 1):
                    cfg_block = self.blocks[m]
                    if not (cfg_block.includes_terminator
                            and cfg_block.block.is_conditional):
                        continue
                    mask = codes == 3 + m
                    if not mask.any():
                        continue
                    classes = timeline.class_for_many(
                        cfg_block.block.branch_pc, positions[mask] + m + 1)
                    opposite = 0 if cfg_block.expected_taken else 1
                    verdict[mask] = classes == opposite
                opp = verdict.tolist()
            self._opps[timeline.entries] = opp
        return opp


class _TranslationTimeline:
    """Probe-validated translation results along the replay timeline.

    The columnar analogue of :class:`repro.dim.memo.TranslationMemo`: a
    translation at event boundaries ``(t_pred, t_seen)`` is a pure
    function of the start block plus the probe answers, so each start
    block keeps a variant list of ``(probes, template)`` pairs.  Instead
    of re-asking a live predictor, validation intersects the timeline
    spans over which every recorded answer holds into a *validity box*;
    queries inside the box hit without touching the probes at all.
    """

    __slots__ = ("ctx", "translator", "timeline", "templates", "_dpcs",
                 "_sthr", "_sigmap", "_probed", "_occmemo",
                 "hits", "misses")

    def __init__(self, ctx: "ColumnarContext", config: SystemConfig,
                 timeline: PredictorTimeline,
                 templates: Dict[Tuple, _Template]):
        self.ctx = ctx
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
        self.hits = 0
        self.misses = 0
        # the provider below is rebound per translation (closures over
        # t_seen); the Translator only keeps references.
        self.translator = Translator(config.shape, config.dim,
                                     None, None)

    def _provider(self, t_seen: int):
        table = self.ctx.coltrace.table
        first_event_by_pc = self.ctx.coltrace.first_event_by_pc

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
        first_event_by_pc = self.ctx.coltrace.first_event_by_pc
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
        known = self._sigmap.get(block_id)
        if known is not None:
            sig, plo, phi, slo, shi = self._signature(block_id,
                                                      t_pred, t_seen)
            if sig in known:
                template = known[sig]
                self.hits += 1
                occ[key] = template
                return template
            # new signature: revalidate stored probe sets before paying
            # for a fresh translation (a past variant may still answer —
            # the new signature merely refines a grown universe).
            for probes, template in self._probed[block_id]:
                if self._probes_hold(probes, t_pred, t_seen):
                    self.hits += 1
                    known[sig] = template
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
            key = (tuple((cb.block.block_id, cb.covered,
                          cb.includes_terminator, cb.expected_taken)
                         for cb in config.blocks), config.extendable,
                   config.kind,
                   None if config.dual_taken is None else
                   (config.dual_taken.block.block_id,
                    config.dual_taken.covered),
                   None if config.dual_fallthrough is None else
                   (config.dual_fallthrough.block.block_id,
                    config.dual_fallthrough.covered))
            template = self.templates.get(key)
            if template is None:
                template = _Template(self.ctx, config)
                self.templates[key] = template
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
        first_event_by_pc = self.ctx.coltrace.first_event_by_pc
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
        sig = self._signature(block_id, t_pred, t_seen)[0]
        known[sig] = template
        occ[key] = template
        return template


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
                self, config,
                self.coltrace.timeline(config.dim.predictor_entries),
                templates)
            self._timelines[key] = timeline
        return timeline


# ----------------------------------------------------------------------
# Public entry points.
# ----------------------------------------------------------------------
def baseline_metrics_columnar(context: ColumnarContext,
                              timing: Optional[TimingModel] = None
                              ) -> SystemMetrics:
    """Columnar equivalent of :func:`traceeval.baseline_metrics`."""
    totals = context.event_totals(timing or TimingModel())
    return SystemMetrics(
        name="mips",
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
    )


def _finish_metrics(name: str, config: SystemConfig, fields,
                    stats: DimStats, lookups: int, hits: int,
                    insertions: int, evictions: int, invalidations: int,
                    timeline: PredictorTimeline) -> SystemMetrics:
    stats.misspeculations = int(fields[MIS])
    stats.array_instructions = int(fields[COM])
    metrics = SystemMetrics(
        name=name or config.name,
        cycles=int(fields[CYC]),
        instructions=int(fields[INS]),
        fetches=int(fields[FET]),
        loads=int(fields[LDS]),
        stores=int(fields[STS]),
        branches=int(fields[BRA]),
        taken_transfers=int(fields[TAK]),
        load_use_stalls=int(fields[LUS]),
        hilo_stalls=int(fields[HILO]),
        syscalls=int(fields[SYS]),
        dim=stats,
        cache_lookups=lookups,
        cache_hits=hits,
        cache_insertions=insertions,
        cache_evictions=evictions,
        cache_invalidations=invalidations,
        predictor_accuracy=timeline.hits / timeline.updates
        if timeline.updates else 0.0,
    )
    return metrics


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
        stats.config_writes = insertions
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
        if config.dim.cache_policy == "lru":
            occupancy: Dict[int, None] = {}
            for position, b in zip(positions.tolist(), bids):
                if b in occupancy:
                    append_hit(position)
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
        else:
            # FIFO: hits never reorder, so a resident set plus an
            # insertion-order deque mirrors the OrderedDict exactly.
            resident: set = set()
            order: deque = deque()
            for position, b in zip(positions.tolist(), bids):
                if b in resident:
                    append_hit(position)
                elif position < last:
                    translations += 1
                    translated_instructions += covered_list[b]
                    if len(resident) >= slots:
                        resident.discard(order.popleft())
                        evictions += 1
                    resident.add(b)
                    order.append(b)
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
    reinsertion (loop templates carry one extra trailing slot that
    accumulates extra trips).  Loop and dual templates dispatch on
    ``kindcode``: their flush/retire verdicts are answered inline from
    the predictor timeline because the query boundary depends on the
    per-execution trip count, and loop exits are walked on demand
    (``_Template.loop_exit``) rather than precomputed per rank.
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
    translated_instructions = config_writes = 0
    loop_configs = dual_configs = 0
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
            # loop templates get a trailing extra-trips accumulator
            st = code_stats[template] = \
                [0] * (template.ncodes + (1 if kindcode == 1 else 0))
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
                    config_writes += 1
                    if template.kindcode == 1:
                        loop_configs += 1
                    elif template.kindcode == 2:
                        dual_configs += 1
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
                        config_writes += 1
                        if new.kindcode == 1:
                            loop_configs += 1
                        elif new.kindcode == 2:
                            dual_configs += 1
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
        config_writes=config_writes,
        loop_configs=loop_configs,
        dual_configs=dual_configs,
        loop_retired=loop_retired,
        dual_retired=dual_retired,
    )
    stalls = 0
    array_cycles = 0
    for template, st in code_stats.items():
        if template.kindcode == 1:
            # loop: per-execution costs from the base rows plus one
            # trip row per accumulated extra trip; ops and array busy
            # time scale with trips, stalls with executions only
            # (engine.begin_execution / engine.loop_iteration).
            extra = st[-1]
            counts = st[:-1]
            executions = sum(counts)
            if not executions:
                continue
            fields = fields + np.asarray(counts, dtype=np.int64) \
                @ np.asarray(template.delta(config.timing),
                             dtype=np.int64)
            if extra:
                fields = fields + extra * np.asarray(
                    template.trip_row(), dtype=np.int64)
            runs = executions + extra
            stats.array_executions += executions
            stats.loop_executions += executions
            stats.loop_trips += runs
            stats.array_alu_ops += template.alu_ops * runs
            stats.array_mult_ops += template.mult_ops * runs
            stats.array_mem_ops += template.mem_ops * runs
            loop_cycles = template.exec_cycles * executions \
                + template.trip_cycles * extra
            array_cycles += loop_cycles
            stats.array_line_cycles += template.lines_used * loop_cycles
            stalls += max(0, template.rc_cycles
                          - params.reconfig_overlap) * executions
            continue
        executions = sum(st)
        if not executions:
            continue
        fields = fields + np.asarray(st, dtype=np.int64) \
            @ np.asarray(template.delta(config.timing), dtype=np.int64)
        stats.array_executions += executions
        stats.array_alu_ops += template.alu_ops * executions
        stats.array_mult_ops += template.mult_ops * executions
        stats.array_mem_ops += template.mem_ops * executions
        array_cycles += template.exec_cycles * executions
        stats.array_line_cycles += \
            template.lines_used * template.exec_cycles * executions
        stalls += max(0, template.rc_cycles
                      - params.reconfig_overlap) * executions
        if template.kindcode == 2:
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
