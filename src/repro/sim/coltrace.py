"""Columnar lowering of basic-block traces.

A :class:`~repro.sim.trace.Trace` is one packed ``array('I')`` of
``block_id << 1 | taken`` event codes; an engine that walks it in
Python pays one interpreter step per event.  This module lowers that
column *once* into narrow columns read by numpy and Python alike —
per-event block id, outcome and rank, per-block occurrence tables —
plus the one piece of derived history that makes whole-sweep
vectorization possible: the **bimodal-predictor timeline**.

The timeline exists because the predictor's update sequence is
configuration-independent.  Every consumed trace event whose block ends
in a conditional branch produces exactly one ``update(branch_pc,
taken)`` — on the normal path via ``observe_branch``, on the array path
via ``speculation_outcome`` (which updates before it compares), and a
``covered == 0`` reprocessed event defers its single update to the
reprocessing step.  The dynamic control-flow kinds preserve the
invariant: a loop configuration updates each interior merged branch
through ``speculation_outcome`` and the iterating back-edge through
``loop_backedge`` (once per trip, i.e. once per consumed back-edge
event), and a dual-path configuration updates its predicated branch
through ``dual_resolution`` and the winner block's own terminator
through ``observe_branch`` — still exactly one update per consumed
conditional event.  Jump- and syscall-terminated blocks never update.
The update *sequence* is therefore a pure function of the trace, so the
counter value of any predictor index at any event boundary ``t`` (the
state after the updates of events ``< t``) can be precomputed once per
(trace, table size) and shared by every configuration of a sweep.  The
same argument holds for the evaluator's ``seen`` set: the set of block
start PCs discovered by event boundary ``t`` is exactly the blocks of
``events[0..t)`` for every configuration.  ``repro.system.colreplay``
builds on both invariants.

numpy is a hard dependency, imported inside the functions that use it
so that importing the package (and the CLI's single-run path) never
loads it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import Trace

#: bump when the artifact payload layout changes (see to_payload).
COLTRACE_FORMAT = 2

#: saturation classes: the projection of a 2-bit counter the DIM
#: policies actually consume (saturated_direction / merge gating).
CLASS_NONE = -1
CLASS_NOT_TAKEN = 0
CLASS_TAKEN = 1

#: an "end of trace" sentinel larger than any event boundary.
NO_BOUND = 1 << 62

#: the most events a lowered trace holds: half the int32 range of its
#: columns, so a position plus a configuration's depth cannot overflow.
MAX_EVENTS = 1 << 30


def _class_of(counter: int) -> int:
    if counter == 3:
        return CLASS_TAKEN
    if counter == 0:
        return CLASS_NOT_TAKEN
    return CLASS_NONE


class PredictorTimeline:
    """Compressed bimodal-predictor history for one (trace, table size).

    For every predictor index the timeline stores the event boundaries
    at which the *saturation class* (taken / not-taken / unsaturated)
    changes; a query "what would ``saturated_direction(pc)`` return
    after the updates of events ``< t``" is one bisect.  Oscillation
    between the two weak states never appends a boundary, so the runs
    stay short even for noisy branches.

    An index's run is its boundaries (ascending from 0) as ``array('q')``
    and the class from each on as ``array('b')``, the payload's form.

    ``updates`` and ``hits`` are the whole-trace totals of
    :class:`~repro.dim.predictor.BimodalPredictor` — identical for
    every configuration sharing this table size, which is why
    ``predictor_accuracy`` can be read off the timeline.
    """

    __slots__ = ("entries", "updates", "hits", "_mask", "_initial_class",
                 "_bounds", "_classes")

    def __init__(self, entries: int, updates: int, hits: int,
                 bounds: Dict[int, array],
                 classes: Dict[int, array],
                 initial_class: int = CLASS_NONE):
        self.entries = entries
        self.updates = updates
        self.hits = hits
        self._mask = entries - 1
        self._initial_class = initial_class
        self._bounds = bounds
        self._classes = classes

    @classmethod
    def build(cls, positions, pcs, takens, entries: int,
              initial: int = 1) -> "PredictorTimeline":
        """Replay the config-independent update sequence once.

        ``positions``/``pcs``/``takens`` are integer numpy arrays over
        every conditional-branch event of the trace, in order (see
        :meth:`ColumnarTrace.branch_events`).  Counter indices are
        independent, so the updates are grouped by index with a stable
        sort, which keeps each group chronological, and each group's
        counter is walked on its own slice of outcomes; the boundaries
        are gathered from the group's positions where its class
        changes, so no whole-trace Python list is built.
        """
        if entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        initial_class = _class_of(initial)
        n = len(positions)
        if not n:
            return cls(entries, 0, 0, {}, {}, initial_class)
        import numpy as np

        idx = (np.asarray(pcs, dtype=np.int64) >> 2) & (entries - 1)
        order = np.argsort(idx, kind="stable")
        idx_sorted = idx[order]
        starts = np.flatnonzero(
            np.r_[True, idx_sorted[1:] != idx_sorted[:-1]])
        ends = np.r_[starts[1:], n]
        pos_sorted = np.asarray(positions, dtype=np.int64)[order]
        tak_sorted = np.asarray(takens, dtype=np.int64)[order]
        bounds: Dict[int, array] = {}
        classes: Dict[int, array] = {}
        hits = 0
        for start, end in zip(starts.tolist(), ends.tolist()):
            counter = initial
            last_class = initial_class
            changes: List[int] = []
            clist = [initial_class]
            for j, taken in enumerate(tak_sorted[start:end].tolist()):
                if (counter >= 2) == (taken == 1):
                    hits += 1
                if taken:
                    if counter < 3:
                        counter += 1
                elif counter > 0:
                    counter -= 1
                if counter == 3:
                    klass = CLASS_TAKEN
                elif counter == 0:
                    klass = CLASS_NOT_TAKEN
                else:
                    klass = CLASS_NONE
                if klass != last_class:
                    changes.append(j)
                    clist.append(klass)
                    last_class = klass
            index = int(idx_sorted[start])
            blist = bounds[index] = array("q", [0])
            blist.frombytes((pos_sorted[start:end][changes] + 1).tobytes())
            classes[index] = array("b", clist)
        return cls(entries, n, hits, bounds, classes, initial_class)

    # ------------------------------------------------------------------
    # Queries.  ``t`` is an event *boundary*: the state after the
    # updates of events < t.
    # ------------------------------------------------------------------
    def class_at(self, pc: int, t: int) -> int:
        blist = self._bounds.get((pc >> 2) & self._mask)
        if blist is None:
            return self._initial_class
        index = bisect_right(blist, t) - 1
        return self._classes[(pc >> 2) & self._mask][index]

    def saturated_direction(self, pc: int, t: int) -> Optional[bool]:
        """What ``BimodalPredictor.saturated_direction`` returns at t."""
        klass = self.class_at(pc, t)
        return None if klass < 0 else klass == CLASS_TAKEN

    def class_span(self, pc: int, t: int) -> Tuple[int, int, int]:
        """(class, lo, hi): the class at ``t`` and the maximal boundary
        interval ``[lo, hi)`` over which it is constant."""
        index_key = (pc >> 2) & self._mask
        blist = self._bounds.get(index_key)
        if blist is None:
            return self._initial_class, 0, NO_BOUND
        index = bisect_right(blist, t) - 1
        hi = blist[index + 1] if index + 1 < len(blist) else NO_BOUND
        return self._classes[index_key][index], blist[index], hi

    def class_for_many(self, pc: int, ts):
        """Vectorized :meth:`class_at` over a numpy array of boundaries."""
        import numpy as np

        index_key = (pc >> 2) & self._mask
        blist = self._bounds.get(index_key)
        if blist is None:
            return np.full(len(ts), self._initial_class, dtype=np.int8)
        np_bounds = np.frombuffer(blist, dtype=np.int64)
        np_classes = np.frombuffer(self._classes[index_key], dtype=np.int8)
        return np_classes[np.searchsorted(np_bounds, ts, side="right") - 1]

    # ------------------------------------------------------------------
    # Artifact payload (numpy-free, picklable): the arrays themselves,
    # which are never mutated once built.
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "entries": self.entries,
            "updates": self.updates,
            "hits": self.hits,
            "initial_class": self._initial_class,
            "bounds": dict(self._bounds),
            "classes": dict(self._classes),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PredictorTimeline":
        return cls(payload["entries"], payload["updates"], payload["hits"],
                   dict(payload["bounds"]), dict(payload["classes"]),
                   payload["initial_class"])


class ColumnarTrace:
    """One trace lowered to flat arrays (requires numpy).

    Each event column is kept once, at its narrowest type, in a buffer
    the Python walkers index; numpy reads it through a read-only
    ``np.frombuffer`` view (``n`` events, ``nblocks`` table entries):

    - ``ev_buf`` (``array('i')``) / ``ev`` (int32[n]) — block id of
      each event;
    - ``tk_buf`` (``bytes``) / ``tk`` (uint8[n]) — its terminator
      outcome (a cost-table row ``2*block + taken`` is formed from the
      two where needed, never stored);
    - ``rank_buf`` (``array('i')``) / ``rank`` (int32[n]) — event ``i``
      is the ``rank[i]``-th execution of ``ev[i]``;
    - ``occ[b]`` (int32) — ascending event positions of block ``b``;
    - ``first_occ`` (int64[nblocks]) — first event position, ``n`` when
      the block never occurs;
    - ``blk_is_cond`` (bool) / ``blk_branch_pc`` (int64) — per-block
      structural columns.

    The int32 columns cap a trace at :data:`MAX_EVENTS` (2**30) events;
    a longer one raises ``ValueError``.

    Predictor timelines are built lazily per table size and cached,
    each by one grouped pass over the conditional events
    (:meth:`PredictorTimeline.build`; a trace with none gets the empty
    timeline).  They round-trip through the artifact payload, so warm
    sweeps skip the whole per-event pass.
    """

    def __init__(self, trace: Trace):
        import numpy as np

        self.trace = trace
        self.table = trace.table
        n = len(trace.events)
        if n > MAX_EVENTS:
            raise ValueError(f"a trace of {n} events is too long for "
                             f"int32 columns (max {MAX_EVENTS})")
        self.n = n
        blocks = trace.table.blocks
        self.nblocks = len(blocks)
        codes = np.frombuffer(trace.events, dtype=np.uint32)
        self.ev_buf = array("i", [0]) * n
        self.ev = np.frombuffer(self.ev_buf, dtype=np.int32)
        self.ev[:] = codes >> 1
        self.tk_buf = (codes & 1).astype(np.uint8).tobytes()
        self.tk = np.frombuffer(self.tk_buf, dtype=np.uint8)

        order = np.argsort(self.ev, kind="stable").astype(np.int32)
        sorted_ev = self.ev[order]
        # one run per block in ``order``; an empty trace has none.
        starts = np.flatnonzero(
            np.r_[n > 0, sorted_ev[1:] != sorted_ev[:-1]])
        lengths = np.diff(np.r_[starts, n])
        within = np.arange(n) - np.repeat(starts, lengths)
        self.rank_buf = array("i", [0]) * n
        self.rank = np.frombuffer(self.rank_buf, dtype=np.int32)
        self.rank[order] = within
        for shared in (self.ev, self.rank, order):  # read by every cell
            shared.flags.writeable = False

        self.occ: List[object] = [order[:0]] * self.nblocks
        for start, length in zip(starts.tolist(), lengths.tolist()):
            self.occ[int(sorted_ev[start])] = order[start:start + length]
        self.first_occ = np.fromiter(
            (positions[0] if len(positions) else n
             for positions in self.occ), dtype=np.int64,
            count=self.nblocks)

        self.blk_is_cond = np.fromiter(
            (block.is_conditional for block in blocks), dtype=bool,
            count=self.nblocks)
        self.blk_branch_pc = np.fromiter(
            (block.branch_pc for block in blocks), dtype=np.int64,
            count=self.nblocks)
        #: start PC -> first event position of a block at that PC (the
        #: block-provider view: get_by_pc keeps the latest registration,
        #: the ``seen`` set fills at the earliest occurrence of any).
        self.first_event_by_pc: Dict[int, int] = {}
        for block in blocks:
            first = int(self.first_occ[block.block_id])
            if first >= n:
                continue
            known = self.first_event_by_pc.get(block.start_pc)
            if known is None or first < known:
                self.first_event_by_pc[block.start_pc] = first

        self._timelines: Dict[int, PredictorTimeline] = {}

    def branch_events(self) -> Tuple[object, object, object]:
        """(positions, branch PCs, outcomes) of every conditional event
        — the config-independent predictor update sequence — as int32,
        int64 and uint8 numpy arrays, derived afresh: only a timeline
        build reads them, once per table size."""
        import numpy as np

        positions = np.flatnonzero(self.blk_is_cond[self.ev]).astype(
            np.int32)
        return (positions, self.blk_branch_pc[self.ev[positions]],
                self.tk[positions])

    def timeline(self, entries: int) -> PredictorTimeline:
        """The (cached) predictor timeline for one table size."""
        timeline = self._timelines.get(entries)
        if timeline is None:
            positions, pcs, takens = self.branch_events()
            timeline = PredictorTimeline.build(positions, pcs, takens,
                                               entries)
            self._timelines[entries] = timeline
        return timeline

    @property
    def timelines_built(self) -> int:
        """How many predictor timelines are materialised (the sweep
        layer re-persists the lowering artifact when this grows)."""
        return len(self._timelines)

    # ------------------------------------------------------------------
    # Artifact persistence.  The payload holds no numpy objects, so a
    # stored artifact does not depend on the numpy version.
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "version": COLTRACE_FORMAT,
            "events": self.n,
            "timelines": {entries: timeline.to_payload()
                          for entries, timeline in self._timelines.items()},
        }

    @classmethod
    def from_payload(cls, trace: Trace,
                     payload: dict) -> Optional["ColumnarTrace"]:
        """Rebuild from a stored payload, or None when it is stale.

        The trace object itself is required — templates and cost tables
        need the live :class:`BasicBlock` objects and the event column —
        so the payload holds only the predictor timelines and the event
        count they were built over (a count that differs from the
        trace's marks the payload stale)."""
        if not isinstance(payload, dict) \
                or payload.get("version") != COLTRACE_FORMAT \
                or payload.get("events") != len(trace.events):
            return None
        lowered = cls(trace)
        for entries, stored in payload.get("timelines", {}).items():
            try:
                lowered._timelines[int(entries)] = \
                    PredictorTimeline.from_payload(stored)
            except (KeyError, TypeError, ValueError):
                continue
        return lowered
