"""Columnar lowering of basic-block traces.

A :class:`~repro.sim.trace.Trace` is one packed ``array('I')`` of
``block_id << 1 | taken`` event codes; an engine that walks it in
Python pays one interpreter step per event.  This module views that
column *once* as numpy arrays — per-event block id and branch outcome,
per-block occurrence tables — plus the one piece of derived history
that makes whole-sweep vectorization possible: the **bimodal-predictor
timeline**.

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
    between the two weak states never appends a boundary, so the lists
    stay short even for noisy branches.

    ``updates`` and ``hits`` are the whole-trace totals of
    :class:`~repro.dim.predictor.BimodalPredictor` — identical for
    every configuration sharing this table size, which is why
    ``predictor_accuracy`` can be read off the timeline.
    """

    __slots__ = ("entries", "updates", "hits", "_mask", "_initial_class",
                 "_bounds", "_classes", "_np_cache")

    def __init__(self, entries: int, updates: int, hits: int,
                 bounds: Dict[int, List[int]],
                 classes: Dict[int, List[int]],
                 initial_class: int = CLASS_NONE):
        self.entries = entries
        self.updates = updates
        self.hits = hits
        self._mask = entries - 1
        self._initial_class = initial_class
        self._bounds = bounds
        self._classes = classes
        self._np_cache: Dict[int, Tuple[object, object]] = {}

    @classmethod
    def build(cls, positions, pcs, takens, entries: int,
              initial: int = 1) -> "PredictorTimeline":
        """Replay the config-independent update sequence once.

        ``positions``/``pcs``/``takens`` are integer numpy arrays over
        every conditional-branch event of the trace, in order (see
        ``ColumnarTrace.branch_events``).  Counter indices are
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
        bounds: Dict[int, List[int]] = {}
        classes: Dict[int, List[int]] = {}
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
            bounds[index] = [0] + (pos_sorted[start:end][changes]
                                   + 1).tolist()
            classes[index] = clist
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
        cached = self._np_cache.get(index_key)
        if cached is None:
            blist = self._bounds.get(index_key)
            if blist is None:
                return np.full(len(ts), self._initial_class, dtype=np.int8)
            cached = (np.asarray(blist, dtype=np.int64),
                      np.asarray(self._classes[index_key], dtype=np.int8))
            self._np_cache[index_key] = cached
        np_bounds, np_classes = cached
        return np_classes[np.searchsorted(np_bounds, ts, side="right") - 1]

    # ------------------------------------------------------------------
    # Artifact payload (numpy-free, picklable).
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "entries": self.entries,
            "updates": self.updates,
            "hits": self.hits,
            "initial_class": self._initial_class,
            "bounds": {k: array("q", v) for k, v in self._bounds.items()},
            "classes": {k: array("b", v)
                        for k, v in self._classes.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PredictorTimeline":
        return cls(payload["entries"], payload["updates"], payload["hits"],
                   {k: list(v) for k, v in payload["bounds"].items()},
                   {k: list(v) for k, v in payload["classes"].items()},
                   payload["initial_class"])


class ColumnarTrace:
    """One trace lowered to flat arrays (requires numpy).

    Array fields (``n`` events, ``nblocks`` table entries):

    - ``key2`` (int64[n]) — the packed event codes ``2*block + taken``,
      straight from ``Trace.events`` (also the row key of the cost
      tables);
    - ``ev`` / ``tk`` (int64[n]) — per-event block id (``key2 >> 1``)
      and terminator outcome (``key2 & 1``);
    - ``rank`` (int64[n]) — occurrence index of each event within its
      block (event ``i`` is the ``rank[i]``-th execution of ``ev[i]``);
    - ``occ[b]`` (int64 array) — ascending event positions of block ``b``;
    - ``first_occ`` (int64[nblocks]) — first event position, ``n`` when
      the block never occurs;
    - ``blk_is_cond`` / ``blk_branch_pc`` — per-block structural columns.

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
        self.n = n
        blocks = trace.table.blocks
        self.nblocks = len(blocks)
        self.key2 = np.frombuffer(trace.events,
                                  dtype=np.uint32).astype(np.int64)
        self.ev = self.key2 >> 1
        self.tk = self.key2 & 1
        self.ev_list = self.ev.tolist()
        self.tk_list = self.tk.tolist()

        order = np.argsort(self.ev, kind="stable")
        sorted_ev = self.ev[order]
        if n:
            starts = np.flatnonzero(
                np.r_[True, sorted_ev[1:] != sorted_ev[:-1]])
            lengths = np.diff(np.r_[starts, n])
            within = np.arange(n, dtype=np.int64) \
                - np.repeat(starts, lengths)
        else:
            starts = np.zeros(0, dtype=np.int64)
            lengths = starts
            within = starts
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = within
        self.rank_list = self.rank.tolist()

        self.occ: List[object] = [None] * self.nblocks
        empty = np.zeros(0, dtype=np.int64)
        for start, length in zip(starts.tolist(), lengths.tolist()):
            self.occ[int(sorted_ev[start])] = order[start:start + length]
        for block_id in range(self.nblocks):
            if self.occ[block_id] is None:
                self.occ[block_id] = empty
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

        self._branch_events: Optional[Tuple[object, object, object]] = None
        self._timelines: Dict[int, PredictorTimeline] = {}

    def branch_events(self) -> Tuple[object, object, object]:
        """(positions, branch PCs, outcomes) of every conditional event
        — the config-independent predictor update sequence — as int64
        numpy arrays."""
        cached = self._branch_events
        if cached is None:
            import numpy as np

            positions = np.flatnonzero(self.blk_is_cond[self.ev])
            cached = (positions, self.blk_branch_pc[self.ev[positions]],
                      self.tk[positions])
            self._branch_events = cached
        return cached

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
