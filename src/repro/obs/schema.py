"""The unified counter schema: one namespaced name per system counter.

Before this module, the same quantities lived under ad-hoc spellings in
three places — :class:`repro.dim.engine.DimStats` fields, raw attribute
counters on :class:`repro.dim.rcache.ReconfigurationCache` /
:class:`repro.dim.predictor.BimodalPredictor`, and
:class:`repro.system.sweep.SweepInstrumentation`.  Those objects remain
the in-band carriers (back-compat aliases: their field names are
unchanged), but the *schema* — the canonical dotted names every export
uses — is defined here once.

Namespaces:

- ``dim.*``        DIM engine activity (translations, array events, ...)
- ``dynflow.*``    dynamic control-flow modes (loop / dual-path configs)
- ``rcache.*``     reconfiguration-cache probes and churn
- ``predictor.*``  bimodal predictor training
- ``sim.*``        functional simulator totals
- ``fastpath.*``   block-compiled engine activity
- ``sweep.*``      matrix sweep engine phases and cache outcomes
- ``serve.*``      evaluation-service queue, batching and latency
- ``dse.*``        design-space exploration budget and frontier
- ``fleet.*``      coordinator sharding, failover and load shedding
- ``mpsoc.*``      MPSoC scenario allocation, dispatch and composition
- ``corpus.*``     synthetic kernel generation and self-checking
- ``traffic.*``    traffic-mix replay against serve/fleet endpoints
"""

from __future__ import annotations

from typing import Dict

#: canonical counter name -> (carrier, legacy attribute) provenance map;
#: documentation for consumers, and the source of the collectors below.
DIM_COUNTERS = {
    "dim.translations": "translations",
    "dim.translated_instructions": "translated_instructions",
    "dim.extensions": "extensions",
    "dim.flushes": "flushes",
    "dim.array_executions": "array_executions",
    "dim.array_instructions": "array_instructions",
    "dim.array_alu_ops": "array_alu_ops",
    "dim.array_mult_ops": "array_mult_ops",
    "dim.array_mem_ops": "array_mem_ops",
    "dim.misspeculations": "misspeculations",
    "dim.full_commits": "full_commits",
    "dim.reconfiguration_stalls": "reconfiguration_stalls",
    "dim.array_cycles": "array_cycles",
    "dim.array_line_cycles": "array_line_cycles",
    "dim.array_potential_line_cycles": "array_potential_line_cycles",
    "dim.config_writes": "config_writes",
}

#: carrier: :class:`repro.dim.engine.DimStats` — the dynamic
#: control-flow additions (loop-aware and predicated dual-path
#: configurations) live in their own namespace so exports stay
#: readable when the modes are disabled (all-zero block).
DYNFLOW_COUNTERS = {
    "dynflow.loop_configs": "loop_configs",
    "dynflow.loop_executions": "loop_executions",
    "dynflow.loop_trips": "loop_trips",
    "dynflow.loop_retired": "loop_retired",
    "dynflow.dual_configs": "dual_configs",
    "dynflow.dual_executions": "dual_executions",
    "dynflow.dual_squashed_instructions": "dual_squashed_instructions",
    "dynflow.dual_retired": "dual_retired",
}

RCACHE_COUNTERS = {
    "rcache.lookups": "lookups",
    "rcache.hits": "hits",
    "rcache.insertions": "insertions",
    "rcache.evictions": "evictions",
    "rcache.invalidations": "invalidations",
}

PREDICTOR_COUNTERS = {
    "predictor.updates": "updates",
    "predictor.hits": "hits",
}

SWEEP_COUNTERS = {
    "sweep.workloads": "workloads",
    "sweep.systems": "systems",
    "sweep.cells": "cells",
    "sweep.traces_simulated": "traces_simulated",
    "sweep.traces_from_disk": "traces_from_disk",
    "sweep.traces_in_memory": "traces_in_memory",
    "sweep.cells_replayed": "cells_replayed",
    "sweep.cells_from_disk": "cells_from_disk",
    "sweep.baselines_computed": "baselines_computed",
    "sweep.baselines_from_disk": "baselines_from_disk",
    "sweep.alloc_hits": "alloc_hits",
    "sweep.alloc_misses": "alloc_misses",
    "sweep.artifact_hits": "artifact_hits",
    "sweep.artifact_misses": "artifact_misses",
    "sweep.artifact_stores": "artifact_stores",
}

SWEEP_TIMERS = {
    "sweep.total_seconds": "total_seconds",
    "sweep.trace_seconds": "trace_seconds",
    "sweep.replay_seconds": "replay_seconds",
}

#: carrier: :class:`repro.serve.queue.ServeStats`.  The latency names
#: are fixed histogram buckets (job submit -> terminal state) so the
#: whole distribution lives inside the closed counter schema.
SERVE_COUNTERS = {
    "serve.jobs_submitted": "jobs_submitted",
    "serve.jobs_rejected": "jobs_rejected",
    "serve.jobs_completed": "jobs_completed",
    "serve.jobs_failed": "jobs_failed",
    "serve.jobs_cancelled": "jobs_cancelled",
    "serve.jobs_timed_out": "jobs_timed_out",
    "serve.batches": "batches",
    "serve.batched_jobs": "batched_jobs",
    "serve.max_batch_width": "max_batch_width",
    "serve.retries": "retries",
    "serve.max_queue_depth": "max_queue_depth",
    "serve.latency_le_10ms": "latency_le_10ms",
    "serve.latency_le_100ms": "latency_le_100ms",
    "serve.latency_le_1s": "latency_le_1s",
    "serve.latency_le_10s": "latency_le_10s",
    "serve.latency_over_10s": "latency_over_10s",
}

SERVE_TIMERS = {
    "serve.queue_seconds": "queue_seconds",
    "serve.exec_seconds": "exec_seconds",
}

#: carrier: :class:`repro.dse.runner.DseStats`.
DSE_COUNTERS = {
    "dse.evaluations": "evaluations",
    "dse.cells": "cells",
    "dse.batches": "batches",
    "dse.full_evaluations": "full_evaluations",
    "dse.cheap_evaluations": "cheap_evaluations",
    "dse.promotions": "promotions",
    "dse.dispatched_batches": "dispatched_batches",
    "dse.frontier_points": "frontier_points",
    "dse.dominated": "dominated",
}

DSE_TIMERS = {
    "dse.total_seconds": "total_seconds",
    "dse.evaluate_seconds": "evaluate_seconds",
}

#: carrier: :class:`repro.fleet.coordinator.FleetStats`.
FLEET_COUNTERS = {
    "fleet.jobs_submitted": "jobs_submitted",
    "fleet.jobs_completed": "jobs_completed",
    "fleet.jobs_failed": "jobs_failed",
    "fleet.jobs_shed": "jobs_shed",
    "fleet.forwards": "forwards",
    "fleet.forward_failures": "forward_failures",
    "fleet.redispatch": "redispatches",
    "fleet.workers_registered": "workers_registered",
    "fleet.workers_lost": "workers_lost",
    "fleet.poll_cycles": "poll_cycles",
    "fleet.max_inflight": "max_inflight_seen",
}

FLEET_TIMERS = {
    "fleet.forward_seconds": "forward_seconds",
    "fleet.poll_seconds": "poll_seconds",
}

#: carrier: :class:`repro.mpsoc.dispatch.MpsocStats` (a ``DseStats``
#: subclass — one exploration exports both the ``dse.*`` names and
#: these scenario-layer additions).
MPSOC_COUNTERS = {
    "mpsoc.allocations_scored": "allocations_scored",
    "mpsoc.feasible_allocations": "feasible_allocations",
    "mpsoc.pruned_allocations": "pruned_allocations",
    "mpsoc.dispatch_accelerated": "dispatch_accelerated",
    "mpsoc.dispatch_plain": "dispatch_plain",
    "mpsoc.matrix_cells": "matrix_cells",
}

MPSOC_TIMERS = {
    "mpsoc.compose_seconds": "compose_seconds",
}

#: carrier: :class:`repro.corpus.manifest.CorpusStats`.
CORPUS_COUNTERS = {
    "corpus.kernels_generated": "kernels_generated",
    "corpus.kernels_verified": "kernels_verified",
    "corpus.verify_failures": "verify_failures",
    "corpus.kernels_registered": "kernels_registered",
    "corpus.dynamic_instructions": "dynamic_instructions",
}

CORPUS_TIMERS = {
    "corpus.generate_seconds": "generate_seconds",
    "corpus.verify_seconds": "verify_seconds",
}

#: carrier: :class:`repro.traffic.replay.TrafficStats`.
TRAFFIC_COUNTERS = {
    "traffic.requests_planned": "requests_planned",
    "traffic.requests_submitted": "requests_submitted",
    "traffic.requests_completed": "requests_completed",
    "traffic.requests_failed": "requests_failed",
    "traffic.requests_shed": "requests_shed",
    "traffic.requests_timed_out": "requests_timed_out",
    "traffic.hot_rotations": "hot_rotations",
    "traffic.unique_workloads": "unique_workloads",
    "traffic.max_outstanding": "max_outstanding",
}

TRAFFIC_TIMERS = {
    "traffic.run_seconds": "run_seconds",
    "traffic.submit_seconds": "submit_seconds",
    "traffic.poll_seconds": "poll_seconds",
}


def _collect(obj, mapping: Dict[str, str]) -> Dict[str, int]:
    return {name: getattr(obj, attr) for name, attr in mapping.items()}


def dim_counters(stats) -> Dict[str, int]:
    """Canonical counters of a :class:`repro.dim.engine.DimStats`."""
    return _collect(stats, DIM_COUNTERS)


def dynflow_counters(stats) -> Dict[str, int]:
    """Dynamic control-flow counters of a ``DimStats``."""
    return _collect(stats, DYNFLOW_COUNTERS)


def rcache_counters(cache) -> Dict[str, int]:
    """Canonical counters of a reconfiguration cache."""
    return _collect(cache, RCACHE_COUNTERS)


def predictor_counters(predictor) -> Dict[str, int]:
    """Canonical counters of a bimodal predictor."""
    return _collect(predictor, PREDICTOR_COUNTERS)


def engine_counters(engine) -> Dict[str, int]:
    """All counters of one :class:`repro.dim.engine.DimEngine`."""
    counters = dim_counters(engine.stats)
    counters.update(dynflow_counters(engine.stats))
    counters.update(rcache_counters(engine.cache))
    counters.update(predictor_counters(engine.predictor))
    return counters


def metrics_counters(metrics, predictor) -> Dict[str, int]:
    """The :func:`engine_counters` of the engine that produced one cell,
    read back from its :class:`~repro.system.traceeval.SystemMetrics`
    (``dim`` and the ``cache_*`` fields) and a predictor-like
    ``updates``/``hits`` carrier, such as the workload's
    :class:`~repro.sim.coltrace.PredictorTimeline`."""
    counters = dim_counters(metrics.dim)
    counters.update(dynflow_counters(metrics.dim))
    counters.update({name: getattr(metrics, "cache_" + attr)
                     for name, attr in RCACHE_COUNTERS.items()})
    counters.update(predictor_counters(predictor))
    return counters


def sweep_counters(inst) -> Dict[str, int]:
    """Canonical integer counters of a ``SweepInstrumentation``."""
    return _collect(inst, SWEEP_COUNTERS)


def sweep_timers(inst) -> Dict[str, float]:
    """Canonical timer values of a ``SweepInstrumentation``."""
    return _collect(inst, SWEEP_TIMERS)


def serve_counters(stats) -> Dict[str, int]:
    """Canonical counters of a :class:`repro.serve.queue.ServeStats`."""
    return _collect(stats, SERVE_COUNTERS)


def serve_timers(stats) -> Dict[str, float]:
    """Canonical timer values of a ``ServeStats``."""
    return _collect(stats, SERVE_TIMERS)


def dse_counters(stats) -> Dict[str, int]:
    """Canonical counters of a :class:`repro.dse.runner.DseStats`."""
    return _collect(stats, DSE_COUNTERS)


def dse_timers(stats) -> Dict[str, float]:
    """Canonical timer values of a ``DseStats``."""
    return _collect(stats, DSE_TIMERS)


def fleet_counters(stats) -> Dict[str, int]:
    """Canonical counters of a ``FleetStats``."""
    return _collect(stats, FLEET_COUNTERS)


def fleet_timers(stats) -> Dict[str, float]:
    """Canonical timer values of a ``FleetStats``."""
    return _collect(stats, FLEET_TIMERS)


def mpsoc_counters(stats) -> Dict[str, int]:
    """Scenario-layer counters of a
    :class:`repro.mpsoc.dispatch.MpsocStats` (the ``dse.*`` base
    counters come from :func:`dse_counters`)."""
    return _collect(stats, MPSOC_COUNTERS)


def mpsoc_timers(stats) -> Dict[str, float]:
    """Scenario-layer timer values of an ``MpsocStats``."""
    return _collect(stats, MPSOC_TIMERS)


def corpus_counters(stats) -> Dict[str, int]:
    """Canonical counters of a :class:`repro.corpus.manifest.CorpusStats`."""
    return _collect(stats, CORPUS_COUNTERS)


def corpus_timers(stats) -> Dict[str, float]:
    """Canonical timer values of a ``CorpusStats``."""
    return _collect(stats, CORPUS_TIMERS)


def traffic_counters(stats) -> Dict[str, int]:
    """Canonical counters of a :class:`repro.traffic.replay.TrafficStats`."""
    return _collect(stats, TRAFFIC_COUNTERS)


def traffic_timers(stats) -> Dict[str, float]:
    """Canonical timer values of a ``TrafficStats``."""
    return _collect(stats, TRAFFIC_TIMERS)
