"""``repro.obs`` — the unified telemetry subsystem.

One hierarchy of named counters, timers and a bounded schema'd event
stream, threaded through every layer that used to keep private
counters: the simulator and its block compiler, the DIM engine with its
reconfiguration cache and predictor, and the matrix sweep engine.

Entry points
------------
- :class:`Telemetry` — a live sink.  Inject one into
  :func:`repro.system.traceeval.evaluate_trace`,
  :func:`repro.system.sweep.evaluate_matrix`,
  :func:`repro.system.report.build_report`, :func:`repro.sim.run_program`
  or the interpreted oracle :func:`repro.system.coupled.run_coupled`;
  read ``.counters`` / ``.timers`` / ``.events`` afterwards, or stream
  with :meth:`Telemetry.write_jsonl`.
- :data:`NULL_TELEMETRY` — the zero-overhead default every component
  holds when nothing was injected (< 2 % replay overhead, enforced by
  ``benchmarks/bench_telemetry_overhead.py``).
- :meth:`Telemetry.snapshot` / :meth:`Telemetry.diff` — delta
  assertions for tests and benches.
- :mod:`repro.obs.schema` — the canonical dotted counter names and the
  collectors that map legacy stat objects onto them.
- :mod:`repro.obs.events` — the closed event-type schema and JSONL
  validation helpers.
"""

from repro.obs.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
)
from repro._lazy import lazy_dir, lazy_exports

#: the event schema and the counter collectors load on first use: a
#: run with telemetry off touches only :data:`NULL_TELEMETRY`.
_EXPORTS = {
    **{name: "repro.obs.events" for name in (
        "DEFAULT_MAX_EVENTS", "EVENT_TYPES", "SCHEMA_VERSION", "EventLog",
        "validate_event", "validate_jsonl")},
    **{name: "repro.obs.schema" for name in (
        "dim_counters", "dse_counters", "dse_timers", "dynflow_counters",
        "engine_counters", "metrics_counters", "mpsoc_counters",
        "mpsoc_timers", "predictor_counters", "rcache_counters",
        "serve_counters", "serve_timers", "sweep_counters",
        "sweep_timers")},
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__dir__ = lazy_dir(globals(), _EXPORTS)

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
    "DEFAULT_MAX_EVENTS",
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "EventLog",
    "validate_event",
    "validate_jsonl",
    "dim_counters",
    "dse_counters",
    "dse_timers",
    "dynflow_counters",
    "engine_counters",
    "metrics_counters",
    "mpsoc_counters",
    "mpsoc_timers",
    "predictor_counters",
    "rcache_counters",
    "serve_counters",
    "serve_timers",
    "sweep_counters",
    "sweep_timers",
]
