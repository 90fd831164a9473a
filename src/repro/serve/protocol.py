"""The versioned JSON protocol of the evaluation service.

Every request and response on the wire is one flat JSON object; this
module is the single place their shapes are defined and validated, so
the HTTP server (:mod:`repro.serve.server`), the blocking client
(:mod:`repro.serve.client`) and the job manager
(:mod:`repro.serve.queue`) all agree by construction.

Protocol sketch (all paths under ``/v1/``):

=========  ======================  =====================================
method     path                    body / reply
=========  ======================  =====================================
POST       ``submit``              job spec -> ``{"job_id", "state"}``
GET        ``status/<id>``         -> job status object
GET        ``jobs``                -> ``{"jobs": [status, ...]}``
GET        ``result/<id>``         -> result payload (409 until done)
POST       ``cancel/<id>``         -> job status object
GET        ``healthz``             -> liveness + queue depth
GET        ``metrics``             -> telemetry counters/timers
GET        ``events``              -> JSONL telemetry event stream
POST       ``pause`` / ``resume``  -> scheduler gate (tests, benches)
POST       ``shutdown``            ``{"drain": bool}`` -> final stats
=========  ======================  =====================================

A *job spec* is::

    {"kind": "run" | "evaluate" | "sweep",
     "target": <workload|path>,          # run only
     "configs": [{"array": "C2", "slots": 64,
                  "speculation": true}, ...],
     "names": ["crc", ...] | null,       # evaluate/sweep workload subset
     "priority": int, "timeout": seconds | null}

Every job runs on the one production (block-compiled) simulator.  Old
clients may still send ``"fast": bool``: it must be a boolean, and is
then dropped, so it never splits a batch.

A config object is the wire form of one
:class:`~repro.system.config.SystemSpec` (its ``to_dict()``): it names
either a Table 1 array (``"array"``) or — for design-space exploration
clients (:mod:`repro.dse`) — an arbitrary geometry plus optional DIM
policy overrides::

    {"shape": {"rows": 32, "alus_per_row": 8, "mults_per_row": 2,
               "ldsts_per_row": 4, ...},   # ArrayShape fields
     "slots": 64, "speculation": true,
     "dim": {"cache_policy": "lru", ...}}  # non-default DimParams extras

``"array"`` and ``"shape"`` are mutually exclusive.  The protocol has
no system format of its own: :func:`validate_submission` parses each
config with ``SystemSpec.from_dict``, so ``JobRequest.configs`` holds
specs, and any value a spec refuses — a DIM value no engine can
run included — is a ``bad_param`` error naming ``configs[i]`` (an array
name outside Table 1 is ``unknown_array``).  Adding the shape form is
backward-compatible (old clients never send it), so the protocol
version stays at 1.

Failures are *structured errors*::

    {"error": {"code": "<machine code>", "message": "...",
               "field": "<offending field>"}, "protocol": 1}

The ``code`` vocabulary is closed (:data:`ERROR_CODES`) so clients can
dispatch on it without parsing prose.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import SCHEMA_VERSION
from repro.system.config import PAPER_CACHE_SLOTS, PAPER_SHAPES, SystemSpec
from repro.workloads import workload_names

#: bump when a request/response shape changes incompatibly.
PROTOCOL_VERSION = 1

#: the three job kinds, mirroring the ``repro.api`` verbs.
JOB_KINDS = ("run", "evaluate", "sweep")

#: closed vocabulary of structured-error codes.
ERROR_CODES = frozenset({
    "bad_json",          # request body is not a JSON object
    "bad_param",         # a field has the wrong type or value
    "unknown_kind",      # job kind outside JOB_KINDS
    "unknown_workload",  # a name not in the benchmark suite
    "unknown_array",     # an array name outside Table 1
    "queue_full",        # the bounded queue rejected the submission
    "unknown_job",       # no job with that id
    "not_finished",      # result requested before a terminal state
    "job_failed",        # result requested for a failed job
    "job_cancelled",     # result requested for a cancelled job
    "job_timeout",       # result requested for a deadline-expired job
    "shutting_down",     # submission during drain
    "worker_failure",    # a job's batch kept failing (a job status error)
    "not_found",         # unroutable path
    # fleet coordinator (repro.fleet) additions; same closed vocabulary
    # so ServeClient error dispatch works unchanged against a fleet.
    "fleet_saturated",   # load shed: the fleet's in-flight cap is hit
    "no_workers",        # no live worker shard can take the job
    "unknown_worker",    # heartbeat/deregister for an unknown worker id
})


class JobState:
    """The job lifecycle; terminal states never change again."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED, TIMEOUT})
    ALL = frozenset({PENDING, RUNNING, DONE, FAILED, CANCELLED, TIMEOUT})


class ProtocolError(Exception):
    """A structured, machine-dispatchable protocol failure."""

    def __init__(self, code: str, message: str,
                 field_name: Optional[str] = None,
                 http_status: int = 400):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.field = field_name
        self.http_status = http_status

    def as_dict(self) -> Dict[str, object]:
        error: Dict[str, object] = {"code": self.code,
                                    "message": str(self)}
        if self.field is not None:
            error["field"] = self.field
        return {"error": error, "protocol": PROTOCOL_VERSION}


@dataclass(frozen=True)
class JobRequest:
    """A validated, normalised job submission."""

    kind: str
    configs: Tuple[SystemSpec, ...] = ()
    names: Optional[Tuple[str, ...]] = None
    target: Optional[str] = None
    priority: int = 0
    timeout: Optional[float] = None

    @property
    def fingerprint(self) -> str:
        """The batch-coalescing key: jobs with equal fingerprints can
        share one trace and one columnar context.

        ``evaluate``/``sweep`` jobs replay the same workload traces
        whenever their names agree — their configurations may differ
        freely, that is exactly what the matrix replay shares.  A
        ``run`` job is a traced plain run plus an event replay of its
        target (:func:`repro.api.run`), keyed by the target alone.
        """
        if self.kind == "run":
            identity = ("run", self.target)
        else:
            names = self.names if self.names is not None \
                else tuple(workload_names())
            identity = ("matrix", names)
        digest = hashlib.sha256(repr(identity).encode())
        return digest.hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "configs": [spec.to_dict() for spec in self.configs],
            "priority": self.priority,
            "timeout": self.timeout,
        }
        if self.names is not None:
            payload["names"] = list(self.names)
        if self.target is not None:
            payload["target"] = self.target
        return payload


# ----------------------------------------------------------------------
# Validation.
# ----------------------------------------------------------------------
def _require(condition: bool, code: str, message: str,
             field_name: Optional[str] = None) -> None:
    if not condition:
        raise ProtocolError(code, message, field_name)


def _validate_config(entry: object, index: int) -> SystemSpec:
    """One wire config object as a :class:`SystemSpec`; any fault is a
    structured error naming ``configs[index]``."""
    field_name = f"configs[{index}]"
    try:
        return SystemSpec.from_dict(entry)
    except ValueError as exc:
        array = entry.get("array") if isinstance(entry, Mapping) else None
        code = ("unknown_array" if isinstance(array, str)
                and array not in PAPER_SHAPES else "bad_param")
        raise ProtocolError(code, f"{field_name}: {exc}",
                            field_name) from None


def system_spec(spec: SystemSpec) -> SystemSpec:
    """The identity: a validated config already is its
    :class:`SystemSpec`.  Kept only because the benchmark's goldens
    script (``perfbench/goldens.py``) still imports it."""
    return spec


def _validate_names(raw: object) -> Optional[Tuple[str, ...]]:
    if raw is None:
        return None
    _require(isinstance(raw, Sequence) and not isinstance(raw, str),
             "bad_param", "names must be a list of workload names",
             "names")
    names: List[str] = []
    known = set(workload_names())
    for name in raw:
        _require(isinstance(name, str), "bad_param",
                 "names must be a list of strings", "names")
        if name not in known:
            raise ProtocolError(
                "unknown_workload", f"unknown workload {name!r}",
                "names")
        names.append(name)
    _require(bool(names), "bad_param", "names must not be empty",
             "names")
    return tuple(names)


def validate_submission(payload: object) -> JobRequest:
    """Validate one submit body; raises :class:`ProtocolError`.

    The returned request is fully normalised: every config is a
    :class:`SystemSpec`, names are a tuple or None (meaning the whole
    suite), and defaults are applied.
    """
    _require(isinstance(payload, Mapping), "bad_json",
             "request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(
            "unknown_kind",
            f"unknown job kind {kind!r}: expected one of "
            f"{', '.join(JOB_KINDS)}", "kind")

    # accepted from old clients and dropped: one simulator serves all
    _require(isinstance(payload.get("fast", False), bool), "bad_param",
             "fast must be a boolean", "fast")
    priority = payload.get("priority", 0)
    _require(isinstance(priority, int) and not isinstance(priority, bool),
             "bad_param", "priority must be an integer", "priority")
    timeout = payload.get("timeout")
    if timeout is not None:
        _require(isinstance(timeout, (int, float))
                 and not isinstance(timeout, bool) and timeout >= 0,
                 "bad_param", "timeout must be a non-negative number",
                 "timeout")
        timeout = float(timeout)

    names = _validate_names(payload.get("names"))
    raw_configs = payload.get("configs")
    target = payload.get("target")

    if kind == "run":
        _require(isinstance(target, str) and bool(target), "bad_param",
                 "run jobs need a target (workload name or source "
                 "path)", "target")
    else:
        _require(target is None, "bad_param",
                 f"{kind} jobs take names, not a target", "target")

    configs: Tuple[SystemSpec, ...]
    if raw_configs is None:
        if kind == "run":
            configs = (SystemSpec(array="C3"),)
        elif kind == "evaluate":
            configs = (SystemSpec(array="C2", speculation=True),)
        else:  # sweep defaults to the paper's Table 2 matrix
            configs = paper_matrix_specs()
    else:
        _require(isinstance(raw_configs, Sequence)
                 and not isinstance(raw_configs, str), "bad_param",
                 "configs must be a list of config objects", "configs")
        _require(bool(raw_configs), "bad_param",
                 "configs must not be empty", "configs")
        if kind in ("run", "evaluate"):
            _require(len(raw_configs) == 1, "bad_param",
                     f"{kind} jobs take exactly one config; use a "
                     f"sweep job for a matrix", "configs")
        configs = tuple(_validate_config(entry, index)
                        for index, entry in enumerate(raw_configs))

    unknown = set(payload) - {"kind", "configs", "names", "target",
                              "fast", "priority", "timeout"}
    _require(not unknown, "bad_param",
             f"unknown fields: {sorted(unknown)}")
    return JobRequest(kind=kind, configs=configs, names=names,
                      target=target, priority=priority,
                      timeout=timeout)


def paper_matrix_specs() -> Tuple[SystemSpec, ...]:
    """The Table 2 matrix as system specs (see
    :func:`repro.system.sweep.paper_matrix`)."""
    specs = [SystemSpec(array=array, slots=slots, speculation=spec)
             for array in ("C1", "C2", "C3")
             for spec in (False, True)
             for slots in PAPER_CACHE_SLOTS]
    specs += [SystemSpec(array="ideal", speculation=spec)
              for spec in (False, True)]
    return tuple(specs)


#: the ``result`` route's error code for a job in each terminal state
#: other than done; any live state answers ``not_finished``.
_RESULT_ERRORS = {JobState.FAILED: "job_failed",
                  JobState.CANCELLED: "job_cancelled",
                  JobState.TIMEOUT: "job_timeout"}


def result_reply(job) -> Dict[str, object]:
    """The ``result`` route's reply for a serve or fleet job.

    A done job answers its result payload; any other job raises
    ``not_finished`` (409) or, once terminal, ``job_failed`` /
    ``job_cancelled`` / ``job_timeout`` (410).
    """
    if job.state == JobState.DONE:
        return {"job_id": job.id, "state": job.state,
                "result": job.result}
    code = _RESULT_ERRORS.get(job.state, "not_finished")
    message = (job.error or {}).get("message", job.state)
    raise ProtocolError(code, f"job {job.id} is {job.state}: {message}",
                        http_status=409 if code == "not_finished" else 410)


def metrics_document(telemetry, counters: Mapping[str, int],
                     timers: Mapping[str, float]) -> Dict[str, object]:
    """The ``metrics`` route's reply: ``telemetry``'s counters and
    timers overlaid with a backend's own (``serve.*`` / ``fleet.*``),
    each sorted by name."""
    merged_counters = {**telemetry.counters, **counters}
    merged_timers = {**telemetry.timers, **timers}
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": PROTOCOL_VERSION,
        "counters": dict(sorted(merged_counters.items())),
        "timers": dict(sorted(merged_timers.items())),
        "events": telemetry.meta_record(),
    }


def dumps(payload: Mapping[str, object]) -> bytes:
    """Canonical wire encoding of one response object."""
    return json.dumps(payload, sort_keys=True).encode()


def loads(body: bytes) -> object:
    try:
        return json.loads(body.decode() or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_json", f"request body is not JSON "
                                        f"({exc})")
