"""The benchmark workload registry.

Built in are the 18 MiBench-analog workloads of Table 2.  MiBench
binaries cannot be compiled here (no MIPS gcc, no network), so every
benchmark is re-implemented in mini-C with the same algorithmic
structure as the MiBench program it stands in for: the same kind of
kernels, table usage, branch behaviour and data/control balance, on
reduced inputs sized for pure-Python simulation (see DESIGN.md).

The registry is *open*: generated kernels — most importantly the
synthetic corpus of :mod:`repro.corpus` — register through
:func:`register_workload` and become indistinguishable from the
built-ins: ``suite``, ``sweep``, ``dse``, ``serve``, ``fleet`` and
``mpsoc`` all consume them through the same :func:`get_workload` /
:func:`run_workload` path.  Worker *processes* (sweep ``--jobs`` pools,
serve batch workers, fleet worker subprocesses) pick registered corpora
up through the ``REPRO_CORPUS`` environment variable — a
``os.pathsep``-separated list of corpus manifest paths loaded lazily on
first registry access — so a parent that registers a corpus and then
fans out gets byte-identical results from every process.

Each workload carries the paper's row name and the paper's
dataflow/control ordering from Table 2.  :func:`load_workload` returns
(and caches) the program: a built-in loads from its committed program
image (:mod:`repro.workloads.images`), checked against its source's
digest, the way the paper's DIM runs precompiled binaries; a registered
workload compiles (mini-C) or assembles (generated kernels).  Only that
compile path imports the front end.  :func:`run_workload` additionally
executes the program and caches the basic-block trace used by the
benchmark harnesses; :func:`trace_workload` traces without caching
either the run or the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import import_module
from typing import Dict, List, Optional, Tuple

from repro.asm.program import Program
from repro.sim import RunResult, Trace, run_program

#: environment variable naming corpus manifests to auto-register
#: (``os.pathsep``-separated paths); how worker processes inherit the
#: parent's registered corpora.
CORPUS_ENV = "REPRO_CORPUS"


@dataclass(frozen=True)
class Workload:
    """One benchmark: source plus metadata.

    ``kind`` names the source language: ``"minic"`` or ``"asm"`` (the
    corpus generator emits assembly directly).  A built-in (always
    mini-C) loads from its program image, built from ``source`` by
    :func:`repro.minic.compile_to_program`; a registered workload
    compiles through that function or, for ``"asm"``, assembles
    through :func:`repro.asm.assemble`.
    """

    name: str
    paper_name: str
    #: 'dataflow', 'mid' or 'control' — the paper orders Table 2 from the
    #: most dataflow-oriented (top) to the most control-oriented (bottom).
    category: str
    source: str
    description: str = ""
    kind: str = "minic"


#: the 18 built-ins in Table 2's order (most dataflow at the top, most
#: control at the bottom): name -> (module, attribute).  A lookup by
#: name imports only the module that defines it.
_BUILTINS: Dict[str, Tuple[str, str]] = {
    "rijndael_e": ("crypto", "RIJNDAEL_E"),
    "rijndael_d": ("crypto", "RIJNDAEL_D"),
    "gsm_e": ("gsm", "GSM_E"),
    "jpeg_e": ("jpeg", "JPEG_E"),
    "sha": ("sha", "SHA"),
    "susan_s": ("susan", "SUSAN_SMOOTHING"),
    "crc": ("crc", "CRC"),
    "jpeg_d": ("jpeg", "JPEG_D"),
    "patricia": ("patricia", "PATRICIA"),
    "susan_c": ("susan", "SUSAN_CORNERS"),
    "susan_e": ("susan", "SUSAN_EDGES"),
    "dijkstra": ("dijkstra", "DIJKSTRA"),
    "gsm_d": ("gsm", "GSM_D"),
    "bitcount": ("bitcount", "BITCOUNT"),
    "stringsearch": ("stringsearch", "STRINGSEARCH"),
    "quicksort": ("quicksort", "QUICKSORT"),
    "rawaudio_e": ("adpcm", "RAWAUDIO_E"),
    "rawaudio_d": ("adpcm", "RAWAUDIO_D"),
}


def _builtin(name: str) -> Workload:
    module, attribute = _BUILTINS[name]
    return getattr(import_module(f"repro.workloads.{module}"), attribute)


_WORKLOADS: Optional[List[Workload]] = None
#: registered (non-built-in) workloads, in registration order.
_REGISTERED: Dict[str, Workload] = {}
_PROGRAMS: Dict[str, Program] = {}
_RUNS: Dict[str, RunResult] = {}
#: the REPRO_CORPUS value already loaded (None = not yet examined).
_ENV_CORPUS_LOADED: Optional[str] = None


def builtin_workloads() -> List[Workload]:
    """The 18 Table 2 workloads, without any registered extras."""
    global _WORKLOADS
    if _WORKLOADS is None:
        _WORKLOADS = [_builtin(name) for name in _BUILTINS]
    return _WORKLOADS


def _load_env_corpus() -> None:
    """Register every manifest named by ``REPRO_CORPUS``, once.

    Re-examined whenever the variable's value changes (the CLI sets it
    before fanning out so subprocesses inherit the same corpora).
    """
    global _ENV_CORPUS_LOADED
    value = os.environ.get(CORPUS_ENV, "")
    if value == (_ENV_CORPUS_LOADED or ""):
        return
    _ENV_CORPUS_LOADED = value
    if not value:
        return
    from repro.corpus import load_manifest, register_corpus

    for path in value.split(os.pathsep):
        if path.strip():
            register_corpus(load_manifest(path.strip()))


def all_workloads() -> List[Workload]:
    """All registered workloads: the 18 of Table 2, then extras in
    registration order."""
    _load_env_corpus()
    return builtin_workloads() + list(_REGISTERED.values())


def workload_names() -> List[str]:
    return [w.name for w in all_workloads()]


def register_workload(workload: Workload) -> Workload:
    """Add one workload to the registry.

    Re-registering the same name with identical (kind, source) is a
    no-op — corpora are loaded idempotently from several entry points —
    but a name collision with *different* content raises, because every
    downstream cache (programs, runs, artifacts, fleet shards) keys on
    the name.
    """
    existing = _find(workload.name)
    if existing is not None:
        if (existing.kind, existing.source) == (workload.kind,
                                                workload.source):
            return existing
        raise ValueError(
            f"workload name {workload.name!r} is already registered "
            f"with different content")
    _REGISTERED[workload.name] = workload
    return workload


def unregister_generated() -> None:
    """Drop every registered (non-built-in) workload and its caches.

    Test isolation helper: the built-ins and their cached runs are
    untouched.
    """
    global _ENV_CORPUS_LOADED
    for name in list(_REGISTERED):
        _PROGRAMS.pop(name, None)
        _RUNS.pop(name, None)
    _REGISTERED.clear()
    _ENV_CORPUS_LOADED = None if os.environ.get(CORPUS_ENV) else ""


def _find(name: str) -> Optional[Workload]:
    _load_env_corpus()
    registered = _REGISTERED.get(name)
    if registered is not None:
        return registered
    return _builtin(name) if name in _BUILTINS else None


def is_workload(name: str) -> bool:
    """Whether ``name`` is registered (loads only that workload)."""
    return _find(name) is not None


def get_workload(name: str) -> Workload:
    """The workload registered under ``name``.

    Raises :class:`ValueError` naming the valid workloads on an unknown
    name (mirroring the ``paper_system`` helpful-error precedent).
    """
    workload = _find(name)
    if workload is None:
        valid = ", ".join(workload_names())
        raise ValueError(
            f"unknown workload {name!r}: valid workload names are "
            f"{valid}")
    return workload


def load_workload(name: str) -> Program:
    """Load (with caching) one workload's program.

    A built-in reads its program image and raises
    :class:`~repro.workloads.images.ImageError` if the image is
    missing, malformed or stale; a registered workload compiles or
    assembles its source.  The cached program keeps its decode cache
    and compiled block factories for the life of the process;
    :func:`trace_workload` loads one that nothing keeps.
    """
    program = _PROGRAMS.get(name)
    if program is None:
        program = _PROGRAMS[name] = _load_program(name)
    return program


def _load_program(name: str) -> Program:
    """A fresh, uncached program for ``name`` (see :func:`load_workload`)."""
    workload = get_workload(name)
    if name in _BUILTINS:
        from repro.workloads.images import load_image

        return load_image(workload)
    if workload.kind == "asm":
        from repro.asm import assemble

        return assemble(workload.source)
    from repro.minic import compile_to_program

    return compile_to_program(workload.source, source_name=name)


def run_workload(name: str, fast: bool = True) -> RunResult:
    """Execute (with caching) one workload on the plain MIPS core.

    The cached result always carries the basic-block trace every
    benchmark harness replays; runs are cached because tracing a
    workload is the expensive step of the evaluation.  Runs are
    block-compiled (:mod:`repro.sim.fastpath`); ``fast`` is accepted
    for old callers and ignored.
    """
    del fast
    cached = _RUNS.get(name)
    if cached is not None:
        return cached
    result = _run_checked(name, load_workload(name))
    _RUNS[name] = result
    return result


def trace_workload(name: str) -> Trace:
    """Trace one workload on the plain MIPS core, keeping nothing.

    For callers that own the trace's lifetime (a sweep row).  A program
    a :func:`load_workload` caller already cached is reused; otherwise
    the program is loaded outside the cache, so its decode cache and
    compiled block factories die with the run and the trace is freed
    with its last reference.
    """
    program = _PROGRAMS.get(name)
    if program is None:
        program = _load_program(name)
    return _run_checked(name, program).trace


def _run_checked(name: str, program: Program) -> RunResult:
    """A traced run of ``program``; raises unless it exits cleanly."""
    result = run_program(program, collect_trace=True)
    if result.exit_code != 0:
        raise RuntimeError(
            f"workload {name} exited with {result.exit_code}")
    return result


def collect_runs(names: Optional[List[str]] = None,
                 jobs: int = 1) -> Dict[str, RunResult]:
    """Trace many workloads, optionally fanned across processes.

    With ``jobs > 1`` the uncached workloads are loaded and traced in a
    :class:`~concurrent.futures.ProcessPoolExecutor`; results come back
    in deterministic (requested) order and seed the in-process run cache
    so later calls are free.  Traces are deterministic, so the parallel
    path returns exactly what the serial path would.
    """
    names = list(names) if names is not None else workload_names()
    pending = [n for n in names if n not in _RUNS]
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))) as pool:
            for name, result in zip(pending,
                                    pool.map(run_workload, pending)):
                _RUNS[name] = result
    else:
        for name in pending:
            run_workload(name)
    return {name: _RUNS[name] for name in names}
