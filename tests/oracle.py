"""The event-engine oracle for matrix results.

Builds the results JSON of a workloads x configurations matrix the
slow, obvious way: every cell is one :func:`evaluate_trace` plus one
:func:`baseline_metrics` on the workload's trace, folded through the
same :func:`result_from_metrics` the sweep engine uses.  The columnar
sweep must match it byte for byte.

As a script it takes the selection options of ``repro sweep`` and
writes the oracle JSON of the same cells::

    PYTHONPATH=src python -m tests.oracle --only crc,sha \\
        --arrays C1,C3 --slots 16,64 --json oracle.json
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from repro.system.config import SystemConfig
from repro.system.energy import EnergyParams
from repro.system.sweep import MatrixResult
from repro.system.traceeval import baseline_metrics, evaluate_trace
from repro.workloads import run_workload, workload_names
from repro.workloads.suite import SuiteResult, result_from_metrics


def event_matrix(configs: Sequence[SystemConfig],
                 names: Optional[Sequence[str]] = None) -> MatrixResult:
    """Every cell evaluated alone on the event engine."""
    names = list(names) if names is not None else workload_names()
    traces = {name: run_workload(name).trace for name in names}
    suites = []
    for config in configs:
        suites.append(SuiteResult(config.name, [
            result_from_metrics(
                name, config, baseline_metrics(trace, config.timing),
                evaluate_trace(trace, config, name=name), EnergyParams())
            for name, trace in traces.items()]))
    return MatrixResult(names=names, suites=suites)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import (_activate_corpus, _build_configs,
                           _subset_names, build_parser)

    args = build_parser().parse_args(["sweep", *(argv or sys.argv[1:])])
    corpus_names = _activate_corpus(args.corpus)
    matrix = event_matrix(_build_configs(args),
                          _subset_names(args, corpus_names))
    with open(args.json, "w") as handle:
        handle.write(matrix.results_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
