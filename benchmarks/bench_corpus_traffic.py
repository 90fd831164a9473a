"""Corpus-scale throughput and traffic-replay latency.

Not a paper experiment — this bench guards the PR's acceptance bar for
the synthetic workload corpus (:mod:`repro.corpus`) and the traffic
replayer (:mod:`repro.traffic`):

- generating a 100-kernel corpus (every kernel self-checked through the
  interpreter at generation time) and sweeping it through the columnar
  replay engine must sustain a reported cells/second figure, tracked
  PR-over-PR;
- a seeded traffic replay against a live in-process service is run at
  three Zipf skews (uniform, classic 1.1, hot 1.5); for each skew the
  p50/p99 latency, the server-diffed batch-coalescing hit rate and the
  shed rate are recorded — skewed traffic should coalesce *better* than
  uniform traffic because the hot head keeps landing in shared batches.

All figures are written to ``BENCH_corpus.json`` next to this file in
machine-readable form.
"""

import json
import time
from pathlib import Path

import pytest

from repro import api
from repro.corpus import generate_corpus, register_corpus
from repro.serve import EvalService, ServeClient, start_http
from repro.traffic import TrafficSpec, replay_traffic
from repro.workloads import unregister_generated

CORPUS_SEED = 42
CORPUS_COUNT = 100
ZIPF_SKEWS = (0.0, 1.1, 1.5)

#: all measured figures; dumped to BENCH_corpus.json on teardown.
RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    unregister_generated()
    if RESULTS:
        path = Path(__file__).with_name("BENCH_corpus.json")
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                        + "\n")


@pytest.fixture(scope="module")
def corpus_names():
    start = time.perf_counter()
    corpus = generate_corpus(CORPUS_SEED, CORPUS_COUNT)
    generate_seconds = time.perf_counter() - start
    names = register_corpus(corpus)
    categories = {}
    for kernel in corpus.kernels:
        categories[kernel.category] = \
            categories.get(kernel.category, 0) + 1
    RESULTS["corpus"] = {
        "seed": CORPUS_SEED,
        "kernels": corpus.count,
        "generate_seconds": generate_seconds,
        "kernels_per_second": corpus.count / generate_seconds,
        "dynamic_instructions": sum(k.instructions
                                    for k in corpus.kernels),
        "categories": categories,
    }
    return names


def test_columnar_sweep_throughput_over_corpus(corpus_names, capsys):
    """100 kernels x 2 systems through the columnar replay engine."""
    configs = [api.SystemSpec(array="C2", slots=64,
                              speculation=True).build(),
               api.SystemSpec(array="C3", slots=128,
                              speculation=True).build()]
    start = time.perf_counter()
    matrix = api.sweep(configs, names=corpus_names)
    sweep_seconds = time.perf_counter() - start
    cells = len(corpus_names) * len(configs)
    assert len(matrix.suites) == len(configs)
    assert all(len(suite.results) == len(corpus_names)
               for suite in matrix.suites)
    RESULTS["columnar_sweep"] = {
        "kernels": len(corpus_names),
        "systems": len(configs),
        "cells": cells,
        "seconds": sweep_seconds,
        "cells_per_second": cells / sweep_seconds,
    }
    with capsys.disabled():
        print(f"\ncolumnar sweep: {cells} cells in "
              f"{sweep_seconds:.2f}s "
              f"({cells / sweep_seconds:.1f} cells/s)")


def test_traffic_latency_across_zipf_skews(corpus_names, capsys):
    """One replay per skew against a live service; skewed mixes should
    coalesce at least as well as uniform ones."""
    svc = EvalService(workers=0, cache_root=None, batch_window=0.01)
    svc.start()
    server, _ = start_http(svc)
    client = ServeClient("http://%s:%s" % server.server_address[:2],
                         timeout=300.0)
    by_skew = {}
    try:
        for skew in ZIPF_SKEWS:
            spec = TrafficSpec(seed=9, requests=60, rate=150.0,
                               zipf_s=skew, hot_rotate=0.2)
            report = replay_traffic(client, spec, corpus_names,
                                    poll=0.02, drain_timeout=300.0)
            assert report.stats.requests_completed == spec.requests
            by_skew[f"zipf_{skew}"] = {
                "requests": spec.requests,
                "unique_workloads": report.stats.unique_workloads,
                "latency_p50_ms": report.summary()["latency_p50_ms"],
                "latency_p99_ms": report.summary()["latency_p99_ms"],
                "throughput_rps": report.summary()["throughput_rps"],
                "coalescing_rate": report.coalescing_rate,
                "shed_rate": report.shed_rate,
            }
    finally:
        svc.stop(drain=False)
        server.shutdown()
    # the hot head narrows the working set as skew rises
    uniques = [by_skew[f"zipf_{s}"]["unique_workloads"]
               for s in ZIPF_SKEWS]
    assert uniques[0] >= uniques[-1]
    RESULTS["traffic"] = by_skew
    with capsys.disabled():
        for skew in ZIPF_SKEWS:
            row = by_skew[f"zipf_{skew}"]
            print(f"zipf {skew}: p50 {row['latency_p50_ms']:.1f}ms "
                  f"p99 {row['latency_p99_ms']:.1f}ms "
                  f"coalescing {row['coalescing_rate']:.0%} "
                  f"shed {row['shed_rate']:.0%}")
