"""The traced run: a layer profile of the four canonical paths.

Every layer is timed from outside, around calls into its public
functions, or is a counter diffed from the public ``/v1/metrics``
endpoints.  The profile is the same whichever workload asks for it, so
a per-layer number compares across commits on any workload:

- run probe: ``repro run`` for :data:`mix.PROBE_PAIRS`, once untraced
  and once through ``traced_ops.py run`` (cli, sim, coupled,
  traceeval);
- sweep probe: ``repro sweep --only`` over :data:`mix.PROBE_NAMES`,
  once untraced and once through ``traced_ops.py sweep`` (sim,
  coltrace, colreplay, sweep, artifacts);
- service probe: one short open-loop schedule against a warm
  ``repro serve``, a warm ``repro fleet`` and a no-op service (serve,
  fleet, artifacts, driver).

Residuals (op time minus every layer timed inside it) and the tracing
overhead (traced against untraced op time) are reported per probe.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import loadgen
import mix
import procs
import service
from workloads import Context

#: seconds of the service probe's open-loop schedule.
SERVICE_PROBE_SECONDS = 6.0


def _traced(ctx: Context, args: List[str], name: str) -> dict:
    code, wall, _, _, text = ctx.python(
        [str(procs.HERE / "traced_ops.py"), *args], name)
    if code != 0:
        raise procs.BenchError(f"traced op {args} failed: {text[-500:]}")
    report = json.loads(text.strip().splitlines()[-1])
    report["op_wall_s"] = wall - report["post_op_s"]
    return report


def _cycles(text: str) -> List[int]:
    """Plain and accelerated cycle counts from ``repro run`` stdout."""
    counts = []
    for line in text.splitlines():
        if " cycles" in line and ":" in line:
            count = line.split(":", 1)[1].split("cycles")[0]
            counts.append(int(count.replace(",", "")))
    return counts[:2]


def run_probe(ctx: Context) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    untraced = traced_wall = inside = 0.0
    instructions = 0
    for pair in mix.PROBE_PAIRS:
        code, wall, _, _, text = ctx.cli(mix.run_args(pair), "probe-run")
        ok = code == 0 and mix.digest(text) == ctx.goldens[
            "run_stdout_sha256"][mix.pair_key(pair)]
        report = _traced(ctx, ["run", pair[0], pair[1], str(pair[2]),
                               "1" if pair[3] else "0"], "traced-run")
        ok = ok and _cycles(text) == [report["plain_cycles"],
                                      report["accel_cycles"]]
        ctx.tally(2, 0 if ok else 2)
        untraced += wall
        traced_wall += report["op_wall_s"]
        instructions += report["instructions"]
        for key, seconds in report["layers"].items():
            layers[key] = layers.get(key, 0.0) + seconds
            inside += seconds
    layers["run.other_s"] = traced_wall - inside
    layers["trace.run_overhead_frac"] = traced_wall / untraced - 1.0
    layers["run.sim_s"] = layers.pop("sim.trace_s")
    layers["run.minstr"] = instructions / 1e6
    layers["cli.startup_s"] /= len(mix.PROBE_PAIRS)
    return layers


def sweep_probe(ctx: Context) -> Dict[str, float]:
    target = ctx.dir / "probe-sweep.json"
    code, wall, _, _, _ = ctx.cli(list(mix.PROBE_SWEEP_ARGS)
                                  + ["--json", str(target)], "probe-sweep")
    ok = code == 0 and mix.digest(target.read_text()) == \
        ctx.goldens["probe_sweep_sha256"]
    store = procs.fresh_dir(ctx.dir / "probe-store")
    report = _traced(ctx, ["sweep", ",".join(mix.PROBE_NAMES),
                           str(store)], "traced-sweep")
    ok = ok and report["sha256"] == ctx.goldens["probe_sweep_sha256"]
    ctx.tally(2, 0 if ok else 2)
    t = report["layers"]
    cells = report["cells"]
    spec_cells = cells // 2
    lookups = report["alloc_hits"] + report["alloc_misses"]
    return {
        "sweep.startup_s": t["cli.startup_s"],
        "sim.trace_s": t["sim.trace_s"],
        "sweep.minstr": report["instructions"] / 1e6,
        "coltrace.lower_s": t["coltrace.lower_s"],
        "colreplay.nospec_cell_ms": t["colreplay.nospec_s"]
        / (cells - spec_cells) * 1e3,
        "colreplay.spec_cell_ms": t["colreplay.spec_s"] / spec_cells * 1e3,
        "colreplay.warm_cell_ms": report["warm_s"] / cells * 1e3,
        "colreplay.baseline_ms": t["colreplay.baseline_s"]
        / report["baselines"] * 1e3,
        "colreplay.alloc_hit_rate": report["alloc_hits"] / max(1, lookups),
        "sweep.assemble_ms": t["sweep.assemble_s"] * 1e3,
        "sweep.other_s": report["op_wall_s"] - sum(t.values()),
        "trace.sweep_overhead_frac": report["op_wall_s"] / wall - 1.0,
        "artifacts.store_ms": report["store_s"] / report["entries"] * 1e3,
        "artifacts.load_ms": report["load_s"] / report["entries"] * 1e3,
    }


def _sum(metrics_list: List[dict], section: str, name: str) -> float:
    return sum(float(m[section].get(name, 0)) for m in metrics_list)


def _delta(after: List[dict], before: List[dict], section: str,
           name: str) -> float:
    return _sum(after, section, name) - _sum(before, section, name)


def _service_pass(ctx: Context, topology: str, template,
                  jobs: List[mix.Job]):
    svc = service.start_warm(ctx.reaper, topology, template, ctx.dir,
                             ctx.goldens, label=f"probe-{topology}")
    try:
        before = svc.serving_metrics()
        fleet_before = svc.metrics() if topology == "fleet" else None
        phase = loadgen.open_loop(svc.url, jobs, ctx.goldens)
        after = svc.serving_metrics()
        fleet_after = svc.metrics() if topology == "fleet" else None
        shards = [int(w["jobs_owned"]) for w in svc.workers()]
    finally:
        svc.stop()
    ctx.tally(phase.planned, phase.errors)
    return phase, before, after, fleet_before, fleet_after, shards


def _floor(ctx: Context, jobs: List[mix.Job]) -> loadgen.PhaseResult:
    """The same schedule against a service whose batches do nothing."""
    log = ctx.dir / "floor.log"
    env = procs.child_env(ctx.dir / "cache")
    with open(log, "w") as out:
        proc = ctx.reaper.popen([procs.python(),
                                 str(procs.HERE / "floor_server.py")],
                                env, out)
    try:
        deadline = time.monotonic() + 30.0
        while "http://" not in log.read_text():
            if proc.poll() is not None or time.monotonic() > deadline:
                raise procs.BenchError(f"floor server did not start: "
                                       f"{log.read_text()[-300:]!r}")
            time.sleep(0.02)
        url = log.read_text().split()[-1]
        return loadgen.open_loop(url, jobs, None)
    finally:
        ctx.reaper.stop(proc)


def _median(values, default=0.0):
    return mix.median(values) if values else default


def service_probe(ctx: Context) -> Dict[str, float]:
    template = service.template_store(ctx.reaper)
    jobs = mix.Mixer(ctx.seed).open_loop(mix.BASE_RPS,
                                         SERVICE_PROBE_SECONDS)
    serve, s_before, s_after, _, _, _ = _service_pass(ctx, "serve",
                                                      template, jobs)
    fleet, _, _, f_before, f_after, shards = _service_pass(
        ctx, "fleet", template, jobs)
    floor = _floor(ctx, jobs)

    def d(name, section="counters"):
        return _delta(s_after, s_before, section, name)

    tenth = SERVICE_PROBE_SECONDS / 10
    first = [rtt for at, rtt in serve.polls if at < tenth]
    last = [rtt for at, rtt in serve.polls
            if at > SERVICE_PROBE_SECONDS - tenth]
    batches = max(1.0, d("serve.batches"))
    replayed, from_disk = d("sweep.cells_replayed"), d("sweep.cells_from_disk")
    hits, misses = d("sweep.artifact_hits"), d("sweep.artifact_misses")

    def fd(name, section="counters"):
        return _delta([f_after], [f_before], section, name)

    serve_p50 = _median(serve.latencies_ms)
    queue_wait_ms = d("serve.queue_seconds", "timers") / max(
        1.0, d("serve.batched_jobs")) * 1e3
    batch_exec_ms = d("serve.exec_seconds", "timers") / batches * 1e3
    mean_ms = sum(serve.latencies_ms) / max(1, len(serve.latencies_ms))
    return {
        "serve.submit_rtt_ms": _median(serve.submit_rtt_ms),
        "serve.poll_rtt_first_ms": _median(first),
        "serve.poll_rtt_last_ms": _median(last),
        "serve.result_rtt_ms": _median(serve.result_rtt_ms),
        "serve.floor_ms": _median(floor.latencies_ms),
        "serve.latency_p50_ms": serve_p50,
        "serve.batch_width": d("serve.batched_jobs") / batches,
        "serve.queue_wait_ms": queue_wait_ms,
        "serve.batch_exec_ms": batch_exec_ms,
        # the job residual: mean client-side latency minus the server's
        # own queue wait and batch execution (HTTP, polling, lateness).
        "serve.other_ms": mean_ms - queue_wait_ms - batch_exec_ms,
        "serve.cells_replayed_frac": replayed / max(1.0,
                                                    replayed + from_disk),
        "artifacts.hit_rate": hits / max(1.0, hits + misses),
        "fleet.forward_ms": fd("fleet.forward_seconds", "timers")
        / max(1.0, fd("fleet.forwards")) * 1e3,
        "fleet.poll_cycle_ms": fd("fleet.poll_seconds", "timers")
        / max(1.0, fd("fleet.poll_cycles")) * 1e3,
        "fleet.latency_p50_ms": _median(fleet.latencies_ms),
        "fleet.harvest_lag_ms": _median(fleet.latencies_ms) - serve_p50,
        "fleet.shard_max_share": max(shards) / max(1, sum(shards)),
        "fleet.shed_frac": fd("fleet.jobs_shed") / max(1, fleet.planned),
        "driver.lateness_p99_ms": mix.percentile(
            serve.lateness_ms + fleet.lateness_ms, 99),
        "driver.requests_per_job": (serve.requests + fleet.requests)
        / max(1, serve.planned + fleet.planned),
    }


def profile(ctx: Context) -> Dict[str, float]:
    """Every per-layer metric, in one traced run."""
    layers: Dict[str, float] = {}
    layers.update(run_probe(ctx))
    layers.update(sweep_probe(ctx))
    layers.update(service_probe(ctx))
    sim_s = layers["sim.trace_s"] + layers.pop("run.sim_s")
    minstr = layers.pop("sweep.minstr") + layers.pop("run.minstr")
    layers["sim.trace_s"] = sim_s
    layers["sim.minstr_per_s"] = minstr / sim_s
    return layers
