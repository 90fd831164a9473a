"""The workloads.  Each returns its end-to-end metrics.

- ``cli-run``   closed loop, one caller: fresh ``repro run`` processes.
- ``cli-sweep`` closed loop, one caller: fresh cold 216-cell sweeps.
- ``serve-zipf`` open loop against one ``repro serve`` (run by hand:
  its wall-clock latency is too noisy on a shared host to track).

The fleet runs only in the traced layer profile (``layers.py``).
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import time
from typing import Callable, Dict, List

import loadgen
import mix
import procs
import service
import speed

OP_TIMEOUT = 150.0
#: set-ups per run (a CLI set-up is a fraction of a second, a service
#: set-up a few seconds); the median is reported.
CLI_SETUP_REPEATS = 7
SERVICE_SETUP_REPEATS = 3


class Context:
    """One benchmark run: its inputs, scratch space and tallies."""

    def __init__(self, seed: int, seconds: float, reaper: procs.Reaper,
                 goldens: dict):
        self.seed = seed
        self.seconds = seconds
        self.reaper = reaper
        self.goldens = goldens
        self.dir = procs.fresh_dir(procs.WORK / "run")
        self.attempted = 0
        self.failed = 0
        #: the speed probe while the run is :meth:`measuring`.
        self.probe = None
        #: human-readable extras printed beside the metrics.
        self.notes: Dict[str, object] = {}

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def python(self, args: List[str], name: str = "py",
               measured: bool = False):
        """One program process; returns (exit, wall s, CPU s, RSS MB,
        stdout).  A ``measured`` op's CPU time is at the reference speed
        (see :meth:`measuring`)."""
        out = self.dir / f"{name}.out"
        env = procs.child_env(self.dir / "cache")
        start = time.monotonic()
        code, wall, cpu, rss = procs.run_child(
            self.reaper, [procs.python(), *args], env, out, OP_TIMEOUT)
        if measured:
            pass_s = self.probe.pass_s(start, time.monotonic())
            self.notes.setdefault("measured_cpu_s", []).append(round(cpu, 3))
            self.notes.setdefault("probe_pass_ms", []).append(
                round(pass_s * 1e3, 2))
            cpu = speed.scaled(cpu, pass_s)
        return code, wall, cpu, rss, out.read_text()

    def cli(self, args: List[str], name: str, measured: bool = False):
        return self.python(["-m", "repro.cli", *args], name, measured)

    @contextlib.contextmanager
    def measuring(self):
        """Pin this process, and so every op it starts, to the measured
        CPU, beside a speed probe (``speed``)."""
        cpu = speed.measured_cpu()
        with speed.on_cpus({cpu}), speed.Probe(
                self.reaper, cpu, self.dir / "probe.out") as self.probe:
            yield self.probe
        self.probe = None


def cli_setup(ctx: Context, repeats: int = CLI_SETUP_REPEATS) -> float:
    """Median of ``repeats`` set-ups, each a fresh scratch cache plus a
    fresh interpreter that imports the CLI (the program loads at all),
    timed by the interpreter's CPU time at the reference speed."""
    times = []
    for _ in range(repeats):
        procs.fresh_dir(ctx.dir / "cache")
        code, _, cpu, _, text = ctx.python(["-c", "import repro.cli"],
                                           measured=True)
        if code != 0:
            raise procs.BenchError(f"repro.cli does not import: {text}")
        times.append(cpu)
    return mix.median(times)


def _closed_loop(ctx: Context, op: Callable[[int], List[tuple]],
                 plan_s: float):
    """Set up (:func:`cli_setup`), then run ``op(round)`` (a list of
    (ok, wall, cpu, rss, kind) samples) for as many rounds as
    ``ctx.seconds`` plans at ``plan_s`` a round, all of it measured.
    Returns the set-up time and the samples."""
    samples = []
    with ctx.measuring():
        setup_s = cli_setup(ctx)
        for rounds in range(mix.ops_for(ctx.seconds, plan_s)):
            samples.extend(op(rounds))
    return setup_s, samples


def _op_metrics(ctx: Context, samples, setup_s: float,
                cells_per_op: int) -> Dict[str, float]:
    """End-to-end metrics of a closed loop of CLI processes, timed by
    their CPU time at the reference speed (``speed``); the wall times
    are printed beside them."""
    good = [(wall, cpu, kind) for ok, wall, cpu, _, kind in samples if ok]
    ctx.tally(len(samples), len(samples) - len(good))
    if not good:
        raise procs.BenchError("every op failed")
    walls = [wall for wall, _, _ in good]
    cpus = [cpu for _, cpu, _ in good]
    by_kind: Dict[object, List[float]] = {}
    for _, cpu, kind in good:
        by_kind.setdefault(kind, []).append(cpu)
    ctx.notes["op_walls_s"] = [round(wall, 3) for wall in walls]
    ctx.notes["op_scaled_cpus_s"] = [round(cpu, 3) for cpu in cpus]
    ctx.notes["wall_ms_per_cell"] = sum(walls) / (
        cells_per_op * len(walls)) * 1e3
    return {
        "setup_s": setup_s,
        "latency_p50_ms": mix.geomean(
            [mix.median(kind) for kind in by_kind.values()]) * 1e3,
        "cpu_ms_per_cell": sum(cpus) / (cells_per_op * len(cpus)) * 1e3,
        "peak_rss_mb": max(rss for _, _, _, rss, _ in samples),
    }


def cli_run(ctx: Context) -> Dict[str, float]:
    expected = ctx.goldens["run_stdout_sha256"]
    instructions = {}

    def one_round(index: int):
        out = []
        for pair in mix.cli_round(ctx.seed, index):
            code, wall, cpu, rss, text = ctx.cli(
                mix.run_args(pair), "run", measured=True)
            ok = code == 0 and mix.digest(text) == expected[
                mix.pair_key(pair)]
            instructions[pair] = _count(text, "instructions")
            out.append((ok, wall, cpu, rss, pair))
        return out

    setup_s, samples = _closed_loop(ctx, one_round, mix.CLI_ROUND_S)
    metrics = _op_metrics(ctx, samples, setup_s, cells_per_op=1)
    good = [(cpu, pair) for ok, _, cpu, _, pair in samples if ok]
    ctx.notes["sim_minstr_per_cpu_s"] = sum(
        instructions[pair] for _, pair in good) / 1e6 / sum(
        cpu for cpu, _ in good)
    ctx.notes["ops"] = len(samples)
    return metrics


def _count(text: str, unit: str) -> int:
    """``"plain MIPS : 461,206 cycles, 392,874 instructions"`` -> 392874."""
    for line in text.splitlines():
        if line.startswith("plain MIPS"):
            fields = line.split(":", 1)[1].replace(",", "").split()
            return int(fields[fields.index(unit) - 1])
    return 0


def cli_sweep(ctx: Context) -> Dict[str, float]:
    target = ctx.dir / "sweep.json"

    def one_op(_: int):
        if target.exists():
            target.unlink()
        code, wall, cpu, rss, _ = ctx.cli(
            list(mix.SWEEP_ARGS) + ["--json", str(target)], "sweep",
            measured=True)
        ok = code == 0 and target.exists() and mix.digest(
            target.read_text()) == ctx.goldens["sweep_sha256"]
        return [(ok, wall, cpu, rss, "sweep")]

    setup_s, samples = _closed_loop(ctx, one_op, mix.SWEEP_PLAN_S)
    metrics = _op_metrics(ctx, samples, setup_s,
                          cells_per_op=mix.SWEEP_CELLS)
    if target.exists():
        ctx.notes["model_vs_paper"] = model_vs_paper(
            json.loads(target.read_text()))
    ctx.notes["ops"] = len(samples)
    return metrics


def model_vs_paper(results: dict) -> List[Dict[str, object]]:
    """The 12 geomean speedups beside Table 2's geomeans over the
    same workloads (``benchmarks/paper_data.py``)."""
    path = procs.ROOT / "benchmarks" / "paper_data.py"
    spec = importlib.util.spec_from_file_location("paper_data", path)
    paper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper)
    rows = [name for name in results["workloads"]
            if name in paper.PAPER_TABLE2]
    out = []
    for system in results["systems"]:
        array, slots, spec_name = system["system"].split("/")
        column = {"16": 0, "64": 1, "256": 2}[slots]
        values = [paper.PAPER_TABLE2[name][(array, spec_name == "spec")]
                  [column] for name in rows]
        model = system["geomean_speedup"]
        reference = mix.geomean(values)
        out.append({"system": system["system"], "model": round(model, 3),
                    "paper": round(reference, 3),
                    "error_pct": round((model / reference - 1) * 100, 1)})
    return out


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
def serve_zipf(ctx: Context) -> Dict[str, float]:
    """The server runs on the measured CPU beside the speed probe, the
    load generator on the other CPUs; the server's CPU time during each
    set-up and each phase is scaled to the reference speed."""
    template = service.template_store(ctx.reaper)
    mixer = mix.Mixer(ctx.seed)
    with ctx.measuring() as probe:

        def server_cpu(svc, step) -> float:
            """Scaled server CPU seconds of ``step()``."""
            start, cpu_start = time.monotonic(), procs.group_cpu_s(
                svc.proc.pid)
            step()
            cpu_s = procs.group_cpu_s(svc.proc.pid) - cpu_start
            return probe.scaled(cpu_s, start, time.monotonic())

        setups = []
        for attempt in range(SERVICE_SETUP_REPEATS):
            start = time.monotonic()
            svc = service.start_warm(ctx.reaper, "serve", template, ctx.dir,
                                     ctx.goldens, label=f"serve-{attempt}")
            setups.append(probe.scaled(procs.group_cpu_s(svc.proc.pid),
                                       start, time.monotonic()))
            if attempt < SERVICE_SETUP_REPEATS - 1:
                svc.stop()
        phases = []
        try:
            with speed.on_cpus(speed.other_cpus(probe.cpu)):
                cpu_s = server_cpu(svc, lambda: phases.append(
                    loadgen.open_loop(svc.url, mixer.open_loop(
                        mix.BASE_RPS, ctx.seconds), ctx.goldens)))
                cpu_s += server_cpu(svc, lambda: phases.append(
                    loadgen.closed_burst(svc.url, mixer.burst(),
                                         ctx.goldens)))
            rss = svc.peak_rss_mb()
        finally:
            svc.stop()
    base, burst = phases
    for phase in phases:
        ctx.tally(phase.planned, phase.errors)
    if not base.latencies_ms or not burst.latencies_ms:
        raise procs.BenchError("serve-zipf: no job completed")
    ctx.notes.update(phase_notes("base", base))
    ctx.notes["burst_s"] = round(burst.wall_s, 3)
    ctx.notes["burst_jobs_per_s"] = len(burst.latencies_ms) / burst.wall_s
    ctx.notes["setups_cpu_s"] = [round(t, 3) for t in setups]
    return {
        "setup_s": mix.median(setups),
        "latency_p50_ms": mix.median(base.latencies_ms),
        "cpu_ms_per_cell": cpu_s / (len(base.latencies_ms)
                                    + len(burst.latencies_ms)) * 1e3,
        "peak_rss_mb": rss,
    }


def phase_notes(label: str, phase: loadgen.PhaseResult) -> Dict[str, object]:
    """Generator validity and tail facts of one open-loop phase."""
    lateness = mix.percentile(phase.lateness_ms, 99) \
        if phase.lateness_ms else 0.0
    notes = {
        f"{label}_jobs": phase.planned,
        f"{label}_errors": phase.errors,
        f"{label}_p50_ms": (mix.median(phase.latencies_ms)
                            if phase.latencies_ms else None),
        f"{label}_p90_ms": (mix.percentile(phase.latencies_ms, 90)
                            if phase.latencies_ms else None),
        f"{label}_p99_ms": (mix.percentile(phase.latencies_ms, 99)
                            if phase.latencies_ms else None),
        f"{label}_p99_samples_beyond": mix.samples_beyond(
            len(phase.latencies_ms), 99),
        f"{label}_lateness_p99_ms": lateness,
        f"{label}_submit_blocked_p99_ms": (
            mix.percentile(phase.blocked_ms, 99) if phase.blocked_ms
            else 0.0),
        f"{label}_requests_per_job": phase.requests / max(1, phase.planned),
        f"{label}_backlog_end": phase.backlog[-1] if phase.backlog else 0,
    }
    if lateness > 0.1 * mix.LATENCY_LIMIT_MS:
        notes[f"{label}_generator_invalid"] = (
            f"generator ran {lateness:.0f} ms late at p99, over a tenth "
            f"of the {mix.LATENCY_LIMIT_MS:.0f} ms limit: this phase "
            f"measures the load generator, not the program")
    return notes


WORKLOADS: Dict[str, Callable[[Context], Dict[str, float]]] = {
    "cli-run": cli_run,
    "cli-sweep": cli_sweep,
    "serve-zipf": serve_zipf,
}
