"""Tests for the benchmark's own logic (not the program's).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import goldens
import mix
import procs
import speed
from workloads import model_vs_paper


# ----------------------------------------------------------------------
# Inputs are a function of the seed alone.
# ----------------------------------------------------------------------
def _schedule(seed, seconds=20.0):
    return [job.as_tuple() for job in
            mix.Mixer(seed).open_loop(mix.BASE_RPS, seconds)]


def test_schedule_is_deterministic_per_seed():
    assert _schedule(7) == _schedule(7)
    assert _schedule(7) != _schedule(8)
    mixer = mix.Mixer(7)
    mixer.open_loop(mix.BASE_RPS, 20.0)
    burst = [job.as_tuple() for job in mixer.burst()]
    again = mix.Mixer(7)
    again.open_loop(mix.BASE_RPS, 20.0)
    assert burst == [job.as_tuple() for job in again.burst()]


def _composition(jobs):
    counts = {}
    for job in jobs:
        key = (job.name, job.config in mix.POOL,
               bool(job.config["speculation"]) if job.config in mix.POOL
               else None)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_every_seed_gets_the_same_composition():
    runs = [mix.Mixer(seed).open_loop(mix.BASE_RPS, 20.0)
            for seed in range(4)]
    assert all(len(jobs) == 800 for jobs in runs)
    assert len({tuple(sorted(_composition(jobs).items()))
                for jobs in runs}) == 1
    jobs = runs[0]
    times = [job.at for job in jobs]
    assert times == sorted(times) and 0 <= times[0] and times[-1] < 20.0
    novel = sum(job.config in mix.POOL for job in jobs)
    assert novel == round(800 * mix.NOVEL_SHARE)
    counts = {name: sum(job.name == name for job in jobs)
              for name in mix.SERVE_WORKLOADS}
    assert counts["crc"] == max(counts.values())  # Zipf rank 1
    # novel points do not repeat before a workload's pool is used up
    for name in mix.SERVE_WORKLOADS:
        seen = [mix.config_key(job.config) for job in jobs
                if job.name == name and job.config in mix.POOL]
        assert len(set(seen)) == min(len(seen), len(mix.POOL))


def test_burst_and_cli_rounds_are_deterministic():
    burst = mix.Mixer(5).burst()
    assert len(burst) == mix.BURST_JOBS
    assert [job.as_tuple() for job in burst] == \
        [job.as_tuple() for job in mix.Mixer(5).burst()]
    assert all(job.at == 0.0 for job in burst)
    assert mix.cli_round(4, 0) == mix.cli_round(4, 0)
    # a round always holds the same pairs, whatever its order
    for seed in range(5):
        assert sorted(mix.cli_round(seed, 1)) == sorted(mix.CLI_PAIRS)


def test_closed_loop_work_depends_on_seconds_alone():
    assert mix.ops_for(20.0, mix.CLI_ROUND_S) == 4
    assert mix.ops_for(20.0, mix.SWEEP_PLAN_S) == 2
    assert mix.ops_for(60.0, mix.SWEEP_PLAN_S) == 6
    assert mix.ops_for(1.0, mix.SWEEP_PLAN_S) == 1  # never zero ops


def test_novel_configs_are_outside_the_warm_grid():
    keys = [mix.config_key(config) for config in mix.POOL]
    assert len(set(keys)) == len(mix.POOL) == 48
    grid = {mix.config_key(config) for config in mix.GRID}
    assert len(grid) == 48 and not grid & set(keys)
    assert mix.config_key(mix.WARM_CONFIG) not in grid | set(keys)


# ----------------------------------------------------------------------
# The percentile rule.
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert mix.percentile(values, 50) == 50
    assert mix.percentile(values, 99) == 99
    assert mix.percentile(values, 100) == 100
    assert mix.percentile(list(reversed(values)), 99) == 99
    # short lists: p99 is the slowest sample
    assert mix.percentile([3.0, 1.0, 2.0], 99) == 3.0
    assert mix.percentile([4.0], 50) == 4.0
    with pytest.raises(ValueError):
        mix.percentile([], 50)
    with pytest.raises(ValueError):
        mix.percentile([1.0], 0)


def test_median_and_samples_beyond():
    assert mix.median([3, 1, 2]) == 2
    assert mix.median([4, 1, 2, 3]) == 2.5
    assert mix.samples_beyond(1000, 99) == 10
    assert mix.samples_beyond(800, 99) == 8
    assert mix.samples_beyond(5, 99) == 0


# ----------------------------------------------------------------------
# The golden check.
# ----------------------------------------------------------------------
def _payload(text):
    return {"job_id": "j1", "state": "done",
            "result": {"kind": "evaluate", "suite_json": text}}


def test_golden_check_rejects_tampered_payload():
    name, config = "crc", mix.GRID[0]
    text = '{"system": "C1/16/nospec", "geomean_speedup": 2.16}'
    table = {"cells": {mix.cell_key(name, config): mix.digest(text)}}
    assert mix.check_cell(table, name, config, _payload(text))
    assert not mix.check_cell(table, name, config,
                              _payload(text.replace("2.16", "2.17")))
    assert not mix.check_cell(table, name, mix.GRID[1], _payload(text))
    assert not mix.check_cell(table, name, config, {"result": {}})
    assert not mix.check_cell(table, name, config, None)


def test_committed_goldens_cover_every_schedulable_cell():
    table = goldens.load()
    assert set(table["cells"]) == {mix.cell_key(name, config)
                                   for name, config in mix.golden_cells()}
    assert set(table["run_stdout_sha256"]) == {
        mix.pair_key(pair) for pair in mix.CLI_PAIRS}
    assert table["sweep_sha256"].startswith("6da5a02a")


def test_model_vs_paper_pairs_every_system():
    results = {"workloads": ["crc", "sha"],
               "systems": [{"system": "C2/64/spec", "geomean_speedup": 2.0}]}
    (row,) = model_vs_paper(results)
    assert row["system"] == "C2/64/spec" and row["model"] == 2.0
    # Table 2: crc 1.92, sha 4.84 -> geomean 3.049
    assert row["paper"] == pytest.approx(3.049, abs=1e-3)


# ----------------------------------------------------------------------
# Hermetic process handling.
# ----------------------------------------------------------------------
def test_reaper_kills_the_whole_process_group(tmp_path):
    live = tmp_path / "live.json"
    reaper = procs.Reaper(live)
    proc = reaper.popen(["sh", "-c", "sleep 60 & sleep 60"], {},
                        subprocess.DEVNULL)
    time.sleep(0.2)
    assert json.loads(live.read_text()) == [proc.pid]
    with pytest.raises(procs.BenchError):
        procs.refuse_if_stale(live)
    reaper.stop(proc, grace=2.0)
    assert not procs._group_alive(proc.pid)
    assert not live.exists()
    procs.refuse_if_stale(live)  # nothing alive: allowed to start


def test_stale_registry_without_live_processes_is_cleared(tmp_path):
    live = tmp_path / "live.json"
    done = subprocess.run([sys.executable, "-c", "import os; "
                           "print(os.getpid())"], capture_output=True,
                          text=True, check=True)
    live.write_text(json.dumps([int(done.stdout)]))
    procs.refuse_if_stale(live)
    assert not live.exists()


def test_child_env_is_hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    monkeypatch.setenv("REPRO_CORPUS", "m.json")
    env = procs.child_env(tmp_path)
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert "REPRO_CORPUS" not in env
    assert env["PYTHONPATH"] == str(procs.SRC)


def test_probe_scales_by_the_mean_pass_in_the_window(tmp_path):
    path = tmp_path / "probe.out"
    path.write_text("10.0 0.050\n10.1 0.025\n10.2 0.025\n12.0 0.100\n")
    probe = speed.Probe(None, 0, path)
    assert probe.pass_s(10.05, 10.25) == pytest.approx(0.025)
    # no slice inside the window: the one nearest its end
    assert probe.pass_s(11.0, 11.5) == pytest.approx(0.100)
    assert probe.scaled(3.0, 9.9, 10.15) == pytest.approx(
        3.0 * speed.REFERENCE_PASS_S / 0.0375)
    assert speed.scaled(2.0, 2 * speed.REFERENCE_PASS_S) == pytest.approx(1.0)


def test_probe_runs_on_its_cpu_and_is_reaped(tmp_path):
    reaper = procs.Reaper(live=tmp_path / "live.json")
    cpu = speed.measured_cpu()
    with speed.Probe(reaper, cpu, tmp_path / "probe.out") as probe:
        time.sleep(0.5)
        pgid = probe.proc.pid
    assert not procs._group_alive(pgid)
    assert not (tmp_path / "live.json").exists()
    passes = [pass_s for _, pass_s in probe.samples()]
    assert passes and all(pass_s > 0 for pass_s in passes)
