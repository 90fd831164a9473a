"""Regenerate ``goldens.json``: the outputs every benchmark op must match.

Run from the repository root after a deliberate change to the model's
numbers::

    python3 perfbench/goldens.py [--jobs 2]

It records the sha256 of

- the 216-cell ``repro sweep`` results JSON (cli-sweep) and of the
  smaller matrix the layer profile sweeps;
- the stdout of ``repro run`` for every cli-run pair;
- the ``suite_json`` of every (workload, config) a serve or fleet job
  can carry, computed offline through ``repro.api.evaluate`` — the
  service must answer byte-identically.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import subprocess
import sys
import tempfile
from pathlib import Path

import mix
import procs

GOLDENS = procs.HERE / "goldens.json"


def _offline_cell(cell):
    """``suite_json`` digest of one cell via the offline facade."""
    name, config = cell
    from repro import api
    from repro.serve.protocol import system_spec, validate_submission

    request = validate_submission(mix.job_spec(name, config))
    system = system_spec(request.configs[0]).build()
    suite = api.evaluate(system, names=[name], fast=True)
    return mix.cell_key(name, config), mix.digest(suite.to_json())


def _cli(args, env, scratch: Path) -> str:
    out = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                         env=env, cwd=str(scratch), check=True,
                         capture_output=True, text=True)
    return out.stdout


def _sweep_digest(args, env, scratch: Path) -> str:
    target = scratch / "sweep.json"
    _cli(list(args) + ["--json", str(target)], env, scratch)
    return mix.digest(target.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    procs.require_program()
    procs.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=procs.WORK) as tmp:
        scratch = Path(tmp)
        env = procs.child_env(scratch / "cache")
        goldens = {
            "sweep_sha256": _sweep_digest(mix.SWEEP_ARGS, env, scratch),
            "probe_sweep_sha256": _sweep_digest(mix.PROBE_SWEEP_ARGS, env,
                                                scratch),
            "run_stdout_sha256": {
                mix.pair_key(pair): mix.digest(
                    _cli(mix.run_args(pair), env, scratch))
                for pair in mix.CLI_PAIRS},
        }
        sys.path.insert(0, str(procs.SRC))
        context = multiprocessing.get_context("spawn")
        with context.Pool(args.jobs, initializer=_init,
                          initargs=(str(scratch / "cache"),)) as pool:
            cells = dict(pool.map(_offline_cell, mix.golden_cells(),
                                  chunksize=8))
        goldens["cells"] = dict(sorted(cells.items()))
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {GOLDENS} ({len(goldens['cells'])} cells)")
    return 0


def _init(cache_dir: str) -> None:
    import os

    sys.path.insert(0, str(procs.SRC))
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def load() -> dict:
    return json.loads(GOLDENS.read_text())


if __name__ == "__main__":
    sys.exit(main())
