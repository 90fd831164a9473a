"""Golden output of the command line.

``tests/data/run_telemetry_digests.json`` pins the sha256 of the stdout
and of the ``--telemetry`` JSONL of five ``repro run`` commands: the
three perfbench pairs and two dynamic control-flow runs.  Each command
runs in a fresh interpreter, because the telemetry counters include
process state (``fastpath.blocks_compiled`` counts the block factories
this process built).

``tests/data/cli_text_digests.json`` pins the sha256 of the combined
stdout and stderr, and the exit code, of every ``--help`` text and of
the usage errors, at a fixed 80-column terminal.

How the replay is computed and how the parser is built may change;
these bytes may not.  Regenerate both files only for a deliberate
change of the output::

    PYTHONPATH=src python -m tests.test_cli_goldens
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
RUN_GOLDEN = DATA / "run_telemetry_digests.json"
TEXT_GOLDEN = DATA / "cli_text_digests.json"

#: the ``repro run`` commands whose stdout and telemetry are pinned
RUN_COMMANDS: Dict[str, List[str]] = {
    "crc/C1/16/nospec": ["crc", "--array", "C1", "--slots", "16",
                         "--spec", "off"],
    "sha/C2/64/spec": ["sha", "--array", "C2", "--slots", "64",
                       "--spec", "on"],
    "gsm_d/C3/256/spec": ["gsm_d", "--array", "C3", "--slots", "256",
                          "--spec", "on"],
    "crc/C2/16/spec/dynflow-both": ["crc", "--array", "C2", "--slots",
                                    "16", "--spec", "on", "--dynflow",
                                    "both"],
    "rijndael_e/C3/16/spec/dynflow-loop": ["rijndael_e", "--array", "C3",
                                           "--slots", "16", "--spec",
                                           "on", "--dynflow", "loop"],
}

_COMMANDS = ("run", "workloads", "inspect", "characterize", "report",
             "suite", "sweep", "explore", "mpsoc", "serve", "fleet",
             "cache", "submit", "jobs", "corpus", "traffic", "disasm")

#: the argument vectors whose text is pinned
TEXT_COMMANDS: Dict[str, List[str]] = {
    "--help": ["--help"],
    **{f"{command} --help": [command, "--help"] for command in _COMMANDS},
    **{f"corpus {action} --help": ["corpus", action, "--help"]
       for action in ("generate", "list", "inspect")},
    "(no arguments)": [],
    "bogus": ["bogus"],
    "run": ["run"],
    "run crc --array C9": ["run", "crc", "--array", "C9"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(args: List[str], workdir: Path) -> Dict[str, str]:
    """Run ``repro run <args> --telemetry run.jsonl`` in a fresh
    interpreter inside ``workdir``; the digests of its two outputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", *args,
         "--telemetry", "run.jsonl"],
        cwd=workdir, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return {"stdout_sha256": _sha256(proc.stdout),
            "telemetry_sha256": _sha256(
                (workdir / "run.jsonl").read_bytes())}


def _cli_text(argv: List[str]) -> Tuple[int, str]:
    """The exit code and the combined stdout and stderr of
    ``main(argv)``, run in this process."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
                code = 1
    return code, out.getvalue()


@pytest.mark.parametrize("key", sorted(RUN_COMMANDS))
def test_run_stdout_and_telemetry_match_the_golden(key, tmp_path):
    golden = json.loads(RUN_GOLDEN.read_text())
    assert _run_digests(RUN_COMMANDS[key], tmp_path) == golden[key]


@pytest.mark.parametrize("key", sorted(TEXT_COMMANDS))
def test_cli_text_matches_the_golden(key, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(TEXT_GOLDEN.read_text())[key]
    code, text = _cli_text(TEXT_COMMANDS[key])
    assert (code, _sha256(text.encode())) \
        == (golden["exit"], golden["sha256"]), text


def test_goldens_cover_every_command():
    assert sorted(json.loads(RUN_GOLDEN.read_text())) \
        == sorted(RUN_COMMANDS)
    assert sorted(json.loads(TEXT_GOLDEN.read_text())) \
        == sorted(TEXT_COMMANDS)


def _regenerate() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    runs = {}
    for key, args in RUN_COMMANDS.items():
        with tempfile.TemporaryDirectory() as workdir:
            runs[key] = _run_digests(args, Path(workdir))
    texts = {}
    for key, argv in TEXT_COMMANDS.items():
        code, text = _cli_text(argv)
        texts[key] = {"exit": code, "sha256": _sha256(text.encode())}
    for path, golden in ((RUN_GOLDEN, runs), (TEXT_GOLDEN, texts)):
        path.write_text(json.dumps(golden, indent=2, sort_keys=True)
                        + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
