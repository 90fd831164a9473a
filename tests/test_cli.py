"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "rijndael_e" in out
    assert "RawAudio D." in out
    assert out.count("\n") >= 19


def test_run_named_workload(capsys):
    assert main(["run", "crc", "--array", "C2", "--slots", "16",
                 "--spec"]) == 0
    out = capsys.readouterr().out
    assert "plain MIPS" in out
    assert "speedup" in out
    assert "C2/16/spec" in out
    assert "crc " in out


def test_run_assembly_file(tmp_path, capsys):
    source = tmp_path / "kernel.s"
    source.write_text("""
    __start:
        li $t0, 0
        li $t1, 0
    loop:
        addu $t1, $t1, $t0
        addiu $t0, $t0, 1
        blt $t0, 500, loop
        move $a0, $t1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
    """)
    assert main(["run", str(source)]) == 0
    out = capsys.readouterr().out
    assert "124750" in out   # sum 0..499


def test_run_minic_file(tmp_path, capsys):
    source = tmp_path / "kernel.c"
    source.write_text("""
    int main() {
        int i;
        int n = 0;
        for (i = 0; i < 100; i++) { n += i * i; }
        print_int(n);
        return 0;
    }
    """)
    assert main(["run", str(source)]) == 0
    out = capsys.readouterr().out
    assert "328350" in out


def test_inspect_workload(capsys):
    assert main(["inspect", "crc", "--array", "C1", "--spec"]) == 0
    out = capsys.readouterr().out
    assert "hottest block" in out
    assert "line " in out
    assert "input context" in out


def test_report_command(capsys):
    assert main(["report", "crc", "--array", "C1", "--spec"]) == 0
    out = capsys.readouterr().out
    assert "acceleration report @ C1/64/spec" in out
    assert "hottest cached configurations" in out
    assert "power shares" in out


def test_characterize(capsys):
    assert main(["characterize", "bitcount"]) == 0
    out = capsys.readouterr().out
    assert "instructions/branch" in out
    assert "blocks for" in out


def test_inspect_block_too_short(tmp_path, capsys):
    source = tmp_path / "tiny.s"
    source.write_text("""
    __start:
    loop:
        addiu $t0, $t0, 1
        blt $t0, 100, loop
        li $v0, 10
        syscall
    """)
    # hottest block is slt+branch+... the 3-instruction loop block is
    # below the 4-instruction threshold
    code = main(["inspect", str(source)])
    out = capsys.readouterr().out
    if code == 1:
        assert "too short" in out
    else:
        assert "line " in out


def test_run_block_compiles_without_any_flag(tmp_path, capsys,
                                            monkeypatch):
    """One production simulator: a plain ``repro run`` executes the
    program once, on the block compiler, and the legacy ``--fast``
    changes no byte of its report.  Block factories are cached per
    program, so the spy counts block-compiled runs, not compilations:
    it holds whatever an earlier test in this process already built."""
    from repro.sim.fastpath import FastPath

    compiled_runs = []
    run_to_exit = FastPath.run_to_exit

    def spy(self):
        compiled_runs.append(self)
        return run_to_exit(self)

    monkeypatch.setattr(FastPath, "run_to_exit", spy)
    log = tmp_path / "run.jsonl"
    args = ["run", "crc", "--array", "C1", "--slots", "16"]
    assert main(args + ["--telemetry", str(log)]) == 0
    report = capsys.readouterr().out
    counters = json.loads(log.read_text().splitlines()[-1])
    assert counters["type"] == "counters"
    assert counters["sim.runs"] == 1 and len(compiled_runs) == 1
    assert counters["dim.array_executions"] > 0
    assert main(args + ["--fast"]) == 0
    assert report.startswith(capsys.readouterr().out)


def test_legacy_fast_flag_parses_but_is_hidden(capsys):
    parser = build_parser()
    for argv in (["run", "crc", "--fast"], ["sweep", "--fast"]):
        assert parser.parse_args(argv).fast is True
    for command in ("run", "sweep"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        assert "--fast" not in capsys.readouterr().out


def test_unknown_target():
    with pytest.raises(SystemExit):
        main(["run", "no_such_thing"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_start_up_and_single_run_never_load_numpy():
    """numpy is only imported by the columnar (matrix) engine, so the
    CLI's start-up and a single ``repro run`` stay free of it."""
    script = (
        "import sys\n"
        "import repro.cli\n"
        "assert 'numpy' not in sys.modules, 'loaded by import'\n"
        "code = repro.cli.main(['run', 'crc', '--array', 'C1',\n"
        "                       '--slots', '16', '--fast'])\n"
        "assert code == 0\n"
        "assert 'numpy' not in sys.modules, 'loaded by run'\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


#: what a single ``repro run`` must not load: the other subcommands,
#: the sweep engine, its artifact store, the translation memo, the
#: coupled simulator it replays instead of, and (telemetry off) the
#: counter collectors.
_NOT_ON_RUN_PATH = ("repro.commands",
                    "repro.system.colreplay", "repro.system.sweep",
                    "repro.sim.coltrace", "repro.system.artifacts",
                    "repro.dim.memo", "repro.system.coupled",
                    "repro.obs.schema", "pickle",
                    # a built-in runs from its program image: no front end
                    "repro.asm.assembler", "repro.minic",
                    *(f"repro.minic.{module}" for module in (
                        "astnodes", "codegen", "driver", "lexer",
                        "optimizer", "parser", "sema")))
#: what ``import repro.cli`` alone must not load: the dispatcher builds
#: a subcommand's parser only when it runs
_NOT_ON_IMPORT = ("repro.workloads", "repro.system.config")
#: how many ``repro`` modules ``import repro.cli`` and a ``repro run``
#: load at most
_CLI_MODULES, _RUN_MODULES = 3, 42


def test_cli_start_up_and_single_run_load_only_the_run_path():
    script = (
        "import sys\n"
        f"unwanted = {_NOT_ON_RUN_PATH!r}\n"
        "def ours():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'repro' or m.startswith('repro.'))\n"
        "import repro.cli\n"
        f"loaded = [m for m in {_NOT_ON_IMPORT!r} + unwanted\n"
        "          if m in sys.modules]\n"
        "assert not loaded, ('loaded by import', loaded)\n"
        f"assert len(ours()) <= {_CLI_MODULES}, ours()\n"
        "code = repro.cli.main(['run', 'crc', '--fast'])\n"
        "assert code == 0\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, ('loaded by run', loaded)\n"
        f"assert len(ours()) <= {_RUN_MODULES}, ours()\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_sweep_import_leaves_the_translation_memo_unloaded():
    """The columnar sweep partitions translations by
    ``repro.dim.params.policy_key``: only the event engine's memo loads
    ``repro.dim.memo``."""
    script = ("import sys\n"
              "import repro.system.sweep\n"
              "assert 'repro.dim.memo' not in sys.modules\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_lazy_facades_resolve_every_exported_name():
    """``repro``, ``repro.api``, ``repro.system`` and ``repro.asm`` load
    their re-exports on first access; every name must still resolve, to
    the object its defining module holds."""
    script = (
        "import importlib, sys\n"
        "import repro, repro.api, repro.system, repro.asm\n"
        "assert 'replay_matrix' not in vars(repro.system)  # not yet\n"
        "assert 'replay_matrix' in dir(repro.system)\n"
        "assert 'repro.asm.assembler' not in sys.modules\n"
        "assert 'assemble' in dir(repro.asm)\n"
        "for facade in (repro, repro.api, repro.system, repro.asm):\n"
        "    for name in facade.__all__:\n"
        "        assert getattr(facade, name) is not None, name\n"
        "assert repro.run is repro.api.run\n"
        "assert repro.Telemetry is importlib.import_module("
        "'repro.obs.core').Telemetry\n"
        "from repro.system import evaluate_trace, replay_matrix\n"
        "from repro.system.traceeval import evaluate_trace as oracle\n"
        "assert evaluate_trace is oracle\n"
        "from repro.api import evaluate_matrix, SuiteResult\n"
        "from repro.asm import AssemblerError, assemble\n"
        "from repro.asm.assembler import assemble as defined\n"
        "assert assemble is defined\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown names must raise')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
