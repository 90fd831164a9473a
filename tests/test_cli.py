"""The command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


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
