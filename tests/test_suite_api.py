"""The suite-level evaluation API and its CLI command."""

import json

import pytest

from repro.cli import main
from repro.system import paper_system
from repro.workloads.suite import evaluate_suite, format_suite

SUBSET = ("crc", "quicksort", "sha")


def test_evaluate_suite_subset():
    result = evaluate_suite(paper_system("C2", 64, True), names=SUBSET)
    assert [r.workload for r in result.results] == list(SUBSET)
    for r in result.results:
        assert r.speedup > 1.0
        assert 0 < r.array_coverage <= 1.0
        assert 0 <= r.cache_hit_rate <= 1.0
        assert r.cycles < r.baseline_cycles
    assert 1.0 < result.geomean_speedup < 6.0
    assert result.geomean_energy_ratio > 1.0


def test_suite_json_round_trip():
    result = evaluate_suite(paper_system("C1", 16, False), names=SUBSET)
    payload = json.loads(result.to_json())
    assert payload["system"] == "C1/16/nospec"
    assert len(payload["results"]) == 3
    assert payload["results"][0]["workload"] == "crc"
    assert payload["geomean_speedup"] == pytest.approx(
        result.geomean_speedup)


def test_format_suite_text():
    result = evaluate_suite(paper_system("C2", 64, True), names=SUBSET)
    text = format_suite(result)
    assert "GEOMEAN" in text
    assert "crc" in text
    assert text.count("\n") == len(SUBSET) + 2


def test_cli_suite_with_json(tmp_path, capsys, monkeypatch):
    # restrict to the subset via monkeypatching to keep the test fast
    import repro.workloads.suite as suite_mod
    monkeypatch.setattr(suite_mod, "workload_names", lambda: list(SUBSET))
    out_file = tmp_path / "results.json"
    assert main(["suite", "--array", "C2", "--spec",
                 "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "GEOMEAN" in out
    assert out_file.exists()
    payload = json.loads(out_file.read_text())
    assert payload["system"] == "C2/64/spec"


def test_parallel_suite_is_byte_identical():
    """--jobs N must not change a single byte of the JSON output."""
    config = paper_system("C2", 64, True)
    serial = evaluate_suite(config, names=SUBSET, jobs=1)
    parallel = evaluate_suite(config, names=SUBSET, jobs=2)
    assert parallel.to_json() == serial.to_json()


def test_cli_suite_only_jobs_fast(tmp_path, capsys):
    serial_file = tmp_path / "serial.json"
    parallel_file = tmp_path / "parallel.json"
    assert main(["suite", "--only", "crc,sha",
                 "--json", str(serial_file)]) == 0
    assert main(["suite", "--only", "crc,sha", "--jobs", "2", "--fast",
                 "--json", str(parallel_file)]) == 0
    capsys.readouterr()
    assert parallel_file.read_bytes() == serial_file.read_bytes()


def test_cli_suite_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit, match="unknown workloads: nope"):
        main(["suite", "--only", "crc,nope"])


def test_cli_disasm(capsys):
    assert main(["disasm", "crc"]) == 0
    out = capsys.readouterr().out
    assert "jal" in out
    assert "syscall" in out
    assert out.count("\n") > 100
