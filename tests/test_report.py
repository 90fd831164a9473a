"""The acceleration-report builder."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.minic import compile_to_program
from repro.system import paper_system
from repro.system.report import build_report
from repro.workloads import builtin_workloads, load_workload

SOURCE = """
unsigned a[32];
int main() {
    int i; int p;
    unsigned acc = 1;
    for (p = 0; p < 8; p++) {
        for (i = 0; i < 32; i++) {
            acc = acc * 31 + a[i];
            a[i] = acc >> 1;
        }
    }
    print_int(acc & 0xffff);
    return 0;
}
"""


@pytest.fixture(scope="module")
def report():
    program = compile_to_program(SOURCE)
    return build_report(program, paper_system("C2", 64, True))


def test_report_fields_are_consistent(report):
    assert report.system == "C2/64/spec"
    assert report.speedup == pytest.approx(
        report.baseline_cycles / report.accelerated_cycles)
    assert report.speedup > 1.0
    assert report.energy_ratio > 1.0
    assert 0 < report.array_coverage <= 1.0
    assert 0 < report.cache_hit_rate <= 1.0
    assert report.blocks_for_80pct <= report.distinct_blocks
    assert sum(report.power_shares.values()) == pytest.approx(1.0)


def test_report_includes_rendered_configs(report):
    assert report.hottest_configs
    assert any("config@0x" in text for text in report.hottest_configs)
    assert any("line " in text for text in report.hottest_configs)


def test_report_renders_as_text(report):
    text = report.render()
    assert "acceleration report @ C2/64/spec" in text
    assert "instructions/branch" in text
    assert "power shares" in text
    assert "hottest cached configurations" in text
    assert f"{report.speedup:.2f}x" in text


# ---------------------------------------------------------------------------
# Golden output: ``tests/data/report_digests.json`` pins the sha256 of the
# rendered report of every built-in workload at C2/64/spec, and of the
# stdout of ``repro report crc`` at the CLI default (C2/64/off).  The
# report's numbers and its hottest cached configurations must not move
# when the way the report is computed changes.

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["render_sha256"]))
def test_report_render_matches_the_golden(name):
    config = paper_system("C2", 64, True)
    assert config.name == GOLDEN["system"]
    text = build_report(load_workload(name), config).render()
    assert _sha256(text) == GOLDEN["render_sha256"][name]


def test_report_cli_stdout_matches_the_golden(capsys):
    assert main(["report", "crc"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == GOLDEN["cli_report_crc_stdout_sha256"]


def test_report_golden_covers_every_builtin_workload():
    assert sorted(GOLDEN["render_sha256"]) \
        == sorted(w.name for w in builtin_workloads())
