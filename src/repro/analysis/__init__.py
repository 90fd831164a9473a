"""Workload characterisation and report formatting (Figure 3)."""

from repro.analysis.blocks import (
    block_profile,
    instructions_per_branch,
    BlockProfile,
)
from repro.analysis.coverage import blocks_for_coverage, coverage_curve
from repro.analysis.report import format_table

__all__ = [
    "block_profile",
    "instructions_per_branch",
    "BlockProfile",
    "blocks_for_coverage",
    "coverage_curve",
    "format_table",
]
