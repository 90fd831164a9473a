"""DIM policy parameters.

Defaults follow the paper's wording: configurations must exceed three
instructions to be cached; speculation covers "up to three basic blocks";
a configuration is flushed after "a predefined number" of
mis-speculations (we default to 2); counters must saturate before a block
is merged speculatively.

The ``dynflow_mode`` knob enables the dynamic control-flow extensions
(loop-aware configurations and predicated dual-path merge — see
``docs/toolchain.md`` §Dynamic control flow).  Both modes require
``speculation=True`` to have any effect: they reuse the speculative
merge walk and its all-or-nothing resource discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: valid reconfiguration-cache replacement policies.
CACHE_POLICIES = ("fifo", "lru")

#: valid dynamic control-flow modes: 'off' reproduces the paper's
#: translator; 'loop' closes saturated back-edges into iterating
#: configurations; 'dual' merges both directions of an unsaturated
#: branch under predication; 'both' enables the two together.
DYNFLOW_MODES = ("off", "loop", "dual", "both")


@dataclass(frozen=True)
class DimParams:
    """Behavioural knobs of the DIM engine."""

    #: reconfiguration-cache capacity (the paper sweeps 16 / 64 / 256).
    cache_slots: int = 64
    #: 'fifo' (the paper) or 'lru' (ablation).
    cache_policy: str = "fifo"
    #: enable speculative merging of basic blocks.
    speculation: bool = False
    #: maximum speculated conditional branches per configuration.
    max_spec_depth: int = 3
    #: hard bound on blocks per configuration (catches long `j` chains).
    max_blocks: int = 8
    #: minimum covered instructions for a configuration to be cached
    #: ("more than three instructions").
    min_block_instructions: int = 4
    #: wrong-direction executions before the configuration is flushed.
    misspec_flush_threshold: int = 2
    #: pipeline refill cycles after the array exits on a wrong direction
    #: (squash the gated write-backs, refetch from the resolved target).
    misspec_penalty: int = 4
    #: bimodal predictor size (2-bit counters).
    predictor_entries: int = 512
    #: pipeline stages that overlap reconfiguration ("three cycles
    #: available for the array reconfiguration").
    reconfig_overlap: int = 3
    #: dynamic control-flow mode (see :data:`DYNFLOW_MODES`).
    dynflow_mode: str = "off"
    #: largest translated block chain a back-edge may close into one
    #: iterating configuration (counts every block of the loop body).
    loop_max_body_blocks: int = 4
    #: bound on the rotating-register map of an iterating configuration:
    #: a loop is only closed when its live-in operand set fits, so every
    #: trip after the first routes carried values inside the array
    #: instead of re-fetching the input context from the register file.
    loop_carry_regs: int = 8
    #: per-trip cost of resolving the iterating back-edge (the honest
    #: exit check: every trip tests the branch before the next iteration
    #: commits).
    loop_exit_check_cycles: int = 1
    #: per-execution cost of gating a dual-path configuration's
    #: write-backs on the resolved branch direction.
    dual_gate_cycles: int = 1

    def __post_init__(self) -> None:
        if self.cache_slots < 1:
            raise ValueError("cache_slots must be >= 1")
        entries = self.predictor_entries
        if entries < 1 or entries & (entries - 1):
            raise ValueError("predictor_entries must be a positive power "
                             "of two")
        if self.cache_policy not in CACHE_POLICIES:
            valid = ", ".join(CACHE_POLICIES)
            raise ValueError(
                f"unknown cache_policy {self.cache_policy!r}: valid "
                f"policies are {valid}")
        if self.dynflow_mode not in DYNFLOW_MODES:
            valid = ", ".join(DYNFLOW_MODES)
            raise ValueError(
                f"unknown dynflow_mode {self.dynflow_mode!r}: valid "
                f"modes are {valid}")
        if self.loop_max_body_blocks < 1:
            raise ValueError("loop_max_body_blocks must be >= 1")
        if self.loop_carry_regs < 0:
            raise ValueError("loop_carry_regs must be >= 0")
        if self.loop_exit_check_cycles < 0:
            raise ValueError("loop_exit_check_cycles must be >= 0")
        if self.dual_gate_cycles < 0:
            raise ValueError("dual_gate_cycles must be >= 0")

    @property
    def loop_enabled(self) -> bool:
        """Loop-aware configurations active (needs speculation)."""
        return self.speculation and self.dynflow_mode in ("loop", "both")

    @property
    def dual_enabled(self) -> bool:
        """Predicated dual-path merge active (needs speculation)."""
        return self.speculation and self.dynflow_mode in ("dual", "both")


#: DimParams fields that influence translation.  Cache geometry/policy,
#: mis-speculation handling and predictor sizing deliberately excluded:
#: systems differing only in those share one translation partition of
#: the columnar engine (and of the test oracle's memo).  The
#: dynflow knobs are included because they change both the walk (mode,
#: loop bounds) and the built configuration's cost fields (gate and
#: exit-check cycles are baked into the template).
_POLICY_FIELDS = ("speculation", "max_spec_depth", "max_blocks",
                  "min_block_instructions", "dynflow_mode",
                  "loop_max_body_blocks", "loop_carry_regs",
                  "loop_exit_check_cycles", "dual_gate_cycles")


def policy_key(params: DimParams) -> Tuple:
    """The translation-relevant projection of ``params``."""
    return tuple(getattr(params, field) for field in _POLICY_FIELDS)
