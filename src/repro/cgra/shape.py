"""Array geometry and timing parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArrayShape:
    """Geometry and timing of one reconfigurable-array configuration.

    The first four fields mirror Table 1 of the paper (lines, and per-line
    ALU / multiplier / load-store unit counts; the paper's "#Columns" is
    their sum).  The remaining fields are the timing assumptions Section
    4.1 describes qualitatively:

    - ``alu_chain``: how many *dependent* ALU lines fit in one processor
      cycle ("more than one operation can be executed within one processor
      equivalent cycle" for simple arithmetic); multiplies and memory
      operations take a full cycle.
    - ``rf_read_ports`` / ``rf_write_ports``: register-bank bandwidth for
      fetching the input context during reconfiguration and writing the
      output context back.  Reconfiguration overlaps the three pipeline
      stages before execute; only the excess stalls the core.
    - ``immediate_slots``: how many immediate values one stored
      configuration can carry (the paper's Immediate Table).
    """

    rows: int
    alus_per_row: int
    mults_per_row: int
    ldsts_per_row: int
    #: two dependent mux->ALU->mux traversals per processor cycle; the
    #: paper says "more than one" simple operation fits in a cycle, and
    #: the ablation bench sweeps 1..4 (1 reproduces the paper's average
    #: speedups almost exactly, 2 is our default — see EXPERIMENTS.md).
    alu_chain: int = 2
    rf_read_ports: int = 6
    rf_write_ports: int = 4
    immediate_slots: int = 64

    @property
    def columns(self) -> int:
        """Table 1's "#Columns": functional units per line."""
        return self.alus_per_row + self.mults_per_row + self.ldsts_per_row

    def line_delay(self, has_mem: bool, has_mult: bool) -> float:
        """Delay contribution of one occupied line, in processor cycles."""
        if has_mem or has_mult:
            return 1.0
        return 1.0 / self.alu_chain

    def reconfiguration_cycles(self, num_inputs: int) -> int:
        """Cycles to load a configuration and fetch its input context.

        One cycle reads the configuration bits from the reconfiguration
        cache; the input operands then stream through the register-bank
        read ports.
        """
        fetch = -(-num_inputs // self.rf_read_ports) if num_inputs else 0
        return 1 + fetch


def default_immediate_slots(rows: int) -> int:
    """Immediate-table capacity for an array of ``rows`` lines.

    Two slots per line, so lines — not immediates — are the binding
    resource (the paper never reports immediate-table saturation).
    This is the single home of that convention: the DSE parameter space
    (:mod:`repro.dse.space`) and the shape-search benchmark grid both
    derive unpinned immediate tables through it.
    """
    return 2 * rows


#: An effectively unbounded array, used for the paper's "Ideal" columns.
INFINITE_SHAPE = ArrayShape(rows=1_000_000, alus_per_row=512,
                            mults_per_row=512, ldsts_per_row=512,
                            immediate_slots=1_000_000)
