"""MIPS I functional simulator with cycle accounting.

The simulator executes programs produced by :mod:`repro.asm` or
:mod:`repro.minic`, models the timing of a single-issue in-order R3000-class
pipeline (load-use interlock, taken-branch penalty, multiply/divide
latency), services SPIM-style syscalls, and can record the basic-block
trace that drives the DIM trace evaluator in :mod:`repro.system.traceeval`.
"""

from repro.sim.cache import CacheConfig, CacheHierarchy, CacheModel
from repro.sim.memory import Memory, MemoryError_, AlignmentError_
from repro.sim.stats import RunStats, TimingModel
from repro.sim.trace import BasicBlock, BlockTable, Trace
from repro.sim.cpu import Simulator, RunResult, SimulationError, run_program

__all__ = [
    "run_program",
    "CacheConfig",
    "CacheHierarchy",
    "CacheModel",
    "Memory",
    "MemoryError_",
    "AlignmentError_",
    "RunStats",
    "TimingModel",
    "BasicBlock",
    "BlockTable",
    "Trace",
    "Simulator",
    "RunResult",
    "SimulationError",
]
