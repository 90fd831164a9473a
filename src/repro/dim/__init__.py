"""Dynamic Instruction Merging — the paper's contribution.

DIM is a binary-translation engine implemented in hardware, working in
parallel with the processor pipeline.  This package models it faithfully
at the algorithmic level:

- :mod:`repro.dim.params` — the policy constants (cache slots,
  speculation depth, flush threshold, minimum block length).
- :mod:`repro.dim.predictor` — the bimodal branch predictor that gates
  speculative block merging.
- :mod:`repro.dim.rcache` — the PC-indexed, FIFO-replacement
  reconfiguration cache.
- :mod:`repro.dim.translator` — the detection/translation algorithm that
  turns a basic-block tree into an array configuration.
- :mod:`repro.dim.engine` — the online state machine tying it together
  (translate on first sight, execute from cache afterwards, extend
  configurations when counters saturate, flush on repeated
  mis-speculation).

Nothing here memoizes translations across systems: the hardware has
none.  The probe log a translation can record (see
:meth:`~repro.dim.translator.Translator.translate`) is what the
columnar engine's translation timeline and the test oracle's memo
(``tests/oracle.py``) revalidate reused translations against.
"""

from repro.dim.params import DimParams
from repro.dim.predictor import BimodalPredictor
from repro.dim.rcache import ReconfigurationCache
from repro.dim.translator import Translator
from repro.dim.engine import DimEngine, DimStats

__all__ = [
    "DimParams",
    "BimodalPredictor",
    "ReconfigurationCache",
    "Translator",
    "DimEngine",
    "DimStats",
]
