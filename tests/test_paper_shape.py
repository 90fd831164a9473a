"""Paper-shape gates, on the production columnar engine.

The Table 2 and Figure 6 benches check the reproduction's claims over
all 18 workloads; these cheap gates keep the shapes in Tier-1 so a
modelling change cannot drift from EXPERIMENTS.md unnoticed.

Subset: ``rijndael_e`` and ``crc`` — the smallest one that shows every
shape (no single workload does; the pairs that do all contain a
Rijndael).  ``rijndael_e`` is dataflow code that needs array lines, so
it carries C1 -> C2 -> C3 in every column (at 16 slots only barely:
1.54 -> 1.55, as in the full-suite average row, 2.47 -> 2.48); ``crc``
is control code that speculation speeds up on every array, which
carries N -> S past Rijndael's C3 inversion.  ``rijndael_e`` also shows
that Rijndael is cache-slot bound on C3.  Their C2/64/spec energy
ratio is 1.70x (all 18 workloads: 1.73x, the paper's 1.73x).  Of the
pairs that show the shapes, it is among the cheapest to trace.
"""

import math

import pytest

from repro.system.config import PAPER_CACHE_SLOTS, paper_system
from repro.system.sweep import evaluate_matrix

SUBSET = ("rijndael_e", "crc")
ARRAYS = ("C1", "C2", "C3")

#: Figure 6's headline, C#2 / 64 slots / speculation (paper: 1.73x).
FIG6_BAND = (1.60, 1.86)


#: Table 2's columns: (array, speculation, cache slots).
COLUMNS = [(array, spec, slots) for array in ARRAYS
           for spec in (False, True) for slots in PAPER_CACHE_SLOTS]


@pytest.fixture(scope="module")
def suites():
    configs = [paper_system(array, slots, spec)
               for array, spec, slots in COLUMNS]
    result = evaluate_matrix(configs, names=list(SUBSET))
    return {column: result.suite(config.name)
            for column, config in zip(COLUMNS, configs)}


def _average(suite) -> float:
    """Table 2's AVERAGE row: the arithmetic mean speedup."""
    return sum(r.speedup for r in suite.results) / len(suite.results)


@pytest.mark.parametrize("spec", [False, True], ids=["N", "S"])
@pytest.mark.parametrize("slots", PAPER_CACHE_SLOTS)
def test_table2_bigger_arrays_help(suites, spec, slots):
    c1, c2, c3 = (_average(suites[(array, spec, slots)])
                  for array in ARRAYS)
    assert c1 < c2 < c3


@pytest.mark.parametrize("array", ARRAYS)
@pytest.mark.parametrize("slots", PAPER_CACHE_SLOTS)
def test_table2_speculation_helps(suites, array, slots):
    assert _average(suites[(array, False, slots)]) \
        < _average(suites[(array, True, slots)])


@pytest.mark.parametrize("spec", [False, True], ids=["N", "S"])
def test_table2_rijndael_is_cache_slot_bound(suites, spec):
    """Its many distinct unrolled blocks thrash a 16-entry FIFO: on C3,
    64 slots more than double 16 (1.55 -> 3.43 without speculation;
    paper: 1.05 -> 3.46)."""
    def rijndael(slots):
        suite = suites[("C3", spec, slots)]
        return next(r.speedup for r in suite.results
                    if r.workload == "rijndael_e")
    assert rijndael(64) > 1.8 * rijndael(16)


def test_fig6_energy_ratio_near_paper(suites):
    suite = suites[("C2", True, 64)]
    geomean = math.exp(sum(math.log(r.energy_ratio)
                           for r in suite.results) / len(suite.results))
    assert FIG6_BAND[0] <= geomean <= FIG6_BAND[1]
    assert suite.geomean_energy_ratio == pytest.approx(geomean)
