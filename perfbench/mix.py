"""The benchmark's inputs and its pure rules: no I/O, no processes.

Everything a run sends to the program is derived here from the run's
``--seed``: the order of the CLI pairs, the open-loop schedules and
the burst.  The same seed always gives the same inputs.  The percentile
rule and the golden check live here too, so the tests can pin them
without starting anything.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# cli-run: fresh ``repro run`` processes over a fixed multiset of pairs.
# ----------------------------------------------------------------------
#: (workload, array, slots, speculation): one workload of each class
#: (mid, dataflow, control) on each paper array, speculation off and on.
#: They are among the quicker workloads (a round takes about 5.5 s on a
#: 2-core host), so each pair repeats four times in a 20 s run.
CLI_PAIRS: Tuple[Tuple[str, str, int, bool], ...] = (
    ("crc", "C1", 16, False),
    ("sha", "C2", 64, True),
    ("gsm_d", "C3", 256, True),
)
#: seconds of ``--seconds`` per planned round.
CLI_ROUND_S = 5.0


def pair_key(pair: Sequence[object]) -> str:
    name, array, slots, spec = pair
    return f"{name}/{array}/{slots}/{'spec' if spec else 'nospec'}"


def run_args(pair: Sequence[object]) -> List[str]:
    """``repro`` arguments of one cli-run op."""
    name, array, slots, spec = pair
    return ["run", str(name), "--array", str(array), "--slots",
            str(slots), "--spec", "on" if spec else "off", "--fast"]


def cli_round(seed: int, round_index: int) -> List[Tuple]:
    """One round of :data:`CLI_PAIRS` in a seeded order."""
    pairs = list(CLI_PAIRS)
    Random(seed * 7919 + round_index).shuffle(pairs)
    return pairs


def ops_for(seconds: float, plan_s: float) -> int:
    """How many rounds a closed-loop run of ``seconds`` plans.

    The count depends on ``--seconds`` alone, never on how fast the
    host happens to be, so every run of a workload does the same work.
    """
    return max(1, round(seconds / plan_s))



# ----------------------------------------------------------------------
# cli-sweep: the cold 216-cell matrix (18 workloads x 12 systems).
# ----------------------------------------------------------------------
SWEEP_ARGS: Tuple[str, ...] = ("sweep", "--arrays", "C1,C2,C3",
                               "--slots", "16,64", "--spec", "both",
                               "--fast", "--no-cache")
SWEEP_CELLS = 216
#: seconds of ``--seconds`` per planned sweep (one sweep takes 16-28 s
#: on a 2-core host): two sweeps at the default 20 s.
SWEEP_PLAN_S = 10.0

#: the layer profile's matrix probe: six quick workloads x the same
#: 12 systems, small enough to run traced and untraced in seconds.
PROBE_NAMES: Tuple[str, ...] = ("crc", "sha", "rijndael_e", "gsm_e",
                                "jpeg_d", "gsm_d")
PROBE_SWEEP_ARGS: Tuple[str, ...] = SWEEP_ARGS + (
    "--only", ",".join(PROBE_NAMES))
#: the layer profile's compute probe: traced ``repro run`` ops.
PROBE_PAIRS: Tuple[Tuple, ...] = (CLI_PAIRS[0], CLI_PAIRS[1])

# ----------------------------------------------------------------------
# serve-zipf / fleet-zipf: one-cell evaluate jobs.
# ----------------------------------------------------------------------
#: the moderate workloads, hottest first (Zipf rank order is fixed so
#: every seed sees the same popularity curve; the seed draws the jobs).
SERVE_WORKLOADS: Tuple[str, ...] = (
    "crc", "sha", "gsm_e", "jpeg_e", "jpeg_d", "rijndael_e", "gsm_d",
    "bitcount", "stringsearch", "dijkstra", "rijndael_d", "quicksort")
ZIPF_S = 1.1
#: share of jobs carrying a design point set-up never warmed.
NOVEL_SHARE = 0.2

BASE_RPS = 40.0
BURST_JOBS = 500
BURST_WINDOW = 32
#: the latency limit the tail percentile is judged against.
LATENCY_LIMIT_MS = 500.0

#: the 48-config paper grid set-up warms: C1-C3 x 8 slot counts x spec.
GRID: Tuple[Dict[str, object], ...] = tuple(
    {"array": array, "slots": slots, "speculation": spec}
    for array in ("C1", "C2", "C3")
    for slots in (16, 32, 64, 128, 256, 512, 1024, 2048)
    for spec in (False, True))


def _pool() -> Tuple[Dict[str, object], ...]:
    """48 shape-form design points outside the paper grid."""
    points = []
    shapes = itertools.product((5, 7, 11, 13), (3, 5), (1, 2), (1, 2, 3))
    for index, (rows, alus, mults, ldsts) in enumerate(shapes):
        points.append({
            "shape": {"rows": rows, "alus_per_row": alus,
                      "mults_per_row": mults, "ldsts_per_row": ldsts},
            "slots": (24, 48, 96)[index % 3],
            "speculation": bool(index % 2)})
    return tuple(points)


POOL: Tuple[Dict[str, object], ...] = _pool()

#: the config set-up submits once per workload to load its trace and
#: lowered columns into the server; never drawn by a schedule.
WARM_CONFIG: Dict[str, object] = {
    "shape": {"rows": 9, "alus_per_row": 4, "mults_per_row": 1,
              "ldsts_per_row": 2},
    "slots": 40, "speculation": True}


def config_key(config: Dict[str, object]) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def cell_key(name: str, config: Dict[str, object]) -> str:
    return f"{name}|{config_key(config)}"


def golden_cells() -> List[Tuple[str, Dict[str, object]]]:
    """Every (workload, config) a serve or fleet job can carry."""
    return [(name, config) for name in SERVE_WORKLOADS
            for config in GRID + POOL + (WARM_CONFIG,)]


def job_spec(name: str, config: Dict[str, object]) -> Dict[str, object]:
    """The wire body of one evaluate job."""
    return {"kind": "evaluate", "names": [name], "fast": True,
            "configs": [dict(config)]}


class Job:
    """One planned job: when it is due (seconds after the phase
    starts; 0 for a burst) and what it evaluates."""

    __slots__ = ("at", "name", "config")

    def __init__(self, at: float, name: str, config: Dict[str, object]):
        self.at = at
        self.name = name
        self.config = config

    def as_tuple(self):
        return (round(self.at, 9), self.name, config_key(self.config))


def _largest_remainder(total: int, weights: Sequence[float]) -> List[int]:
    """Integer shares of ``total`` proportional to ``weights``."""
    raw = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for index in by_remainder[:total - sum(counts)]:
        counts[index] += 1
    return counts


def _cycle(rng: Random, items: Sequence) -> Iterator:
    """Endless seeded permutations of ``items``."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _novel_points(rank: int) -> Iterator:
    """Workload ``rank``'s novel design points: the pool in a fixed
    order (a rotation per workload), so every seed replays the same
    novel cells and only their timing varies."""
    start = (rank * 7) % len(POOL)
    return itertools.cycle(POOL[start:] + POOL[:start])


class Mixer:
    """Draws one run's jobs, stratified so that every seed asks for the
    same work: exact Zipf(s) counts per workload, exactly the novel
    share of each workload's jobs, and the same novel cells, never
    repeated before a workload's pool is used up.  The seed picks the
    warm grid configs, the order of the jobs and their arrival times.
    """

    def __init__(self, seed: int):
        digest = hashlib.sha256(f"perfbench:{seed}".encode()).digest()
        self.rng = Random(int.from_bytes(digest[:8], "big"))
        self.grid = {name: _cycle(self.rng, GRID)
                     for name in SERVE_WORKLOADS}
        self.novel = {name: _novel_points(rank)
                      for rank, name in enumerate(SERVE_WORKLOADS)}

    def draw(self, total: int) -> List[Tuple[str, Dict[str, object]]]:
        weights = [1.0 / (rank + 1) ** ZIPF_S
                   for rank in range(len(SERVE_WORKLOADS))]
        counts = _largest_remainder(total, weights)
        novel = _largest_remainder(round(total * NOVEL_SHARE), counts)
        jobs = []
        for name, count, fresh in zip(SERVE_WORKLOADS, counts, novel):
            jobs += [(name, next(self.novel[name])) for _ in range(fresh)]
            jobs += [(name, next(self.grid[name]))
                     for _ in range(count - fresh)]
        self.rng.shuffle(jobs)
        return jobs

    def open_loop(self, rate: float, duration: float) -> List[Job]:
        """``rate * duration`` jobs at uniformly random times in
        ``[0, duration)`` — Poisson arrivals conditioned on their count."""
        jobs = self.draw(round(rate * duration))
        times = sorted(self.rng.uniform(0.0, duration) for _ in jobs)
        return [Job(at, name, config)
                for at, (name, config) in zip(times, jobs)]

    def burst(self, count: int = BURST_JOBS) -> List[Job]:
        """``count`` jobs from the same mix, all due at once."""
        return [Job(0.0, name, config) for name, config in self.draw(count)]


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it.

    With fewer than ``100 / (100 - q)`` samples this is the maximum,
    which is what the CLI workloads' short op lists report.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no samples")
    return math.exp(sum(map(math.log, values)) / len(values))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


# ----------------------------------------------------------------------
# Goldens.
# ----------------------------------------------------------------------
def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cell(goldens: Dict[str, object], name: str,
               config: Dict[str, object],
               payload: Optional[Dict[str, object]]) -> bool:
    """True iff a job's result payload carries the golden suite JSON."""
    if not isinstance(payload, dict):
        return False
    result = payload.get("result")
    if not isinstance(result, dict):
        return False
    suite_json = result.get("suite_json")
    if not isinstance(suite_json, str):
        return False
    expected = goldens["cells"].get(cell_key(name, config))
    return expected is not None and digest(suite_json) == expected
