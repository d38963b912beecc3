"""Workloads of the bktame CLI benchmark.

Every workload is a fixed ``bktame`` CLI invocation.  The benchmark seed
only picks the program's ``--seed`` values; the program sees nothing but
the generated argv.  A workload with ``variants > 1`` cycles through that
many program seeds in one run, because its run time depends on the seed
(``bm`` lets the seed choose the elimination order) and the median over
several orders is steadier than one order's time.

Program seeds are taken modulo ``SEED_POOL``, and every argv the pool
yields is pinned in pins.json, so the report-byte gate applies at every
benchmark seed, not only the default one.

Each workload's one-line reason and the metric names and units live in
BENCHMARK.json at the repository root; this file keeps only what the
benchmark runs and which layers each workload loads and bypasses.
"""

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_POOL = 32

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)

# (name, unit) of each end-to-end and per-layer metric
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


@dataclass(frozen=True)
class Workload:
    name: str
    loads: tuple
    bypasses: tuple
    template: tuple
    variants: int = 1

    @property
    def why(self):
        return next(w["why"] for w in BENCH["workloads"] if w["name"] == self.name)

    def argvs(self, seed):
        """The argv lists one run cycles through; equal seeds give equal lists."""
        return [[arg.format(seed=(seed * self.variants + i) % SEED_POOL)
                 for arg in self.template] for i in range(self.variants)]

    def pool(self):
        """Every distinct argv list the seed pool yields, in pool order."""
        seen = {}
        for seed in range(SEED_POOL):
            for argv in self.argvs(seed):
                seen.setdefault(" ".join(argv), argv)
        return list(seen.values())


WORKLOADS = {w.name: w for w in (
    Workload(
        "oracle_pairs",
        loads=("gfarith", "shapes", "rankone", "cli"),
        bypasses=("weights", "intlinalg"),
        template=("oracle", "-p", "5", "-f", "1", "-e", "1",
                  "--samples", "1000", "--seed", "{seed}"),
    ),
    Workload(
        "oracle_kext",
        loads=("gfarith", "tametypes", "rankone", "shapes", "cli"),
        bypasses=("weights", "intlinalg"),
        template=("oracle", "-p", "7", "-f", "2", "--samples", "1", "--seed", "{seed}"),
    ),
    Workload(
        "bm_cycles",
        loads=("weights", "intlinalg", "tametypes", "shapes", "cli"),
        bypasses=("gfarith", "rankone"),
        template=("bm", "-p", "5", "-f", "2", "--seed", "{seed}", "--format", "csv"),
        variants=8,
    ),
    Workload(
        "ptau_report",
        loads=("shapes", "cli", "tametypes"),
        bypasses=("gfarith", "rankone", "weights", "intlinalg"),
        template=("ptau", "-p", "5", "-f", "3"),
    ),
)}
