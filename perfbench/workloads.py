"""The benchmark's four workloads: their inputs, sizes and output checks.

A workload turns the benchmark seed into the seed list the program
receives, names the command line (or API call) it runs, states how much
work one run simulates, and checks the outputs of a run.  Checks compare
against the references under ``reference/`` (see ``make_reference.py``).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REF_DIR = Path(__file__).resolve().parent / "reference"

#: fig3-paper's first run in every invocation uses this seed, whose series
#: is stored exactly (generated seeds are drawn from [1, 10**6))
CANARY_SEED = 0

#: statistical output checks: |x - mean_ref| <= Z * std * sqrt(1/n + 1/M)
#: + ABS_TOL, with std the reference's per-seed standard deviation
Z = 6.0
ABS_TOL = 0.05

FIG3_ALPHAS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70)
FIG9_LAMBDAS = (0.60, 0.66, 0.72, 0.78, 0.84, 0.90, 0.96)
LARGE_N_ALPHA = 0.55

DP_FAMILY = ("DB-DP",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cli" or "api"
    figure: str
    intervals: int
    num_seeds: int
    links: int
    x_values: Tuple[float, ...]
    policies: Tuple[str, ...]
    #: extra CLI flags after the figure name
    flags: Tuple[str, ...] = ()
    #: CLI invocations per run ("cold" then "warm" re-runs the same argv)
    phases: Tuple[str, ...] = ("run",)

    def seeds(self, seed: int) -> List[int]:
        """The seed list the program receives, generated from ``seed``."""
        return sorted(random.Random(seed).sample(range(1, 10**6), self.num_seeds))

    def argv(self, seeds: Sequence[int]) -> List[str]:
        return (
            [self.figure]
            + list(self.flags)
            + ["--intervals", str(self.intervals), "--seeds"]
            + [str(s) for s in seeds]
        )

    @property
    def cells(self) -> int:
        """Result cells one run produces (sweep points, or seed rows)."""
        if self.kind == "api":
            return self.num_seeds
        return len(self.x_values) * len(self.policies)

    @property
    def link_intervals(self) -> int:
        """seeds x links x intervals simulated in one run, over all cells."""
        cells = 1 if self.kind == "api" else self.cells
        return self.num_seeds * self.links * self.intervals * cells

    def spec_builder(self):
        from repro.experiments import configs

        if self.figure == "fig9":
            return functools.partial(configs.low_latency_spec, delivery_ratio=0.99)
        return configs.video_symmetric_spec

    def reference(self) -> dict:
        with open(REF_DIR / f"{self.name}.json") as handle:
            return json.load(handle)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig3-fused",
            why="production path: fused batch kernels at the paper's N=20 "
            "with dense DP; kernels do most of the work, scalar engine and "
            "cache do none",
            kind="cli",
            figure="fig3",
            intervals=3000,
            num_seeds=20,
            links=20,
            x_values=FIG3_ALPHAS,
            policies=("DB-DP", "LDF"),
            flags=("--engine", "fused", "--rng", "free", "--policies",
                   "DB-DP", "LDF"),
        ),
        Workload(
            name="fig3-paper",
            why="no-flag default: scalar engine over DB-DP/LDF/FCSMA on one "
            "seed (the oracle); batch kernels do nothing here",
            kind="cli",
            figure="fig3",
            intervals=300,
            num_seeds=1,
            links=20,
            x_values=FIG3_ALPHAS,
            policies=("DB-DP", "LDF", "FCSMA"),
        ),
        Workload(
            name="large-n",
            why="10000 links through the batch API: incremental serve-set "
            "DP, per-interval O(N) work and the largest memory footprint",
            kind="api",
            figure="",
            intervals=600,
            num_seeds=8,
            links=10000,
            x_values=(LARGE_N_ALPHA,),
            policies=("DB-DP",),
        ),
        Workload(
            name="fig9-resume",
            why="N=10 low-latency sweep, 2 shards, cold run then warm "
            "resume: the only load on the cache and the parallel "
            "orchestrator",
            kind="cli",
            figure="fig9",
            intervals=6000,
            num_seeds=8,
            links=10,
            x_values=FIG9_LAMBDAS,
            policies=("DB-DP", "LDF"),
            flags=("--engine", "fused", "--rng", "free", "--policies",
                   "DB-DP", "LDF", "--shards", "2", "--resume"),
            phases=("cold", "warm"),
        ),
    )
}


# -- output checks -------------------------------------------------------


def _series_cells(workload: Workload, figure: Optional[dict]) -> List[Tuple[str, int, float]]:
    """(policy, x index, value) for every cell, NaN where missing."""
    cells = []
    series = (figure or {}).get("series", {})
    for policy in workload.policies:
        values = series.get(policy, [])
        for i in range(len(workload.x_values)):
            value = values[i] if i < len(values) else float("nan")
            cells.append((policy, i, value if value is not None else float("nan")))
    return cells


def _within(value: float, mean: float, std: float, n: int, m: int) -> bool:
    return abs(value - mean) <= Z * std * math.sqrt(1 / n + 1 / m) + ABS_TOL


def check_sweep(workload: Workload, ref: dict, phases: List[dict],
                seeds: Sequence[int]) -> Tuple[int, List[str]]:
    """Failed cells (and why) for one run of a CLI workload."""
    bad = set()
    notes: List[str] = []
    first = phases[0]
    cells = _series_cells(workload, first.get("figure"))
    m = len(ref["seeds"])
    canary = workload.name == "fig3-paper" and list(seeds) == [CANARY_SEED]
    for policy, i, value in cells:
        key = (policy, i)
        if math.isnan(value):
            bad.add(key)
            notes.append(f"{policy}@{workload.x_values[i]}: NaN or missing")
        elif canary:
            if value != ref["canary"][policy][i]:
                bad.add(key)
                notes.append(
                    f"{policy}@{workload.x_values[i]}: {value!r} != stored "
                    f"{ref['canary'][policy][i]!r}"
                )
        elif not _within(value, ref["mean"][policy][i], ref["std"][policy][i],
                         len(seeds), m):
            bad.add(key)
            notes.append(
                f"{policy}@{workload.x_values[i]}: {value:.4f} outside the "
                f"bound around the scalar reference {ref['mean'][policy][i]:.4f}"
            )
    for point in first.get("points", []):
        param, policy, collisions = point[0], point[1], point[3]
        if policy in DP_FAMILY and collisions != 0:
            index = _index(workload.x_values, param)
            bad.add((policy, index))
            notes.append(f"{policy}@{param}: {collisions} collisions")
    for later in phases[1:]:
        # A warm re-run must replay the cold run's points bit for bit.
        warm = _series_cells(workload, later.get("figure"))
        for (policy, i, cold_v), (_, _, warm_v) in zip(cells, warm):
            if warm_v != cold_v and not (math.isnan(cold_v) and math.isnan(warm_v)):
                bad.add((policy, i))
                notes.append(
                    f"{policy}@{workload.x_values[i]}: warm {warm_v!r} != "
                    f"cold {cold_v!r}"
                )
    return len(bad), notes


def _index(values: Sequence[float], x: float) -> int:
    return min(range(len(values)), key=lambda i: abs(values[i] - x))


def check_large_n(workload: Workload, ref: dict, phases: List[dict],
                  seeds: Sequence[int]) -> Tuple[int, List[str]]:
    rows = phases[0].get("rows") or []
    notes: List[str] = []
    bad = 0
    if len(rows) != workload.num_seeds:
        return workload.num_seeds, [f"{len(rows)} result rows, expected "
                                    f"{workload.num_seeds}"]
    for row in rows:
        why = []
        if not math.isfinite(row["total_deficiency"]):
            why.append("NaN deficiency")
        elif not _within(row["total_deficiency"], ref["mean"], ref["std"],
                         1, ref["seeds"]):
            why.append(f"deficiency {row['total_deficiency']:.3f} outside "
                       f"the bound around {ref['mean']:.3f}")
        if not row["delivered_le_arrived"]:
            why.append("delivered more than arrived")
        if row["collisions"] != 0:
            why.append(f"{row['collisions']} DP collisions")
        if why:
            bad += 1
            notes.append(f"seed {row['seed']}: " + ", ".join(why))
    mean = sum(r["total_deficiency"] for r in rows) / len(rows)
    if not _within(mean, ref["mean"], ref["std"], len(rows), ref["seeds"]):
        bad = len(rows)
        notes.append(f"mean deficiency {mean:.3f} outside the bound around "
                     f"{ref['mean']:.3f}")
    return bad, notes


def check(workload: Workload, ref: dict, phases: List[dict],
          seeds: Sequence[int]) -> Tuple[int, List[str]]:
    """Failed cells of one run, given each phase's worker result."""
    if workload.kind == "api":
        return check_large_n(workload, ref, phases, seeds)
    return check_sweep(workload, ref, phases, seeds)
