"""Regenerate the benchmark's stored output references.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_reference.py            # all parts
    PYTHONPATH=src python3 perfbench/make_reference.py fig3-paper # one part

Each part is written into ``perfbench/reference/<workload>.json``:

* sweep workloads store the scalar engine's per-point mean and per-seed
  standard deviation over ``REFERENCE_SEEDS`` seeds at the workload's
  horizon — the oracle the benchmark's statistical checks compare to;
* ``fig3-paper`` also stores the exact series of the canary seed, which
  the scalar engine must reproduce bit for bit;
* ``large-n`` stores the mean and standard deviation of the per-row total
  deficiency of the batch engine, since the scalar engine cannot run
  ten thousand links in reasonable time.

The reference seeds are disjoint from the seeds the benchmark generates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import workloads as wl

REF_DIR = Path(__file__).resolve().parent / "reference"

#: first seed of the reference seed lists (generated seeds stay below it)
SEED_BASE = 10_000_000


def _sweep_reference(workload: wl.Workload, num_seeds: int) -> dict:
    from repro.experiments.runner import run_sweep

    seeds = tuple(range(SEED_BASE, SEED_BASE + num_seeds))
    sweep = run_sweep(
        parameter_name="x",
        values=workload.x_values,
        spec_builder=workload.spec_builder(),
        policies=list(workload.policies),
        num_intervals=workload.intervals,
        seeds=seeds,
        engine="scalar",
    )
    mean = {p: [] for p in workload.policies}
    std = {p: [] for p in workload.policies}
    for point in sweep.points:
        mean[point.policy].append(point.total_deficiency)
        std[point.policy].append(point.deficiency_std)
    return {
        "engine": "scalar",
        "horizon": workload.intervals,
        "seeds": list(seeds),
        "x": list(workload.x_values),
        "mean": mean,
        "std": std,
    }


def fig3_paper() -> dict:
    from repro.experiments.figures import fig3

    workload = wl.WORKLOADS["fig3-paper"]
    ref = _sweep_reference(workload, num_seeds=40)
    canary = fig3(num_intervals=workload.intervals, seeds=(wl.CANARY_SEED,))
    ref["canary_seed"] = wl.CANARY_SEED
    ref["canary"] = {k: list(v) for k, v in canary.series.items()}
    return ref


def fig3_fused() -> dict:
    return _sweep_reference(wl.WORKLOADS["fig3-fused"], num_seeds=24)


def fig9_resume() -> dict:
    return _sweep_reference(wl.WORKLOADS["fig9-resume"], num_seeds=16)


def large_n() -> dict:
    from repro.core.dbdp import DBDPPolicy
    from repro.experiments.configs import video_symmetric_spec
    from repro.sim.batch_sim import BatchIntervalSimulator

    workload = wl.WORKLOADS["large-n"]
    totals = []
    for start in (SEED_BASE, SEED_BASE + workload.num_seeds):
        seeds = list(range(start, start + workload.num_seeds))
        sim = BatchIntervalSimulator(
            video_symmetric_spec(wl.LARGE_N_ALPHA, num_links=workload.links),
            DBDPPolicy(),
            seeds,
            rng="free",
            record_traces=False,
        )
        stats = sim.run(workload.intervals)
        totals.extend(float(x) for x in stats.total_deficiency())
        del sim, stats
    return {
        "engine": "batch/free",
        "horizon": workload.intervals,
        "links": workload.links,
        "seeds": 2 * workload.num_seeds,
        "mean": float(np.mean(totals)),
        "std": float(np.std(totals)),
    }


PARTS = {
    "fig3-paper": fig3_paper,
    "fig3-fused": fig3_fused,
    "fig9-resume": fig9_resume,
    "large-n": large_n,
}


def main(argv) -> int:
    names = argv or list(PARTS)
    REF_DIR.mkdir(exist_ok=True)
    for name in names:
        ref = PARTS[name]()
        with open(REF_DIR / f"{name}.json", "w") as handle:
            json.dump(ref, handle, indent=1)
            handle.write("\n")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
