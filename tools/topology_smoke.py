#!/usr/bin/env python
"""CI smoke drill for the multi-cell topology layer.

Runs a small multi-cell grid (12 links, 3 cells, boundary links
promoted) through the fused sweep engine and the on-disk sweep cache:

1. **Cold + warm**: a topology sweep is run cold into an empty cache,
   then re-run warm; every cell must come back as a cache hit and the
   warm result must be **bit-identical** to the cold one.
2. **Checkpoint resume**: a partial sweep (the first parameter value
   only) populates the cache, then the full sweep resumes on top; the
   checkpointed cells are served warm and the result is bit-identical
   to an uncached reference run.
3. **Degrade semantics**: a family with no batch kernel (FCSMA) in
   the same sweep must degrade to single-domain with exactly one
   ``UserWarning`` while still producing finite points.

Writes ``TOPOLOGY_SMOKE.json`` for CI artifact upload; exits non-zero
on any violated assertion.

Usage::

    PYTHONPATH=src python tools/topology_smoke.py [--intervals N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.cache import SweepCache  # noqa: E402
from repro.experiments.configs import video_symmetric_spec  # noqa: E402
from repro.experiments.runner import run_sweep  # noqa: E402
from repro.topology import grid_cells  # noqa: E402

VALUES = [0.45, 0.55, 0.65]
NUM_LINKS = 12
NUM_CELLS = 3
CROSS_FRACTION = 0.5


def smoke_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=NUM_LINKS)


def smoke_topology(spec):
    return grid_cells(spec.num_links, NUM_CELLS, CROSS_FRACTION)


def sweep_kwargs(num_intervals: int, policies) -> dict:
    return dict(
        parameter_name="alpha",
        values=VALUES,
        spec_builder=smoke_builder,
        policies=policies,
        num_intervals=num_intervals,
        seeds=(0, 1),
        engine="fused",
        topology=smoke_topology,
    )


def _points(result):
    return [
        (p.parameter, p.policy, p.total_deficiency, p.mean_overhead_us)
        for p in result.points
    ]


def drill_cold_warm(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP"])
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        print("[topology-smoke] cold multi-cell sweep...")
        cold = run_sweep(cache=cache, **kwargs)
        stored = cache.stores
        assert stored == len(VALUES), (
            f"expected {len(VALUES)} cells checkpointed cold, got {stored}"
        )
        print("[topology-smoke] warm re-run from the cache...")
        warm = run_sweep(cache=cache, **kwargs)
        assert cache.hits == len(VALUES), (
            f"expected all {len(VALUES)} cells served warm, "
            f"got {cache.hits} hits"
        )
        assert _points(cold) == _points(warm), (
            "warm topology sweep is not bit-identical to the cold run"
        )
        print("[topology-smoke] warm result is bit-identical. OK")
        report["cold_warm"] = {
            "values": VALUES,
            "checkpointed_cells": stored,
            "warm_hits": cache.hits,
            "bit_identical": True,
        }


def drill_checkpoint_resume(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP"])
    print("[topology-smoke] reference run (uncached)...")
    reference = run_sweep(**kwargs)
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        partial = dict(kwargs, values=VALUES[:1])
        print("[topology-smoke] partial sweep (first value only)...")
        run_sweep(cache=cache, **partial)
        checkpointed = cache.stores
        assert checkpointed == 1, (
            f"expected 1 checkpointed cell, got {checkpointed}"
        )
        print("[topology-smoke] resuming the full sweep on the cache...")
        resumed = run_sweep(cache=cache, **kwargs)
        assert cache.hits == 1, (
            f"expected the checkpointed cell served warm, got {cache.hits}"
        )
        assert _points(reference) == _points(resumed), (
            "resumed topology sweep is not bit-identical to the reference"
        )
        print("[topology-smoke] resumed result is bit-identical. OK")
        report["checkpoint_resume"] = {
            "checkpointed_cells": checkpointed,
            "warm_hits_on_resume": cache.hits,
            "bit_identical": True,
        }


def drill_degrade_warning(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP", "FCSMA"])
    print(
        "[topology-smoke] mixed sweep with a family that has no batch "
        "kernel..."
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_sweep(**kwargs)
    topo_warnings = [
        w for w in caught
        if "families with no batch kernel" in str(w.message)
    ]
    assert len(topo_warnings) == 1, (
        f"expected exactly one degrade warning, got {len(topo_warnings)}"
    )
    assert "FCSMA" in str(topo_warnings[0].message)
    fcsma = [p for p in result.points if p.policy == "FCSMA"]
    assert fcsma and all(
        math.isfinite(p.total_deficiency) for p in fcsma
    ), "degraded FCSMA cells did not produce finite points"
    print("[topology-smoke] FCSMA degraded with one warning. OK")
    report["degrade"] = {
        "warnings": len(topo_warnings),
        "degraded_family": "FCSMA",
        "finite_points": len(fcsma),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--intervals",
        type=int,
        default=120,
        help="horizon per cell (default 120: a few seconds total)",
    )
    parser.add_argument(
        "--out",
        default="TOPOLOGY_SMOKE.json",
        help="where to write the drill summary",
    )
    args = parser.parse_args(argv)
    report: dict = {
        "intervals": args.intervals,
        "topology": f"grid_cells({NUM_LINKS}, {NUM_CELLS}, {CROSS_FRACTION})",
    }
    drill_cold_warm(args.intervals, report)
    drill_checkpoint_resume(args.intervals, report)
    drill_degrade_warning(args.intervals, report)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"[topology-smoke] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
