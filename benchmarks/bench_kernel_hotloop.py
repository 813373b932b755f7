"""Kernel backends (numpy vs c) on the Fig. 3 grid under ``rng="free"``.

Every kernel runs on preallocated workspace buffers with ``out=`` ufunc
passes, closed-form single-pair priority updates, and matmul prefix
sums; ``backend="c"`` runs the sequential pieces — ordered service and
the DP interval timeline — as per-row loops compiled with the system C
compiler (:mod:`repro.sim.ckernels`).  Both backends consume identical
free RNG streams and are bit-identical in output (asserted here before
timing, and in ``tests/integration/test_kernel_backends.py``).

This benchmark times each backend on the paper's Fig. 3 sweep (16 alpha
values x 20 seeds x DB-DP + LDF) and records a perf-counter
decomposition of each backend's run so ``tools/check_c_wins.py`` can
check the compiled loops stage by stage.  When no C compiler works the
c leg is skipped with a loud warning and the report carries
``c_skipped: true`` so a dashboard never mistakes a numpy fallback for a
compiled measurement.  Results land in ``BENCH_kernels.json`` (path
overridable via ``REPRO_BENCH_KERNELS_JSON``); each run appends its
headline numbers to the report's ``trajectory`` list.

Timing is manual (``perf_counter``, interleaved best-of-3) so the numbers
exist even under ``pytest --benchmark-disable``; the committed full-scale
measurement is produced with ``REPRO_BENCH_SCALE=1``.
"""

from __future__ import annotations

import gc
import json
import os
import time
import warnings
from pathlib import Path

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.sim import ckernels, perf

from _bench_utils import bench_intervals

#: The paper's Fig. 3 horizon; scaled by REPRO_BENCH_SCALE.
PAPER_INTERVALS = 5000
NUM_SEEDS = 20
ALPHAS = tuple(round(0.40 + 0.02 * i, 2) for i in range(16))
REPS = 3

POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}


def _output_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_KERNELS_JSON", "BENCH_kernels.json")
    )


def _spec_builder(alpha: float):
    return video_symmetric_spec(alpha, delivery_ratio=0.9)


def _run(backend: str, intervals: int, seeds):
    return run_sweep_fused(
        "alpha*", ALPHAS, _spec_builder, POLICIES, intervals, seeds,
        validate=False, backend=backend, rng="free",
    )


def _stage_run(backend: str, intervals: int, seeds) -> dict:
    """Per-stage seconds/allocs of one instrumented run of ``backend``."""
    was_enabled = perf.counters.enabled
    perf.reset()
    perf.enable()
    try:
        _run(backend, intervals, seeds)
        return perf.counters.snapshot()
    finally:
        perf.counters.enabled = was_enabled
        perf.reset()


def _prior_trajectory(path: Path):
    """The trajectory recorded by previous runs of this benchmark."""
    try:
        return list(json.loads(path.read_text()).get("trajectory", []))
    except (OSError, ValueError):
        return []


def test_kernel_backends_hotloop():
    intervals = bench_intervals(PAPER_INTERVALS)
    seeds = tuple(range(NUM_SEEDS))

    backends = ["numpy"]
    c_error = ckernels.load_error()
    c_skipped = c_error is not None
    if c_skipped:
        warnings.warn(
            f"the c backend cannot build ({c_error}): the c leg is SKIPPED "
            "and every headline number below is a numpy-backend "
            "measurement (the report carries c_skipped: true)",
            RuntimeWarning,
            stacklevel=1,
        )
    else:
        backends.append("c")

    # Bit-identity first (also warms every code path before timing).
    results = {b: _run(b, intervals, seeds) for b in backends}
    for backend in backends[1:]:
        assert results[backend].points == results["numpy"].points, (
            f"backend {backend!r} diverged from the numpy backend"
        )

    best = {}
    for _ in range(REPS):
        for backend in backends:  # interleaved: noise hits all equally
            gc.collect()
            t0 = time.perf_counter()
            _run(backend, intervals, seeds)
            best[backend] = min(
                best.get(backend, float("inf")), time.perf_counter() - t0
            )

    report = {
        "workload": {
            "sweep": "video_symmetric_spec(alpha, delivery_ratio=0.9)",
            "values": list(ALPHAS),
            "policies": list(POLICIES),
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
        },
        "bit_identical_backends": backends,
        "c_available": not c_skipped,
        "c_skipped": c_skipped,
        "config": {"rng": "free"},
        "best_seconds": {k: round(v, 3) for k, v in best.items()},
    }
    if not c_skipped:
        report["speedup_c_vs_numpy"] = round(best["numpy"] / best["c"], 2)
    for backend in backends:
        stages = _stage_run(backend, intervals, seeds)
        report[f"{backend}_stage_seconds"] = {
            name: round(stat["seconds"], 4) for name, stat in stages.items()
        }
        report[f"{backend}_stage_allocs"] = {
            name: int(stat["allocs"])
            for name, stat in stages.items()
            if stat["allocs"]
        }

    path = _output_path()
    trajectory = _prior_trajectory(path)
    trajectory.append(
        {
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "rng": "free",
            "c_skipped": c_skipped,
            **{f"{b}_seconds": round(t, 3) for b, t in best.items()},
        }
    )
    report["trajectory"] = trajectory[-12:]  # bounded history
    path.write_text(json.dumps(report, indent=2) + "\n")
