"""Kernel backends (numpy vs jit) on the Fig. 3 grid under ``rng="free"``.

Every kernel runs on preallocated workspace buffers with ``out=`` ufunc
passes, closed-form single-pair priority updates, and matmul prefix
sums; ``backend="jit"`` additionally compiles the two sequential inner
loops with Numba (``prange`` over batch rows) where it is installed.
Both backends consume identical free RNG streams and are bit-identical
in output (asserted here before timing, and in
``tests/integration/test_kernel_backends.py``).

This benchmark times each backend on the paper's Fig. 3 sweep (16 alpha
values x 20 seeds x DB-DP + LDF) and records a perf-counter
decomposition of each backend's run so ``tools/check_jit_wins.py`` can
check the compiled loops stage by stage.  When numba is not importable
the jit leg is skipped with a loud warning and the report carries
``jit_skipped: true`` so a dashboard never mistakes a numpy fallback for
a compiled measurement.  Results land in ``BENCH_kernels.json`` (path
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
from repro.sim import jit_kernels, perf

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
    # The JIT leg is only a distinct measurement when numba is actually
    # installed; forced-Python mode exists for semantics tests and would
    # just time the interpreter.
    jit_compiled = jit_kernels.HAS_NUMBA and not jit_kernels.force_python
    jit_skipped = not jit_compiled
    if jit_compiled:
        backends.append("jit")
    else:
        warnings.warn(
            "jit backend requested by the benchmark but numba is not "
            "importable: the jit leg is SKIPPED and every headline number "
            "below is a numpy-backend measurement (the report carries "
            "jit_skipped: true)",
            RuntimeWarning,
            stacklevel=1,
        )

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

    stages = _stage_run("numpy", intervals, seeds)
    report = {
        "workload": {
            "sweep": "video_symmetric_spec(alpha, delivery_ratio=0.9)",
            "values": list(ALPHAS),
            "policies": list(POLICIES),
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
        },
        "bit_identical_backends": backends,
        "numba_available": jit_kernels.HAS_NUMBA,
        "jit_skipped": jit_skipped,
        "config": {"rng": "free"},
        "best_seconds": {k: round(v, 3) for k, v in best.items()},
        "numpy_stage_seconds": {
            name: round(stat["seconds"], 4) for name, stat in stages.items()
        },
        "numpy_stage_allocs": {
            name: int(stat["allocs"])
            for name, stat in stages.items()
            if stat["allocs"]
        },
    }
    if jit_compiled:
        report["speedup_jit_vs_numpy"] = round(
            best["numpy"] / best["jit"], 2
        )
        # The first-call compilation cost is amortized by the
        # warm-compile cache at kernel bind; it is reported separately
        # so the steady-state stage timings stay clean.
        jit_kernels._warmed.clear()
        jit_stages = _stage_run("jit", intervals, seeds)
        report["jit_stage_seconds"] = {
            name: round(stat["seconds"], 4)
            for name, stat in jit_stages.items()
            if name != "jit.warmup"
        }
        report["jit_warmup_seconds"] = round(
            jit_stages.get("jit.warmup", {}).get("seconds", 0.0), 4
        )

    path = _output_path()
    trajectory = _prior_trajectory(path)
    trajectory.append(
        {
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "rng": "free",
            "jit_skipped": jit_skipped,
            **{f"{b}_seconds": round(t, 3) for b, t in best.items()},
        }
    )
    report["trajectory"] = trajectory[-12:]  # bounded history
    path.write_text(json.dumps(report, indent=2) + "\n")
