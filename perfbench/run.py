"""The repository's benchmark: end-to-end figure throughput plus a
per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-fused --seed 1 --seconds 20 --trace 0

Each run is a closed loop of one client: it launches the workload in a
fresh interpreter, waits for the rendered table, checks the outputs, and
only then launches the next run, until ``--seconds`` have passed.  With
``--trace 0`` the last line of standard output reports the end-to-end
metrics (medians over the runs); with ``--trace 1`` it alternates untraced
and traced runs and reports the per-layer metrics of the median traced
run.  Earlier lines hold the full report: the host block, the seed list,
every run's figures and any failed output check.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads as wl
from tracer import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "workload.py"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: BLAS/OpenMP pools pinned to one thread in every workload process
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: a workload process that runs longer than this is killed and fails
PROCESS_TIMEOUT_S = 120.0
MIN_RUNS = 3

#: spans whose self times are reported as ``<name>_s``; the self times of
#: any other span are summed into ``trace.other_s``
SPANS = (
    "python.startup",
    "cli.import",
    "cli.render",
    "spec.build",
    "runner.run_sweep",
    "runner.run_single",
    "grid.run_sweep_fused",
    "grid.build",
    "grid.run",
    "grid.scatter",
    "batch.step",
    "sim.arrivals",
    "sim.kernel",
    "sim.update",
    "kernel.dp.setup",
    "kernel.dp.timeline",
    "kernel.dp.commit",
    "kernel.dp.incremental",
    "kernel.serve.interval",
    "draws.channel_refill",
    "draws.arrival_refill",
    "draws.uniform_refill",
    "cache.get",
    "cache.put",
    "parallel.wait",
    "scalar.step",
    "core.dbdp.run_interval",
    "core.eldf.run_interval",
    "core.fcsma.run_interval",
)

#: perf-registry stages also reported with ``.calls`` and ``.allocs``
KERNEL_STAGES = (
    "kernel.dp.setup",
    "kernel.dp.timeline",
    "kernel.dp.commit",
    "kernel.dp.incremental",
    "kernel.serve.interval",
    "draws.channel_refill",
    "draws.arrival_refill",
    "draws.uniform_refill",
)

#: per-layer metrics that are not span self times: name -> unit
COUNTERS = {
    "spec.build_calls": "count",
    "runner.fused_cells": "count",
    "runner.fallback_cells": "count",
    "runner.fast_path_share": "ratio",
    "grid.groups": "count",
    "grid.rows": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.bytes_written": "bytes",
    "cache.hit_ratio": "ratio",
    "parallel.tasks": "count",
    "parallel.retries": "count",
    "parallel.respawns": "count",
    "parallel.children_cpu_s": "s",
    "parallel.payload_bytes": "bytes",
    "parallel.worker_span_s": "s",
    "batch.steps": "count",
    "batch.step_us.p50": "us",
    "batch.step_us.p99": "us",
    "scalar.intervals": "count",
    "scalar.interval_us.p50": "us",
    "scalar.interval_us.p99": "us",
    "kernel.workspace_bytes": "bytes",
    "mac.deliveries_per_attempt": "ratio",
    "mac.collisions": "count",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
    "failed_frac": "ratio",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "link_intervals_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def span_metric_names() -> List[str]:
    return [f"{name}_s" for name in SPANS] + ["trace.other_s"]


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in span_metric_names()}
    for stage in KERNEL_STAGES:
        units[f"{stage}.calls"] = "count"
        units[f"{stage}.allocs"] = "count"
    units.update(COUNTERS)
    return units


# -- host ------------------------------------------------------------------


def _command_line(argv: List[str], cwd: Path = ROOT) -> Optional[str]:
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def host_block() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy_version, blas = None, None
    try:
        import numpy

        numpy_version = numpy.__version__
        config = numpy.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name')} {blas_info.get('version')}".strip()
    except Exception as exc:  # the host block must never stop a run
        blas = blas or f"unknown ({type(exc).__name__})"
    cc = _command_line(["cc", "--version"])
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _command_line(["git", "rev-parse", "HEAD"])
        status = _command_line(["git", "status", "--porcelain"])
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy_version,
        "blas": blas,
        "cc": cc.splitlines()[0] if cc else None,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": sha,
        "git_dirty": dirty,
        "thread_pins": THREAD_PINS,
    }


# -- one run ---------------------------------------------------------------


def _environment(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SWEEP_CACHE"] = str(cache_dir)
    return env


def _launch(job: dict, run_dir: Path, env: dict) -> dict:
    """Run one workload process to completion; collect its files."""
    job = dict(job, run_dir=str(run_dir))
    job["t0"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)],
        cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The new process group holds the shard workers too.
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    phase = {"t0": job["t0"], "returncode": proc.returncode,
             "stdout": stdout, "stderr": stderr[-2000:], "result": None}
    result_path = run_dir / f"result.{proc.pid}.json"
    if proc.returncode == 0 and result_path.exists():
        with open(result_path) as handle:
            phase["result"] = json.load(handle)
    marks = []
    for path in glob.glob(str(run_dir / "first_step.*")):
        with open(path) as handle:
            marks.append(float(handle.read()))
    phase["first_step"] = min(marks) if marks else None
    phase["child_traces"] = []
    for path in sorted(glob.glob(str(run_dir / "trace_child.*.json"))):
        with open(path) as handle:
            phase["child_traces"].append(json.load(handle))
    return phase


def _tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def run_once(workload: wl.Workload, ref: dict, seeds: List[int], trace: bool,
             rep_dir: Path) -> dict:
    """One closed-loop run (one or two processes) with its checks."""
    cache_dir = rep_dir / "cache"
    cache_dir.mkdir(parents=True)
    env = _environment(cache_dir)
    job = {"kind": workload.kind, "trace": trace, "seeds": seeds}
    if workload.kind == "api":
        job.update(alpha=wl.LARGE_N_ALPHA, links=workload.links,
                   intervals=workload.intervals)
    else:
        job["argv"] = workload.argv(seeds)
    phases = []
    for name in workload.phases:
        run_dir = rep_dir / name
        run_dir.mkdir()
        phases.append(_launch(job, run_dir, env))
    run = {"seeds": seeds, "trace": trace, "phases": phases,
           "cache_bytes": _tree_bytes(cache_dir)}
    if any(p["result"] is None for p in phases):
        run["failed"] = workload.cells
        run["notes"] = [f"phase exited {p['returncode']}: {p['stderr'][-500:]}"
                        for p in phases if p["result"] is None]
        return run
    run["failed"], run["notes"] = wl.check(
        workload, ref, [p["result"] for p in phases], seeds)
    first = phases[0]
    wall = sum(p["result"]["t_end"] - p["t0"] for p in phases)
    run["wall_s"] = wall
    if first["first_step"] is not None:
        setup = first["first_step"] - first["t0"]
        run["setup_s"] = setup
        run["link_intervals_per_s"] = workload.link_intervals / (wall - setup)
    run["peak_rss_mb"] = max(
        (p["result"]["rss_self_kb"] + p["result"]["rss_children_kb"]) / 1024
        for p in phases
    )
    if trace:
        run["layers"] = layer_metrics(run)
    return run


def layer_metrics(run: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run, merged over its processes."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    allocs: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    parent_top = worker_top = children_cpu = 0.0
    traces = []
    for phase in run["phases"]:
        parent = phase["result"]["trace"]
        parent_top += parent["top_level_s"]
        children_cpu += phase["result"]["children_cpu_s"]
        traces.append(parent)
        for child in phase["child_traces"]:
            worker_top += child["top_level_s"]
            traces.append(child)
    for trace in traces:
        for table, merged in ((trace["self_s"], self_s), (trace["calls"], calls),
                              (trace["allocs"], allocs), (trace["counts"], counts)):
            for name, value in table.items():
                merged[name] = merged.get(name, 0) + value
        for name, values in trace["samples"].items():
            samples.setdefault(name, []).extend(values)

    out: Dict[str, float] = {f"{name}_s": self_s.get(name, 0.0) for name in SPANS}
    out["trace.other_s"] = sum(v for k, v in self_s.items() if k not in SPANS)
    for stage in KERNEL_STAGES:
        out[f"{stage}.calls"] = calls.get(stage, 0)
        out[f"{stage}.allocs"] = allocs.get(stage, 0)
    fused = counts.get("runner.fused_cells", 0)
    fallback = counts.get("runner.fallback_cells", 0)
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    attempts = counts.get("mac.attempts", 0)
    points = run["phases"][0]["result"].get("points") or []
    rows = run["phases"][0]["result"].get("rows") or []
    out.update({
        "spec.build_calls": calls.get("spec.build", 0),
        "runner.fused_cells": fused,
        "runner.fallback_cells": fallback,
        "runner.fast_path_share": fused / (fused + fallback) if fused + fallback else 0.0,
        "grid.groups": counts.get("grid.groups", 0),
        "grid.rows": counts.get("grid.rows", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": counts.get("cache.stores", 0),
        "cache.bytes_written": run["cache_bytes"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "parallel.tasks": counts.get("parallel.tasks", 0),
        "parallel.retries": counts.get("parallel.retries", 0),
        "parallel.respawns": counts.get("parallel.respawns", 0),
        "parallel.children_cpu_s": children_cpu,
        "parallel.payload_bytes": counts.get("parallel.payload_bytes", 0),
        "parallel.worker_span_s": worker_top,
        "batch.steps": calls.get("batch.step", 0),
        "batch.step_us.p50": 1e6 * percentile(samples.get("batch.step", []), 50),
        "batch.step_us.p99": 1e6 * percentile(samples.get("batch.step", []), 99),
        "scalar.intervals": calls.get("scalar.step", 0),
        "scalar.interval_us.p50": 1e6 * percentile(samples.get("scalar.step", []), 50),
        "scalar.interval_us.p99": 1e6 * percentile(samples.get("scalar.step", []), 99),
        "kernel.workspace_bytes": counts.get("kernel.workspace_bytes", 0),
        "mac.deliveries_per_attempt": (
            counts.get("mac.deliveries", 0) / attempts if attempts else 0.0),
        "mac.collisions": (sum(p[3] for p in points)
                           + sum(r["collisions"] for r in rows)),
        "trace.wall_s": run["wall_s"],
        "unattributed_s": run["wall_s"] - parent_top,
    })
    return out


# -- a benchmark invocation -------------------------------------------------


def bench(workload: wl.Workload, seed: int, seconds: float, trace: bool,
          min_runs: int = MIN_RUNS) -> dict:
    """Closed loop of runs for ``seconds``; returns the full report."""
    ref = workload.reference()
    seeds = workload.seeds(seed)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = TMP_ROOT / f"{os.getpid()}-{workload.name}"
    shutil.rmtree(tmp, ignore_errors=True)
    runs: List[dict] = []
    deadline = time.monotonic() + seconds
    try:
        while True:
            untraced = [r for r in runs if not r["trace"]]
            traced = [r for r in runs if r["trace"]]
            if trace:
                enough = bool(untraced) and bool(traced)
            else:
                enough = len(untraced) >= min_runs
            if enough and time.monotonic() >= deadline:
                break
            # Alternate untraced and traced runs when tracing.
            this_trace = trace and len(traced) < len(untraced)
            run_seeds = seeds
            if workload.name == "fig3-paper" and not runs:
                run_seeds = [wl.CANARY_SEED]
            runs.append(run_once(workload, ref, run_seeds, this_trace,
                                 tmp / f"run{len(runs)}"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return summarize(workload, seed, seeds, trace, runs)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summarize(workload: wl.Workload, seed: int, seeds: List[int], trace: bool,
              runs: List[dict]) -> dict:
    attempted = workload.cells * len(runs)
    failed = sum(r["failed"] for r in runs)
    untraced = [r for r in runs if not r["trace"] and "setup_s" in r]
    metrics: Dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": _median([r[name] for r in untraced]),
                             "unit": unit}
    else:
        traced = sorted((r for r in runs if r["trace"] and "layers" in r),
                        key=lambda r: r["wall_s"])
        units = per_layer_units()
        if traced:
            chosen = traced[(len(traced) - 1) // 2]["layers"]
            chosen["trace_overhead_s"] = (
                _median([r["wall_s"] for r in traced])
                - _median([r["wall_s"] for r in untraced]))
        else:
            chosen = {}
        chosen["failed_frac"] = failed / attempted
        metrics = {name: {"value": chosen.get(name, float("nan")), "unit": unit}
                   for name, unit in units.items()}
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seeds": seeds,
        "trace": trace,
        "runs": [
            {k: r.get(k) for k in ("trace", "seeds", "failed", "notes", "setup_s",
                                   "wall_s", "link_intervals_per_s",
                                   "peak_rss_mb")}
            for r in runs
        ],
        "table": runs[-1]["phases"][-1]["stdout"] if runs else "",
    }
    return {"report": report, "final": final}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # Build step: byte-compile the sources once, so that no timed run
    # pays for compilation that a user's second invocation would not.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: byte-compiling src failed", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    out = bench(workload, args.seed, args.seconds, bool(args.trace))
    out["report"]["host"] = host_block()
    print(json.dumps(out["report"], indent=1, default=str))
    final = out["final"]
    for metric in final["metrics"].values():
        if not math.isfinite(metric["value"]):
            # Only when every run failed; JSON has no NaN.
            metric["value"] = 0.0
            final["correct"] = False
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
