"""One run of one workload in a fresh interpreter.

Launched by ``run.py`` as ``python3 perfbench/workload.py '<job json>'``.
The job names the command line (or API call) to run, the seed list, the
parent's launch time and a run directory for result files.  The process
writes ``result.<pid>.json`` into the run directory; the first simulated
interval of this process (or of a forked shard worker) is marked by a
``first_step.<pid>`` file holding its monotonic time.

With ``"trace": true`` the program is wrapped by :mod:`tracer` at every
layer boundary and the perf registry is routed into the span tree.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracer as tr  # noqa: E402


def _mark_first_step(run_dir: str) -> None:
    now = time.monotonic()
    with open(os.path.join(run_dir, f"first_step.{os.getpid()}"), "w") as handle:
        handle.write(repr(now))


def _array_bytes(root, max_depth: int = 4) -> int:
    """Bytes of the distinct numpy buffers reachable from ``root``."""
    import numpy as np

    seen = set()
    total = 0

    def visit(obj, depth):
        nonlocal total
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in seen or base is obj:
                seen.add(id(base))
                total += base.nbytes
            return
        if depth >= max_depth or isinstance(
            obj, (type, str, bytes, int, float, np.random.Generator)
        ) or callable(obj):
            return
        if isinstance(obj, dict):
            children = obj.values()
        elif isinstance(obj, (list, tuple)):
            children = obj
        else:
            children = []
            if hasattr(obj, "__dict__"):
                children.extend(vars(obj).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        children.append(getattr(obj, slot))
        for child in children:
            visit(child, depth + 1)

    visit(root, 0)
    return total


class Hooks:
    """Wrappers installed around the program for one run."""

    def __init__(self, run_dir: str, trace: bool) -> None:
        self.run_dir = run_dir
        self.tracer = tr.Tracer(run_dir) if trace else None
        self.figure = None
        self.points = []
        self._marked_pid = None

    # -- always on: first interval, rendered figure, sweep points --------
    def install(self, cli_run: bool) -> None:
        from repro.sim.batch_sim import BatchIntervalSimulator
        from repro.sim.interval_sim import IntervalSimulator

        def keep_figure(text, args):
            figure = args[0]
            self.figure = {
                "x": [float(x) for x in figure.x_values],
                "series": {k: [float(v) for v in vals]
                           for k, vals in figure.series.items()},
            }

        def keep_points(result, args):
            self.points.extend(
                [p.parameter, p.policy, p.total_deficiency, p.collisions]
                for p in result.points
            )

        tracer = self.tracer
        if cli_run:
            from repro.experiments import cli, runner

            if tracer is None:
                tr.wrap_function(cli, "format_figure",
                                 lambda f: _returning(f, keep_figure))
                tr.wrap_function(runner, "run_sweep",
                                 lambda f: _returning(f, keep_points))
            else:
                tr.wrap_function(cli, "format_figure", lambda f: tr.span_wrapper(
                    tracer, "cli.render", f, keep_figure))
        if tracer is None:
            self._install_first_step(BatchIntervalSimulator, IntervalSimulator)
        else:
            self._install_traced(keep_points, cli_run)

    def _install_first_step(self, *classes) -> None:
        originals = {cls: cls.step for cls in classes}

        def make(original):
            def step(sim):
                original(sim)
                _mark_first_step(self.run_dir)
                for cls, method in originals.items():
                    cls.step = method

            return step

        for cls in classes:
            tr.wrap_method(cls, "step", make)

    def _first_step_done(self) -> None:
        """Mark this process's first simulated interval."""
        if self._marked_pid == os.getpid():
            return
        self._marked_pid = os.getpid()
        _mark_first_step(self.run_dir)

    # -- traced runs -----------------------------------------------------
    def _install_traced(self, keep_points, cli_run: bool) -> None:
        import pickle
        from concurrent.futures.process import ProcessPoolExecutor
        from multiprocessing import util

        from repro.core.dbdp import DBDPPolicy
        from repro.core.eldf import ELDFPolicy
        from repro.core.fcsma import FCSMAPolicy
        from repro.experiments import cache, configs, grid, parallel, runner
        from repro.sim.batch_sim import BatchIntervalSimulator, BatchSweepStats
        from repro.sim.interval_sim import IntervalSimulator
        from repro.sim.results import SimulationResult

        t = self.tracer
        util.register_after_fork(t, tr.Tracer.after_fork)
        tr.bridge_perf_registry(t)

        def span(name, on_return=None):
            return lambda f: tr.span_wrapper(t, name, f, on_return)

        for builder in ("video_symmetric_spec", "video_asymmetric_spec",
                        "low_latency_spec"):
            tr.wrap_function(configs, builder, span("spec.build"))

        # runner: sweeps, per-cell (fallback) runs, fused-path share
        if cli_run:
            tr.wrap_function(runner, "run_sweep",
                             span("runner.run_sweep", keep_points))

        def count_fallback(result, args):
            t.count("runner.fallback_cells")

        tr.wrap_function(runner, "run_single",
                         span("runner.run_single", count_fallback))

        def fused_sweep(original):
            inner = tr.span_wrapper(t, "grid.run_sweep_fused", original)

            def run_sweep_fused(parameter_name, values, spec_builder,
                                policies, *args, **kwargs):
                before = dict(t.counts)
                result = inner(parameter_name, values, spec_builder,
                               policies, *args, **kwargs)

                def delta(name):
                    return t.counts.get(name, 0) - before.get(name, 0)

                cells = len(values) * len(policies)
                t.count("runner.fused_cells", cells - delta("cache.hits")
                        - delta("runner.fallback_cells"))
                t.count("parallel.respawns", max(0, delta("parallel.pools") - 1))
                return result

            return run_sweep_fused

        tr.wrap_function(grid, "run_sweep_fused", fused_sweep)

        # batch engine: construction counts, step spans and percentiles
        def count_group(original):
            def __init__(sim, spec, policy, seeds, *args, **kwargs):
                original(sim, spec, policy, seeds, *args, **kwargs)
                if t.under("grid.run_sweep_fused"):
                    t.count("grid.groups")
                    t.count("grid.rows", len(seeds))

            return __init__

        tr.wrap_method(BatchIntervalSimulator, "__init__", count_group)

        def step_span(name):
            def make(original):
                def step(sim):
                    t.open(name)
                    try:
                        original(sim)
                    finally:
                        t.sample(name, t.close())
                    self._first_step_done()
                    kernel = getattr(sim, "kernel", None)
                    if kernel is not None and not hasattr(sim, "_perfbench_sized"):
                        sim._perfbench_sized = True
                        t.count("kernel.workspace_bytes", _array_bytes(kernel))

                return step

            return make

        tr.wrap_method(BatchIntervalSimulator, "step", step_span("batch.step"))
        tr.wrap_method(IntervalSimulator, "step", step_span("scalar.step"))
        for cls, name in ((DBDPPolicy, "core.dbdp.run_interval"),
                          (ELDFPolicy, "core.eldf.run_interval"),
                          (FCSMAPolicy, "core.fcsma.run_interval")):
            tr.wrap_method(cls, "run_interval", span(name))

        # MAC outcomes: deliveries per attempt wherever attempts are reported
        def count_outcome(outcome):
            if outcome.attempts is not None:
                t.count("mac.deliveries", float(outcome.deliveries.sum()))
                t.count("mac.attempts", float(outcome.attempts.sum()))

        def stats_update(original):
            def update(stats, outcome):
                original(stats, outcome)
                count_outcome(outcome)

            return update

        def result_record(original):
            def record(result, arrivals, outcome, *args, **kwargs):
                original(result, arrivals, outcome, *args, **kwargs)
                count_outcome(outcome)

            return record

        tr.wrap_method(BatchSweepStats, "update", stats_update)
        tr.wrap_method(SimulationResult, "record", result_record)

        # cache
        def cache_get(result, args):
            t.count("cache.hits" if result is not None else "cache.misses")

        def cache_put(result, args):
            t.count("cache.stores")

        tr.wrap_method(cache.SweepCache, "get", span("cache.get", cache_get))
        tr.wrap_method(cache.SweepCache, "put", span("cache.put", cache_put))

        # parallel orchestrator: waits, pools, submitted tasks
        tr.wrap_function(parallel, "wait", span("parallel.wait"))

        def pool_init(original):
            def __init__(pool, *args, **kwargs):
                original(pool, *args, **kwargs)
                t.count("parallel.pools")

            return __init__

        def pool_submit(original):
            def submit(pool, fn, *args, **kwargs):
                t.count("parallel.tasks")
                if args and isinstance(args[-1], int) and args[-1] > 0:
                    t.count("parallel.retries")
                t.count("parallel.payload_bytes",
                        len(pickle.dumps((fn, args, kwargs))))
                return original(pool, fn, *args, **kwargs)

            return submit

        tr.wrap_method(ProcessPoolExecutor, "__init__", pool_init)
        tr.wrap_method(ProcessPoolExecutor, "submit", pool_submit)


def _returning(func, on_return):
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        on_return(result, args)
        return result

    return wrapper


def run_cli(job: dict, hooks: Hooks) -> None:
    from repro.experiments import cli

    hooks.install(cli_run=True)
    cli.main(job["argv"])


def run_large_n(job: dict, hooks: Hooks) -> dict:
    """DB-DP at 10000 links through the public batch API, stats only."""
    import numpy as np

    from repro.core.dbdp import DBDPPolicy
    from repro.experiments import configs
    from repro.sim.batch_sim import BatchIntervalSimulator

    hooks.install(cli_run=False)
    seeds = job["seeds"]
    spec = configs.video_symmetric_spec(job["alpha"], num_links=job["links"])
    sim = BatchIntervalSimulator(
        spec, DBDPPolicy(), seeds, rng="free", record_traces=False
    )
    # Total arrivals per (row, link), taken from the kernel's inputs, so
    # that delivered <= arrived can be checked per row after the run.
    arrived = np.zeros((len(seeds), job["links"]), dtype=np.int64)
    kernel_run = sim.kernel.run_interval

    def run_interval(interval, arrivals, *args):
        np.add(arrived, arrivals, out=arrived)
        return kernel_run(interval, arrivals, *args)

    sim.kernel.run_interval = run_interval
    stats = sim.run(job["intervals"])
    totals = stats.total_deficiency()
    collisions = stats.total_collisions()
    ok = (stats.delivery_sums <= arrived).all(axis=1)

    def render():
        lines = ["seed        total_deficiency  collisions"]
        for seed, total, coll in zip(seeds, totals, collisions):
            lines.append(f"{seed:<10d}  {total:16.4f}  {int(coll):10d}")
        return "\n".join(lines) + "\n"

    if hooks.tracer is not None:
        render = tr.span_wrapper(hooks.tracer, "cli.render", render)
    sys.stdout.write(render())
    return {
        "rows": [
            {
                "seed": int(seed),
                "total_deficiency": float(total),
                "collisions": int(coll),
                "delivered_le_arrived": bool(good),
            }
            for seed, total, coll, good in zip(seeds, totals, collisions, ok)
        ]
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    hooks = Hooks(job["run_dir"], job["trace"])
    tracer = hooks.tracer
    if tracer is not None:
        startup = T_START - job["t0"]
        tracer.retro("python.startup", startup,
                     tr.clock() - (time.monotonic() - T_START))
        tracer.open("cli.import")
    if job["kind"] == "api":
        import repro.core.dbdp  # noqa: F401
        import repro.experiments.configs  # noqa: F401
        import repro.sim.batch_sim  # noqa: F401
    else:
        import repro.experiments.cli  # noqa: F401
    if tracer is not None:
        tracer.close()
    extra = {}
    if job["kind"] == "api":
        extra = run_large_n(job, hooks)
    else:
        run_cli(job, hooks)
    sys.stdout.flush()
    t_end = time.monotonic()
    self_use = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "t_start": T_START,
        "t_end": t_end,
        "figure": hooks.figure,
        "points": hooks.points,
        "rss_self_kb": self_use.ru_maxrss,
        "rss_children_kb": children.ru_maxrss,
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "trace": tracer.export() if tracer is not None else None,
        **extra,
    }
    path = os.path.join(job["run_dir"], f"result.{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
