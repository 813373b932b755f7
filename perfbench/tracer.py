"""Span tracer used by the benchmark's workload process.

Every span is recorded from outside the program: :func:`wrap_function` and
:func:`wrap_method` time calls into a module's public functions and
methods, and :func:`bridge_perf_registry` turns the program's own flat
``repro.sim.perf`` stage labels into spans nested under whichever span
was open when the labelled section ran.

A span's *self time* is its duration minus the durations of its child
spans.  Labels from the perf registry arrive only when their section has
ended (``counters.add(name, seconds)``), so a label becomes the parent of
every sibling that completed inside its ``[end - seconds, end]`` window.
Because each completed span's duration is charged to exactly one parent,
the self times of all spans recorded in a process sum to the durations
of that process's top-level spans; the rest of the process wall time is
the unattributed residual.

Worker processes forked by the sweep orchestrator inherit the wrappers.
Each child starts a fresh span tree and writes it to the run directory
when it exits, so layers that run in shard workers are measured too.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class _Node:
    __slots__ = ("name", "start", "child_time", "completed")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        #: summed durations of the completed direct children
        self.child_time = 0.0
        #: (midpoint, duration) of completed direct children, in
        #: completion order; a retroactive span steals a suffix of it
        self.completed: List[tuple] = []


class Tracer:
    """In-memory span tree of one process, aggregated by span name."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        #: names of the spans open in the parent when this process forked
        self.inherited: tuple = ()
        self._reset()

    def _reset(self) -> None:
        self.root = _Node("root", clock())
        self.stack: List[_Node] = [self.root]
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.allocs: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def _record(self, name: str, self_time: float) -> None:
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time
        self.calls[name] = self.calls.get(name, 0) + 1

    def open(self, name: str) -> None:
        self.stack.append(_Node(name, clock()))

    def close(self) -> float:
        end = clock()
        node = self.stack.pop()
        duration = end - node.start
        self._record(node.name, duration - node.child_time)
        parent = self.stack[-1]
        parent.child_time += duration
        parent.completed.append((node.start + duration / 2, duration))
        return duration

    def retro(self, name: str, seconds: float, end: Optional[float] = None) -> None:
        """Record a span that ended at ``end`` (now) and lasted ``seconds``."""
        if end is None:
            end = clock()
        start = end - seconds
        parent = self.stack[-1]
        stolen = 0.0
        completed = parent.completed
        while completed and completed[-1][0] > start:
            stolen += completed.pop()[1]
        parent.child_time -= stolen
        self._record(name, seconds - stolen)
        parent.child_time += seconds
        completed.append((start + seconds / 2, seconds))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def alloc(self, name: str, amount: int) -> None:
        self.allocs[name] = self.allocs.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def under(self, name: str) -> bool:
        """True while a span called ``name`` is open here or was open in
        the parent when this process forked."""
        return name in self.inherited or any(
            node.name == name for node in self.stack
        )

    def top_level_s(self) -> float:
        """Summed durations of the spans directly under the root."""
        return self.root.child_time

    def export(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "allocs": self.allocs,
            "samples": self.samples,
            "counts": self.counts,
            "top_level_s": self.top_level_s(),
        }

    # -- forked workers --------------------------------------------------
    def after_fork(self) -> None:
        """Start a fresh tree in a forked worker; dump it when it exits."""
        from multiprocessing import util

        self.inherited = tuple(node.name for node in self.stack)
        self._reset()
        util.Finalize(None, self.dump_child, exitpriority=100)

    def dump_child(self) -> None:
        path = os.path.join(self.run_dir, f"trace_child.{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


def span_wrapper(tracer: Tracer, name: str, func: Callable,
                 on_return: Optional[Callable] = None) -> Callable:
    """``func`` wrapped in a span; ``on_return(result, args)`` sees results."""

    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close()
        if on_return is not None:
            on_return(result, args)
        return result

    return functools.update_wrapper(wrapper, func)


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``original``.

    Modules import functions by name (``from .configs import
    low_latency_spec``), so a wrapper must replace each binding.  The
    defining module is rebound too, which keeps pickling by reference
    working for functions sent to worker processes.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def wrap_function(module, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(module, attr)
    replace_everywhere(original, functools.update_wrapper(make(original), original))


def wrap_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(cls, attr)
    setattr(cls, attr, functools.update_wrapper(make(original), original))


#: perf-registry labels renamed to the layer that owns them
PERF_RENAMES = {
    "fused.build": "grid.build",
    "fused.run": "grid.run",
    "fused.scatter": "grid.scatter",
}


def bridge_perf_registry(tracer: Tracer) -> None:
    """Route ``repro.sim.perf`` stage reports into ``tracer``.

    The registry keeps its own flat totals as before; each report is also
    recorded as a retroactive span (and allocations as counts) under the
    span open at the time.
    """
    from repro.sim import perf

    add, alloc = perf.PerfCounters.add, perf.PerfCounters.alloc

    def traced_add(self, name, seconds, allocs=0):
        end = clock()
        add(self, name, seconds, allocs)
        label = PERF_RENAMES.get(name, name)
        tracer.retro(label, seconds, end)
        if allocs:
            tracer.alloc(label, allocs)

    def traced_alloc(self, name, count=1):
        alloc(self, name, count)
        tracer.alloc(PERF_RENAMES.get(name, name), count)

    perf.PerfCounters.add = traced_add
    perf.PerfCounters.alloc = traced_alloc
    perf.counters.enable()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]
