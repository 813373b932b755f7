"""Self-test of the benchmark at tiny horizons.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run at a horizon
of a few dozen intervals and checks that

* ``BENCHMARK.json`` names exactly the metrics the benchmark prints, with
  the same units, and the final line has the contract's keys;
* every end-to-end metric is a positive finite number;
* the span self times plus ``unattributed_s`` sum to the traced wall time
  (plus ``parallel.worker_span_s``, the span time of forked shard
  workers, which runs concurrently with the parent's wait).

Output checks against the stored references are not asserted here: the
references hold for the workloads' full horizons only.
"""

from __future__ import annotations

import dataclasses
import json
import math

import run
import workloads as wl


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the printed metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for name, workload in wl.WORKLOADS.items():
        small = dataclasses.replace(workload, intervals=max(20, workload.intervals // 100))
        for trace in (False, True):
            final = run.bench(small, seed=1, seconds=0, trace=trace, min_runs=1)["final"]
            if set(final) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: final line keys {sorted(final)}")
            metrics = final["metrics"]
            expected = per_layer if trace else end_to_end
            printed = {k: m["unit"] for k, m in metrics.items()}
            if printed != expected:
                problems.append(f"{name} trace={trace}: printed metrics differ: "
                                f"{sorted(set(printed) ^ set(expected))}")
                continue
            values = {k: m["value"] for k, m in metrics.items()}
            if not trace:
                bad = [k for k, v in values.items() if not (math.isfinite(v) and v > 0)]
                if bad:
                    problems.append(f"{name}: non-positive end-to-end metrics {bad}")
                continue
            spans = sum(values[k] for k in run.span_metric_names())
            lhs = spans + values["unattributed_s"]
            rhs = values["trace.wall_s"] + values["parallel.worker_span_s"]
            if not math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-6):
                problems.append(f"{name}: span self times + unattributed_s = "
                                f"{lhs:.6f} s, traced wall + worker spans = "
                                f"{rhs:.6f} s")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
