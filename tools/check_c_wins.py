#!/usr/bin/env python
"""CI gate: the compiled c backend must actually beat numpy.

Reads the report written by ``benchmarks/bench_kernel_hotloop.py`` and
fails loudly when the c leg was silently degraded or did not win:

* ``c_available`` must be true and ``c_skipped`` false — a numpy
  fallback masquerading as a c measurement is exactly the failure mode
  this gate exists to catch;
* the c leg must beat the numpy workspace leg on at least one kernel
  stage (``c_stage_seconds`` vs ``numpy_stage_seconds`` on the compiled
  hot loops).

Only meaningful on a CI leg with a working C compiler; the leg that
forces ``CC=/bin/false`` never runs this script.

Usage::

    python tools/check_c_wins.py [path/to/BENCH_kernels.json]
"""

from __future__ import annotations

import json
import os
import sys

#: The stages whose inner loops backend="c" compiles; every other stage
#: is shared verbatim between the numpy and c legs.
COMPILED_STAGES = ("kernel.dp.timeline", "kernel.serve.interval")


def main(argv: list) -> int:
    path = argv[1] if len(argv) > 1 else os.environ.get(
        "REPRO_BENCH_KERNELS_JSON", "BENCH_kernels.json"
    )
    try:
        report = json.loads(open(path).read())
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read benchmark report {path!r}: {exc}")
        return 1

    if not report.get("c_available") or report.get("c_skipped"):
        print(f"FAIL: {path} has no c measurement — the benchmark "
              "degraded to numpy; this leg must measure compiled kernels")
        return 1

    numpy_stages = report.get("numpy_stage_seconds", {})
    c_stages = report.get("c_stage_seconds", {})
    wins = []
    for stage in COMPILED_STAGES:
        n, c = numpy_stages.get(stage), c_stages.get(stage)
        if n is None or c is None:
            continue
        verdict = "beats" if c < n else "loses to"
        print(f"{stage}: c {c:.4f}s {verdict} numpy {n:.4f}s")
        if c < n:
            wins.append(stage)

    if wins:
        print(f"OK: c beats numpy on {len(wins)} stage(s): "
              + ", ".join(wins))
        return 0
    print("FAIL: c did not beat numpy on any compiled kernel stage")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
