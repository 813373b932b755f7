"""Disconnected topologies are bit-identical to independent per-cell sims.

The acceptance property of the multi-cell lowering: with no cross-cell
edges, row (cell, seed) of the packed run computes *per-interval*
bit-identically to row (seed) of an independent
``BatchIntervalSimulator`` bound to that cell's sliced spec and
cell-keyed streams — on every kernel backend and draw discipline.
"""

import numpy as np
import pytest

from repro import DBDPPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.sim import jit_kernels
from repro.sim.batch_kernels import KERNEL_BACKENDS
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import (
    TopologyResult,
    TopologySimulator,
    cell_stream_tag,
    partition_cells,
    run_topology_batch,
)

SEEDS = (0, 1, 2)
INTERVALS = 80
NUM_LINKS = 12
NUM_CELLS = 3


@pytest.fixture
def jit_runnable(monkeypatch):
    """Make backend='jit' runnable: compiled if numba is present, else
    forced through the pure-Python loop bodies."""
    if not jit_kernels.HAS_NUMBA:
        monkeypatch.setattr(jit_kernels, "force_python", True)
    return jit_kernels.HAS_NUMBA


@pytest.mark.parametrize("rng", ["sync", None, "free"])
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_disconnected_bit_identical_per_interval(rng, backend, jit_runnable):
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    sim = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topo,
        rng=rng, backend=backend, record_traces=True,
    )
    sim.run(INTERVALS)
    packed = sim.sim.result
    S = len(SEEDS)
    for c in range(NUM_CELLS):
        kwargs = {} if rng == "sync" else {"stream_tag": cell_stream_tag(c)}
        independent = BatchIntervalSimulator(
            sim.packing.cell_specs[c], DBDPPolicy(), SEEDS,
            rng=rng, backend=backend, record_traces=True, **kwargs,
        ).run(INTERVALS)
        rows = slice(c * S, (c + 1) * S)
        for field in ("arrivals", "deliveries", "attempts", "collisions"):
            np.testing.assert_array_equal(
                getattr(packed, field)[:, rows],
                getattr(independent, field),
                err_msg=f"cell {c} rng={rng} backend={backend} {field}",
            )


def test_cell_subset_merge_matches_full_run():
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    policy = DBDPPolicy()
    full = TopologySimulator(spec, policy, SEEDS, topo).run(INTERVALS)
    parts = [
        TopologySimulator(
            spec, policy, SEEDS, topo, cells_subset=cells
        ).run(INTERVALS)
        for cells in ((1,), (2, 0))
    ]
    merged = TopologyResult.merge(parts)
    np.testing.assert_array_equal(full.delivery_sums, merged.delivery_sums)
    np.testing.assert_array_equal(full.collision_sums, merged.collision_sums)


def test_sharded_run_is_bit_invariant():
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    one = run_topology_batch(spec, DBDPPolicy(), SEEDS, topo, INTERVALS)
    sharded = run_topology_batch(
        spec, DBDPPolicy(), SEEDS, topo, INTERVALS, shards=2, max_workers=1
    )
    np.testing.assert_array_equal(one.delivery_sums, sharded.delivery_sums)
    np.testing.assert_array_equal(
        one.total_deficiency(), sharded.total_deficiency()
    )


def test_packing_order_invariance():
    """Reordering the packed cells does not change any cell's results."""
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    forward = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topo, cells_subset=(0, 1, 2)
    ).run(INTERVALS)
    backward = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topo, cells_subset=(2, 1, 0)
    ).run(INTERVALS)
    np.testing.assert_array_equal(
        forward.delivery_sums, backward.delivery_sums
    )


def test_non_capable_family_rejected():
    from repro.core import registry

    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    factory = registry.resolve_policies(["FCSMA"])["FCSMA"]
    with pytest.raises(TypeError, match="family has no batch kernel"):
        TopologySimulator(spec, factory(), SEEDS, topo)
