"""Cells wider than the transmission budget run on the rank layout.

A cell with more than ``max_transmissions + 1`` links (61 on the video
timing) selects the incremental DP path and draws channel retries for
the 61 rank slots only.  The per-cell draw injection must build its
cell draws with that layout: the packed run has to stay conservative
and collision-free, and a disconnected packing must stay bit-identical
to independent per-cell batch simulators, as for narrow cells.
"""

import dataclasses

import numpy as np
import pytest

from repro import DBDPPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.phy.channel import channel_from_spec
from repro.sim.batch_kernels import KERNEL_BACKENDS
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import (
    TopologySimulator,
    cell_stream_tag,
    grid_cells,
    partition_cells,
    single_cell,
)

SEEDS = (0, 1)
INTERVALS = 40


def _spec(num_links, channel=None):
    spec = video_symmetric_spec(0.55, num_links=num_links)
    if channel is not None:
        spec = dataclasses.replace(
            spec, channel=channel_from_spec(channel, num_links)
        )
    return spec


def _check_sound(sim, result, width):
    traces = sim.sim.result
    assert sim.sim.kernel.dp_state == "incremental"
    assert sim.sim.kernel._channel_draws.rank_slots == 61 < width
    assert traces.deliveries.sum() > 0
    assert (traces.deliveries <= traces.arrivals).all()
    assert (traces.collisions == 0).all()
    assert (result.collision_sums == 0).all()


@pytest.mark.parametrize(
    "num_links,topology",
    [(80, single_cell(80)), (160, single_cell(160)),
     (160, partition_cells(160, 2))],
    ids=["single-80", "single-160", "two-cells-80"],
)
@pytest.mark.parametrize("rng", [None, "sync"])
@pytest.mark.parametrize("backend", KERNEL_BACKENDS, indirect=True)
def test_wide_cells_match_independent_cell_sims(
    num_links, topology, rng, backend
):
    spec = _spec(num_links)
    sim = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topology,
        rng=rng, backend=backend, record_traces=True,
    )
    result = sim.run(INTERVALS)
    packed = sim.sim.result
    width = sim.packing.width
    if rng != "sync":
        _check_sound(sim, result, width)
    S = len(SEEDS)
    for c in range(topology.num_cells):
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
                err_msg=f"cell {c} width={width} rng={rng} {field}",
            )


def test_wide_cells_with_channel_state_match_independent_sims():
    """Gilbert-Elliott cells gather per-interval scale planes into the
    packed rank transform."""
    spec = _spec(160, channel="ge:0.1:0.3")
    topology = partition_cells(160, 2)
    sim = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topology, record_traces=True
    )
    result = sim.run(INTERVALS)
    _check_sound(sim, result, 80)
    S = len(SEEDS)
    for c in range(2):
        independent = BatchIntervalSimulator(
            sim.packing.cell_specs[c], DBDPPolicy(), SEEDS,
            record_traces=True, stream_tag=cell_stream_tag(c),
        ).run(INTERVALS)
        np.testing.assert_array_equal(
            sim.sim.result.deliveries[:, c * S : (c + 1) * S],
            independent.deliveries,
        )


def test_wide_cells_with_boundary_links_conserve_packets():
    spec = _spec(160)
    topology = grid_cells(160, 2, cross_cell_fraction=0.2)
    assert topology.boundary_links
    sim = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topology, record_traces=True
    )
    result = sim.run(INTERVALS)
    _check_sound(sim, result, sim.packing.width)
    traces = sim.sim.result
    S = len(SEEDS)
    for link in topology.boundary_links:
        served = [
            traces.deliveries[:, c * S : (c + 1) * S, i]
            for c, i in topology.memberships[link]
        ]
        assert sum((d > 0).astype(int) for d in served).max() <= 1
        np.testing.assert_array_equal(
            result.delivery_sums[:, link], sum(d.sum(axis=0) for d in served)
        )
