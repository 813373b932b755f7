"""The batch engine's arrival block: one buffer, refilled in place.

``_ArrivalDraws`` owns a single ``(depth, S, N)`` int64 block and refills
it every ``depth`` intervals through ``ArrivalProcess.fill_batch``
(stateless groups) or ``ArrivalStateRows.evolve_block`` (stateful
groups).  These tests pin its memory footprint and the contracts that make
reusing the buffer safe; the values themselves are pinned in
``test_arrival_pins.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import BernoulliArrivals, DBDPPolicy, NetworkSpec
from repro.experiments.configs import video_symmetric_spec
from repro.sim.batch_sim import BatchIntervalSimulator, _ArrivalDraws
from repro.sim.spec_stack import SpecStack
from repro.traffic.arrivals import MarkovModulatedArrivals


def _with_arrivals(spec, arrivals):
    return NetworkSpec.from_delivery_ratios(
        arrivals=arrivals,
        channel=spec.channel,
        timing=spec.timing,
        delivery_ratios=0.5,
    )


class TestMemory:
    N, S, DEPTH = 2000, 8, 256

    def _traced_peak(self, action) -> int:
        tracemalloc.start()
        try:
            action()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_refill_peak_stays_near_the_block(self):
        """Building and filling the block costs the block plus a bool
        plane's worth of slack, not the several block-sized temporaries
        of an allocating draw."""
        spec = video_symmetric_spec(0.55, num_links=self.N)
        draws = _ArrivalDraws(None, spec, self.S, depth=self.DEPTH)
        rng = np.random.default_rng(0)
        cells = self.DEPTH * self.S * self.N
        block_bytes, bool_plane = 8 * cells, cells
        peak = self._traced_peak(lambda: draws.next(rng))
        assert peak < 1.1 * (block_bytes + bool_plane)

    def test_later_refills_allocate_no_block(self):
        spec = video_symmetric_spec(0.55, num_links=self.N)
        draws = _ArrivalDraws(None, spec, self.S, depth=self.DEPTH)
        rng = np.random.default_rng(0)
        for _ in range(self.DEPTH):
            draws.next(rng)
        block_bytes = 8 * self.DEPTH * self.S * self.N
        peak = self._traced_peak(lambda: draws.next(rng))
        assert peak < 0.1 * block_bytes


class TestBlockReuse:
    def test_planes_are_views_of_one_block(self):
        spec = video_symmetric_spec(0.55, num_links=6)
        draws = _ArrivalDraws(None, spec, 3, depth=4)
        rng = np.random.default_rng(1)
        first = draws.next(rng)
        for _ in range(4):
            later = draws.next(rng)
        assert np.shares_memory(first, later)

    @pytest.mark.parametrize(
        "rows",
        [
            ["a", "a", "b", "b"],  # grid layout: every group a slice
            ["a", "b", "a", "b"],  # interleaved: every group scattered
            ["m", "a", "a", "m"],  # stateful group around a slice
        ],
    )
    def test_layouts_match_per_group_draws(self, rows):
        """Sliced and scattered groups both hold their own group's draws:
        one fill per stateless group from the arrivals stream, in
        first-appearance order, and stateful rows from the state stream."""
        base = video_symmetric_spec(0.5, num_links=5)
        procs = {
            "a": BernoulliArrivals.symmetric(5, 0.3),
            "b": BernoulliArrivals.symmetric(5, 0.7),
            "m": MarkovModulatedArrivals(5, 0.6),
        }
        stack = SpecStack([_with_arrivals(base, procs[r]) for r in rows])
        depth = 6
        draws = _ArrivalDraws(
            stack,
            stack.specs[0],
            len(rows),
            depth=depth,
            state_rng=np.random.default_rng(99),
        )
        rng = np.random.default_rng(5)
        block = np.stack([draws.next(rng) for _ in range(depth)])

        ref = np.random.default_rng(5)
        for key in dict.fromkeys(r for r in rows if r != "m"):
            idx = [i for i, r in enumerate(rows) if r == key]
            expected = procs[key].sample_batch(ref, depth * len(idx))
            np.testing.assert_array_equal(
                block[:, idx], expected.reshape(depth, len(idx), 5)
            )
        idx = [i for i, r in enumerate(rows) if r == "m"]
        if idx:
            state = MarkovModulatedArrivals.stack_rows([procs["m"]] * len(idx))
            expected = np.empty((depth, len(idx), 5), dtype=np.int64)
            state.evolve_block(depth, np.random.default_rng(99), expected)
            np.testing.assert_array_equal(block[:, idx], expected)

    def test_recorded_traces_survive_refills(self):
        """The recorder copies each plane, so a trace spanning several
        refills of the reused block holds every interval's own values."""
        spec = video_symmetric_spec(0.55, num_links=7)
        seeds = (4, 8)
        recorded = BatchIntervalSimulator(
            spec, DBDPPolicy(), seeds, rng="free"
        ).run(600).arrivals
        sim = BatchIntervalSimulator(spec, DBDPPolicy(), seeds, rng="free")
        fresh = np.stack([sim._sample_arrivals().copy() for _ in range(600)])
        np.testing.assert_array_equal(recorded, fresh)
