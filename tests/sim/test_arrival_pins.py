"""Arrival blocks pinned to values recorded before the in-place fill.

Each case hashes 600 intervals of the batch engine's ``rng="free"``
arrival planes (three 256-deep draw blocks, the last one partly used).
The expected digests were produced by the allocating draw pipeline
(one ``sample_batch`` per row group and block); the in-place
``fill_batch`` pipeline must reproduce them byte for byte.  Only the
public engines and the simulator's per-interval arrival hook are used,
so the same module runs unchanged against either implementation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import (
    ArrivalProcess,
    BernoulliArrivals,
    BernoulliChannel,
    BurstyVideoArrivals,
    ConstantArrivals,
    CorrelatedBurstArrivals,
    DBDPPolicy,
    NetworkSpec,
    TruncatedPoissonArrivals,
    idealized_timing,
)
from repro.experiments.configs import video_symmetric_spec
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.traffic.arrivals import MarkovModulatedArrivals, ParetoBurstArrivals
from repro.topology import TopologySimulator, partition_cells

INTERVALS = 600
SEEDS = (11, 5, 29)
N = 7


class TwoPointArrivals(ArrivalProcess):
    """A process with only a scalar ``sample``: the generic batch path."""

    def __init__(self, num_links: int, p: float):
        self._n = num_links
        self._p = p

    @property
    def num_links(self):
        return self._n

    @property
    def mean_rates(self):
        return np.full(self._n, 2.0 * self._p)

    @property
    def max_per_link(self):
        return 2

    def sample(self, rng):
        return np.where(rng.random(self._n) < self._p, 2, 0).astype(np.int64)

    def __eq__(self, other):
        return type(other) is type(self) and (self._n, self._p) == (
            other._n,
            other._p,
        )

    def __hash__(self):
        return hash((self._n, self._p))


def _spec(arrivals, num_links=N):
    return NetworkSpec.from_delivery_ratios(
        arrivals=arrivals,
        channel=BernoulliChannel.symmetric(num_links, 0.7),
        timing=idealized_timing(8),
        delivery_ratios=0.5,
    )


def _ramp(lo, hi, n=N):
    return tuple(float(x) for x in np.linspace(lo, hi, n))


FAMILIES = {
    "bernoulli": lambda: BernoulliArrivals(rates=_ramp(0.05, 0.95)),
    "bursty": lambda: BurstyVideoArrivals(alphas=_ramp(0.1, 0.9)),
    "bursty-max3": lambda: BurstyVideoArrivals(
        alphas=_ramp(0.2, 0.6), burst_max=3
    ),
    "truncated-poisson": lambda: TruncatedPoissonArrivals(
        poisson_rates=(0.3, 1.0, 2.5, 4.0, 9.0, 12.0, 30.0), cap=8
    ),
    "correlated-burst": lambda: CorrelatedBurstArrivals(N, 0.4, burst_max=3),
    "constant": lambda: ConstantArrivals(counts=(0, 1, 2, 1, 0, 3, 1)),
    "generic-sample": lambda: TwoPointArrivals(N, 0.35),
}


def _digest(next_plane, intervals=INTERVALS) -> str:
    h = hashlib.sha256()
    for _ in range(intervals):
        plane = next_plane()
        assert plane.dtype == np.int64
        h.update(np.ascontiguousarray(plane).tobytes())
    return h.hexdigest()[:24]


def _sim_digest(specs, seeds=SEEDS) -> str:
    sim = BatchIntervalSimulator(
        specs, DBDPPolicy(), seeds, rng="free", record_traces=False
    )
    return _digest(sim._sample_arrivals)


def _family_case(name):
    return _sim_digest(_spec(FAMILIES[name]()))


def _interleaved_case():
    a = _spec(BurstyVideoArrivals(alphas=_ramp(0.2, 0.5)))
    b = _spec(BurstyVideoArrivals(alphas=_ramp(0.6, 0.9)))
    return _sim_digest([a, b, a])


def _fused_case():
    # Grid-style stack: each arrival process owns a contiguous row slice.
    a = _spec(BernoulliArrivals(rates=_ramp(0.1, 0.4)))
    b = _spec(BernoulliArrivals(rates=_ramp(0.5, 0.8)))
    c = _spec(TruncatedPoissonArrivals(poisson_rates=_ramp(0.5, 3.0)))
    return _sim_digest([a, a, b, b, c, c], seeds=(1, 2, 3, 4, 5, 6))


def _mmpp_mix_case():
    mmpp = _spec(MarkovModulatedArrivals(N, 0.7, 0.1, 0.8, 0.85))
    mmpp_b = _spec(MarkovModulatedArrivals(N, 0.5, 0.0, 0.9, 0.7, "off"))
    bursty = _spec(BurstyVideoArrivals(alphas=_ramp(0.2, 0.6)))
    return _sim_digest([mmpp, bursty, bursty, mmpp_b], seeds=(3, 1, 4, 1))


def _stateful_mix_case():
    pareto = _spec(ParetoBurstArrivals(N, 0.2, 1.5, 32, 1))
    mmpp = _spec(MarkovModulatedArrivals(N, 0.7))
    bern = _spec(BernoulliArrivals(rates=_ramp(0.1, 0.3)))
    return _sim_digest(
        [bern, pareto, mmpp, pareto, bern], seeds=(0, 1, 2, 3, 4)
    )


def _topology_case():
    spec = video_symmetric_spec(0.55, num_links=12)
    topo = TopologySimulator(
        spec, DBDPPolicy(), (0, 1, 2), partition_cells(12, 4), rng="free"
    )
    return _digest(topo.sim._sample_arrivals)


def _free_case(num_links):
    spec = video_symmetric_spec(0.6, num_links=num_links)
    return _sim_digest(spec, seeds=(21, 22))


CASES = {
    **{
        f"family-{name}": (lambda name=name: _family_case(name))
        for name in FAMILIES
    },
    "interleaved-aba": _interleaved_case,
    "fused-slices": _fused_case,
    "mmpp-bursty-mix": _mmpp_mix_case,
    "pareto-mmpp-bernoulli-mix": _stateful_mix_case,
    "topology-4-cells": _topology_case,
    "free-n20": lambda: _free_case(20),
    "free-n80": lambda: _free_case(80),
    "free-n10000": lambda: _free_case(10_000),
}

EXPECTED = {
    "family-bernoulli": "3ee9585db75bb6908d99f627",
    "family-bursty": "a32a304a682a6028a8a62a6d",
    "family-bursty-max3": "66edf8c047c3dc397a3e25f3",
    "family-constant": "e65aab6fb8e26084a8495808",
    "family-correlated-burst": "1a65fe545750764f611193aa",
    "family-generic-sample": "7e618af22fa1d4cf403f05a5",
    "family-truncated-poisson": "61c7f1ffc32bd38001cdcb6a",
    "free-n10000": "ae2c0c1208dad160ed32e642",
    "free-n20": "035d386bbe0af95590c83a07",
    "free-n80": "49f9e959150829af71b5b50d",
    "fused-slices": "36d5159578283d2658af62ac",
    "interleaved-aba": "9eb8c99c3586c8b73953aca8",
    "mmpp-bursty-mix": "cefa8dc89463f50f44c7c339",
    "pareto-mmpp-bernoulli-mix": "861070e1ac0ae0804ff0854c",
    "topology-4-cells": "e78ba47badfeef90a42cf769",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_arrival_blocks_match_recorded_values(case):
    assert CASES[case]() == EXPECTED[case]


if __name__ == "__main__":  # print this tree's digests in EXPECTED form
    for key in sorted(CASES):
        print(f"    {key!r}: {CASES[key]()!r},")
