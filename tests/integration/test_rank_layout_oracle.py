"""The rank-layout batch engine against the scalar oracle above the budget.

At N=80 on the video timing (61 transmission slots per interval) the
batch kernels draw channel retries for the first 61 backlogged links in
service order only, each slot scaled by its own link's reliability.  The
scalar engine draws per link and per attempt.  The two are different
samples of the same process, so under ``rng="free"`` their mean total
deficiency over an ensemble must agree within a joint confidence bound —
this is what shows the rank layout is distributionally the link layout.

Two networks: the symmetric video spec, and a heterogeneous one whose
per-link reliabilities and loads differ, so that a slot scaled by the
wrong link's channel would move the mean.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    BernoulliChannel,
    BurstyVideoArrivals,
    DBDPPolicy,
    LDFPolicy,
    NetworkSpec,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.runner import run_single
from repro.phy.timing import video_timing
from repro.sim.batch_sim import BatchIntervalSimulator

SEEDS = tuple(range(24))
INTERVALS = 250
NUM_LINKS = 80


def _heterogeneous():
    # Alternating weak/strong links; the weak ones also carry more load.
    return NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals(
            alphas=tuple(0.7 if i % 2 else 0.4 for i in range(NUM_LINKS))
        ),
        channel=BernoulliChannel(
            success_probs=tuple(
                0.45 if i % 2 else 0.95 for i in range(NUM_LINKS)
            )
        ),
        timing=video_timing(),
        delivery_ratios=0.9,
    )


SPECS = {
    "symmetric": lambda: video_symmetric_spec(0.55, num_links=NUM_LINKS),
    "heterogeneous": _heterogeneous,
}


@pytest.mark.parametrize("policy", [DBDPPolicy, LDFPolicy], ids=["DB-DP", "LDF"])
@pytest.mark.parametrize("network", sorted(SPECS))
def test_free_batch_matches_scalar_mean(network, policy):
    spec = SPECS[network]()
    probe = BatchIntervalSimulator(spec, policy(), (0,), rng="free")
    assert probe.kernel._channel_draws.rank_slots == 61 < NUM_LINKS
    scalar = run_single(spec, policy, INTERVALS, SEEDS, engine="scalar")
    batch = run_single(
        spec, policy, INTERVALS, SEEDS, engine="batch", rng="free"
    )
    # Standard error of the difference of two independent ensemble
    # means; the stored std is the population std over seeds.
    n = len(SEEDS)
    se = math.sqrt(
        (scalar.deficiency_std**2 + batch.deficiency_std**2) / (n - 1)
    )
    tol = 3.0 * se + 0.02
    assert abs(batch.total_deficiency - scalar.total_deficiency) <= tol, (
        f"{network}/{policy.__name__}: batch {batch.total_deficiency:.4f} "
        f"vs scalar {scalar.total_deficiency:.4f} (tol {tol:.4f})"
    )
    assert batch.collisions == scalar.collisions == 0
