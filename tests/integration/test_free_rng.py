"""The ``rng="free"`` draw discipline: determinism, equivalence, hygiene.

The free discipline (the batch engines' default) promises *statistical*
equivalence with the scalar engine — kernels draw only what they consume
from independently derived per-(seed, stream) substreams, so bit
identity is explicitly NOT promised.  What is promised, and asserted
here:

* determinism: free draws are a pure function of (seeds, stream tag,
  stream name) — the same sweep run twice is bit-identical;
* distinctness and equivalence: free draws differ from the
  scalar-identical ``sync`` draws (same seeds), and free per-cell means
  agree with the scalar engine's within the same joint confidence bound
  used by ``test_fused_statistical.py``, for every batch family;
* mode hygiene: ``free`` is the default, contradicts ``sync_rng=True``,
  is meaningless on the scalar engine, and the removed ``batch`` draw
  discipline and ``legacy`` backend are rejected.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    DBDPPolicy,
    ELDFPolicy,
    LDFPolicy,
    RoundRobinPolicy,
    StaticPriorityPolicy,
    run_simulation_batch,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.experiments.runner import run_single, run_sweep
from repro.sim.batch_kernels import resolve_backend
from repro.sim.rng import RNG_MODES, normalize_rng_mode

SEEDS = tuple(range(24))
INTERVALS = 400
VALUES = (0.5, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
#: Every batch family, for the free-vs-scalar equivalence check.
ALL_BATCH_POLICIES = {
    **POLICIES,
    "ELDF": ELDFPolicy,
    "RoundRobin": RoundRobinPolicy,
    "StaticPriority": StaticPriorityPolicy,
}


def builder(alpha):
    return video_symmetric_spec(alpha, num_links=6)


class TestNormalizeRngMode:
    def test_defaults(self):
        assert normalize_rng_mode() == "free"
        assert normalize_rng_mode(None, sync_rng=True) == "sync"
        assert RNG_MODES == ("sync", "free")

    @pytest.mark.parametrize("mode", RNG_MODES)
    def test_explicit_modes_pass_through(self, mode):
        assert normalize_rng_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rng mode"):
            normalize_rng_mode("quantum")

    def test_sync_rng_contradiction_rejected(self):
        with pytest.raises(ValueError, match="contradicts sync_rng"):
            normalize_rng_mode("free", sync_rng=True)


class TestFreeModeGuards:
    def test_removed_modes_rejected(self):
        with pytest.raises(ValueError, match="unknown rng mode"):
            run_simulation_batch(
                builder(0.5), DBDPPolicy(), 10, (0, 1), rng="batch"
            )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("legacy")

    def test_scalar_engine_rejected(self):
        with pytest.raises(ValueError, match="engine='batch' or 'fused'"):
            run_single(
                builder(0.5), DBDPPolicy, 10, (0,), engine="scalar",
                rng="free",
            )
        with pytest.raises(ValueError, match="engine='batch' or 'fused'"):
            run_sweep(
                "alpha", [0.5], builder, {"DB-DP": DBDPPolicy}, 10, (0,),
                engine="scalar", rng="free",
            )


class TestFreeDeterminismAndDistinctness:
    @pytest.mark.parametrize("factory", [DBDPPolicy, LDFPolicy],
                             ids=lambda f: f.__name__)
    def test_direct_batch_free_is_deterministic(self, factory):
        spec = builder(0.55)
        a = run_simulation_batch(spec, factory(), 200, (0, 1, 2), rng="free")
        b = run_simulation_batch(spec, factory(), 200, (0, 1, 2), rng="free")
        assert (a.deliveries == b.deliveries).all()
        assert (a.attempts == b.attempts).all()
        assert (a.collisions == b.collisions).all()

    def test_direct_batch_free_is_the_default_and_differs_from_sync(self):
        spec = builder(0.55)
        free = run_simulation_batch(spec, DBDPPolicy(), 200, (0, 1), rng="free")
        default = run_simulation_batch(spec, DBDPPolicy(), 200, (0, 1))
        sync = run_simulation_batch(
            spec, DBDPPolicy(), 200, (0, 1), rng="sync"
        )
        assert (free.deliveries == default.deliveries).all()
        assert (free.deliveries != sync.deliveries).any()

    def test_fused_free_sweep_is_deterministic(self):
        kw = dict(num_intervals=150, seeds=(0, 1, 2), rng="free")
        a = run_sweep_fused("alpha", VALUES, builder, POLICIES, **kw)
        b = run_sweep_fused("alpha", VALUES, builder, POLICIES, **kw)
        assert a.points == b.points


def loaded_builder(alpha):
    """The paper's N=20 video network: loaded enough that the families
    separate (the 6-link ``builder`` delivers nearly everything)."""
    return video_symmetric_spec(alpha, num_links=20)


LOADED_VALUES = (0.55, 0.7)


class TestFreeStatisticalEquivalence:
    """Free fused sweeps vs the scalar engine, for every batch family;
    same harness as test_fused_statistical."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        kw = dict(
            parameter_name="alpha",
            values=LOADED_VALUES,
            spec_builder=loaded_builder,
            policies=ALL_BATCH_POLICIES,
            num_intervals=INTERVALS,
            seeds=SEEDS,
        )
        free = run_sweep_fused(**kw, rng="free")
        scalar = run_sweep(**kw, engine="scalar")
        return free, scalar

    @staticmethod
    def _cell(result, policy, value):
        (point,) = [
            p for p in result.points
            if p.policy == policy and p.parameter == value
        ]
        return point

    @pytest.mark.parametrize("policy", sorted(ALL_BATCH_POLICIES))
    @pytest.mark.parametrize("value", LOADED_VALUES)
    def test_means_within_joint_confidence_bound(self, sweeps, policy, value):
        free, scalar = sweeps
        f = self._cell(free, policy, value)
        b = self._cell(scalar, policy, value)
        n = len(SEEDS)
        se = math.sqrt(
            (f.deficiency_std**2 + b.deficiency_std**2) / max(n - 1, 1)
        )
        tol = 3.0 * se + 0.02
        assert abs(f.total_deficiency - b.total_deficiency) <= tol, (
            f"{policy}@{value}: free {f.total_deficiency:.4f} vs scalar "
            f"{b.total_deficiency:.4f} (tol {tol:.4f})"
        )

    def test_collisions_and_overhead_track(self, sweeps):
        free, scalar = sweeps
        for policy in ALL_BATCH_POLICIES:
            for value in LOADED_VALUES:
                f = self._cell(free, policy, value)
                b = self._cell(scalar, policy, value)
                assert abs(f.collisions - b.collisions) <= max(
                    5.0, 0.25 * max(f.collisions, b.collisions)
                )
                assert abs(f.mean_overhead_us - b.mean_overhead_us) <= max(
                    5.0, 0.25 * max(f.mean_overhead_us, b.mean_overhead_us)
                )
