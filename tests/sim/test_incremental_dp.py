"""Bit-identity and selection tests for the DP kernel's priority-state paths.

The incremental sparse priority-state engine keeps the DP kernel's
inverse permutation alive in the workspace across intervals, applies
accepted adjacent swaps in O(commits), and solves the interval timeline
on the at-most ``max_transmissions + 1`` backlogged serve-set links
instead of all N.  The contract is *bit-identity* with the dense
recompute under the same RNG bundle: every derived quantity is a small
exact integer carried in float, so the two state-maintenance strategies
must agree on every interval of every replication — asserted here per
interval, across backends, across draw disciplines, and at the large N
the engine exists for.

The kernel picks the path itself at bind
(:meth:`repro.sim.batch_kernels.BatchDPKernel._on_bind`): incremental
iff the workspace path is bound, ``num_pairs == 1``, the channel is
static and ``n > max_transmissions + 1``.  Every comparison below runs
on a size the selector sends to the sparse path and checks it against
the dense reference forced through the kernel's private
``_force_dense`` hook.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro import DBDPPolicy
from repro.core.permutations import (
    apply_adjacent_swap,
    apply_swap_to_order,
    link_order_to_priorities,
    priority_to_link_order,
)
from repro.experiments.configs import low_latency_spec, video_symmetric_spec
from repro.phy.channel import channel_from_spec
from repro.sim import jit_kernels
from repro.sim.batch_kernels import BatchDPKernel
from repro.sim.batch_sim import BatchIntervalSimulator


def _video(n, alpha=0.55):
    return video_symmetric_spec(alpha, num_links=n)


def _low_latency(n, alpha=0.55):
    # Budget 16: N=20 is a cheap sparse case.
    return low_latency_spec(alpha, num_links=n)


def _run(
    spec,
    num_intervals,
    *,
    dense=False,
    backend="numpy",
    rng=None,
    seeds=(0, 1, 2),
    force_sequential=False,
    policy=None,
):
    with mock.patch.object(BatchDPKernel, "_force_dense", dense):
        sim = BatchIntervalSimulator(
            spec,
            policy if policy is not None else DBDPPolicy(),
            seeds=seeds,
            record_traces=True,
            record_priorities=True,
            validate=False,
            backend=backend,
            rng=rng,
        )
    if force_sequential:
        sim.kernel._force_sequential = True
    return sim, sim.run(num_intervals)


def _assert_runs_identical(a, b, context=""):
    """Per-interval, per-replication, per-link equality of every trace."""
    assert np.array_equal(a.deliveries, b.deliveries), context
    assert np.array_equal(a.attempts, b.attempts), context
    assert np.array_equal(a.priorities, b.priorities), context
    assert np.array_equal(a.overhead_time_us, b.overhead_time_us), context
    assert np.array_equal(a.busy_time_us, b.busy_time_us), context
    assert np.array_equal(a.collisions, b.collisions), context


class TestDenseIncrementalBitIdentity:
    """The selected incremental path must agree with the forced-dense
    reference on every interval."""

    @pytest.mark.parametrize(
        "builder,n,num_intervals,seeds",
        [
            (_video, 62, 200, (0, 1, 2)),
            (_video, 80, 150, (0, 1, 2)),
            (_video, 200, 60, (0, 1, 2)),
            (_video, 2000, 6, (0, 1)),
            (_low_latency, 20, 300, (0, 1, 2)),
        ],
    )
    def test_every_interval_identical(self, builder, n, num_intervals, seeds):
        spec = builder(n)
        dense_sim, dense = _run(spec, num_intervals, dense=True, seeds=seeds)
        sim, inc = _run(spec, num_intervals, seeds=seeds)
        assert (dense_sim.dp_state, sim.dp_state) == ("dense", "incremental")
        _assert_runs_identical(dense, inc, f"{builder.__name__} N={n}")

    def test_congested_stack_identical(self):
        # High alpha keeps everyone backlogged, so commits, misfitting
        # empty claims, and resolver activations all fire constantly.
        spec = _video(80, alpha=0.95)
        _, dense = _run(spec, 250, dense=True)
        _, inc = _run(spec, 250)
        _assert_runs_identical(dense, inc, "congested")

    def test_forced_sequential_rows_match_vectorized(self):
        # The per-row Python resolver is the vectorized block solve's
        # fallback; forcing it on every row must change nothing.
        spec = _video(80)
        _, vec = _run(spec, 150)
        sim, seq = _run(spec, 150, force_sequential=True)
        assert sim.dp_state == "incremental"
        _assert_runs_identical(vec, seq, "force_sequential")

    def test_free_rng_discipline_identical_across_paths(self):
        # The explicit free discipline (also the default) must agree
        # between dense and incremental.
        spec = _video(62)
        _, dense = _run(spec, 200, dense=True, rng="free")
        sim, inc = _run(spec, 200, rng="free")
        assert sim.dp_state == "incremental"
        _assert_runs_identical(dense, inc, "rng=free")


@pytest.fixture
def jit_runnable(monkeypatch):
    """Make backend='jit' runnable: compiled if numba is present, else
    forced through the pure-Python loop bodies (the exact code numba
    would compile; the numba leg itself runs in CI)."""
    if not jit_kernels.HAS_NUMBA:
        monkeypatch.setattr(jit_kernels, "force_python", True)


class TestCrossBackendIdentity:
    """numpy and jit, each dense and incremental, all consume the same
    free draws and must agree bit for bit."""

    def test_n200_all_backends(self, jit_runnable):
        spec = _video(200)
        runs = {
            (backend, mode): _run(
                spec, 40, dense=mode == "dense", backend=backend, rng="free"
            )
            for backend in ("numpy", "jit")
            for mode in ("dense", "incremental")
        }
        for (backend, mode), (sim, _) in runs.items():
            assert (sim.backend, sim.dp_state) == (backend, mode)
        ref = runs["numpy", "dense"][1]
        for key, (_, got) in runs.items():
            _assert_runs_identical(ref, got, f"numpy-dense vs {key}")

    @pytest.mark.parametrize("backend", ["numpy", "jit"])
    def test_n2000_dense_vs_incremental(self, backend, jit_runnable):
        # The scale the engine exists for; few intervals keep it cheap.
        spec = _video(2000)
        kw = dict(seeds=(0, 1), backend=backend, rng="free")
        _, dense = _run(spec, 6, dense=True, **kw)
        sim, inc = _run(spec, 6, **kw)
        assert sim.dp_state == "incremental"
        _assert_runs_identical(dense, inc, f"N=2000 {backend}")


class TestPathSelection:
    """The kernel alone picks the path: incremental iff workspace path,
    one swap pair, static channel and ``n > max_transmissions + 1``
    (the video timing's budget is 60)."""

    @pytest.mark.parametrize(
        "case,n,expected",
        [
            ("video", 20, "dense"),
            ("video", 61, "dense"),
            ("video", 62, "incremental"),
            ("num_pairs=2", 80, "dense"),
            ("ge-channel", 80, "dense"),
            ("rng=sync", 80, "dense"),
        ],
    )
    def test_selected_path(self, case, n, expected):
        spec = _video(n)
        policy = DBDPPolicy()
        rng = None
        if case == "num_pairs=2":
            policy = DBDPPolicy(num_pairs=2)
        elif case == "ge-channel":
            spec = dataclasses.replace(
                spec, channel=channel_from_spec("ge:0.1:0.3", n)
            )
        elif case == "rng=sync":
            rng = "sync"
        sim = BatchIntervalSimulator(
            spec, policy, seeds=(0,), validate=False, rng=rng
        )
        assert sim.dp_state == expected
        assert sim.kernel.dp_state == expected

    def test_force_dense_hook_overrides_selection(self):
        sim, _ = _run(_video(80), 1, dense=True, seeds=(0,))
        assert sim.dp_state == "dense"
        assert BatchDPKernel._force_dense is False


class TestOrderMaintenancePrimitive:
    """``apply_swap_to_order`` is the O(1) scalar counterpart of the
    kernel's swap application; it must commute with the sigma-space
    swap through the order/priority bijection."""

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_order_swap_matches_sigma_swap(self, n):
        rng = np.random.default_rng(41)
        for _ in range(30):
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
            c = int(rng.integers(1, n))
            expected = priority_to_link_order(apply_adjacent_swap(sigma, c))
            order = list(priority_to_link_order(sigma))
            down, up = apply_swap_to_order(order, c)
            assert tuple(order) == expected
            # The returned pair is the pre-swap occupants of (c, c+1).
            assert sigma[down] == c and sigma[up] == c + 1
            # Round-trip: the mutated order maps back to the swapped sigma.
            assert link_order_to_priorities(order) == apply_adjacent_swap(
                sigma, c
            )

    def test_out_of_range_candidate_raises(self):
        with pytest.raises(ValueError):
            apply_swap_to_order([0, 1, 2], 0)
        with pytest.raises(ValueError):
            apply_swap_to_order([0, 1, 2], 3)
