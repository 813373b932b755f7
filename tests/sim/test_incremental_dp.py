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
iff the workspace path is bound, ``num_pairs == 1`` and ``n >
max_transmissions + 1``.  Every comparison below runs on a size the
selector sends to the sparse path and checks it against the dense
reference forced through the kernel's private ``_force_dense`` hook.
Both paths read the same rank-layout channel block (retry draws for the
first ``max_transmissions + 1`` backlogged links in service order).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DBDPPolicy
from repro.core.permutations import (
    apply_adjacent_swap,
    apply_swap_to_order,
    link_order_to_priorities,
    priority_to_link_order,
)
from repro.experiments.configs import low_latency_spec, video_symmetric_spec
from repro.phy.channel import channel_from_spec
from repro.sim.batch_kernels import BatchDPKernel
from repro.sim.batch_sim import BatchIntervalSimulator


def _video(n, alpha=0.55):
    return video_symmetric_spec(alpha, num_links=n)


def _low_latency(n, alpha=0.55):
    # Budget 16: N=20 is a cheap sparse case.
    return low_latency_spec(alpha, num_links=n)


def _video_idle(n):
    # Low load: the serve set reaches deep into the priority order, so
    # the selection's prefix scan must grow past its start width.
    return _video(n, alpha=0.05)


def _video_light(n):
    # At N=80, rows with fewer than K backlogged links: filler slots.
    return _video(n, alpha=0.1)


def _video_ge(n, alpha=0.55):
    # Gilbert-Elliott state: per-interval scale planes in the rank block.
    return dataclasses.replace(
        _video(n, alpha), channel=channel_from_spec("ge:0.1:0.3", n)
    )


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
            (_video_ge, 80, 150, (0, 1, 2)),
            (_video_idle, 2000, 6, (0, 1)),
            (_video_light, 80, 150, (0, 1, 2)),
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


def _oracle_serve_set(inv, backlog, cands, swap, K):
    """Each row's K lowest backlogged positions (after the commit-coin
    swap), by ``argpartition`` over all N links; non-backlogged links sit
    at position N."""
    S, n = inv.shape
    pos = np.empty_like(inv)
    for s in range(S):
        pos[s, inv[s]] = np.arange(n)
        if swap[s]:
            c = cands[s]
            pos[s, inv[s, c - 1]] = c
            pos[s, inv[s, c]] = c - 1
    pos[backlog == 0] = n
    part = np.argpartition(pos, K - 1, axis=1)[:, :K]
    keys = np.take_along_axis(pos, part, axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    return (
        np.take_along_axis(part, order, axis=1),
        np.take_along_axis(keys, order, axis=1),
    )


class TestServeSetSelection:
    """The incremental path's prefix scan picks the same serve set as an
    argpartition over every link, whatever the prefix width it starts
    from."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_prefix_scan_matches_argpartition(self, data):
        # Budget 16 (K = 17) keeps N small enough for many examples.
        n = data.draw(st.integers(18, 48), label="n")
        seeds = (0, 1, 2, 3)
        sim = BatchIntervalSimulator(
            _low_latency(n), DBDPPolicy(), seeds=seeds, validate=False,
            backend="numpy",
        )
        kernel = sim.kernel
        w = kernel._ws
        S, K = len(seeds), kernel._inc_k
        assert sim.dp_state == "incremental"
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1), label="rng")
        )
        # From every link backlogged down to none, via loads that leave
        # fewer than K backlogged links in a row.
        load = data.draw(
            st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
            label="load",
        )
        M = data.draw(st.integers(K, n), label="M")
        swap = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=S, max_size=S),
                label="swap",
            )
        )
        straddle = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=S, max_size=S),
                label="straddle",
            )
        )
        for s in range(S):
            w.inv[s] = rng.permutation(n)
        backlog = np.where(
            rng.random((S, n)) < load, rng.integers(1, 4, (S, n)), 0
        )
        cands = rng.integers(1, n, S)
        if M < n:
            # The pair straddles the prefix boundary: c - 1 = M - 1, c = M.
            cands[straddle] = M
        rows = np.arange(S)
        w.cands[:, 0] = cands
        w.down[:, 0] = w.inv[rows, cands - 1]
        w.up[:, 0] = w.inv[rows, cands]
        w.scan_m = M
        rc = np.flatnonzero(swap)
        kernel._select_serve_set(backlog, rc, cands[rc])

        links, positions = _oracle_serve_set(w.inv, backlog, cands, swap, K)
        np.testing.assert_array_equal(w.posk, positions)
        real = positions < n
        np.testing.assert_array_equal(w.prev_links[real], links[real])
        np.testing.assert_array_equal(
            w.sel_flat, w.prev_links + rows[:, None] * n
        )
        for s in range(S):
            row = w.prev_links[s]
            assert len(set(row.tolist())) == K, "duplicate link in a row"
            assert (backlog[s, row[~real[s]]] == 0).all()
        assert K <= w.scan_m <= n
        assert w.scan_m > w.posk[:, K - 1].max() or w.scan_m == n


class TestCrossBackendIdentity:
    """numpy and c, each dense and incremental, all consume the same
    free draws and must agree bit for bit."""

    def test_n200_all_backends(self, c_backend):
        spec = _video(200)
        runs = {
            (backend, mode): _run(
                spec, 40, dense=mode == "dense", backend=backend, rng="free"
            )
            for backend in ("numpy", "c")
            for mode in ("dense", "incremental")
        }
        for (backend, mode), (sim, _) in runs.items():
            assert (sim.backend, sim.dp_state) == (backend, mode)
        ref = runs["numpy", "dense"][1]
        for key, (_, got) in runs.items():
            _assert_runs_identical(ref, got, f"numpy-dense vs {key}")

    @pytest.mark.parametrize("backend", ["numpy", "c"], indirect=True)
    def test_n2000_dense_vs_incremental(self, backend):
        # The scale the engine exists for; few intervals keep it cheap.
        spec = _video(2000)
        kw = dict(seeds=(0, 1), backend=backend, rng="free")
        _, dense = _run(spec, 6, dense=True, **kw)
        sim, inc = _run(spec, 6, **kw)
        assert sim.dp_state == "incremental"
        _assert_runs_identical(dense, inc, f"N=2000 {backend}")


class TestPathSelection:
    """The kernel alone picks the path: incremental iff workspace path,
    one swap pair and ``n > max_transmissions + 1`` (the video timing's
    budget is 60), whatever the channel."""

    @pytest.mark.parametrize(
        "case,n,expected",
        [
            ("video", 20, "dense"),
            ("video", 61, "dense"),
            ("video", 62, "incremental"),
            ("num_pairs=2", 80, "dense"),
            ("ge-channel", 80, "incremental"),
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
