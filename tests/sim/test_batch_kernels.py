"""Tests for the vectorized per-interval batch kernels.

The batch engine's correctness hinges on two closed forms: the staircase
service solver (attempts/deliveries under a non-increasing cap) and the DP
kernel's assume-fit/verify empty-packet coupling.  Both are checked here
against brute-force sequential references on shared inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    BernoulliArrivals,
    DBDPPolicy,
    FCSMAPolicy,
    GilbertElliottChannel,
    LDFPolicy,
    NetworkSpec,
    RoundRobinPolicy,
    idealized_timing,
)
from repro.experiments.configs import low_latency_spec, video_symmetric_spec
from repro.phy.channel import channel_from_spec
from repro.sim.batch_kernels import (
    DRAW_CHUNK,
    BatchDPKernel,
    BatchPolicyKernel,
    _ChunkedChannelDraws,
    _ChunkedUniforms,
    drain_totals,
    has_batch_kernel,
    make_batch_kernel,
)
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.sim.interval_sim import run_simulation
from repro.sim.rng import BatchRngBundle


def naive_ordered_service(order, backlog, needed_cum, caps):
    """Reference: serve links one at a time, exactly like the scalar loop."""
    S, N = order.shape
    delivered = np.zeros((S, N), dtype=np.int64)
    attempts = np.zeros((S, N), dtype=np.int64)
    for s in range(S):
        used = 0
        for j in range(N):
            link = int(order[s, j])
            b = int(backlog[s, link])
            budget = int(caps[s, j]) - used
            if b == 0 or budget <= 0:
                continue
            cum = needed_cum[s, link, :b]
            att = min(int(cum[-1]), budget)
            attempts[s, j] = att
            # Packet t is delivered iff its cumulative need fits the grant.
            delivered[s, j] = int(np.searchsorted(cum, att, side="right"))
            used += att
    return delivered, attempts


def solve_ordered_ws(order, backlog, needed_cum, caps, dtype=np.float32):
    """Run the kernels' workspace ordered-service solver on raw inputs.

    Binds just what ``BatchPolicyKernel._solve_ordered_ws`` reads — the
    common workspace and a channel-draw object of the requested draw
    dtype (whose ``totals`` gather the solver uses) — and returns
    ``(delivered, attempts, attempts_pos)`` with attempts by link and by
    service position, all int64.
    """
    S, N = order.shape
    A = needed_cum.shape[2]
    # p = 0.5 keeps the draw dtype float32; a near-zero probability
    # pushes the worst-case cumsum past 2**24 and selects float64.
    p = 0.5 if dtype == np.float32 else 1e-9
    draws = _ChunkedChannelDraws(np.full(N, p), S, A)
    assert draws.dtype == dtype
    kernel = SimpleNamespace(
        num_seeds=S,
        spec=SimpleNamespace(num_links=N),
        _a_max=A,
        _channel_draws=draws,
    )
    w = BatchPolicyKernel._alloc_common_ws(kernel)
    order = np.ascontiguousarray(order, dtype=np.int64)
    backlog = np.ascontiguousarray(backlog, dtype=np.int64)
    np.add(order, w.row_off, out=w.oflat)
    BatchPolicyKernel._solve_ordered_ws(
        kernel, w, order, backlog,
        np.ascontiguousarray(needed_cum, dtype=dtype),
        np.asarray(caps, dtype=dtype),
    )
    attempts = np.empty((S, N), dtype=np.int64)
    attempts[np.arange(S)[:, None], order] = w.att_pos
    return w.delivered.copy(), attempts, w.att_pos.astype(np.int64)


class TestSolveOrderedService:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_sequential_reference(self, trial, dtype):
        """Link-space outputs match the sequential sweep, for both draw
        dtypes the production pipeline produces (float32, or float64 when
        cumulative counts could leave float32's exact-integer range)."""
        rng = np.random.default_rng(100 + trial)
        S, N, A = 7, 6, 4
        order = np.array([rng.permutation(N) for _ in range(S)])
        backlog = rng.integers(0, A + 1, size=(S, N))
        needed_cum = np.cumsum(
            rng.geometric(0.6, size=(S, N, A)), axis=2, dtype=np.int64
        )
        # Caps must be non-increasing along the service order; negatives
        # model positions whose backoff already overruns the interval.
        caps = np.sort(rng.integers(-3, 15, size=(S, N)), axis=1)[:, ::-1]
        delivered, attempts, attempts_pos = solve_ordered_ws(
            order, backlog, needed_cum, caps, dtype
        )
        ref_delivered_pos, ref_attempts_pos = naive_ordered_service(
            order, backlog, needed_cum, caps
        )
        rows = np.arange(S)[:, None]
        ref_delivered = np.zeros((S, N), dtype=np.int64)
        ref_attempts = np.zeros((S, N), dtype=np.int64)
        ref_delivered[rows, order] = ref_delivered_pos
        ref_attempts[rows, order] = ref_attempts_pos
        np.testing.assert_array_equal(delivered, ref_delivered)
        np.testing.assert_array_equal(attempts, ref_attempts)
        np.testing.assert_array_equal(attempts_pos, ref_attempts_pos)
        assert attempts.dtype == attempts_pos.dtype == np.int64

    def test_empty_backlog_serves_nothing(self):
        order = np.array([[0, 1, 2]])
        backlog = np.zeros((1, 3), dtype=np.int64)
        needed_cum = np.ones((1, 3, 2), dtype=np.int64)
        caps = np.full((1, 3), 10, dtype=np.int64)
        delivered, attempts, _ = solve_ordered_ws(
            order, backlog, needed_cum, caps
        )
        assert delivered.sum() == 0 and attempts.sum() == 0

    def test_truncation_starves_later_positions(self):
        """Once the cap truncates a link, everyone behind it gets nothing."""
        order = np.array([[0, 1, 2]])
        backlog = np.array([[2, 2, 2]])
        needed_cum = np.tile(
            np.array([[3, 6]], dtype=np.int64), (1, 3, 1)
        )  # each link needs 6 attempts to drain
        caps = np.array([[8, 8, 8]], dtype=np.int64)
        delivered, attempts, attempts_pos = solve_ordered_ws(
            order, backlog, needed_cum, caps
        )
        # Position 0 drains (6 attempts, 2 packets); position 1 gets the
        # remaining 2 attempts (< 3 needed -> 0 delivered); position 2: 0.
        np.testing.assert_array_equal(attempts_pos, [[6, 2, 0]])
        np.testing.assert_array_equal(delivered, [[2, 0, 0]])
        np.testing.assert_array_equal(attempts, [[6, 2, 0]])


class TestChunkedDraws:
    def test_uniforms_match_unchunked_stream(self):
        """Chunking only amortizes Generator calls; the draw sequence per
        interval is the same slicing of the same stream."""
        draws = _ChunkedUniforms(3, 2)
        chunked = [draws.next(np.random.default_rng(9)) for _ in range(2)]
        # A fresh generator's first block, sliced the same way:
        block = np.random.default_rng(9).random((DRAW_CHUNK, 3, 2))
        np.testing.assert_array_equal(chunked[0], block[0])
        np.testing.assert_array_equal(chunked[1], block[1])


class TestChunkedChannelDraws:
    """Chunk-boundary behavior of the channel retry-draw cache.

    The class refills ``depth`` intervals of draws per Generator call;
    these tests pin down that a sequence of intervals spanning one or
    more refills is identical to an unchunked draw of the same stream,
    including the ``a_max`` clamp edge at p = 1.
    """

    S, N, A = 3, 4, 5

    def _unchunked_reference(self, probs, intervals, seed):
        """All ``intervals`` cumulative blocks from one generator call."""
        scale = (-1.0 / np.log1p(-np.asarray(probs, dtype=float)))[
            None, None, :, None
        ]
        raw = np.random.default_rng(seed).standard_exponential(
            (intervals, self.S, self.N, self.A), dtype=np.float32
        )
        draws = np.maximum(np.ceil(raw * scale.astype(np.float32)), 1.0)
        return np.cumsum(draws, axis=3)

    def test_draws_spanning_refill_match_unchunked(self):
        """10 intervals at depth 4 cross two refill boundaries; every
        block equals the unchunked single-call reference because chunks
        are consecutive slices of one generator stream."""
        probs = np.array([0.6, 0.75, 0.9, 0.8])
        draws = _ChunkedChannelDraws(probs, self.S, self.A, depth=4)
        rng = np.random.default_rng(77)
        got = [draws.next(rng).copy() for _ in range(10)]
        # Three refills of depth 4 consume the same stream values as one
        # call of depth 12 (Generator.standard_exponential fills are
        # sequential), so compare against a 12-deep unchunked draw.
        ref = self._unchunked_reference(probs, 12, seed=77)
        for k in range(10):
            np.testing.assert_array_equal(got[k], ref[k])

    def test_inplace_accumulate_matches_cumsum(self):
        """The refill's in-place slice-add accumulate equals ``np.cumsum``
        of the same clamped draws, interval by interval."""
        probs = np.array([0.5, 0.7, 0.95, 0.85])
        a = _ChunkedChannelDraws(probs, self.S, self.A, depth=3)
        ra = np.random.default_rng(5)
        ref = self._unchunked_reference(probs, 9, seed=5)
        for k in range(7):
            np.testing.assert_array_equal(a.next(ra), ref[k])

    def test_totals_gather_matches_drain_totals_across_refills(self):
        probs = np.array([0.6, 0.8, 0.9, 0.7])
        fast = _ChunkedChannelDraws(probs, self.S, self.A, depth=2)
        rng = np.random.default_rng(3)
        back_rng = np.random.default_rng(30)
        for _ in range(5):
            block = fast.next(rng)
            backlog = back_rng.integers(0, self.A + 1, (self.S, self.N))
            got = fast.totals(block, backlog)
            np.testing.assert_array_equal(got, drain_totals(block, backlog))
            # The gather writes a reused buffer; copy-compare twice to
            # catch stale-index bugs across consecutive intervals.
            again = fast.totals(block, backlog)
            np.testing.assert_array_equal(again, drain_totals(block, backlog))

    def test_p_one_clamps_every_draw_to_one(self):
        """p = 1 makes the exponential scale 0, so after the >= 1 clamp a
        cumulative block is exactly 1..a_max — including the last slot of
        the last interval in a chunk (the a_max clamp edge)."""
        probs = np.ones(self.N)
        draws = _ChunkedChannelDraws(probs, self.S, self.A, depth=2)
        rng = np.random.default_rng(11)
        expected = np.broadcast_to(
            np.arange(1, self.A + 1, dtype=np.float32),
            (self.S, self.N, self.A),
        )
        for _ in range(4):  # spans a refill at depth 2
            block = draws.next(rng)
            np.testing.assert_array_equal(block, expected)

    def test_dtype_falls_back_to_float64_for_huge_scales(self):
        """Near-zero success probabilities make worst-case cumulative
        attempt counts overflow float32's exact-integer range; the cache
        must detect that at construction and draw float64."""
        assert (
            _ChunkedChannelDraws(np.full(2, 0.9), 2, 4).dtype == np.float32
        )
        tiny = np.full(2, 1e-9)
        assert _ChunkedChannelDraws(tiny, 2, 4).dtype == np.float64


def _geometric_cum(raw, scale):
    """Reference transform: ``cumsum(max(ceil(E * scale), 1))`` per row."""
    return np.cumsum(np.maximum(np.ceil(raw * scale), 1.0), axis=-1)


class TestChannelLayout:
    """Link vs rank layout of the channel retry block.

    Networks wider than ``max_transmissions + 1`` draw raw exponentials
    for the ``K = max_transmissions + 1`` rank slots only; every consumer
    reads them through ``served_rows`` (rank order) or ``link_block``
    (a link plane built from it).  Narrower networks keep the eager
    link-indexed block, byte for byte.
    """

    S, N, A, K = 3, 10, 4, 4

    def _probs(self):
        return np.linspace(0.5, 0.95, self.N)

    def test_rank_blocks_are_raw_rank_slots(self):
        draws = _ChunkedChannelDraws(
            self._probs(), self.S, self.A, depth=3, rank_slots=self.K
        )
        assert draws.rank_slots == self.K
        rng = np.random.default_rng(21)
        got = [draws.next(rng).copy() for _ in range(5)]
        raw = np.random.default_rng(21).standard_exponential(
            (6, self.S, self.K, self.A), dtype=np.float32
        )
        for k, block in enumerate(got):
            assert block.shape == (self.S, self.K, self.A)
            np.testing.assert_array_equal(block, raw[k])

    def test_served_rows_scale_each_slot_by_its_link(self):
        probs = self._probs()
        draws = _ChunkedChannelDraws(probs, self.S, self.A, rank_slots=self.K)
        block = draws.next(np.random.default_rng(4))
        pick = np.random.default_rng(5)
        links = np.stack(
            [pick.permutation(self.N)[: self.K] for _ in range(self.S)]
        )
        flat = links + (np.arange(self.S) * self.N)[:, None]
        out = np.empty((self.S * self.K, self.A), dtype=draws.dtype)
        got = draws.served_rows(block, flat, out).reshape(
            self.S, self.K, self.A
        )
        scale = (-1.0 / np.log1p(-probs)).astype(np.float32)
        ref = _geometric_cum(block, scale[links][:, :, None])
        np.testing.assert_array_equal(got, ref)

    def test_link_layout_served_rows_gather_link_rows(self):
        draws = _ChunkedChannelDraws(self._probs(), self.S, self.A)
        assert draws.rank_slots is None
        block = draws.next(np.random.default_rng(8))
        assert block.shape == (self.S, self.N, self.A)
        links = np.tile(np.array([7, 2, 5]), (self.S, 1))
        flat = links + (np.arange(self.S) * self.N)[:, None]
        out = np.empty((self.S * 3, self.A), dtype=draws.dtype)
        got = draws.served_rows(block, flat, out).reshape(self.S, 3, self.A)
        rows = np.arange(self.S)[:, None]
        np.testing.assert_array_equal(got, block[rows, links])
        order = np.tile(np.arange(self.N), (self.S, 1))
        backlog = np.ones((self.S, self.N), dtype=np.int64)
        assert draws.link_block(block, order, backlog) is block

    def test_link_block_serves_first_backlogged_links_in_order(self):
        """Rank slot j lands on the j-th backlogged link of the service
        order; every other link reads the unit row 1..A, and the previous
        interval's served rows are reset on the next call."""
        probs = self._probs()
        draws = _ChunkedChannelDraws(probs, self.S, self.A, rank_slots=self.K)
        scale = (-1.0 / np.log1p(-probs)).astype(np.float32)
        unit = np.arange(1, self.A + 1, dtype=np.float32)
        gen = np.random.default_rng(12)
        rng = np.random.default_rng(13)
        for _ in range(3):
            block = draws.next(rng)
            order = np.stack([gen.permutation(self.N) for _ in range(self.S)])
            backlog = gen.integers(0, 2, (self.S, self.N)) * gen.integers(
                1, self.A + 1, (self.S, self.N)
            )
            plane = draws.link_block(block, order, backlog)
            for s in range(self.S):
                busy = [int(l) for l in order[s] if backlog[s, l] > 0]
                for link in range(self.N):
                    if link in busy[: self.K]:
                        r = busy.index(link)
                        ref = _geometric_cum(block[s, r], scale[link])
                        np.testing.assert_array_equal(plane[s, link], ref)
                    elif link not in busy:
                        # Idle links never read their row; only served
                        # links and starved backlogged ones are pinned.
                        continue
                    else:
                        np.testing.assert_array_equal(plane[s, link], unit)

    def test_dynamic_rank_rows_use_the_interval_scale_plane(self):
        spec = dataclasses.replace(
            video_symmetric_spec(0.55, num_links=80),
            channel=channel_from_spec("ge:0.1:0.3", 80),
        )
        kernel = make_batch_kernel(LDFPolicy())
        kernel.bind(spec, 2)
        draws = kernel._channel_draws
        assert draws.dynamic and draws.rank_slots == 61
        rng = BatchRngBundle((0, 1))
        links = np.tile(np.arange(61), (2, 1)) + np.array([[0], [80]])
        out = np.empty((2 * 61, draws._a), dtype=draws.dtype)
        for _ in range(3):
            block = draws.next(rng.free_stream("channel"), kernel._chan_rng(rng))
            got = draws.served_rows(block, links, out).reshape(2, 61, -1)
            scale = draws._probs_buf[draws._pos - 1][:, :61, None]
            ref = np.cumsum(
                np.maximum(np.ceil((block * scale).astype(np.float32)), 1.0),
                axis=-1,
            )
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize(
        "n,expected", [(20, None), (61, None), (62, 61), (10000, 61)]
    )
    def test_kernel_layout_follows_network_size(self, n, expected):
        kernel = make_batch_kernel(DBDPPolicy())
        kernel.bind(video_symmetric_spec(0.55, num_links=n), 2)
        draws = kernel._channel_draws
        assert draws.rank_slots == expected
        block = draws.next(np.random.default_rng(0))
        assert block.shape == (2, n if expected is None else expected, 6)

    @pytest.mark.parametrize(
        "build,policy,seeds,digest",
        [
            (lambda: video_symmetric_spec(0.55, num_links=20), DBDPPolicy,
             (0, 1, 2), "b59e8a7966438551"),
            (lambda: video_symmetric_spec(0.55, num_links=61), LDFPolicy,
             (4, 5), "83f3b342a194e5d3"),
            (lambda: dataclasses.replace(
                video_symmetric_spec(0.55, num_links=20),
                channel=channel_from_spec("ge:0.1:0.3", 20),
            ), DBDPPolicy, (0, 1), "04415a8b1e58aab3"),
            (lambda: low_latency_spec(0.55, num_links=10), DBDPPolicy,
             (7,), "bc88ae499eb6af7e"),
        ],
        ids=["video-20", "video-61-ldf", "video-20-ge", "low-latency-10"],
    )
    def test_link_layout_blocks_unchanged(self, build, policy, seeds, digest):
        """Networks within the transmission budget keep the link-indexed,
        eagerly transformed block: 300 intervals (a refill boundary
        included) hash to the values recorded before the rank layout
        existed."""
        kernel = make_batch_kernel(policy())
        kernel.bind(build(), len(seeds))
        assert kernel._channel_draws.rank_slots is None
        rng = BatchRngBundle(seeds)
        h = hashlib.sha256()
        for _ in range(300):
            block = kernel._channel_draws.next(
                rng.free_stream("channel"), kernel._chan_rng(rng)
            )
            h.update(np.ascontiguousarray(block).tobytes())
        assert h.hexdigest()[:16] == digest


class TestKernelDispatch:
    def test_known_policies_have_kernels(self):
        assert has_batch_kernel(DBDPPolicy())
        assert has_batch_kernel(LDFPolicy())
        assert has_batch_kernel(RoundRobinPolicy())
        assert not has_batch_kernel(FCSMAPolicy())

    def test_unsupported_policy_raises(self):
        with pytest.raises(TypeError, match="no batch kernel"):
            make_batch_kernel(FCSMAPolicy())

    def test_stochastic_state_binds_under_both_disciplines(self):
        """GE state evolves in the free draw pipeline (the default) and in
        the per-seed sync clones."""
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(3, 0.5),
            channel=GilbertElliottChannel(3),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        kernel = make_batch_kernel(LDFPolicy())
        kernel.bind(spec, 4)
        assert kernel.rng_mode == "free" and kernel._channel_draws.dynamic
        make_batch_kernel(LDFPolicy()).bind(spec, 4, rng="sync")

    def test_unknown_rng_mode_rejected(self):
        kernel = make_batch_kernel(LDFPolicy())
        with pytest.raises(ValueError, match="unknown rng mode"):
            kernel.bind(video_symmetric_spec(0.5, num_links=4), 2, rng="batch")

    def test_degenerate_state_rejected_with_fallback(self):
        """A GE link whose BAD state never succeeds cannot be pre-drawn
        geometrically; the rejection names the scalar fallback."""
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(2, 0.5),
            channel=GilbertElliottChannel(2, p_bad=0.0),
            timing=idealized_timing(6),
            delivery_ratios=0.4,
        )
        kernel = make_batch_kernel(LDFPolicy())
        with pytest.raises(TypeError, match="engine='scalar'"):
            kernel.bind(spec, 4, rng="free")


class TestSyncBind:
    """A kernel bound with ``rng="sync"`` must be the scalar engine, bit
    for bit: every sync decision (workspace, lite outcomes, clones,
    channel state) derives from the bound mode alone."""

    @pytest.mark.parametrize(
        "policy_cls", [DBDPPolicy, LDFPolicy, RoundRobinPolicy]
    )
    def test_direct_sync_bind_matches_scalar_engine(self, policy_cls):
        spec = video_symmetric_spec(0.5)
        seeds = (3, 4)
        intervals = 60
        kernel = make_batch_kernel(policy_cls())
        # lite=True must be ignored: sync outcomes carry full traces.
        kernel.bind(spec, len(seeds), rng="sync", lite=True)
        assert kernel.rng_mode == "sync"
        assert not kernel._use_ws and len(kernel._clones) == len(seeds)
        rng = BatchRngBundle(seeds)
        q = spec.requirement_vector
        debts = np.zeros((len(seeds), spec.num_links))
        deliveries, attempts = [], []
        for k in range(intervals):
            # Scalar-identical arrivals: each seed's own "arrivals" stream.
            arrivals = np.stack(
                [spec.arrivals.sample(b.arrivals) for b in rng.bundles]
            )
            outcome = kernel.run_interval(
                k, arrivals, np.maximum(debts, 0.0), rng
            )
            deliveries.append(outcome.deliveries.copy())
            attempts.append(outcome.attempts.copy())
            debts += q[None, :] - outcome.deliveries
        deliveries = np.stack(deliveries)
        attempts = np.stack(attempts)
        for i, seed in enumerate(seeds):
            ref = run_simulation(spec, policy_cls(), intervals, seed=seed)
            np.testing.assert_array_equal(deliveries[:, i], ref.deliveries)
            np.testing.assert_array_equal(attempts[:, i], ref.attempts)


class TestDPSequentialFallbackEquivalence:
    def test_forced_sequential_is_bit_identical(self):
        """Route *every* replication through the exact sequential sweep and
        compare with the vectorized closed form on identical draws.  This
        proves the assume-fit/verify shortcut exact, including the
        empty-packet coupling it approximates."""
        spec = video_symmetric_spec(0.6, num_links=6)
        seeds = (0, 1, 2, 3)
        fast = BatchIntervalSimulator(spec, DBDPPolicy(), seeds)
        slow = BatchIntervalSimulator(spec, DBDPPolicy(), seeds)
        assert isinstance(slow.kernel, BatchDPKernel)
        slow.kernel._force_sequential = True
        a = fast.run(300)
        b = slow.run(300)
        np.testing.assert_array_equal(a.deliveries, b.deliveries)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        np.testing.assert_array_equal(a.busy_time_us, b.busy_time_us)
        np.testing.assert_array_equal(a.overhead_time_us, b.overhead_time_us)
        np.testing.assert_array_equal(fast.debts, slow.debts)
