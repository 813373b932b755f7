"""Vectorized per-policy kernels for the batch simulation engine.

Each kernel advances one interval for a *stack* of ``S`` independent
replications at once, holding every piece of per-interval state — debts,
arrivals, priorities, backoffs, deliveries — as ``(S, N)`` NumPy arrays.
Kernels exist for the policies that dominate benchmark time:

* :class:`BatchDPKernel` — Algorithm 2 / DB-DP (single- and multi-pair
  swaps, Remark 6);
* :class:`BatchELDFKernel` — ELDF/LDF via a stable argsort on
  ``f(d^+) p``;
* :class:`BatchRoundRobinKernel` and :class:`BatchStaticPriorityKernel`.

The shared primitive is the ordered-service solver
(:meth:`BatchPolicyKernel._solve_ordered_ws`): given pre-drawn geometric
retry counts, it resolves the whole "serve links in priority order until
time runs out" recursion with prefix sums instead of a per-link loop.
This works because the attempt ceiling is non-increasing along the
service order, so once one link is truncated every later link is starved
— exactly the scalar engine's semantics (see the derivation in the
method docstring).

Two implementation notes that matter for throughput at the target scale
(tens of seeds, tens of links — i.e. *small* arrays, where NumPy's Python
wrapper cost rivals its C time):

* all gather/scatter steps use raw integer fancy indexing
  (``a[rows, idx]``) rather than ``take_along_axis``/``put_along_axis``,
  whose index-building wrappers dominate at this size;
* random draws are made in chunks of :data:`DRAW_CHUNK` intervals per
  stream and sliced per interval, amortizing the Generator call overhead.
  Chunking only re-orders consumption *within* a free stream, which is a
  private namespace — reproducibility (same seeds, same trajectory) is
  unaffected, and chunk boundaries are independent of how ``run`` calls
  are split because the caches live on the kernel.

Channel retry draws have one of two layouts, fixed at bind from the
spec's size (:class:`_ChannelLayout`).  One interval fits at most
``max_transmissions`` data attempts, so only the first ``K =
max_transmissions + 1`` backlogged links in service order can ever be
touched.  When ``N <= K`` the block is link-indexed ``(S, N, A)`` and
transformed at refill.  When ``N > K`` the kernels draw a raw ``(S, K,
A)`` rank block instead — slot ``j`` belongs to a row's ``j``-th
backlogged link in this interval's service order — and transform only
those rows, each with its own link's scale.  Every consumer reads
through the draws' accessors: the incremental DP path takes the rank
rows of its serve set, the dense paths (and the compiled row walks) a
link plane built from them in which the starved links read ``1..A``.

Kernels also accept **per-row spec parameters** (the grid-fused engine):
``bind`` takes either one shared spec or a
:class:`~repro.sim.spec_stack.SpecStack` with one spec per replication
row, in which case reliabilities and requirements become ``(S, N)``
matrices and rows may come from *different sweep cells* (different
``p_n``/``q_n``/arrival parameters, and — for the DP kernel — different
Glauber bias constants via ``row_policies``) as long as ``N``, the timing,
and the policy family match.

Every kernel also has a ``rng="sync"`` mode in which it drives one *scalar*
policy clone per seed with that seed's scalar-identical random streams
(:attr:`~repro.sim.rng.BatchRngBundle.bundles`).  That mode is the
cross-validation bridge: it is bit-identical to the scalar engine by
construction, while sharing the batch engine's debt and result
bookkeeping.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from ..core import registry
from ..core.dbdp import stack_swap_biases
from ..core.dp_protocol import DPProtocol, max_swap_pairs
from ..core.eldf import ELDFPolicy
from ..core.permutations import priority_to_link_order, validate_priority_vector
from ..core.policies import IntervalMac
from ..core.requirements import NetworkSpec
from ..core.round_robin import RoundRobinPolicy
from ..core.static_priority import StaticPriorityPolicy
from ..phy.channel import ChannelStateRows
from . import perf
from .rng import BatchRngBundle, normalize_rng_mode
from .spec_stack import SpecStack

__all__ = [
    "BatchIntervalOutcome",
    "BatchPolicyKernel",
    "BatchDPKernel",
    "BatchELDFKernel",
    "BatchRoundRobinKernel",
    "BatchStaticPriorityKernel",
    "make_batch_kernel",
    "has_batch_kernel",
    "resolve_backend",
    "KERNEL_BACKENDS",
    "DRAW_CHUNK",
]

#: Intervals' worth of randomness drawn per Generator call.  Arrival
#: blocks use the same depth (see ``batch_sim._ArrivalDraws``).
DRAW_CHUNK = 256

#: Interval-resolution backends a kernel can bind with.
#:
#: * ``"numpy"`` — the preallocated-workspace NumPy path: all
#:   per-interval scratch lives in buffers allocated once at bind time
#:   and every hot-loop step writes in place via ``out=`` ufuncs.  The
#:   sequential pieces (ordered service, the DP interval timeline) are
#:   closed forms plus an exact per-row repair.
#: * ``"c"`` — the same workspace path with those sequential pieces run
#:   as compiled per-row loops (:mod:`repro.sim.ckernels`), built with
#:   the system C compiler at the first bind that needs them.
#:
#: Both produce bit-identical outcomes for the same
#: :class:`~repro.sim.rng.BatchRngBundle` (proven in
#: ``tests/integration/test_kernel_backends.py``): they consume the same
#: generator values in the same order, every count is a small exact
#: integer, and the C loops evaluate every timeline float with numpy's
#: operations in numpy's order.
KERNEL_BACKENDS = ("numpy", "c")


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a backend request to one of :data:`KERNEL_BACKENDS`.

    ``None`` defers to ``REPRO_KERNEL_BACKEND`` if set; otherwise the
    default is ``"c"`` whenever the compiled library builds and loads,
    and ``"numpy"`` otherwise, silently.  An *explicit* ``"c"`` request
    on a host without a working C compiler degrades to ``"numpy"`` with
    a :class:`RuntimeWarning` naming the reason.  Asking about ``"c"``
    builds the library on first use, so call this at bind time only.
    """
    from . import ckernels  # ctypes stays out of import time

    if backend is None:
        backend = os.environ.get("REPRO_KERNEL_BACKEND", "")
        if not backend:
            return "c" if ckernels.available() else "numpy"
    backend = str(backend).lower()
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {KERNEL_BACKENDS}"
        )
    if backend == "c" and not ckernels.available():
        warnings.warn(
            f"{ckernels.load_error()}; kernel backend 'c' falls back to "
            "the workspace NumPy path",
            RuntimeWarning,
            stacklevel=2,
        )
        backend = "numpy"
    return backend


@dataclass
class BatchIntervalOutcome:
    """What happened during one interval, for every replication at once.

    The batch analogue of :class:`~repro.core.policies.IntervalOutcome`:
    per-link arrays are ``(S, N)``, per-interval scalars are ``(S,)``.

    ``attempts`` (like ``priorities``) is ``None`` when the kernel was
    bound with ``lite=True``: stats-only consumers never read it, and
    skipping the link-space scatter saves a hot-loop pass.
    """

    deliveries: np.ndarray  # (S, N) int64
    attempts: Optional[np.ndarray]  # (S, N) int64 or None (lite mode)
    busy_time_us: np.ndarray  # (S,) float
    overhead_time_us: np.ndarray  # (S,) float
    collisions: np.ndarray  # (S,) int64
    priorities: Optional[np.ndarray] = None  # (S, N) int64 or None


def drain_totals(needed_cum: np.ndarray, backlog: np.ndarray) -> np.ndarray:
    """Per-link total attempts needed to drain the backlog: ``(S, N)``.

    This is ``needed_cum[..., backlog - 1]`` (zero for empty buffers) in
    the draw dtype — the reference the chunked draws' flat gather
    (:meth:`_ChannelLayout.totals`) must match.  On the link layout it
    depends only on the channel draws and the arrivals, not on any policy
    decision, so lockstep simulators sharing draw blocks also share this
    plane (``batch_sim._FanoutDraws``).
    """
    idx = np.maximum(backlog - 1, 0)
    tot = np.take_along_axis(needed_cum, idx[:, :, None], axis=2)[:, :, 0]
    return np.where(backlog > 0, tot, needed_cum.dtype.type(0))


class _ChannelLayout:
    """How consumers read one interval's channel draw block.

    Shared by :class:`_ChunkedChannelDraws` and the topology engine's
    cell-wise wrapper.  Two layouts exist, fixed at construction:

    * **link** (``rank_slots is None``): the block is ``(S, N, A)``
      cumulative retry counts indexed by link, transformed at refill.
    * **rank** (``rank_slots == K``): the block is ``(S, K, A)`` *raw*
      standard exponentials; slot ``j`` of row ``s`` belongs to that
      row's ``j``-th backlogged link in this interval's service order.
      The geometric transform is applied per interval to the served rows
      only, with each slot scaled by its own link's channel.

    :meth:`served_rows` is the one accessor that knows the layout: the
    cumulative rows of given served links, in rank order.  Dense
    consumers read the link plane :meth:`link_block` builds from it.

    Subclasses call :meth:`_init_layout` and provide ``_scale_now()``,
    the ``(S, N)`` geometric scale plane of the current interval.
    """

    def _init_layout(
        self,
        num_rows: int,
        num_links: int,
        a_max: int,
        dtype,
        rank_slots: Optional[int],
        scale_dtype,
    ) -> None:
        self._rows_n = num_rows
        self._num_links = num_links
        self._a = a_max
        self._rank_k = None if rank_slots is None else int(rank_slots)
        # Drain-totals gather scratch, reused every interval: the flat
        # index of ``cum[s, l, backlog - 1]`` inside a raveled (S, N, A)
        # block is ``(s * N + l) * A + (backlog - 1)``.
        self._tot_base = (
            np.arange(num_rows * num_links, dtype=np.int64) * a_max
        ).reshape(num_rows, num_links)
        self._tot_idx = np.empty((num_rows, num_links), dtype=np.int64)
        self._tot_mask = np.empty((num_rows, num_links), dtype=bool)
        self._tot2 = np.empty((num_rows, num_links), dtype=dtype)
        if self._rank_k is not None:
            self._scalek = np.empty(
                (num_rows * self._rank_k, 1), dtype=scale_dtype
            )
            # Link plane for dense consumers (see link_block), built on
            # first use: the incremental DP path never reads it.
            self._link_buf: Optional[np.ndarray] = None
            self._link_prev: Optional[np.ndarray] = None

    @property
    def dtype(self) -> np.dtype:
        """The draw dtype (float32 unless sums could exceed 2**24)."""
        return np.dtype(self._dtype)

    @property
    def rank_slots(self) -> Optional[int]:
        """``K`` for the rank layout, ``None`` for the link layout."""
        return self._rank_k

    def served_rows(
        self, block: np.ndarray, links_flat: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Cumulative retry rows of the served links, in rank order.

        ``links_flat`` is ``(S, M)``: flat ``row * N + link`` indices of
        each row's served links in service order, backlogged links first.
        The rank layout needs ``M == K`` and transforms slot ``j`` with
        link ``links_flat[s, j]``'s scale (``ceil(E * scale)``, at least
        1, running sum along the arrival axis — every partial sum an exact
        small integer); the link layout gathers the already-transformed
        rows.  Writes and returns ``out`` (``(S * M, A)``, draw dtype).
        """
        A = self._a
        flat = links_flat.ravel()
        if self._rank_k is None:
            return block.reshape(-1, A).take(flat, axis=0, out=out)
        self._scale_now().ravel().take(flat, out=self._scalek.ravel())
        np.multiply(block.reshape(-1, A), self._scalek, out=out)
        np.ceil(out, out=out)
        np.maximum(out, 1.0, out=out)
        np.cumsum(out, axis=1, out=out)
        return out

    def link_block(
        self, block: np.ndarray, order: np.ndarray, backlog: np.ndarray
    ) -> np.ndarray:
        """``(S, N, A)`` link-indexed cumulative block for dense consumers.

        The link layout returns ``block`` itself.  The rank layout serves
        each row's first ``K`` backlogged links in ``order`` (link ids in
        service order) through :meth:`served_rows` and gives every other
        link the cumulative row ``1..A``.  Those links are provably
        starved: attempt ceilings never exceed ``K - 1`` and are
        non-increasing along the service order, and each served link
        either uses at least one attempt or finds the ceiling already
        reached, so after ``K - 1`` backlogged links nothing is left.
        Any row of values >= 1 is therefore exact for them.  The plane
        is reused across intervals; only the previous interval's served
        rows are reset.  Callers must not retain it across intervals.
        """
        if self._rank_k is None:
            return block
        A, K, rows = self._a, self._rank_k, self._rows_n
        if self._link_buf is None:
            self._unit_row = np.arange(1, A + 1, dtype=self._dtype)
            self._link_buf = np.empty(
                (rows, self._num_links, A), dtype=self._dtype
            )
            self._link_buf[...] = self._unit_row
            self._link_rows = np.empty((rows * K, A), dtype=self._dtype)
            self._row_off = (
                np.arange(rows, dtype=np.int64) * self._num_links
            )[:, None]
        plane = self._link_buf.reshape(-1, A)
        if self._link_prev is not None:
            plane[self._link_prev] = self._unit_row
        idle = np.take_along_axis(backlog, order, axis=1) == 0
        first = np.argsort(idle, axis=1, kind="stable")[:, :K]
        flat = np.take_along_axis(order, first, axis=1) + self._row_off
        self.served_rows(block, flat, self._link_rows)
        self._link_prev = flat.ravel()
        plane[self._link_prev] = self._link_rows
        return self._link_buf

    def totals(self, needed_cum: np.ndarray, backlog: np.ndarray) -> np.ndarray:
        """Per-link drain totals of a link-indexed block (``(S, N)``).

        Same values as :func:`drain_totals` — the running cumsum gathered
        at slot ``backlog - 1``, zero for empty buffers — via one flat
        ``np.take`` into a reused buffer (callers must not mutate or
        retain it across intervals).
        """
        np.subtract(backlog, 1, out=self._tot_idx)
        np.maximum(self._tot_idx, 0, out=self._tot_idx)
        np.add(self._tot_idx, self._tot_base, out=self._tot_idx)
        needed_cum.ravel().take(self._tot_idx.ravel(), out=self._tot2.ravel())
        np.greater(backlog, 0, out=self._tot_mask)
        np.multiply(self._tot2, self._tot_mask, out=self._tot2)
        return self._tot2


class _ChunkedChannelDraws(_ChannelLayout):
    """Pre-drawn geometric retry counts, :data:`DRAW_CHUNK` intervals deep.

    ``next(rng)`` yields one interval's block; a fresh ``DRAW_CHUNK``-deep
    block is drawn whenever the cache runs dry.  The block's layout (see
    :class:`_ChannelLayout`) is fixed at construction: with
    ``rank_slots=None`` it is the link-indexed ``(S, N, A)`` cumulative
    block, transformed eagerly at refill; with ``rank_slots=K`` it is the
    raw ``(S, K, A)`` exponentials of the at most ``K`` links that can
    transmit, transformed per interval by :meth:`served_rows`.  Kernels
    pick ``K = max_transmissions + 1`` whenever ``N > K``, so the refill
    cost scales with the attempt budget instead of the network size.

    Draws use inverse-transform sampling, ``g = max(ceil(E / lambda), 1)``
    with ``E`` standard exponential and ``lambda = -log(1 - p)``, which is
    exactly geometric(p) and fills the block roughly twice as fast as
    ``Generator.geometric`` on broadcast probabilities.  The whole block —
    draws and running cumsum — stays in float32 whenever the largest
    reachable cumulative count is below ``2**24`` (small integers are exact
    in float32), halving the memory traffic of this hot path; pathological
    reliabilities fall back to float64, where the sums stay exact below
    ``2**53``.

    With ``state`` (a :class:`~repro.phy.channel.ChannelStateRows`) the
    probabilities are no longer a fixed plane: each refill evolves the
    channel state once per buffered interval and turns each interval's
    ``(S, N)`` reliability plane into geometric scales.  Inverse-transform
    sampling makes this nearly free — the exponential stream is
    probability-independent, so dynamic channels reuse the same bulk
    generation and only swap the per-interval scale.  The static link
    layout is byte-for-byte unchanged when ``state`` is ``None``.
    """

    def __init__(
        self,
        success_probs: np.ndarray,
        num_seeds: int,
        a_max: int,
        *,
        depth: Optional[int] = None,
        state: Optional[ChannelStateRows] = None,
        rank_slots: Optional[int] = None,
    ):
        probs = np.asarray(success_probs, dtype=float)
        num_links = probs.shape[-1]
        if probs.ndim == 1:
            # One shared reliability vector: broadcast over replications.
            probs = probs[None, None, :, None]
        else:
            # Per-row reliabilities of a fused stack: (S, N) -> (1, S, N, 1).
            if probs.shape[0] != num_seeds:
                raise ValueError(
                    f"per-row reliabilities cover {probs.shape[0]} rows, "
                    f"stack has {num_seeds}"
                )
            probs = probs[None, :, :, None]
        with np.errstate(divide="ignore"):
            # p == 1 -> lambda = inf -> scale 0 -> g = max(ceil(0), 1) = 1.
            scale = -1.0 / np.log1p(-probs)
        if state is not None:
            # Dynamic planes: the dtype gate must cover the *worst* state
            # any (row, link) can visit, not the stationary plane.
            min_p = float(state.min_success_prob)
            if not 0.0 < min_p <= 1.0:
                raise ValueError(
                    f"channel-state rows report min success prob {min_p}; "
                    "geometric retry draws need 0 < p <= 1 in every state"
                )
            with np.errstate(divide="ignore"):
                worst_scale = float(-1.0 / np.log1p(-min_p))
        else:
            worst_scale = float(scale.max())
        # A float32 standard exponential never exceeds ~89 (= -log of the
        # smallest positive float32 the ziggurat can emit); 128 leaves slack.
        worst_cum = a_max * np.ceil(128.0 * worst_scale + 1.0)
        dtype = np.float32 if worst_cum < 2**24 else np.float64
        self._scale = scale.astype(dtype)
        self._depth = DRAW_CHUNK if depth is None else int(depth)
        slots = num_links if rank_slots is None else int(rank_slots)
        self._shape = (self._depth, num_seeds, slots, a_max)
        self._dtype = dtype
        self._cache: Optional[np.ndarray] = None
        self._pos = self._depth
        self._gen_buf: Optional[np.ndarray] = None
        self._state = state
        # Per-interval probability planes of one refill block, evolved at
        # refill time and turned into geometric scales in place.
        self._probs_buf = (
            np.empty((self._depth, num_seeds, num_links), dtype=np.float64)
            if state is not None
            else None
        )
        self._init_layout(
            num_seeds,
            num_links,
            a_max,
            dtype,
            rank_slots,
            np.float64 if state is not None else dtype,
        )
        if rank_slots is not None and state is None:
            self._static_plane = np.ascontiguousarray(
                np.broadcast_to(self._scale[0, :, :, 0], (num_seeds, num_links))
            )

    @property
    def dynamic(self) -> bool:
        """True when a channel-state process evolves the planes."""
        return self._state is not None

    def _scale_now(self) -> np.ndarray:
        """``(S, N)`` geometric scales of the current interval."""
        if self._state is not None:
            return self._probs_buf[self._pos - 1]
        return self._static_plane

    def next(
        self,
        rng: np.random.Generator,
        state_rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        if self._pos >= self._depth:
            if perf.counters.enabled:
                t0 = perf.clock()
            allocs = 0
            # Refill into one persistent buffer — the previous chunk is
            # fully consumed by the time we get here, and the generated
            # stream does not depend on the destination.
            if self._gen_buf is None:
                self._gen_buf = np.empty(self._shape, dtype=self._dtype)
                allocs = 1
            draws = self._gen_buf
            rng.standard_exponential(dtype=self._dtype, out=draws)
            p = self._probs_buf
            if p is not None:
                # Evolve the state one step per buffered interval and
                # turn each interval's (S, N) probability plane into
                # geometric scales, all in place in the plane buffer:
                # p -> -1 / log1p(-p), with p == 1 -> scale 0 as in
                # the static precompute above.
                self._state.evolve_block(self._depth, state_rng, out=p)
                np.negative(p, out=p)
                np.log1p(p, out=p)
                with np.errstate(divide="ignore"):
                    np.divide(-1.0, p, out=p)
            if self._rank_k is None:
                # Link layout: transform the whole block now.
                if p is not None:
                    np.multiply(
                        draws,
                        p.reshape(self._depth, *self._shape[1:3], 1),
                        out=draws,
                    )
                else:
                    np.multiply(draws, self._scale, out=draws)
                np.ceil(draws, out=draws)
                np.maximum(draws, 1.0, out=draws)
                # Running cumsum along the arrival axis, in place.  The
                # axis is tiny (A slots), so A-1 whole-cube slice adds
                # beat ``np.cumsum``'s short-segment scan by ~5x at this
                # shape — identical values, every partial sum an exact
                # small integer.
                flat = draws.reshape(-1, self._shape[-1])
                for a in range(1, self._shape[-1]):
                    np.add(flat[:, a], flat[:, a - 1], out=flat[:, a])
            self._cache = draws
            self._pos = 0
            if perf.counters.enabled:
                perf.counters.add(
                    "draws.channel_refill", perf.clock() - t0, allocs
                )
        block = self._cache[self._pos]
        self._pos += 1
        return block


class _ChunkedUniforms:
    """Pre-drawn ``random()`` blocks of a fixed per-interval shape.

    Each chunk is one ``Generator.random`` call, so the stream's values
    per interval are independent of ``depth``.  The chunk buffer is
    allocated once and refilled in place (``Generator.random(out=...)``
    produces the same values as a fresh allocation), so steady-state
    refills are allocation-free.
    """

    def __init__(self, *per_interval_shape: int, depth: Optional[int] = None):
        self._depth = DRAW_CHUNK if depth is None else int(depth)
        self._shape = (self._depth, *per_interval_shape)
        self._cache: Optional[np.ndarray] = None
        self._pos = self._depth

    def _refill(self, rng: np.random.Generator) -> int:
        """Fill the persistent chunk buffer; returns allocations made."""
        allocs = 0
        if self._cache is None:
            self._cache = np.empty(self._shape)
            allocs = 1
        rng.random(out=self._cache)
        return allocs

    def next(self, rng: np.random.Generator) -> np.ndarray:
        if self._pos >= self._depth:
            if perf.counters.enabled:
                t0 = perf.clock()
            allocs = self._refill(rng)
            self._pos = 0
            if perf.counters.enabled:
                perf.counters.add(
                    "draws.uniform_refill", perf.clock() - t0, allocs
                )
        block = self._cache[self._pos]
        self._pos += 1
        return block


class _ChunkedIntegers:
    """Pre-drawn ``integers(low, high)`` blocks.

    The single-pair DP candidate index is uniform on ``{1, .., n-1}`` and
    is drawn directly as an integer block.
    """

    def __init__(
        self,
        low: int,
        high: int,
        *per_interval_shape: int,
        depth: Optional[int] = None,
    ):
        self._low = int(low)
        self._high = int(high)
        self._depth = DRAW_CHUNK if depth is None else int(depth)
        self._shape = (self._depth, *per_interval_shape)
        self._cache: Optional[np.ndarray] = None
        self._pos = self._depth

    def next(self, rng: np.random.Generator) -> np.ndarray:
        if self._pos >= self._depth:
            if perf.counters.enabled:
                t0 = perf.clock()
            # ``Generator.integers`` has no ``out=`` form; one block
            # allocation per chunk is already O(1) per chunk.
            self._cache = rng.integers(
                self._low, self._high, size=self._shape, dtype=np.int64
            )
            self._pos = 0
            if perf.counters.enabled:
                perf.counters.add(
                    "draws.uniform_refill", perf.clock() - t0, 1
                )
        block = self._cache[self._pos]
        self._pos += 1
        return block


class BatchPolicyKernel:
    """Base class: one policy family, vectorized across replications.

    Subclasses implement :meth:`_run_interval_ws` (the ``rng="free"``
    workspace path); ``rng="sync"`` binds drive per-seed scalar clones
    through :meth:`_run_interval_sync` instead.
    """

    def __init__(self, policy: IntervalMac):
        self.policy = policy
        self.name = policy.name
        self._spec: Optional[NetworkSpec] = None
        self._stack: Optional[SpecStack] = None
        self._row_policies: Optional[List[IntervalMac]] = None
        self._clones: List[IntervalMac] = []
        self._dp_state = "dense"

    @property
    def spec(self) -> NetworkSpec:
        """Row 0's spec (the shared spec for homogeneous stacks)."""
        if self._spec is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind()")
        return self._spec

    @property
    def stack(self) -> Optional[SpecStack]:
        """The per-row spec stack, or ``None`` for a single shared spec."""
        return self._stack

    @property
    def rng_mode(self) -> str:
        """The bound draw discipline (:data:`~repro.sim.rng.RNG_MODES`)."""
        return self._rng_mode

    @property
    def dp_state(self) -> str:
        """The priority-state path the bind resolved: ``"dense"`` or
        ``"incremental"``.

        A read-only report: DP-family kernels pick the path themselves
        (see :meth:`BatchDPKernel._on_bind`); other families always
        report ``"dense"``.
        """
        return self._dp_state

    def bind(
        self,
        spec: "NetworkSpec | SpecStack | Sequence[NetworkSpec]",
        num_seeds: int,
        row_policies: Optional[Sequence[IntervalMac]] = None,
        *,
        rng: Optional[str] = None,
        backend: Optional[str] = None,
        lite: bool = False,
    ) -> None:
        """Attach to a network and reset all per-replication state.

        ``spec`` is either one shared :class:`NetworkSpec` (every
        replication simulates the same network — the plain batch engine)
        or a :class:`SpecStack` / sequence of specs, one per replication
        row (the grid-fused engine).  ``row_policies`` optionally supplies
        one policy instance per row; they must match the kernel's policy
        family and configuration except where the kernel supports per-row
        parameters (the DP kernel's swap-bias constants).  Sync mode
        clones *those* per row, so heterogeneous rows stay bit-identical
        to their scalar counterparts.

        ``rng`` is the draw discipline (:data:`~repro.sim.rng.RNG_MODES`;
        ``None`` means ``"free"``), and every mode-dependent choice of the
        kernel derives from it.  ``"free"`` runs the vectorized workspace
        path on demand-sized blocks from the bundle's free substreams;
        ``"sync"`` drives one scalar policy clone per seed and is
        bit-identical to the scalar engine.

        ``backend`` picks the interval resolver (:data:`KERNEL_BACKENDS`;
        ``None`` resolves from the environment) — irrelevant in sync mode,
        which always drives the scalar clones.  ``lite=True`` lets the
        kernel skip materializing per-link attempts and priorities
        (``BatchIntervalOutcome`` carries ``None`` instead); only valid
        for stats-only consumers that never read them, and ignored in
        sync mode.
        """
        if isinstance(spec, SpecStack):
            stack: Optional[SpecStack] = spec
        elif isinstance(spec, NetworkSpec):
            stack = None
        else:
            stack = SpecStack(spec)
        if stack is not None and stack.num_rows != int(num_seeds):
            raise ValueError(
                f"spec stack has {stack.num_rows} rows but the bundle has "
                f"{num_seeds} seeds; a fused stack needs one seed per row"
            )
        first = stack.specs[0] if stack is not None else spec
        if row_policies is not None:
            row_policies = list(row_policies)
            if len(row_policies) != int(num_seeds):
                raise ValueError(
                    f"{len(row_policies)} row policies for {num_seeds} rows"
                )
            for i, p in enumerate(row_policies):
                # Registry-backed family check: rows may mix concrete
                # classes served by the same kernel (DP and DB-DP, ELDF
                # and LDF); per-row *parameters* are vetted by each
                # kernel's _on_bind.
                if not registry.same_kernel_family(p, self.policy):
                    raise TypeError(
                        f"row policy {i} is {type(p).__name__}, kernel "
                        f"serves {type(self.policy).__name__}"
                    )
        self._spec = first
        self._stack = stack
        self._row_policies = row_policies
        self.num_seeds = int(num_seeds)
        timing = first.timing
        self._interval_us = timing.interval_us
        self._data_air = timing.data_airtime_us
        self._empty_air = timing.empty_airtime_us
        self._slot = timing.backoff_slot_us
        self._budget = timing.max_transmissions
        if stack is not None:
            self._a_max = stack.max_arrivals_per_link
            self._reliabilities = stack.reliability_matrix
        else:
            self._a_max = max(1, first.arrivals.max_per_link)
            self._reliabilities = first.reliabilities
        self._backend = resolve_backend(backend)
        self._rng_mode = normalize_rng_mode(rng)
        sync = self._rng_mode == "sync"
        chan0 = first.channel
        if not sync:
            # Batched draw pipelines need i.i.d.-within-interval attempts
            # (the geometric pre-draw) plus, for stateful channels, a
            # vectorized per-row state process.  Sync mode drives the
            # scalar clones and supports any channel.
            if not chan0.has_state and not chan0.iid_within_interval:
                raise TypeError(
                    f"{type(chan0).__name__} attempts are not i.i.d. within "
                    "an interval, so the batch engine cannot pre-draw its "
                    "retry counts; use engine='scalar' or sync_rng=True"
                )
            if chan0.has_state and not chan0.supports_batch_state:
                raise TypeError(
                    f"this {type(chan0).__name__} declines batched "
                    "channel state (a state with zero success "
                    "probability breaks geometric retry draws), so the "
                    "batch engine cannot run it; use engine='scalar' "
                    "or sync_rng=True"
                )
        self._use_ws = not sync
        self._use_c = self._backend == "c" and not sync
        self._lite = bool(lite) and not sync
        self._depth = DRAW_CHUNK
        if sync or not chan0.has_state:
            chan_state = None
        else:
            chan_state = type(chan0).stack_rows(
                stack.channels if stack is not None else (chan0,) * self.num_seeds
            )
        self._chan_state_uses_rng = (
            chan_state is not None and chan_state.uses_rng
        )
        # Only the first ``max_transmissions + 1`` backlogged links in
        # service order can be touched in one interval; wider networks
        # draw retries for those rank slots only (see _ChannelLayout).
        rank_k = self._budget + 1
        self._channel_draws = _ChunkedChannelDraws(
            self._reliabilities,
            self.num_seeds,
            self._a_max,
            depth=self._depth,
            state=chan_state,
            rank_slots=rank_k if first.num_links > rank_k else None,
        )
        self._rows = np.arange(self.num_seeds)[:, None]
        self._sync_channels: Optional[list] = None
        self._clones = []
        if sync:
            # One scalar clone per seed: the sync path drives the *scalar*
            # policy with scalar-identical streams, so its outcomes are
            # bit-identical to the scalar engine by construction.  Fused
            # stacks clone each row's own policy and bind each row's own
            # spec.
            sources = (
                row_policies
                if row_policies is not None
                else [self.policy] * self.num_seeds
            )
            row_specs = (
                stack.specs if stack is not None else (first,) * self.num_seeds
            )
            if chan0.has_state:
                # Rows may share one channel object (broadcast stacks);
                # each clone needs its own mutable state, reset exactly
                # like the scalar engine resets at construction.
                row_specs = tuple(
                    dataclasses.replace(rs, channel=copy.deepcopy(rs.channel))
                    for rs in row_specs
                )
                for rs in row_specs:
                    rs.channel.reset_state()
                self._sync_channels = [rs.channel for rs in row_specs]
            self._clones = [copy.deepcopy(p) for p in sources]
            for clone, row_spec in zip(self._clones, row_specs):
                clone.bind(row_spec)
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses to (re)initialize batched state."""

    def _chan_rng(
        self, rng: BatchRngBundle
    ) -> Optional[np.random.Generator]:
        """The channel-state evolution stream, or ``None`` if stateless.

        A dedicated stream keeps the retry-draw stream untouched, so the
        retry draw schedule is the same with or without channel state.
        """
        if getattr(self, "_chan_state_uses_rng", False):
            return rng.free_stream("channel-state")
        return None

    def run_interval(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """Advance one interval for every replication under the bound
        draw discipline."""
        if self._rng_mode == "sync":
            return self._run_interval_sync(k, arrivals, positive_debts, rng)
        return self._run_interval_ws(k, arrivals, positive_debts, rng)

    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """Advance one interval on the preallocated workspace."""
        raise NotImplementedError

    # -- workspace plumbing shared by the concrete kernels -----------------
    def _bind_c(self, entry: str, dtypes, per_call: dict, **fields):
        """Bind one compiled row walk (:class:`repro.sim.ckernels.Call`)
        to this kernel's workspace arrays and scalars."""
        from . import ckernels  # ctypes stays out of import time

        return ckernels.Call(entry, dtypes, per_call, **fields)

    def _alloc_common_ws(self) -> SimpleNamespace:
        """Buffers every workspace kernel needs: flat-index planes for the
        gather/scatter steps and the ordered-service solver's scratch.

        All buffers are C-contiguous and owned, so ``.ravel()`` on them is
        a view — flat ``np.take``/fancy-scatter on raveled planes is the
        cheapest gather/scatter at this array size.
        """
        S, n = self.num_seeds, self.spec.num_links
        workf = self._channel_draws.dtype
        w = SimpleNamespace()
        w.workf = workf
        # Row offsets (S, 1) turn (S, n) link/position ids into flat
        # indices of a raveled (S, n) plane.
        w.row_off = (np.arange(S, dtype=np.int64) * n)[:, None]
        w.link_plane = np.tile(np.arange(n, dtype=np.int64), (S, 1))
        # Strict-upper-triangular ones: ``x @ mexcl`` is the exclusive
        # prefix sum of ``x`` along axis 1.  One small BLAS matmul beats
        # ``np.cumsum``'s short-segment scan on (S, n) planes, and stays
        # bit-exact (every product and partial sum is an exact small
        # integer, so the summation order cannot matter).
        w.mexcl = np.triu(np.ones((n, n), dtype=workf), 1)
        # Ordered-service solver scratch.
        w.oflat = np.empty((S, n), dtype=np.int64)  # order + row_off
        w.tot_pos = np.empty((S, n), dtype=workf)
        w.cum = np.empty((S, n), dtype=workf)
        w.budget = np.empty((S, n), dtype=workf)
        w.att_pos = np.empty((S, n), dtype=workf)
        w.budget_link = np.empty((S, n), dtype=workf)
        A = self._a_max
        w.serve3f = np.empty((S, n, A), dtype=workf)
        w.ones_af = np.ones(A, dtype=workf)
        w.countf = np.empty((S, n), dtype=workf)
        w.delivered = np.empty((S, n), dtype=np.int64)
        w.attempts_f = np.empty((S, n), dtype=workf)
        w.attempts_i = np.empty((S, n), dtype=np.int64)
        w.busy = np.empty(S, dtype=np.float64)
        # Row sums as one matvec against ones: a BLAS dot of n exact
        # small integers, bit-equal to ``np.sum`` but without the
        # reduction's per-call overhead.
        w.ones_wf = np.ones(n, dtype=workf)
        w.busyf = np.empty(S, dtype=workf)
        # Shared never-written zero planes for outcome fields the kernel
        # family never produces (safe to alias across intervals).
        w.zerof = np.zeros(S, dtype=np.float64)
        w.zeroi = np.zeros(S, dtype=np.int64)
        w.zeroi2 = np.zeros((S, n), dtype=np.int64)
        return w

    def _solve_ordered_ws(
        self,
        w: SimpleNamespace,
        order: np.ndarray,
        backlog: np.ndarray,
        needed: np.ndarray,
        caps_f: np.ndarray,
    ) -> None:
        """Resolve sequential in-order service for all replications at once.

        Inputs: ``order`` (S, n) int64 link ids in service order,
        ``backlog`` (S, n) int64 packets buffered per link, ``needed`` the
        interval's (S, n, A) block of cumulative attempts needed to
        deliver each link's first ``t+1`` packets, and ``caps_f`` the
        per-position absolute attempt ceilings in the draw dtype.
        ``caps_f`` **must be non-increasing along axis 1** (true for both
        constant attempt budgets and backoff-staircase budgets, since
        backoffs grow along the service order).  ``w.oflat`` must already
        hold ``order + w.row_off``.  Results land in ``w.delivered``
        (int64, by link) and ``w.att_pos`` (draw dtype, by position).

        Why no loop is needed: with ``G`` the cumulative attempts *needed*
        by the first ``j`` links, position ``j`` receives ``clip(caps_j -
        G_{j-1}, 0, needed_j)`` attempts.  This matches the sequential
        recursion because attempts-used equals attempts-needed for every
        link until the first truncated link, and after a truncation the
        non-increasing ceiling starves all later links — the same "budget
        exhausted" outcome the scalar engine produces.  Packet ``t`` of
        the link in position ``j`` is delivered iff ``G_{j-1} +
        needed_cum[t] <= caps_j``.  Every intermediate is an exact small
        integer, so the result is independent of summation order
        (``tests/sim/test_batch_kernels.py`` checks it against a naive
        per-link loop).
        """
        tot = self._channel_draws.totals(needed, backlog)
        tot.ravel().take(w.oflat.ravel(), out=w.tot_pos.ravel())
        np.matmul(w.tot_pos, w.mexcl, out=w.cum)  # attempts needed before
        np.subtract(caps_f, w.cum, out=w.budget)
        # clip(budget, 0, tot_pos) with tot_pos >= 0.
        np.minimum(w.budget, w.tot_pos, out=w.att_pos)
        np.maximum(w.att_pos, 0, out=w.att_pos)
        w.budget_link.ravel()[w.oflat.ravel()] = w.budget.ravel()
        # A packet is delivered iff its running attempt total fits the
        # link's budget: delivered[s, l] counts slots a < backlog with
        # needed_cum[s, l, a] <= budget_link[s, l].  The cumsums are
        # strictly increasing (every draw >= 1), so that prefix count is
        # ``min(count over the whole axis, backlog)`` — the whole-axis
        # count lands as one small matvec, far cheaper than a bool
        # ``sum(axis=2)`` reduction, and every value stays an exact
        # small integer.  Full drains count exactly backlog; exhausted
        # budgets (<= 0) count zero.
        A = needed.shape[-1]
        np.less_equal(
            needed, w.budget_link[:, :, None], out=w.serve3f, casting="unsafe"
        )
        np.matmul(w.serve3f.reshape(-1, A), w.ones_af, out=w.countf.ravel())
        np.copyto(w.delivered, w.countf, casting="unsafe")
        np.minimum(w.delivered, backlog, out=w.delivered)

    def _run_interval_sync(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """Advance one interval via per-seed scalar clones (exact mode)."""
        S, n = arrivals.shape
        deliveries = np.zeros((S, n), dtype=np.int64)
        attempts = np.zeros((S, n), dtype=np.int64)
        busy = np.zeros(S)
        overhead = np.zeros(S)
        collisions = np.zeros(S, dtype=np.int64)
        priorities = np.zeros((S, n), dtype=np.int64)
        if self._sync_channels is not None:
            # Mirror IntervalSimulator.step(): evolve each row's channel
            # once per interval from that seed's own "channel-state"
            # stream, so sync rows stay bit-identical to scalar runs.
            for ch, bundle in zip(self._sync_channels, rng.bundles):
                ch.begin_interval(bundle.stream("channel-state"))
        for s, (clone, bundle) in enumerate(zip(self._clones, rng.bundles)):
            outcome = clone.run_interval(
                k, arrivals[s], positive_debts[s], bundle
            )
            deliveries[s] = outcome.deliveries
            attempts[s] = outcome.attempts
            busy[s] = outcome.busy_time_us
            overhead[s] = outcome.overhead_time_us
            collisions[s] = outcome.collisions
            if outcome.priorities is not None:
                priorities[s] = outcome.priorities
        return BatchIntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=busy,
            overhead_time_us=overhead,
            collisions=collisions,
            priorities=priorities,
        )


class _BatchOrderedServeKernel(BatchPolicyKernel):
    """Shared machinery for "serve links in some order until time runs out"
    policies (ELDF/LDF, round-robin, static priority): constant attempt
    budget, no backoff slots, no empty packets."""

    def _on_bind(self) -> None:
        if self._use_ws:
            w = self._alloc_common_ws()
            S, n = self.num_seeds, self.spec.num_links
            w.caps_f = np.full((S, n), self._budget, dtype=w.workf)
            w.rank_plane = np.tile(np.arange(1, n + 1, dtype=np.int64), (S, 1))
            w.prios = np.empty((S, n), dtype=np.int64)
            self._ws = w
            if self._use_c:
                self._c_serve = self._bind_c(
                    "serve_rows", (w.workf,),
                    dict(
                        order=(np.int64, (S, n)),
                        backlog=(np.int64, (S, n)),
                        needed=(w.workf, (S, n, self._a_max)),
                    ),
                    S=S, N=n, A=self._a_max, cap=int(self._budget),
                    air=self._data_air, delivered=w.delivered,
                    att_pos=w.att_pos, busy=w.busy,
                )

    def _service_orders(
        self, k: int, positive_debts: np.ndarray
    ) -> np.ndarray:
        """Return ``(S, N)`` link ids in service order for this interval."""
        raise NotImplementedError

    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        w = self._ws
        counters = perf.counters
        if counters.enabled:
            t0 = perf.clock()
        order = self._service_orders(k, positive_debts)
        draws = self._channel_draws
        block = draws.next(rng.free_stream("channel"), self._chan_rng(rng))
        lite = self._lite
        if not arrivals.any():
            # Fast path: nothing buffered anywhere in the stack — nobody
            # transmits (the draws above were still consumed, keeping the
            # stream aligned with the other backends).
            w.att_pos.fill(0)
            w.delivered.fill(0)
            w.busy.fill(0.0)
        else:
            needed = draws.link_block(block, order, arrivals)
            if self._use_c:
                self._c_serve(order=order, backlog=arrivals, needed=needed)
            else:
                np.add(order, w.row_off, out=w.oflat)
                self._solve_ordered_ws(w, order, arrivals, needed, w.caps_f)
                np.matmul(w.att_pos, w.ones_wf, out=w.busyf)
                np.copyto(w.busy, w.busyf)
                np.multiply(w.busy, self._data_air, out=w.busy)
        if not lite:
            np.add(order, w.row_off, out=w.oflat)
            w.attempts_f.ravel()[w.oflat.ravel()] = w.att_pos.ravel()
            np.copyto(w.attempts_i, w.attempts_f, casting="unsafe")
            w.prios.ravel()[w.oflat.ravel()] = w.rank_plane.ravel()
        if counters.enabled:
            counters.add("kernel.serve.interval", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=w.delivered if lite else w.delivered.copy(),
            attempts=None if lite else w.attempts_i.copy(),
            busy_time_us=w.busy if lite else w.busy.copy(),
            overhead_time_us=w.zerof,
            collisions=w.zeroi,
            priorities=None if lite else w.prios.copy(),
        )


class BatchELDFKernel(_BatchOrderedServeKernel):
    """ELDF/LDF: stable argsort on ``f(d^+) p`` descending, per row."""

    def __init__(self, policy: ELDFPolicy):
        super().__init__(policy)
        self.influence = policy.influence

    def _on_bind(self) -> None:
        super()._on_bind()
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if p.influence != self.influence:
                    raise TypeError(
                        f"row {i} uses influence {p.influence!r}, the "
                        f"kernel uses {self.influence!r}; ELDF rows cannot "
                        "mix influence functions"
                    )
        if self._use_ws:
            # Persistent (S, N) weight plane: f(d+) * p is evaluated into
            # this buffer every interval (influence functions accept
            # ``out=``), so the serve-order stage allocates nothing but
            # argsort's own output.
            self._ws.eldf_w = np.empty(
                (self.num_seeds, self.spec.num_links), dtype=np.float64
            )

    def _service_orders(self, k: int, positive_debts: np.ndarray) -> np.ndarray:
        # _reliabilities is (N,) or, for fused stacks, (S, N); either
        # broadcasts against the (S, N) debt weights.
        weights = self.influence.value_array(
            positive_debts, out=self._ws.eldf_w
        )
        np.multiply(weights, self._reliabilities, out=weights)
        if (
            weights.dtype == np.float64
            and weights.flags.c_contiguous
            and weights.min() >= 0.0
        ):
            # Same permutation, sorted as integers: non-negative float64
            # bit patterns order exactly like their values, so negating
            # the int64 view and stable-sorting equals the stable argsort
            # of ``-weights`` — and integer radix sort is measurably
            # faster than float mergesort at these shapes.  (Exotic
            # influence functions yielding negative weights fall through
            # to the float sort below.)
            keys = weights.view(np.int64)
            np.negative(keys, out=keys)
            return np.argsort(keys, axis=1, kind="stable")
        # Stable argsort of -weights: ties keep lowest link first, exactly
        # like the scalar policy's tie-break.
        return np.argsort(-weights, axis=1, kind="stable")


class BatchRoundRobinKernel(_BatchOrderedServeKernel):
    """Rotating strict priority; the rotation is deterministic, so all
    replications share one order per interval."""

    def _on_bind(self) -> None:
        super()._on_bind()
        self._offset = 0
        n = self.spec.num_links
        # All n rotations, precomputed: rotation r is row r.
        base = np.arange(n, dtype=np.int64)
        self._rotations = (base[None, :] + base[:, None]) % n

    def _service_orders(self, k: int, positive_debts: np.ndarray) -> np.ndarray:
        row = self._rotations[self._offset]
        self._offset = (self._offset + 1) % self.spec.num_links
        return np.broadcast_to(row, (self.num_seeds, row.size))


class BatchStaticPriorityKernel(_BatchOrderedServeKernel):
    """One fixed order for every interval and replication."""

    def __init__(self, policy: StaticPriorityPolicy):
        super().__init__(policy)
        self._configured = policy._configured

    def _on_bind(self) -> None:
        super()._on_bind()
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if p._configured != self._configured:
                    raise TypeError(
                        f"row {i} configures a different priority vector; "
                        "static-priority rows must share one ordering"
                    )
        n = self.spec.num_links
        if self._configured is None:
            sigma = tuple(range(1, n + 1))
        else:
            if len(self._configured) != n:
                raise ValueError(
                    f"priority vector covers {len(self._configured)} links, "
                    f"network has {n}"
                )
            sigma = validate_priority_vector(self._configured)
        self._order_row = np.asarray(priority_to_link_order(sigma), dtype=np.int64)

    def _service_orders(self, k: int, positive_debts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(
            self._order_row, (self.num_seeds, self._order_row.size)
        )


class BatchDPKernel(BatchPolicyKernel):
    """Algorithm 2 (and DB-DP via its Glauber bias), vectorized.

    Per interval and replication: candidate pairs from the shared stream,
    biased coins, collision-free backoffs, the analytic interval timeline
    (staircase attempt ceilings set by backoff slots and empty-packet
    airtime), and the swap handshake of Eqs. (5)-(8).

    Empty priority-claiming packets couple the timeline: whether one fits
    depends on the airtime used before it, which depends on earlier
    service.  The kernel assumes every wanted empty packet fits (by far
    the common case), solves the whole stack in closed form, then
    *verifies* the assumption per replication; rows where it fails —
    end-of-interval pressure near overload — are re-run with an exact
    sequential sweep over that row's pre-drawn retry counts, so the result
    is identical to sequential evaluation in all cases.
    """

    #: Test hook: route *every* replication through the exact sequential
    #: sweep instead of only assumption-violating ones.  Draws are shared,
    #: so the outcome must be bit-identical to the vectorized path — the
    #: test-suite uses this to prove the closed-form timeline correct.
    _force_sequential = False

    #: Test hook: bind the dense reference path even where the kernel
    #: would pick the incremental one, so tests and benchmarks can
    #: compare the two bit for bit on the same draws.
    _force_dense = False

    def __init__(self, policy: DPProtocol):
        super().__init__(policy)
        self.bias = policy.bias
        self.num_pairs = policy.num_pairs
        self._initial = policy._initial
        self._active_bias = policy.bias

    def _on_bind(self) -> None:
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if p.num_pairs != self.num_pairs:
                    raise TypeError(
                        f"row {i} uses {p.num_pairs} swap pairs, the kernel "
                        f"uses {self.num_pairs}; fused DP rows must agree"
                    )
                if p._initial != self._initial:
                    raise TypeError(
                        f"row {i} configures different initial priorities; "
                        "fused DP rows must share sigma(0)"
                    )
            # Per-row swap-bias constants (e.g. Glauber R) collapse into
            # one vectorized bias; incompatible mixes raise TypeError so
            # callers fall back to per-cell simulation.
            self._active_bias = stack_swap_biases(
                [p.bias for p in self._row_policies]
            )
        else:
            self._active_bias = self.bias
        n = self.spec.num_links
        if self._initial is not None:
            if len(self._initial) != n:
                raise ValueError(
                    f"initial priorities cover {len(self._initial)} links, "
                    f"network has {n}"
                )
            row = np.asarray(self._initial, dtype=np.int64)
        else:
            row = np.arange(1, n + 1, dtype=np.int64)
        self._sigma = np.tile(row, (self.num_seeds, 1))
        if n >= 2 and self.num_pairs > max_swap_pairs(n):
            raise ValueError(
                f"{self.num_pairs} pairs would make the priority chain "
                f"reducible on {n} links; the bound is {max_swap_pairs(n)}"
            )
        P = self.num_pairs if n >= 2 else 0
        self._coin_draws = _ChunkedUniforms(
            self.num_seeds, 2 * P, depth=self._depth
        )
        # Candidate draws: the single-pair index is one integer per row;
        # multi-pair subsets come from (S, M) uniform slices (see
        # _draw_candidates).
        self._cand_ints: Optional[_ChunkedIntegers] = None
        self._cand_draws: Optional[_ChunkedUniforms] = None
        if P == 1:
            self._cand_ints = _ChunkedIntegers(
                1, n, self.num_seeds, depth=self._depth
            )
        elif P > 1:
            self._cand_draws = _ChunkedUniforms(
                self.num_seeds, (n - 1) - (P - 1), depth=self._depth
            )
        self._pair_idx = np.arange(P, dtype=np.int64)[None, :]
        # With integer-valued timing parameters, every dead time is an
        # exact integer and ``floor(x / air)`` provably equals
        # ``floor_divide(x, air)``: the true quotient is either an exact
        # integer (exactly representable, correctly rounded) or at least
        # ``1 / air`` away from one — far beyond the division's half-ulp
        # error.  ``np.divide`` + ``np.floor`` is ~10x faster than
        # ``np.floor_divide``'s divmod loop, so take it when safe.
        # The interval bound additionally keeps the quotient's float32
        # rounding error (q * 2**-24 <= T/air * 2**-24) below that 1/air
        # margin, so the caps divide may land directly in the float32
        # solver dtype.
        self._exact_div = self._interval_us < 2**24 and all(
            float(v).is_integer()
            for v in (
                self._interval_us,
                self._data_air,
                self._slot,
                self._empty_air,
            )
        )
        # The priority-state path is the kernel's own choice.  The
        # incremental sparse path covers the paper's protocol — one
        # candidate pair on the workspace path — and only pays off on a
        # sparse serve set: with n <= max_transmissions + 1 every link
        # fits in the interval's transmission budget, the timeline visits
        # all n positions either way and serve-set selection is pure
        # overhead.  Both paths read the same rank-layout channel block
        # and are bit-identical.
        self._use_inc = (
            self._use_ws
            and P == 1
            and n > self._budget + 1
            and not self._force_dense
        )
        self._dp_state = "incremental" if self._use_inc else "dense"
        if self._use_ws:
            if self._use_inc:
                self._alloc_dp_ws_inc()
            else:
                self._alloc_dp_ws(P)

    def _alloc_dp_ws(self, P: int) -> None:
        """Workspace buffers for the in-place DP interval (see
        :meth:`_run_interval_ws`)."""
        w = self._alloc_common_ws()
        S, n = self.num_seeds, self.spec.num_links
        w.caps_f = np.empty((S, n), dtype=w.workf)
        # Link/position-space integer and boolean scratch.
        w.tmpi = np.empty((S, n), dtype=np.int64)
        w.tmpi2 = np.empty((S, n), dtype=np.int64)
        w.inv = np.empty((S, n), dtype=np.int64)
        w.order = np.empty((S, n), dtype=np.int64)
        w.backoff = np.empty((S, n), dtype=np.int64)
        w.bpos = np.empty((S, n), dtype=np.int64)
        w.posn = np.empty((S, n), dtype=np.int64)
        # Single-pair non-candidate backoffs by position have a closed
        # form ``j + 2 * (j > c)``; precomputing all n candidate rows
        # turns the per-interval build into one row gather.
        col = np.arange(n, dtype=np.int64)
        w.bpos_tab = col[None, :] + 2 * (col[None, :] > col[:, None])
        w.row_off_m1 = w.row_off - 1
        w.we = np.zeros((S, n), dtype=bool)
        w.iep = np.empty((S, n), dtype=bool)
        w.fits = np.empty((S, n), dtype=bool)
        w.mm = np.empty((S, n), dtype=bool)
        w.tx = np.empty((S, n), dtype=bool)
        # Timeline floats.  With integer-valued timings every timeline
        # quantity (dead time, start, caps, attempt prefix) is an exact
        # integer bounded by the interval length, so whenever
        # ``interval_us < 2**24`` the whole timeline fits float32 exactly
        # and the divide+floor caps stay provably exact (same 1/air
        # margin argument as ``_exact_div``, with the 2**-24 relative
        # error of float32).  Otherwise fall back to float64.
        tlf = w.workf if self._exact_div else np.float64
        w.iepf = np.empty((S, n), dtype=tlf)
        w.ebf = np.empty((S, n), dtype=tlf)
        w.mexcl_tl = (
            w.mexcl
            if tlf == w.workf
            else np.triu(np.ones((n, n), dtype=np.float64), 1)
        )
        w.dead = np.empty((S, n), dtype=tlf)
        w.tmpf = np.empty((S, n), dtype=tlf)
        w.attb = np.empty((S, n), dtype=tlf)
        w.start = np.empty((S, n), dtype=tlf)
        # Per-row reductions.
        w.idle = np.empty(S, dtype=np.int64)
        w.ne = np.empty(S, dtype=np.int64)
        w.eus = np.empty(S, dtype=np.float64)
        w.ovh = np.empty(S, dtype=np.float64)
        # Pair-space scratch (contiguous halves: ``w.xi[:, :P]`` views are
        # ufunc *inputs* only, never raveled out-targets).
        w.cands = np.empty((S, max(P, 1)), dtype=np.int64)[:, :P]
        w.down = np.empty((S, P), dtype=np.int64)
        w.up = np.empty((S, P), dtype=np.int64)
        w.pi = np.empty((S, P), dtype=np.int64)
        w.pi2 = np.empty((S, P), dtype=np.int64)
        w.vs = np.empty((S, P), dtype=np.int64)
        w.vs2 = np.empty((S, P), dtype=np.int64)
        w.bmin = np.empty((S, P), dtype=np.int64)
        w.bmax = np.empty((S, P), dtype=np.int64)
        w.cl = np.empty((S, 2 * P), dtype=np.int64)
        w.clflat = np.empty((S, 2 * P), dtype=np.int64)
        w.ac = np.empty((S, 2 * P), dtype=np.int64)
        w.acb = np.empty((S, 2 * P), dtype=bool)
        w.relc = np.empty((S, 2 * P), dtype=np.float64)
        w.dc = np.empty((S, 2 * P), dtype=np.float64)
        w.xib = np.empty((S, 2 * P), dtype=bool)
        w.xi = np.empty((S, 2 * P), dtype=np.int64)
        w.cd = np.empty((S, P), dtype=bool)
        w.cu = np.empty((S, P), dtype=bool)
        w.cc = np.empty((S, P), dtype=bool)
        w.empty_pairs = np.zeros((S, 0), dtype=np.int64)
        w.rel_flat = np.ascontiguousarray(
            np.broadcast_to(self._reliabilities, (S, n)), dtype=np.float64
        ).ravel()
        if perf.counters.enabled:
            perf.counters.alloc("kernel.dp.bind_workspace", 50)
        self._ws = w
        if self._use_c:
            self._c_timeline = self._bind_c(
                "timeline_rows", (w.workf, tlf),
                dict(
                    order=(np.int64, (S, n)),
                    backlog=(np.int64, (S, n)),
                    needed=(w.workf, (S, n, self._a_max)),
                ),
                S=S, N=n, A=self._a_max, exact=self._exact_div,
                T=self._interval_us, air=self._data_air, slot=self._slot,
                empty_air=self._empty_air, backoff=w.bpos, is_empty=w.iep,
                delivered=w.delivered, att_pos=w.att_pos, tx=w.tx,
                start=w.start, busy=w.busy, ovh=w.ovh,
            )

    def _alloc_dp_ws_inc(self) -> None:
        """Workspace for the sparse incremental DP path (see
        :meth:`_run_interval_inc`).

        Deliberately *not* built on :meth:`_alloc_common_ws`: the dense
        solver's (n, n) prefix-sum mask and (S, n, A) compare cube are
        exactly the quadratic footprint this path exists to avoid.  The
        block scratch here is ``(S, K)`` with ``K = max_transmissions +
        1`` — the largest number of links that can possibly receive
        attempts in one interval plus the marginal starved one, fewer
        than ``n`` whenever :meth:`_on_bind` picks this path — so memory
        and per-interval math scale with the attempt budget, not the
        network size.  The one exception is the serve-set scan's scratch
        (:meth:`_select_serve_set`), which scales with the priority-order
        prefix the scan needs and grows on demand; nothing here is an
        ``(S, n)`` plane except the persistent inverse permutation and
        the sparse outcome planes.
        """
        S, n = self.num_seeds, self.spec.num_links
        A = self._a_max
        workf = self._channel_draws.dtype
        tlf = workf if self._exact_div else np.float64
        K = self._budget + 1
        self._inc_k = K
        w = SimpleNamespace()
        w.workf = workf
        w.row_off = (np.arange(S, dtype=np.int64) * n)[:, None]
        # The persistent sparse priority state: the inverse permutation
        # (priority position -> link), built once here by scatter and
        # afterwards maintained only by the O(commits) writes of the swap
        # commit — never rebuilt from sigma again.
        w.inv = np.empty((S, n), dtype=np.int64)
        w.inv.ravel()[(self._sigma + (w.row_off - 1)).ravel()] = np.tile(
            np.arange(n, dtype=np.int64), S
        )
        # Persistent outcome planes.  Only entries named by the previous
        # interval's serve set (``prev_links``) can be nonzero, so each
        # interval zeroes those K entries instead of the whole plane.
        w.delivered = np.zeros((S, n), dtype=np.int64)
        w.attempts_i = np.zeros((S, n), dtype=np.int64)
        w.pfscr = np.empty((S, K), dtype=np.int64)
        # Serve-set selection (see _select_serve_set).  The serve set's
        # link ids (``prev_links`` once the next interval starts) and
        # positions are (S, K) views of buffers with one extra trailing
        # slot, the scatter's dump target for unselected prefix entries.
        w.links_buf = np.zeros(S * K + 1, dtype=np.int64)
        w.prev_links = w.links_buf[: S * K].reshape(S, K)
        w.posk_buf = np.empty(S * K + 1, dtype=np.int64)
        w.posk = w.posk_buf[: S * K].reshape(S, K)
        w.sel_flat = np.empty((S, K), dtype=np.int64)
        w.row_off_k_m1 = (np.arange(S, dtype=np.int64) * K - 1)[:, None]
        w.cols = np.arange(n, dtype=np.int64)
        # Prefix width of the scan, and its (3 int + 2 bool) x (S * cap)
        # scratch, grown on demand (to twice the width that outgrew it)
        # so it scales with the prefix, not n.
        w.scan_m = K
        w.scan_cap = 0
        # (S, K) block scratch for the closed-form timeline.
        w.blk = np.empty((S, K), dtype=np.int64)
        w.tmpk_i = np.empty((S, K), dtype=np.int64)
        w.idx3 = np.empty((S, K), dtype=np.int64)
        w.delk = np.empty((S, K), dtype=np.int64)
        w.uki = np.empty((S, K), dtype=np.int64)
        w.bk = np.empty((S, K), dtype=np.int64)
        w.bki = np.empty((S, K), dtype=np.int64)
        w.ek = np.empty((S, K), dtype=np.int64)
        w.totk = np.empty((S, K), dtype=workf)
        w.cumk = np.empty((S, K), dtype=workf)
        w.budk = np.empty((S, K), dtype=workf)
        w.uk = np.empty((S, K), dtype=workf)
        w.uksel = np.empty((S, K), dtype=workf)
        w.countk = np.empty((S, K), dtype=workf)
        w.capk = np.empty((S, K), dtype=workf)
        w.deadk = np.empty((S, K), dtype=tlf)
        w.tmpk = np.empty((S, K), dtype=tlf)
        w.boolk = np.empty((S, K), dtype=bool)
        w.boolk2 = np.empty((S, K), dtype=bool)
        w.boolk3 = np.empty((S, K), dtype=bool)
        w.boolk4 = np.empty((S, K), dtype=bool)
        # The serve set's cumulative retry rows, in rank order (the
        # channel draws' rank-layout accessor writes them here).
        w.needk2 = np.empty((S * K, A), dtype=workf)
        w.needk3 = w.needk2.reshape(S, K, A)
        w.cmpk2 = np.empty((S * K, A), dtype=workf)
        w.cmpk3 = w.cmpk2.reshape(S, K, A)
        w.ones_k = np.ones(K, dtype=workf)
        w.ones_af = np.ones(A, dtype=workf)
        # Flat offsets of each serve-set row inside the raveled block.
        w.skoff = (np.arange(S * K, dtype=np.int64) * A).reshape(S, K)
        # Pair scratch — same shapes as the dense path (P == 1 here).
        w.cands = np.empty((S, 1), dtype=np.int64)
        w.candm1 = np.empty((S, 1), dtype=np.int64)
        w.pi = np.empty((S, 1), dtype=np.int64)
        w.pi2 = np.empty((S, 1), dtype=np.int64)
        w.down = np.empty((S, 1), dtype=np.int64)
        w.up = np.empty((S, 1), dtype=np.int64)
        w.vs = np.empty((S, 1), dtype=np.int64)
        w.vs2 = np.empty((S, 1), dtype=np.int64)
        w.bmin = np.empty((S, 1), dtype=np.int64)
        w.bmax = np.empty((S, 1), dtype=np.int64)
        w.cl = np.empty((S, 2), dtype=np.int64)
        w.clflat = np.empty((S, 2), dtype=np.int64)
        w.ac = np.empty((S, 2), dtype=np.int64)
        w.acb = np.empty((S, 2), dtype=bool)
        w.relc = np.empty((S, 2), dtype=np.float64)
        w.dc = np.empty((S, 2), dtype=np.float64)
        w.xib = np.empty((S, 2), dtype=bool)
        w.xi = np.empty((S, 2), dtype=np.int64)
        w.cd = np.empty((S, 1), dtype=bool)
        w.cc = np.empty((S, 1), dtype=bool)
        w.wa = np.empty(S, dtype=bool)
        w.wb = np.empty(S, dtype=bool)
        # Per-row scalars of the candidate columns.
        w.att_tot_f = np.empty(S, dtype=workf)
        w.att_a = np.empty(S, dtype=workf)
        w.ua = np.empty(S, dtype=workf)
        w.att_b = np.empty(S, dtype=workf)
        w.start_a = np.empty(S, dtype=np.float64)
        w.start_b = np.empty(S, dtype=np.float64)
        w.tmps = np.empty(S, dtype=np.float64)
        w.fits_a = np.empty(S, dtype=bool)
        w.fits_b = np.empty(S, dtype=bool)
        w.txa = np.empty(S, dtype=bool)
        w.t1 = np.empty(S, dtype=bool)
        w.t2 = np.empty(S, dtype=bool)
        w.ne = np.empty(S, dtype=np.int64)
        w.idle = np.empty(S, dtype=np.int64)
        w.tmpi_s = np.empty(S, dtype=np.int64)
        w.eus = np.empty(S, dtype=np.float64)
        w.busy = np.empty(S, dtype=np.float64)
        w.ovh = np.empty(S, dtype=np.float64)
        w.zeroi = np.zeros(S, dtype=np.int64)
        w.rel_flat = np.ascontiguousarray(
            np.broadcast_to(self._reliabilities, (S, n)), dtype=np.float64
        ).ravel()
        if perf.counters.enabled:
            perf.counters.alloc("kernel.dp.bind_workspace", 56)
        self._ws = w
        if self._use_c:
            self._c_incremental = self._bind_c(
                "incremental_rows", (workf,),
                dict(backlog=(np.int64, (S, n))),
                S=S, N=n, K=K, A=A, exact=self._exact_div,
                track=not self._lite, T=self._interval_us,
                air=self._data_air, slot=self._slot,
                empty_air=self._empty_air, inv=w.inv, cand=w.cands,
                swap=w.cc, wants_a=w.wa, wants_b=w.wb, bmin=w.bmin,
                bmax=w.bmax, needed=w.needk2, delivered=w.delivered,
                attempts=w.attempts_i, tx_a=w.txa, start_a=w.start_a,
                busy=w.busy, ovh=w.ovh,
            )

    def _run_interval_inc(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """One DP interval on the incrementally maintained sparse state.

        Same draws, same arithmetic, same outcomes as the dense
        :meth:`_run_interval_ws` — proven bit-identical in
        ``tests/sim/test_incremental_dp.py`` — but the per-interval work
        is reshaped around what one interval can actually change:

        * the inverse permutation persists in the workspace; the commit
          applies the accepted adjacent swap with O(commits) element
          writes instead of re-deriving the order from sigma (O(S*N));
        * only the serve set — the first ``K = budget + 1``
          backlogged links in priority order, which provably covers every
          link that can receive an attempt — enters the timeline solve,
          so the block math is ``(S, K)`` instead of the dense solver's
          ``(S, N)`` planes and (n, n)/(S, N, A) products, and its
          channel rows are exactly the draws' ``(S, K, A)`` rank block;
        * the serve set itself comes from a scan of a short prefix of
          the persistent inverse (:meth:`_select_serve_set`), so the
          selection touches the positions up to the ``K``-th backlogged
          link, not all ``N``;
        * the two candidate positions (the only ones with data-dependent
          backoffs or empty claims) are handled by per-row scalar
          columns, which is what makes the serve-set reduction exact.

        Outcome planes persist across intervals with sparse zeroing of
        the previous serve set, so no O(S*N) pass appears anywhere in the
        steady-state loop except the arrivals' own ``any()`` and, outside
        lite mode, the ``sigma.copy()`` for the outcome.  Both backends
        share this selection; under ``backend="c"`` the timeline block is
        one compiled per-row walk instead of the closed form.
        """
        w = self._ws
        counters = perf.counters
        S = arrivals.shape[0]
        T = self._interval_us
        air = self._data_air
        slot = self._slot
        empty_air = self._empty_air
        lite = self._lite
        sigma = self._sigma
        sigma_out = None if lite else sigma.copy()
        if counters.enabled:
            t0 = perf.clock()

        # -- setup: candidate pair, coins, backoffs (all O(S)) -------------
        cands = self._draw_candidates_ws(rng)
        np.add(cands, w.row_off, out=w.pi2)
        np.subtract(w.pi2, 1, out=w.pi)
        inv_flat = w.inv.ravel()
        inv_flat.take(w.pi.ravel(), out=w.down.ravel())
        inv_flat.take(w.pi2.ravel(), out=w.up.ravel())
        w.cl[:, :1] = w.down
        w.cl[:, 1:] = w.up
        np.add(w.cl, w.row_off, out=w.clflat)
        clflat = w.clflat.ravel()
        w.rel_flat.take(clflat, out=w.relc.ravel())
        positive_debts.ravel().take(clflat, out=w.dc.ravel())
        mu = self._active_bias.mu_batch(w.cl, w.dc, w.relc)
        if not (mu.min() > 0.0 and mu.max() < 1.0):
            raise ValueError(
                "swap bias returned mu outside (0, 1); Algorithm 2 "
                "requires a non-degenerate coin"
            )
        coins = self._coin_draws.next(rng.free_stream("policy"))
        np.less(coins, mu, out=w.xib)
        np.multiply(w.xib, 2, out=w.xi)
        np.subtract(w.xi, 1, out=w.xi)
        arrivals.ravel().take(clflat, out=w.ac.ravel())
        np.equal(w.ac, 0, out=w.acb)
        np.logical_not(w.xib[:, :1], out=w.cd)
        np.logical_and(w.cd, w.xib[:, 1:], out=w.cc)
        rc = np.flatnonzero(w.cc[:, 0])
        cdx = cands[rc, 0]
        np.subtract(cands, w.xi[:, :1], out=w.vs)
        np.subtract(cands, w.xi[:, 1:], out=w.vs2)
        np.add(w.vs2, 1, out=w.vs2)
        np.minimum(w.vs, w.vs2, out=w.bmin)
        np.maximum(w.vs, w.vs2, out=w.bmax)
        np.subtract(cands, 1, out=w.candm1)
        # Wants-empty by *position*: position c-1 holds the down-link
        # normally and the up-link on commit-coin rows, position c the
        # other one (exactly the dense path's iep fix-ups).
        np.copyto(w.wa, w.acb[:, 0])
        np.copyto(w.wb, w.acb[:, 1])
        if rc.size:
            w.wa[rc] = w.acb[rc, 1]
            w.wb[rc] = w.acb[rc, 0]
        block = self._channel_draws.next(
            rng.free_stream("channel"), self._chan_rng(rng)
        )
        if counters.enabled:
            counters.add("kernel.dp.setup", perf.clock() - t0)
            t0 = perf.clock()

        # -- incremental: sparse zeroing + serve-set selection -------------
        # Zero the entries the *previous* interval touched (its serve set),
        # then select this interval's serve set.
        np.add(w.prev_links, w.row_off, out=w.pfscr)
        w.delivered.ravel()[w.pfscr.ravel()] = 0
        if not lite:
            w.attempts_i.ravel()[w.pfscr.ravel()] = 0
        allocs = self._select_serve_set(arrivals, rc, cdx)
        posk = w.posk
        if counters.enabled:
            counters.add("kernel.dp.incremental", perf.clock() - t0, allocs)
            t0 = perf.clock()

        # -- timeline ------------------------------------------------------
        # Backlogged links come first in the serve set, in service order,
        # so rank slot j of the channel block is exactly serve-set entry j.
        active = bool(arrivals.any())
        if active:
            self._channel_draws.served_rows(block, w.sel_flat, w.needk2)
        if self._use_c and not self._force_sequential:
            # The compiled sweep walks each row's priority order, reading
            # the i-th backlogged link's draws from rank row i, skipping
            # to the pair once the ceiling below it is exhausted and
            # stopping at the first exhausted ceiling past it.
            self._c_incremental(backlog=arrivals)
        else:
            if active:
                arrivals.ravel().take(w.sel_flat.ravel(), out=w.blk.ravel())
                # Per-link drain totals, gathered only for the serve set.
                np.subtract(w.blk, 1, out=w.tmpk_i)
                np.maximum(w.tmpk_i, 0, out=w.tmpk_i)
                np.add(w.skoff, w.tmpk_i, out=w.idx3)
                w.needk2.ravel().take(w.idx3.ravel(), out=w.totk.ravel())
                np.greater(w.blk, 0, out=w.boolk)
                np.multiply(w.totk, w.boolk, out=w.totk)
                # Backoff staircase by position: j below the pair, j + 2
                # above it, the candidate pair's own backoffs in between.
                np.greater(posk, cands, out=w.boolk2)
                np.multiply(w.boolk2, 2, out=w.bk)
                np.add(w.bk, posk, out=w.bk)
                np.equal(posk, w.candm1, out=w.boolk3)
                np.copyto(w.bk, w.bmin, where=w.boolk3)
                np.equal(posk, cands, out=w.boolk4)
                np.copyto(w.bk, w.bmax, where=w.boolk4)
                # Empties *wanted* before each position: wa counts past
                # position c-1, wb past position c (the dense iep prefix).
                np.greater(posk, w.candm1, out=w.boolk3)
                np.logical_and(w.boolk3, w.wa[:, None], out=w.boolk3)
                np.greater(posk, cands, out=w.boolk4)
                np.logical_and(w.boolk4, w.wb[:, None], out=w.boolk4)
                np.copyto(w.ek, w.boolk3, casting="unsafe")
                np.add(w.ek, w.boolk4, out=w.ek)
                # Attempt ceilings (same divide/floor discipline as dense).
                np.multiply(w.bk, slot, out=w.deadk)
                np.multiply(w.ek, empty_air, out=w.tmpk)
                np.add(w.deadk, w.tmpk, out=w.deadk)
                np.subtract(T, w.deadk, out=w.deadk)
                if self._exact_div:
                    np.divide(w.deadk, air, out=w.capk)
                    np.floor(w.capk, out=w.capk)
                else:
                    np.floor_divide(w.deadk, air, out=w.deadk)
                    np.copyto(w.capk, w.deadk, casting="unsafe")
                np.cumsum(w.totk, axis=1, out=w.cumk)
                np.subtract(w.cumk, w.totk, out=w.cumk)  # exclusive prefix
                np.subtract(w.capk, w.cumk, out=w.budk)
                np.minimum(w.budk, w.totk, out=w.uk)
                np.maximum(w.uk, 0, out=w.uk)
                # Delivered counts off the serve set's draw rows only.
                np.less_equal(
                    w.needk3, w.budk[:, :, None], out=w.cmpk3,
                    casting="unsafe",
                )
                np.matmul(w.cmpk2, w.ones_af, out=w.countk.ravel())
                np.copyto(w.delk, w.countk, casting="unsafe")
                np.minimum(w.delk, w.blk, out=w.delk)
                w.delivered.ravel()[w.sel_flat.ravel()] = w.delk.ravel()
                if not lite:
                    np.copyto(w.uki, w.uk, casting="unsafe")
                    w.attempts_i.ravel()[w.sel_flat.ravel()] = w.uki.ravel()
                np.greater(w.uk, 0, out=w.boolk)
                np.multiply(w.bk, w.boolk, out=w.bki)
                w.bki.max(axis=1, out=w.idle)
                np.matmul(w.uk, w.ones_k, out=w.att_tot_f)
                np.less(posk, w.candm1, out=w.boolk2)
                np.multiply(w.uk, w.boolk2, out=w.uksel)
                np.matmul(w.uksel, w.ones_k, out=w.att_a)
                np.equal(posk, w.candm1, out=w.boolk2)
                np.multiply(w.uk, w.boolk2, out=w.uksel)
                np.matmul(w.uksel, w.ones_k, out=w.ua)
            else:
                # Whole stack idle: draws were consumed, nothing transmits
                # data; candidate empty claims are still resolved below.
                w.att_tot_f.fill(0)
                w.att_a.fill(0)
                w.ua.fill(0)
                w.idle.fill(0)
            np.add(w.att_a, w.ua, out=w.att_b)
            # Candidate service starts under the all-empties-fit
            # assumption, then the fit check (dense semantics verbatim:
            # start = att * air + dead in float64, dead = b * slot + e *
            # empty with e = wa empties before position c).
            np.copyto(w.start_a, w.att_a)
            np.multiply(w.start_a, air, out=w.start_a)
            np.multiply(w.bmin[:, 0], slot, out=w.tmps)
            np.add(w.start_a, w.tmps, out=w.start_a)
            np.multiply(w.bmax[:, 0], slot, out=w.tmps)
            np.multiply(w.wa, empty_air, out=w.start_b)
            np.add(w.tmps, w.start_b, out=w.tmps)
            np.copyto(w.start_b, w.att_b)
            np.multiply(w.start_b, air, out=w.start_b)
            np.add(w.start_b, w.tmps, out=w.start_b)
            if empty_air > 0:
                np.less_equal(w.start_a, T - empty_air, out=w.fits_a)
                np.less_equal(w.start_b, T - empty_air, out=w.fits_b)
            else:
                np.less(w.start_a, T, out=w.fits_a)
                np.less(w.start_b, T, out=w.fits_b)
            np.logical_and(w.fits_a, w.wa, out=w.fits_a)
            np.logical_and(w.fits_b, w.wb, out=w.fits_b)
            if self._force_sequential:
                for s in range(S):
                    self._resolve_row_inc(
                        s, arrivals, posk, active, from_start=True
                    )
            else:
                np.logical_not(w.fits_a, out=w.t1)
                np.logical_and(w.t1, w.wa, out=w.t1)
                np.logical_not(w.fits_b, out=w.t2)
                np.logical_and(w.t2, w.wb, out=w.t2)
                np.logical_or(w.t1, w.t2, out=w.t1)
                if w.t1.any():
                    for s in np.flatnonzero(w.t1):
                        self._resolve_row_inc(
                            int(s), arrivals, posk, active
                        )
            np.greater(w.ua, 0, out=w.txa)
            np.logical_or(w.txa, w.fits_a, out=w.txa)
            np.copyto(w.ne, w.fits_a, casting="unsafe")
            np.add(w.ne, w.fits_b, out=w.ne)
            # Fitting empty claims also count as transmissions for the
            # idle-slot bound (dense: tx = attempts | fits by position).
            np.multiply(w.bmin[:, 0], w.fits_a, out=w.tmpi_s)
            np.maximum(w.idle, w.tmpi_s, out=w.idle)
            np.multiply(w.bmax[:, 0], w.fits_b, out=w.tmpi_s)
            np.maximum(w.idle, w.tmpi_s, out=w.idle)
            np.copyto(w.busy, w.att_tot_f)
            np.multiply(w.busy, air, out=w.busy)
            np.multiply(w.ne, empty_air, out=w.eus)
            np.add(w.busy, w.eus, out=w.busy)
            np.multiply(w.idle, slot, out=w.ovh)
            np.add(w.ovh, w.eus, out=w.ovh)
        if counters.enabled:
            counters.add("kernel.dp.timeline", perf.clock() - t0)
            t0 = perf.clock()

        # -- commit: O(commits) upkeep of sigma AND the persistent inverse -
        if rc.size:
            live = w.txa[rc] & (w.start_a[rc] + air <= T)
            rcc = rc[live]
            if rcc.size:
                csel = cands[rcc, 0]
                dl = w.down[rcc, 0]
                ul = w.up[rcc, 0]
                sigma[rcc, dl] = csel + 1
                sigma[rcc, ul] = csel
                w.inv[rcc, csel - 1] = ul
                w.inv[rcc, csel] = dl
        if counters.enabled:
            counters.add("kernel.dp.commit", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=w.delivered if lite else w.delivered.copy(),
            attempts=None if lite else w.attempts_i.copy(),
            busy_time_us=w.busy if lite else w.busy.copy(),
            overhead_time_us=w.ovh if lite else w.ovh.copy(),
            collisions=w.zeroi,
            priorities=sigma_out,
        )

    def _select_serve_set(
        self, arrivals: np.ndarray, rc: np.ndarray, cdx: np.ndarray
    ) -> int:
        """Write this interval's serve set into ``sel_flat`` and ``posk``.

        Row ``s``'s serve set is its first ``K`` backlogged links in
        priority order, where the order is ``inv`` with the candidate
        pair's positions exchanged on the commit-coin rows ``rc``
        (position ``c - 1`` holds the up-link, ``c`` the down-link).
        ``posk`` holds their positions, ascending; ``sel_flat`` their
        flat ``row * N + link`` indices.  A row with fewer than ``K``
        backlogged links in all ``N`` positions fills its remaining
        slots with distinct non-backlogged links at position ``N``: they
        receive no attempts, and being distinct, the sparse outcome
        scatters never overwrite a real count with their zeros.

        Only a prefix ``inv[:, :M]`` is scanned: gather its backlog, take
        a running count of backlogged links and scatter each row's first
        ``K`` into place.  If some row holds fewer than ``K``, ``M``
        doubles (up to ``N``) and the scan repeats.  The next interval
        starts from 1.25x the largest ``K``-th backlogged position seen
        here — one adjacent swap per interval barely moves it.  Returns
        the number of scratch buffers allocated (nonzero only while the
        prefix outgrows every earlier one).
        """
        w = self._ws
        S, n = arrivals.shape
        K = self._inc_k
        M = w.scan_m
        arr_flat = arrivals.ravel()
        allocs = 0
        while True:
            if M > w.scan_cap:
                w.scan_cap = min(n, 2 * M)
                w.scan_i = np.empty((3, S * w.scan_cap), dtype=np.int64)
                w.scan_b = np.empty((2, S * w.scan_cap), dtype=bool)
                allocs += 2
            size = S * M
            pre = w.scan_i[0, :size].reshape(S, M)
            idx = w.scan_i[1, :size].reshape(S, M)
            cnt = w.scan_i[2, :size].reshape(S, M)
            mk = w.scan_b[0, :size].reshape(S, M)
            drop = w.scan_b[1, :size].reshape(S, M)
            np.copyto(pre, w.inv[:, :M])
            if rc.size:
                lo = cdx <= M
                pre[rc[lo], cdx[lo] - 1] = w.up[rc[lo], 0]
                hi = cdx < M
                pre[rc[hi], cdx[hi]] = w.down[rc[hi], 0]
            np.add(pre, w.row_off, out=idx)
            arr_flat.take(idx.ravel(), out=cnt.ravel())
            np.greater(cnt, 0, out=mk)
            np.cumsum(mk, axis=1, out=cnt)
            if M == n or cnt[:, M - 1].min() >= K:
                break
            M = min(n, 2 * M)
        # Backlogged entry with running count r goes to slot r - 1 of its
        # row; every other entry goes to the dump slot S * K.
        np.add(cnt, w.row_off_k_m1, out=idx)
        np.less_equal(cnt, K, out=drop)
        np.logical_and(drop, mk, out=drop)
        np.logical_not(drop, out=drop)
        np.copyto(idx, S * K, where=drop)
        w.links_buf[idx] = pre
        w.posk_buf[idx] = w.cols[:M]
        if M == n:
            for s in np.flatnonzero(cnt[:, n - 1] < K):
                have = int(cnt[s, n - 1])
                free = np.flatnonzero(~mk[s])[: K - have]
                w.prev_links[s, have:] = pre[s, free]
                w.posk[s, have:] = n
        np.add(w.prev_links, w.row_off, out=w.sel_flat)
        reach = int(w.posk[:, K - 1].max()) + 1
        w.scan_m = min(n, max(K, reach + reach // 4))
        return allocs

    def _resolve_row_inc(
        self,
        s: int,
        arrivals: np.ndarray,
        posk: np.ndarray,
        active: bool,
        from_start: bool = False,
    ) -> None:
        """Exact sequential sweep of one row for the incremental path.

        The incremental analogue of :meth:`_resolve_row_sequential`: the
        vectorized solve assumed every wanted empty claim fits, so the
        first wrong column is the earliest misfitting claim — position
        ``c - 1`` if the up-mover's claim misfit, else ``c``.  Everything
        strictly before it (attempt counts, drain totals, the idle
        high-water of the prefix) is already exact, so the sweep resumes
        there: zero the serve-set entries at positions >= the resume
        point, walk forward with the dense path's scalar arithmetic, and
        stop once every later position's attempt ceiling is provably
        exhausted (no claims remain past ``c``).  Every link that can
        receive attempts is in the serve set, so the zero-then-rewrite of
        the suffix is complete.  ``from_start`` (the force-sequential
        verification mode) walks the whole row instead and trusts nothing
        from the vector pass; ``active=False`` marks the vector per-entry
        tables (uk/bk) as not computed this interval, which is only
        consistent with an empty prefix.  Writes the per-row outputs
        (att_tot, ua, idle, fits, start_a) in the workspace; the caller's
        idle fold for fitting claims runs afterwards and is idempotent
        with the walk's own idle updates.
        """
        w = self._ws
        T = self._interval_us
        air = self._data_air
        slot = self._slot
        empty_air = self._empty_air
        n = self.spec.num_links
        track = not self._lite
        c = int(w.cands[s, 0])
        swap = bool(w.cc[s, 0])
        wa = bool(w.wa[s])
        wb = bool(w.wb[s])
        bmin = int(w.bmin[s, 0])
        bmax = int(w.bmax[s, 0])
        sel = w.sel_flat[s]
        pos_row = posk[s]
        if from_start:
            j0 = 0
            i0 = 0
            att_total = 0
            ua = 0
            fa = False
            sta = 0.0
        elif wa and not bool(w.fits_a[s]):
            j0 = c - 1
            i0 = int(np.searchsorted(pos_row, j0))
            att_total = int(w.att_a[s])
            ua = 0
            fa = False
            sta = 0.0
        else:
            j0 = c
            i0 = int(np.searchsorted(pos_row, j0))
            att_total = int(w.att_b[s])
            ua = int(w.ua[s])
            fa = bool(w.fits_a[s])
            sta = float(w.start_a[s])
        ef = 1 if fa else 0
        fb = False
        idle = 0
        if i0 > 0 and active:
            # Idle high-water of the untouched prefix: backoffs of the
            # serve-set entries that actually transmitted data (fitting
            # claims are folded in by the caller).
            uk_row = w.uk[s]
            bk_row = w.bk[s]
            for i in range(i0):
                if uk_row[i] > 0:
                    b = int(bk_row[i])
                    if b > idle:
                        idle = b
        w.delivered.ravel()[sel[i0:]] = 0
        if track:
            w.attempts_i.ravel()[sel[i0:]] = 0
        inv_row = w.inv[s]
        arr_row = arrivals[s]
        # Rank rows of this row's serve set: the r-th backlogged link met
        # in service order reads row r (rank i0 is the first backlogged
        # position >= j0).  Links past the serve set are starved and
        # never read a row.
        cum_rows = w.needk3[s]
        rank = i0
        delivered = w.delivered
        attempts = w.attempts_i
        for j in range(j0, n):
            if j == c - 1:
                link = int(inv_row[c]) if swap else int(inv_row[c - 1])
                b = bmin
            elif j == c:
                link = int(inv_row[c - 1]) if swap else int(inv_row[c])
                b = bmax
            elif j > c:
                link = int(inv_row[j])
                b = j + 2
            else:
                link = int(inv_row[j])
                b = j
            backlog = int(arr_row[link])
            dead = b * slot + ef * empty_air
            start = att_total * air + dead
            if j == c - 1:
                sta = start
            if backlog > 0:
                cap = int((T - dead) // air)
                budget = cap - att_total
                if budget > 0:
                    cum = cum_rows[rank]
                    tot = int(cum[backlog - 1])
                    if tot <= budget:
                        used = tot
                        served = backlog
                    else:
                        used = budget
                        served = bisect_right(cum, budget, 0, backlog)
                    att_total += used
                    delivered[s, link] = served
                    if track:
                        attempts[s, link] = used
                    if b > idle:
                        idle = b
                    if j == c - 1:
                        ua = used
                rank += 1
            elif (j == c - 1 and wa) or (j == c and wb):
                if empty_air > 0:
                    fits = start <= T - empty_air
                else:
                    fits = start < T
                if fits:
                    ef += 1
                    if b > idle:
                        idle = b
                    if j == c - 1:
                        fa = True
                    else:
                        fb = True
            # Positions past j all carry backoff >= j + 3 (the candidate
            # pair is behind us), so once that ceiling is exhausted no
            # later link can transmit and no claims remain — stop.
            if j >= c and int(
                (T - ((j + 3) * slot + ef * empty_air)) // air
            ) <= att_total:
                break
        w.att_tot_f[s] = att_total
        w.ua[s] = ua
        w.idle[s] = idle
        w.fits_a[s] = fa
        w.fits_b[s] = fb
        w.start_a[s] = sta

    @property
    def priorities(self) -> np.ndarray:
        """Current ``(S, N)`` priority stack (sigma per replication)."""
        if self._clones:
            return np.asarray([c.priorities for c in self._clones], dtype=np.int64)
        return self._sigma.copy()

    def _draw_candidates_ws(self, rng: BatchRngBundle) -> np.ndarray:
        """``(S, P)`` sorted non-consecutive candidate indices per row.

        The single-pair candidate comes from a direct integer block
        (:class:`_ChunkedIntegers`), uniform on ``{1..n-1}`` and buffered
        in the workspace.  Both priority-state paths draw through here, so
        they consume identical generator values in identical order.
        """
        shared = rng.free_stream("shared")
        if self.num_pairs == 1:
            row = self._cand_ints.next(shared)
            np.copyto(self._ws.cands[:, 0], row)
            return self._ws.cands
        # Gap bijection (see draw_candidate_indices): uniform P-subsets of
        # [1, M] with M = (n - 1) - (P - 1), then shift the i-th smallest
        # by i.  The subset comes from the first P slots of a uniform
        # permutation (argsort of i.i.d. uniforms).
        draws = self._cand_draws.next(shared)
        subset = np.sort(
            np.argsort(draws, axis=1)[:, : self.num_pairs] + 1, axis=1
        )
        return subset + self._pair_idx

    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """One DP interval over the bound workspace (dense priority state).

        Per interval and replication: candidate pairs from the shared
        stream (Step 1), biased coins (Step 3), collision-free backoffs
        (Step 4), empty claims by candidates without arrivals (Step 2),
        the interval timeline (Steps 5-6) and the swap commit of Eqs.
        (7)-(8).  Every (S, n)-sized intermediate lands in a preallocated
        buffer via ``out=`` ufuncs / flat ``np.take`` gathers, the inverse
        priority permutation comes from a scatter, and the ordered-service
        solver and swap commit are short-circuited when provably idle.
        Under ``backend="c"`` the timeline block (empty-claim accounting,
        ordered service, busy and overhead sums) is one compiled per-row
        sweep instead.
        """
        if self._use_inc:
            return self._run_interval_inc(k, arrivals, positive_debts, rng)
        w = self._ws
        counters = perf.counters
        S, n = arrivals.shape
        rows = self._rows
        T = self._interval_us
        air = self._data_air
        slot = self._slot
        empty_air = self._empty_air
        lite = self._lite
        sigma = self._sigma
        sigma_out = None if lite else sigma.copy()
        if counters.enabled:
            t0 = perf.clock()

        if n >= 2:
            cands = self._draw_candidates_ws(rng)
            P = cands.shape[1]
            # Inverse permutation by scatter (sigma is a permutation of
            # 1..n, so this equals argsort(sigma)).
            np.add(sigma, w.row_off_m1, out=w.tmpi)
            w.inv.ravel()[w.tmpi.ravel()] = w.link_plane.ravel()
            np.add(cands, w.row_off, out=w.pi2)
            np.subtract(w.pi2, 1, out=w.pi)
            inv_flat = w.inv.ravel()
            inv_flat.take(w.pi.ravel(), out=w.down.ravel())
            inv_flat.take(w.pi2.ravel(), out=w.up.ravel())
            w.cl[:, :P] = w.down
            w.cl[:, P:] = w.up
            np.add(w.cl, w.row_off, out=w.clflat)
            clflat = w.clflat.ravel()
            w.rel_flat.take(clflat, out=w.relc.ravel())
            positive_debts.ravel().take(clflat, out=w.dc.ravel())
            mu = self._active_bias.mu_batch(w.cl, w.dc, w.relc)
            if not (mu.min() > 0.0 and mu.max() < 1.0):
                raise ValueError(
                    "swap bias returned mu outside (0, 1); Algorithm 2 "
                    "requires a non-degenerate coin"
                )
            coins = self._coin_draws.next(rng.free_stream("policy"))
            np.less(coins, mu, out=w.xib)
            np.multiply(w.xib, 2, out=w.xi)
            np.subtract(w.xi, 1, out=w.xi)
            xi_down = w.xi[:, :P]
            xi_up = w.xi[:, P:]
            arrivals.ravel().take(w.clflat.ravel(), out=w.ac.ravel())
            np.equal(w.ac, 0, out=w.acb)
        else:
            P = 0
            cands = w.empty_pairs
            xi_down = xi_up = cands

        rc = cdm1 = None
        if P == 1:
            # Single pair (the paper's protocol): the service order and
            # its backoff staircase have closed forms, so the general
            # argsort below collapses into an inv copy plus O(S) fix-ups.
            # Non-candidates keep priority order with backoff p - 1
            # (below the pair) or p + 1 (above it); the candidates land
            # in positions c-1 and c with backoffs c - xi_down and
            # c + 1 - xi_up, which orders down before up except when
            # both coins point "swap" (xi_down = -1, xi_up = +1) —
            # exactly the commit-coin condition.
            np.logical_not(w.xib[:, :1], out=w.cd)
            np.logical_and(w.cd, w.xib[:, 1:], out=w.cc)
            order = w.order
            np.copyto(order, w.inv)
            rc = np.flatnonzero(w.cc[:, 0])
            cdx = cands[rc, 0]
            cdm1 = cdx - 1
            if rc.size:
                order[rc, cdm1] = w.up[rc, 0]
                order[rc, cdx] = w.down[rc, 0]
            # Backoff by position: j below the pair, j + 2 above it,
            # min/max of the two candidate backoffs in between (w.pi /
            # w.pi2 are the flat indices of positions c-1 and c).
            w.bpos_tab.take(cands[:, 0], axis=0, out=w.bpos)
            np.subtract(cands, xi_down, out=w.vs)
            np.subtract(cands, xi_up, out=w.vs2)
            np.add(w.vs2, 1, out=w.vs2)
            np.minimum(w.vs, w.vs2, out=w.bmin)
            np.maximum(w.vs, w.vs2, out=w.bmax)
            w.bpos.ravel()[w.pi.ravel()] = w.bmin.ravel()
            w.bpos.ravel()[w.pi2.ravel()] = w.bmax.ravel()
            # Only candidates may claim with empty packets; they sit in
            # positions c-1 (down) and c (up), swapped on commit rows.
            w.iep.fill(False)
            w.iep.ravel()[w.pi.ravel()] = w.acb[:, 0]
            w.iep.ravel()[w.pi2.ravel()] = w.acb[:, 1]
            if rc.size:
                w.iep[rc, cdm1] = w.acb[rc, 1]
                w.iep[rc, cdx] = w.acb[rc, 0]
            np.add(order, w.row_off, out=w.oflat)
        else:
            # Multi-pair (Remark 6) and degenerate stacks are off the
            # benchmark path: the general construction.  Candidate pair i
            # works in a backoff band shifted by 2i, non-candidates shift
            # by 2 per pair entirely below them, and the service order
            # is backoff order.
            if P:
                pairs_below = (
                    cands[:, None, :] + 1 < sigma[:, :, None]
                ).sum(axis=2, dtype=np.int64)
                np.multiply(pairs_below, 2, out=w.backoff)
                np.add(w.backoff, sigma, out=w.backoff)
                np.subtract(w.backoff, 1, out=w.backoff)
                w.backoff[rows, w.down] = cands - xi_down + 2 * self._pair_idx
                w.backoff[rows, w.up] = cands + 1 - xi_up + 2 * self._pair_idx
                w.we.fill(False)
                w.we.ravel()[w.clflat.ravel()] = w.acb.ravel()
            else:
                np.subtract(sigma, 1, out=w.backoff)
                w.we.fill(False)
            order = np.argsort(w.backoff, axis=1)
            np.add(order, w.row_off, out=w.oflat)
            w.backoff.ravel().take(w.oflat.ravel(), out=w.bpos.ravel())
            w.we.ravel().take(w.oflat.ravel(), out=w.iep.ravel())
        oflat = w.oflat.ravel()
        draws = self._channel_draws
        needed = draws.link_block(
            draws.next(rng.free_stream("channel"), self._chan_rng(rng)),
            order,
            arrivals,
        )
        if counters.enabled:
            counters.add("kernel.dp.setup", perf.clock() - t0)
            t0 = perf.clock()

        if self._use_c and not self._force_sequential:
            # One compiled pass per row resolves the whole timeline
            # (empty-claim coupling included) and its busy/overhead sums.
            self._c_timeline(order=order, backlog=arrivals, needed=needed)
        else:
            # Exclusive prefix sums land as one small matmul against a
            # strict upper-triangular mask — bit-exact on these
            # integer-valued floats and faster than cumsum's short-row
            # scan at benchmark shapes.
            np.copyto(w.iepf, w.iep, casting="unsafe")
            np.matmul(w.iepf, w.mexcl_tl, out=w.ebf)  # empties before
            np.multiply(w.bpos, slot, out=w.dead)
            np.multiply(w.ebf, empty_air, out=w.tmpf)
            np.add(w.dead, w.tmpf, out=w.dead)
            np.subtract(T, w.dead, out=w.tmpf)
            if self._exact_div:  # same floors, minus divmod (see _on_bind)
                # Dividing straight into the solver dtype is exact here:
                # the quotient's float32 rounding error is below the
                # 1 / air margin whenever interval_us < 2**24.
                np.divide(w.tmpf, air, out=w.caps_f)
                np.floor(w.caps_f, out=w.caps_f)
            else:
                np.floor_divide(w.tmpf, air, out=w.tmpf)
                np.copyto(w.caps_f, w.tmpf, casting="unsafe")
            if arrivals.any():
                self._solve_ordered_ws(w, order, arrivals, needed, w.caps_f)
            else:
                # Whole stack idle: skip the solver, nothing transmits
                # data (empty claims are still resolved below).
                w.att_pos.fill(0)
                w.delivered.fill(0)
            np.matmul(w.att_pos, w.mexcl, out=w.attb)  # attempts before
            np.multiply(w.attb, air, out=w.start)
            np.add(w.start, w.dead, out=w.start)
            # start + empty_air <= T rewritten against the precomputed
            # bound T - empty_air: same exact-integer comparison, one
            # whole-plane add saved per interval.
            if empty_air > 0:
                np.less_equal(w.start, T - empty_air, out=w.fits)
            else:
                np.less(w.start, T, out=w.fits)
            np.logical_and(w.fits, w.iep, out=w.fits)

            if self._force_sequential:
                bad_rows = np.arange(S)
                first_bad = np.zeros(S, dtype=np.int64)
            else:
                np.not_equal(w.fits, w.iep, out=w.mm)
                if w.mm.any():
                    bad_rows = np.flatnonzero(w.mm.any(axis=1))
                    first_bad = np.argmax(w.mm, axis=1)
                else:
                    bad_rows = None
            if bad_rows is not None and len(bad_rows):
                for s in bad_rows:
                    j0 = int(first_bad[s])
                    self._resolve_row_sequential(
                        int(s),
                        j0,
                        int(w.attb[s, j0]),
                        int(w.ebf[s, j0]),
                        order[s],
                        w.bpos[s],
                        w.iep[s],
                        arrivals[s],
                        needed[int(s)],
                        w.delivered,
                        w.att_pos,
                        w.fits,
                        w.start,
                    )
            np.matmul(w.att_pos, w.ones_wf, out=w.busyf)
            np.copyto(w.busy, w.busyf)
            np.multiply(w.busy, air, out=w.busy)
            np.greater(w.att_pos, 0, out=w.tx)
            np.logical_or(w.tx, w.fits, out=w.tx)
            np.multiply(w.bpos, w.tx, out=w.tmpi2)
            w.tmpi2.max(axis=1, out=w.idle)
            np.sum(w.fits, axis=1, out=w.ne)
            np.multiply(w.ne, empty_air, out=w.eus)
            np.add(w.busy, w.eus, out=w.busy)
            np.multiply(w.idle, slot, out=w.ovh)
            np.add(w.ovh, w.eus, out=w.ovh)
        if counters.enabled:
            counters.add("kernel.dp.timeline", perf.clock() - t0)
            t0 = perf.clock()

        if P == 1:
            if rc.size:
                # Commit is confined to the rows where both coins said
                # "swap" (w.cc, computed during setup) — and on those
                # rows the up-link was served at position c - 1, so the
                # transmission test is two tiny gathers.  The in-place
                # sigma writes touch committed entries only.
                live = w.tx[rc, cdm1] & (w.start[rc, cdm1] + air <= T)
                rcc = rc[live]
                if rcc.size:
                    csel = cands[rcc, 0]
                    sigma[rcc, w.down[rcc, 0]] = csel + 1
                    sigma[rcc, w.up[rcc, 0]] = csel
        elif P:
            np.equal(xi_down, -1, out=w.cd)
            np.equal(xi_up, 1, out=w.cu)
            np.logical_and(w.cd, w.cu, out=w.cc)
            if w.cc.any():
                # A pair can only swap when both coins point "swap"; only
                # then is the transmission state worth gathering.  The
                # in-place sigma writes below touch committed entries
                # only (an uncommitted pair keeps its priorities).
                w.posn.ravel()[oflat] = w.link_plane.ravel()
                up_pos = w.posn[rows, w.up]
                committed = (
                    w.cc
                    & w.tx[rows, up_pos]
                    & (w.start[rows, up_pos] + air <= T)
                )
                rcp, pc = np.nonzero(committed)
                if rcp.size:
                    csel = cands[rcp, pc]
                    sigma[rcp, w.down[rcp, pc]] = csel + 1
                    sigma[rcp, w.up[rcp, pc]] = csel

        if not lite:
            w.attempts_f.ravel()[oflat] = w.att_pos.ravel()
            np.copyto(w.attempts_i, w.attempts_f, casting="unsafe")
        if counters.enabled:
            counters.add("kernel.dp.commit", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=w.delivered if lite else w.delivered.copy(),
            attempts=None if lite else w.attempts_i.copy(),
            busy_time_us=w.busy if lite else w.busy.copy(),
            overhead_time_us=w.ovh if lite else w.ovh.copy(),
            collisions=w.zeroi,
            priorities=sigma_out,
        )

    def _resolve_row_sequential(
        self,
        s: int,
        j0: int,
        att_total: int,
        empties_fit: int,
        order_row: np.ndarray,
        backoff_row: np.ndarray,
        is_empty_row: np.ndarray,
        arrivals_row: np.ndarray,
        needed_cum_row: np.ndarray,
        deliveries: np.ndarray,
        attempts_pos: np.ndarray,
        fits_pos: np.ndarray,
        start_pos: np.ndarray,
    ) -> None:
        """Exact sequential sweep of one replication's interval timeline,
        resuming from position ``j0`` with ``att_total`` attempts already
        used and ``empties_fit`` empty claims already on air.

        Uses the same pre-drawn retry counts and the same floats, formed by
        the same operations in the same order (``dead = b * slot + e *
        empty``, ``start = att * air + dead``), as the vectorized path, so
        the combined result equals a full sequential evaluation of the
        whole stack — and the compiled ``backend="c"`` walk.  Operates on plain
        Python scalars — at tens of links that beats per-element ndarray
        indexing by an order of magnitude.  ``deliveries`` is
        link-indexed, the remaining output arrays position-indexed (the
        caller reconstructs the link view of attempts from
        ``attempts_pos`` at the end of the interval).
        """
        T = self._interval_us
        air = self._data_air
        slot = self._slot
        empty_air = self._empty_air
        order_l = order_row.tolist()
        backoff_l = backoff_row.tolist()
        empty_l = is_empty_row.tolist()
        arrivals_l = arrivals_row.tolist()
        for j in range(j0, len(order_l)):
            link = order_l[j]
            backlog = arrivals_l[link]
            dead = backoff_l[j] * slot + empties_fit * empty_air
            start = att_total * air + dead
            fits = False
            used = 0
            served = 0
            if backlog > 0:
                cap = int((T - dead) // air)
                budget = cap - att_total
                if budget > 0:
                    # Indexing the ndarray row directly beats converting
                    # the whole (N, A) cum block to nested lists: only a
                    # handful of scalars per link are ever read.
                    cum = needed_cum_row[link]
                    tot = int(cum[backlog - 1])
                    if tot <= budget:
                        used = tot
                        served = backlog
                    else:
                        used = budget
                        served = bisect_right(cum, budget, 0, backlog)
                    att_total += used
            elif empty_l[j]:
                if empty_air > 0:
                    fits = start <= T - empty_air
                else:
                    fits = start < T
                if fits:
                    empties_fit += 1
            deliveries[s, link] = served
            attempts_pos[s, j] = used
            fits_pos[s, j] = fits
            start_pos[s, j] = start


def make_batch_kernel(policy: IntervalMac) -> BatchPolicyKernel:
    """Build the vectorized kernel for ``policy``; raises if unsupported.

    Dispatch is registry-driven: the policy's registered
    :class:`~repro.core.registry.PolicyDescriptor` names its kernel
    class, so new families plug in by registration instead of by
    extending a type switch here.
    """
    return registry.make_kernel(policy)


def has_batch_kernel(policy: IntervalMac) -> bool:
    """Whether :func:`make_batch_kernel` supports ``policy``."""
    return registry.has_kernel(policy)
