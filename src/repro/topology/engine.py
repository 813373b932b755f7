"""Multi-cell simulation lowered onto the batch engine.

One :class:`TopologySimulator` advances *all* (seed, cell) pairs of a
:class:`~repro.topology.graph.CellTopology` as rows of a single
:class:`~repro.sim.batch_sim.BatchIntervalSimulator`: cell ``c``'s rows
sit contiguously at ``c * S .. (c + 1) * S - 1`` (cell-major order), each
bound to that cell's sliced spec.  The kernel never learns about the
topology — rows are just small independent networks.

**Per-cell draw injection.**  Under the vectorized ``rng="free"``
discipline, every random input of the batch engine
flows through swappable chunked draw objects (the same seam
:func:`~repro.sim.batch_sim.share_batch_draws` uses).  The topology
engine replaces them with cell-wise wrappers that draw each cell's row
block from that cell's own
``BatchRngBundle(seeds, stream_tag=cell_stream_tag(c))`` — the exact
streams an *independent* ``BatchIntervalSimulator(cell_spec, policy,
seeds, stream_tag=cell_stream_tag(c))`` would consume.  Every kernel
stage is row-local arithmetic on exact small integers (matmul
reductions included), so row (c, s) of the packed run computes
bit-identically to row s of the independent cell run.  That is the
disconnected-topology identity guarantee, and it also makes results
invariant under cell packing order and sharding.  Sync mode needs no
injection: its per-seed scalar bundles are keyed by seed value alone.

**Boundary resolution.**  Topologies with boundary links mask non-owner
memberships' arrivals before each interval (see
:mod:`repro.topology.boundary`); owner draws come from a dedicated
topology-level free substream, so cells never communicate mid-interval.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import registry
from ..core.policies import IntervalMac
from ..core.requirements import NetworkSpec
from ..sim.batch_kernels import (
    _ChunkedChannelDraws,
    _ChunkedIntegers,
    _ChunkedUniforms,
)
from ..sim.batch_sim import BatchIntervalSimulator, _BatchArrivalDraws
from ..sim.rng import BatchRngBundle, normalize_rng_mode
from ..sim.spec_stack import SpecStack
from .boundary import BoundaryMasker
from .graph import TOPOLOGY_STREAM_TAG, CellTopology, cell_stream_tag
from .pack import CellPacking

__all__ = ["TopologySimulator", "TopologyResult", "run_topology_batch"]


# ----------------------------------------------------------------------
# Cell-wise draw assembly: per-cell chunked inners feeding one (R, ...)
# block per interval.  Wrappers ignore the stream the kernel passes —
# each inner refills from its own cell's generator, which is the whole
# point: a cell's randomness must not depend on what else is packed.
# ----------------------------------------------------------------------
class _CellwiseBlocks:
    """Stack per-cell ``(S, ...)`` blocks into one ``(R, ...)`` buffer."""

    def __init__(self, inners, gens, out: np.ndarray, num_seeds: int):
        self._inners = list(inners)
        self._gens = list(gens)
        self._out = out
        self._S = int(num_seeds)

    def next(self, _rng, _state_rng=None) -> np.ndarray:
        S = self._S
        for c, (inner, gen) in enumerate(zip(self._inners, self._gens)):
            self._out[c * S : (c + 1) * S] = inner.next(gen)
        return self._out


class _CellwiseChannelDraws(_CellwiseBlocks):
    """Cell-wise channel retry blocks with the fast drain-totals gather.

    ``state_gens`` supplies one channel-state evolution stream per cell
    when the cells carry stochastic channel state; each cell's state then
    evolves from its own stream, preserving the per-cell draw isolation
    that makes sharded topology runs exact.
    """

    def __init__(
        self,
        inners,
        gens,
        num_seeds: int,
        width: int,
        a_max: int,
        state_gens=None,
    ):
        dtypes = {inner.dtype for inner in inners}
        if len(dtypes) != 1:
            raise TypeError(
                f"cells disagree on the channel draw dtype ({dtypes}); "
                "mixed-precision cells cannot share one packed block"
            )
        rows = num_seeds * len(list(inners))
        out = np.empty((rows, width, a_max), dtype=dtypes.pop())
        super().__init__(inners, gens, out, num_seeds)
        self._state_gens = list(state_gens) if state_gens is not None else None
        self._tot_base = (
            np.arange(rows * width, dtype=np.int64) * a_max
        ).reshape(rows, width)
        self._tot_idx = np.empty((rows, width), dtype=np.int64)
        self._tot_mask = np.empty((rows, width), dtype=bool)
        self._tot2 = np.empty((rows, width), dtype=out.dtype)

    def next(self, _rng, _state_rng=None) -> np.ndarray:
        S = self._S
        for c, (inner, gen) in enumerate(zip(self._inners, self._gens)):
            sg = self._state_gens[c] if self._state_gens is not None else None
            self._out[c * S : (c + 1) * S] = inner.next(gen, sg)
        return self._out

    @property
    def dtype(self) -> np.dtype:
        return self._out.dtype

    def totals(self, needed_cum: np.ndarray, backlog: np.ndarray) -> np.ndarray:
        # Same exact-integer gather as _ChunkedChannelDraws.totals, sized
        # for the packed (R, width) plane.
        np.subtract(backlog, 1, out=self._tot_idx)
        np.maximum(self._tot_idx, 0, out=self._tot_idx)
        np.add(self._tot_idx, self._tot_base, out=self._tot_idx)
        needed_cum.ravel().take(self._tot_idx.ravel(), out=self._tot2.ravel())
        np.greater(backlog, 0, out=self._tot_mask)
        np.multiply(self._tot2, self._tot_mask, out=self._tot2)
        return self._tot2


class _PackedBatchSim(BatchIntervalSimulator):
    """Batch sim whose arrivals pass through the boundary masker."""

    _mask: Optional[BoundaryMasker] = None

    def _sample_arrivals(self) -> np.ndarray:
        arrivals = super()._sample_arrivals()
        if self._mask is not None:
            arrivals = self._mask.apply(self._interval, arrivals)
        return arrivals


# ----------------------------------------------------------------------
@dataclass
class TopologyResult:
    """Aggregated outcome of a multi-cell run (possibly one shard).

    ``delivery_sums`` is ``(S, num_links)`` over *global* links — each
    link's deliveries summed over its packed memberships (the boundary
    masker guarantees at most one membership delivers per interval).  A
    shard over a cell subset reports partial sums; :meth:`merge` adds
    shards together.
    """

    topology: CellTopology
    cells: Tuple[int, ...]
    seeds: Tuple[int, ...]
    num_intervals: int
    requirements: np.ndarray
    delivery_sums: np.ndarray
    collision_sums: np.ndarray
    overhead_cell_rows: np.ndarray  # (C_packed, S) per-row interval means

    @property
    def num_seeds(self) -> int:
        return len(self.seeds)

    def mean_deliveries(self) -> np.ndarray:
        return self.delivery_sums / max(1, self.num_intervals)

    def total_deficiency(self) -> np.ndarray:
        """Per-seed summed timely-throughput deficiency over global links."""
        short = self.requirements[None, :] - self.mean_deliveries()
        return np.maximum(short, 0.0).sum(axis=1)

    def group_deficiency(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """Per-seed deficiency summed within each global link group."""
        short = np.maximum(
            self.requirements[None, :] - self.mean_deliveries(), 0.0
        )
        return np.stack(
            [short[:, list(g)].sum(axis=1) for g in groups], axis=1
        )

    def mean_overhead_us(self) -> np.ndarray:
        """Per-seed protocol overhead, averaged across packed cells."""
        return self.overhead_cell_rows.mean(axis=0)

    @staticmethod
    def merge(parts: Sequence["TopologyResult"]) -> "TopologyResult":
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        for p in parts[1:]:
            if (
                p.seeds != first.seeds
                or p.num_intervals != first.num_intervals
                or p.topology.fingerprint() != first.topology.fingerprint()
            ):
                raise ValueError("shards disagree on workload identity")
        cells = tuple(c for p in parts for c in p.cells)
        if len(set(cells)) != len(cells):
            raise ValueError("shards overlap on cells")
        return TopologyResult(
            topology=first.topology,
            cells=cells,
            seeds=first.seeds,
            num_intervals=first.num_intervals,
            requirements=first.requirements,
            delivery_sums=sum(p.delivery_sums for p in parts),
            collision_sums=sum(p.collision_sums for p in parts),
            overhead_cell_rows=np.concatenate(
                [p.overhead_cell_rows for p in parts], axis=0
            ),
        )


# ----------------------------------------------------------------------
class TopologySimulator:
    """Advance every (seed, cell) pair of a topology in one batch."""

    def __init__(
        self,
        spec: NetworkSpec,
        policy: IntervalMac,
        seeds: Sequence[int],
        topology: CellTopology,
        *,
        rng: Optional[str] = None,
        sync_rng: bool = False,
        backend: Optional[str] = None,
        validate: bool = True,
        record_traces: bool = False,
        cells_subset: Optional[Sequence[int]] = None,
    ):
        if not registry.has_kernel(policy):
            raise TypeError(
                f"{type(policy).__name__}'s family has no batch kernel; "
                "run it single-domain instead (the experiment runner "
                "degrades automatically)"
            )
        self.rng_mode = normalize_rng_mode(rng, sync_rng)
        self.packing = CellPacking(spec, topology)
        self.topology = topology
        self.seeds = tuple(int(s) for s in seeds)
        if cells_subset is None:
            cells = tuple(range(topology.num_cells))
        else:
            cells = tuple(int(c) for c in cells_subset)
            if len(set(cells)) != len(cells) or not all(
                0 <= c < topology.num_cells for c in cells
            ):
                raise ValueError(f"bad cell subset {cells}")
        self.cells = cells
        S = len(self.seeds)
        specs_rows: List[NetworkSpec] = []
        row_seeds: List[int] = []
        for c in cells:
            specs_rows.extend([self.packing.cell_specs[c]] * S)
            row_seeds.extend(self.seeds)
        self.sim = _PackedBatchSim(
            SpecStack(specs_rows),
            policy,
            row_seeds,
            rng=self.rng_mode,
            backend=backend,
            validate=validate,
            record_traces=record_traces,
            stream_tag=TOPOLOGY_STREAM_TAG,
        )
        if self.rng_mode != "sync":
            self._inject_cell_draws()
        if topology.boundary_links:
            self.sim._mask = BoundaryMasker(self.packing, self.seeds, cells)

    # ------------------------------------------------------------------
    def _inject_cell_draws(self) -> None:
        kernel = self.sim.kernel
        S = len(self.seeds)
        width = self.packing.width
        a_max = kernel._a_max
        depth = kernel._depth
        rows = S * len(self.cells)
        bundles = [
            BatchRngBundle(self.seeds, stream_tag=cell_stream_tag(c))
            for c in self.cells
        ]

        def streams(name: str):
            return [b.free_stream(name) for b in bundles]

        cell_specs = [self.packing.cell_specs[c] for c in self.cells]
        for spec_c in cell_specs:
            cell_a_max = max(1, spec_c.arrivals.max_per_link)
            if cell_a_max != a_max:
                raise TypeError(
                    f"cells must share one A_max for packed draws: got "
                    f"{cell_a_max} vs {a_max}"
                )
        kernel._channel_draws = _CellwiseChannelDraws(
            [
                _ChunkedChannelDraws(
                    spec_c.reliabilities,
                    S,
                    a_max,
                    depth=depth,
                    # Per-cell channel state: S rows of this cell's own
                    # (take_links-sliced) channel, evolved from the
                    # cell's dedicated stream below.
                    state=(
                        spec_c.channel.init_state_batch(S)
                        if spec_c.channel.has_state
                        else None
                    ),
                )
                for spec_c in cell_specs
            ],
            streams("channel"),
            S,
            width,
            a_max,
            state_gens=(
                streams("channel-state")
                if getattr(kernel, "_chan_state_uses_rng", False)
                else None
            ),
        )
        coin = getattr(kernel, "_coin_draws", None)
        if coin is not None:
            two_p = coin._shape[-1]
            kernel._coin_draws = _CellwiseBlocks(
                [
                    _ChunkedUniforms(S, two_p, depth=depth)
                    for _ in cell_specs
                ],
                streams("policy"),
                np.empty((rows, two_p)),
                S,
            )
        cand_ints = getattr(kernel, "_cand_ints", None)
        if cand_ints is not None:
            kernel._cand_ints = _CellwiseBlocks(
                [
                    _ChunkedIntegers(1, width, S, depth=depth)
                    for _ in cell_specs
                ],
                streams("shared"),
                np.empty(rows, dtype=np.int64),
                S,
            )
        cand = getattr(kernel, "_cand_draws", None)
        if cand is not None:
            m = cand._shape[-1]
            kernel._cand_draws = _CellwiseBlocks(
                [_ChunkedUniforms(S, m, depth=depth) for _ in cell_specs],
                streams("shared"),
                np.empty((rows, m)),
                S,
            )
        self.sim._arrival_draws = _CellwiseBlocks(
            [
                _BatchArrivalDraws(None, spec_c, S, depth=depth)
                for spec_c in cell_specs
            ],
            streams("arrivals"),
            np.empty((rows, width), dtype=np.int64),
            S,
        )

    # ------------------------------------------------------------------
    def step(self) -> None:
        self.sim.step()

    def run(self, num_intervals: int) -> TopologyResult:
        self.sim.run(num_intervals)
        return self.result()

    def result(self) -> TopologyResult:
        stats = self.sim.stats
        S = len(self.seeds)
        return TopologyResult(
            topology=self.topology,
            cells=self.cells,
            seeds=self.seeds,
            num_intervals=stats.num_intervals,
            requirements=self.packing.spec.requirement_vector,
            delivery_sums=self.packing.aggregate_rows(
                stats.delivery_sums, S, cells=self.cells
            ),
            collision_sums=stats.collision_sums.reshape(
                len(self.cells), S
            ).sum(axis=0),
            overhead_cell_rows=stats.mean_overhead_us().reshape(
                len(self.cells), S
            ),
        )


# ----------------------------------------------------------------------
def _split_cells(num_cells: int, shards: int) -> List[Tuple[int, ...]]:
    shards = max(1, min(int(shards), num_cells))
    base, extra = divmod(num_cells, shards)
    groups, start = [], 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return groups


def _run_shard_task(payload) -> TopologyResult:
    (
        spec,
        policy,
        seeds,
        topology,
        cells,
        num_intervals,
        options,
    ) = payload
    sim = TopologySimulator(
        spec, policy, seeds, topology, cells_subset=cells, **options
    )
    return sim.run(num_intervals)


def run_topology_batch(
    spec: NetworkSpec,
    policy: IntervalMac,
    seeds: Sequence[int],
    topology: CellTopology,
    num_intervals: int,
    *,
    rng: Optional[str] = None,
    sync_rng: bool = False,
    backend: Optional[str] = None,
    validate: bool = True,
    shards: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> TopologyResult:
    """Run a multi-cell simulation, optionally sharded over cell groups.

    Sharding is bit-invariant: every cell's draws are keyed by its global
    index and the boundary owner stream spans the whole topology, so any
    shard count (including in-process fallback) merges to the same
    result.  Shard processes fork the current interpreter; if a pool
    cannot be used (pickling, platform), shards run sequentially in
    process — same answer, no parallelism.
    """
    options = dict(
        rng=rng,
        sync_rng=sync_rng,
        backend=backend,
        validate=validate,
    )
    if not shards or shards <= 1:
        sim = TopologySimulator(spec, policy, seeds, topology, **options)
        return sim.run(num_intervals)
    groups = _split_cells(topology.num_cells, shards)
    payloads = [
        (spec, policy, tuple(seeds), topology, cells, num_intervals, options)
        for cells in groups
    ]
    workers = max_workers or min(len(groups), os.cpu_count() or 1)
    parts: Optional[List[TopologyResult]] = None
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_run_shard_task, payloads))
        except Exception:
            parts = None  # fall through to the in-process path
    if parts is None:
        parts = [_run_shard_task(p) for p in payloads]
    return TopologyResult.merge(parts)
