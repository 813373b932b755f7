"""Grid-fused sweeps: one engine pass per (policy family, N) group.

:func:`~repro.experiments.runner.run_sweep` with ``engine="batch"`` already
vectorizes across seeds, but still pays one engine invocation — Python
per-interval loop included — per (parameter value, policy) cell.  A figure
sweep is V values x P policies of those.  This module collapses the grid
the rest of the way: every cell of a sweep that shares a policy family and
a link count joins one **mega-batch** of ``R = V x S`` rows (S = seeds per
cell), built on the per-row spec support of
:class:`~repro.sim.spec_stack.SpecStack` /
:class:`~repro.sim.batch_sim.BatchIntervalSimulator`.  The whole sweep then
costs one Python interval loop per policy family instead of one per cell —
on the paper's Fig. 3 grid this is a further ~4x end-to-end over per-cell
batching (see ``benchmarks/bench_fused_sweep.py``).

Semantics:

* Per-row results are scattered back into ordinary
  :class:`~repro.experiments.runner.SweepPoint`s using float operations
  chosen to match the per-cell batch runner bit-for-bit given the same
  draws.  With ``rng="sync"`` every row is bit-identical to the scalar
  engine (and hence to per-cell batch sync runs); in the default
  ``rng="free"`` mode each row is an independent sample of the same
  distribution, drawn from ``"fused"``-tagged free streams.
* Cells whose spec/policy cannot join a mega-batch — no batch kernel
  (FCSMA, DCF, frame-CSMA), components without vectorized state, or
  per-row parameters the kernels cannot stack — **fall back
  automatically** to the per-cell runner (``engine="batch"``, which
  itself degrades to scalar), so ``run_sweep_fused`` accepts anything
  ``run_sweep`` does.
* Pass ``cache=True`` (or a directory / :class:`SweepCache`) to memoize
  finished cells on disk; see :mod:`repro.experiments.cache`.
* ``shards=K`` splits the grid into K row-contiguous shards dispatched
  through the fault-tolerant process orchestrator of
  :mod:`repro.experiments.parallel`, so a mega-batch sweep uses every
  core and inherits retry/respawn/checkpoint-resume per shard.
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import registry
from ..core.requirements import NetworkSpec
from ..sim import perf
from ..sim.batch_sim import (
    BatchIntervalSimulator,
    BatchSweepStats,
    share_batch_draws,
    supports_batch_engine,
)
from ..sim.rng import normalize_rng_mode
from .cache import SweepCache, key_rng, resolve_cache, warn_uncacheable
from .configs import PolicyFactory
from .faults import (
    CellFailure,
    FaultPolicy,
    SweepCellError,
    SweepFailureReport,
    call_with_retries,
    fire_fault_hooks,
    nan_point,
)
from .parallel import _CellState, _Orchestrator
from .runner import (
    SweepPoint,
    SweepResult,
    _check_dp_state,
    _policy_supports_incremental,
    _policy_supports_topology,
    _resolve_topology,
    _run_single_topology,
    _warn_topology_degrade,
    run_single,
)

__all__ = ["run_sweep_fused", "FUSED_STREAM_TAG"]

#: Free-RNG namespace tag for fused mega-batches (see
#: :class:`~repro.sim.rng.BatchRngBundle`).
FUSED_STREAM_TAG = "fused"


@dataclass
class _Cell:
    """One (parameter value, policy) cell being assembled."""

    value: float
    label: str
    spec: NetworkSpec
    factory: PolicyFactory
    policy: object
    key: Optional[str] = None
    point: Optional[SweepPoint] = None
    cached: bool = False
    failed: bool = False  # permanent best-effort failure: never cached
    rows: Optional[slice] = field(default=None, repr=False)


def _group_signature(cell: _Cell) -> Tuple:
    """Cells sharing this signature are candidates for one mega-batch.

    Keyed on the registered policy family *and* the concrete class:
    the registry's kernel-family token decides which kernel serves the
    group, while the concrete class keeps distinct sweep curves (e.g.
    ``DP`` vs ``DB-DP``) in separate stacks so their row order — and
    hence the default-mode draw consumption — matches the per-cell
    engines exactly.
    """
    descriptor = registry.descriptor_for(cell.policy)
    family = None if descriptor is None else descriptor.kernel_family()
    return (
        family,
        type(cell.policy),
        cell.spec.num_links,
        cell.spec.timing,
        # Spec stacks require one channel model class per stack (the
        # kernel binds one draw pipeline); same-class rows fuse freely,
        # including per-row channel parameter sweeps.
        type(cell.spec.channel),
    )


def _partition(
    cells: List[_Cell], rng_mode: str
) -> Tuple[Dict[Tuple, List[_Cell]], List[_Cell]]:
    """Split unresolved cells into fusable mega-batch groups and fallbacks.

    Fusability is a declared capability (the registry's ``fusable`` flag,
    via supports_batch_engine) — scalar-only families (DCF, FCSMA,
    frame-CSMA) land in the fallback path declaratively rather than as
    the implicit ``else`` of a type switch.
    """
    fused_groups: Dict[Tuple, List[_Cell]] = {}
    fallback: List[_Cell] = []
    for cell in cells:
        if cell.point is not None:
            continue
        descriptor = registry.descriptor_for(cell.policy)
        fusable = descriptor is not None and descriptor.capabilities.fusable
        if fusable and supports_batch_engine(
            cell.spec, cell.policy, rng=rng_mode
        ):
            key = _group_signature(cell)
            fused_groups.setdefault(key, []).append(cell)
        else:
            fallback.append(cell)
    return fused_groups, fallback


def _scatter_points(
    cells: List[_Cell],
    stats: BatchSweepStats,
    num_seeds: int,
    groups: Optional[Sequence[int]],
) -> None:
    """Split mega-batch aggregates back into per-cell sweep points.

    Float operations mirror ``runner._run_single_batch`` exactly: int64
    delivery/collision sums make the means exact, and the per-cell row
    slices feed ``mean()``/``std()`` the same values in the same order, so
    a fused cell equals its per-cell counterpart bit-for-bit whenever the
    underlying draws match (``rng="sync"``).
    """
    totals_all = stats.total_deficiency()  # (R,)
    collisions_all = stats.total_collisions().astype(float)  # (R,)
    overheads_all = stats.mean_overhead_us()  # (R,)
    link_def_all = stats.per_link_deficiency()  # (R, N)
    group_ids = None if groups is None else np.asarray(groups, dtype=int)
    for cell in cells:
        rows = cell.rows
        totals = totals_all[rows]
        group_mean = None
        if group_ids is not None:
            if group_ids.shape != (stats.num_links,):
                raise ValueError("groups must have one id per link")
            num_groups = int(group_ids.max()) + 1
            per_seed = [
                np.array(
                    [
                        link_def_all[r][group_ids == gid].sum()
                        for gid in range(num_groups)
                    ]
                )
                for r in range(rows.start, rows.stop)
            ]
            group_mean = tuple(float(x) for x in np.mean(per_seed, axis=0))
        cell.point = SweepPoint(
            parameter=float("nan"),  # filled during assembly
            policy=cell.policy.name,
            total_deficiency=float(totals.mean()),
            deficiency_std=float(totals.std()),
            group_deficiency=group_mean,
            collisions=float(collisions_all[rows].mean()),
            mean_overhead_us=float(np.mean(overheads_all[rows])),
        )


def _build_fused_sim(
    cells: List[_Cell],
    seeds: Tuple[int, ...],
    rng_mode: str,
    validate: bool,
    backend: Optional[str],
    stream_tag: str = FUSED_STREAM_TAG,
    dp_state: Optional[str] = None,
) -> Optional[BatchIntervalSimulator]:
    """Stack one group's cells into a mega-batch simulator.

    Stack construction and kernel binding may legitimately reject a group
    (heterogeneous timings, unstackable per-row policy parameters); those
    raise ``TypeError``/``ValueError`` *before* any simulation happens and
    turn into a per-cell fallback (``None``).  Errors raised
    mid-simulation are real failures and propagate from the run loop.
    """
    if dp_state is not None:
        descriptor = registry.descriptor_for(cells[0].policy)
        if (
            descriptor is None
            or not descriptor.capabilities.supports_incremental_dp
        ):
            # A sweep-level dp_state request addresses the DP-family
            # groups; a family without the capability runs exactly as
            # it would with dp_state=None instead of letting the
            # kernel's strict ValueError demote the whole group to the
            # per-cell fallback (whose different stream tags would
            # silently change the group's draws).
            dp_state = None
    num_seeds = len(seeds)
    row_specs: List[NetworkSpec] = []
    row_seeds: List[int] = []
    row_policies: List[object] = []
    for cell in cells:
        cell.rows = slice(len(row_seeds), len(row_seeds) + num_seeds)
        for seed in seeds:
            row_specs.append(cell.spec)
            row_seeds.append(seed)
            row_policies.append(cell.policy)
    try:
        return BatchIntervalSimulator(
            row_specs,
            cells[0].policy,
            row_seeds,
            rng=rng_mode,
            validate=validate,
            record_traces=False,
            row_policies=row_policies,
            stream_tag=stream_tag,
            backend=backend,
            dp_state=dp_state,
        )
    except (TypeError, ValueError):
        return None


def _run_fused_group_with_faults(
    cells: List[_Cell],
    seeds: Tuple[int, ...],
    rng_mode: str,
    validate: bool,
    backend: Optional[str],
    num_intervals: int,
    groups: Optional[Sequence[int]],
    faults: FaultPolicy,
    failures: List[CellFailure],
    fallback: List[_Cell],
    dp_state: Optional[str] = None,
) -> None:
    """Run one mega-batch group under a fault policy.

    A fused group is all-or-nothing: its cells share one simulator, so a
    mid-run failure retries the *whole group* (rebuilt from scratch) and
    a permanent failure fails every cell of the group — each one
    recorded individually in ``failures`` so the report still names
    every lost (value, policy) cell.  Build-time rejections
    (heterogeneous timings, unstackable parameters) are not faults and
    fall back to the per-cell runner as always.
    """
    attempt = 0
    while True:
        try:
            for cell in cells:
                fire_fault_hooks(cell.value, cell.label, attempt)
            sim = _build_fused_sim(
                cells, seeds, rng_mode, validate, backend, dp_state=dp_state
            )
            if sim is None:
                fallback.extend(cells)
                return
            for _ in range(num_intervals):
                sim.step()
            _scatter_points(cells, sim.stats, len(seeds), groups)
            return
        except Exception as exc:
            attempt += 1
            if attempt <= faults.retries:
                delay = faults.backoff(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            if not faults.best_effort:
                first = cells[0]
                raise SweepCellError(
                    first.value, first.label, seeds, attempt, exc
                ) from exc
            for cell in cells:
                failures.append(
                    CellFailure(
                        value=cell.value,
                        policy=cell.label,
                        seeds=seeds,
                        attempts=attempt,
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
                )
                cell.point = nan_point(cell.label, groups)
                cell.failed = True
            return


def _simulate_cells(
    cells: List[_Cell],
    seeds: Tuple[int, ...],
    rng_mode: str,
    validate: bool,
    backend: Optional[str],
    num_intervals: int,
    groups: Optional[Sequence[int]],
    stream_tag: str,
    fallback: List[_Cell],
    dp_state: Optional[str] = None,
) -> None:
    """Partition, build, lockstep-run, and scatter one batch of cells.

    The fail-fast (``faults=None``) simulation body, shared by the
    unsharded path and the per-shard workers; cells that cannot join a
    mega-batch are appended to ``fallback`` for the per-cell runner.
    """
    fused_groups, unfusable = _partition(cells, rng_mode)
    fallback.extend(unfusable)
    built: List[Tuple[List[_Cell], BatchIntervalSimulator]] = []
    with perf.stage("fused.build"):
        for group_cells in fused_groups.values():
            sim = _build_fused_sim(
                group_cells, seeds, rng_mode, validate, backend, stream_tag,
                dp_state=dp_state,
            )
            if sim is None:
                fallback.extend(group_cells)
            else:
                built.append((group_cells, sim))

        # Policy-family groups of one grid stack the same cells with the
        # same seeds, so their channel/arrival draws coincide; running
        # them in lockstep lets one generation pass feed every family
        # (exactly like the per-cell engines, where equal seeds reuse
        # equal draws across policies).
        share_batch_draws([sim for _, sim in built])
    with perf.stage("fused.run"):
        for _ in range(num_intervals):
            for _, sim in built:
                sim.step()
    with perf.stage("fused.scatter"):
        for group_cells, sim in built:
            _scatter_points(group_cells, sim.stats, len(seeds), groups)


@dataclass(frozen=True)
class _ShardSpec:
    """One row-contiguous slice of the sweep grid — everything picklable.

    ``members`` pins the (value, policy label) cells of the shard; the
    worker rebuilds specs and policies from the sweep's builder, exactly
    like :mod:`repro.experiments.parallel` cells.  ``index``/``count``
    derive the shard's free-RNG stream tag, making every draw a pure
    function of (seeds, shard count, shard index) — reruns and resumes
    at the same shard count are bit-identical.
    """

    index: int
    count: int
    label: str
    members: Tuple[Tuple[float, str], ...]

    @property
    def value(self) -> float:
        """Orchestrator-facing cell value (used in failure reports)."""
        return float(self.index)


def _shard_tag(index: int, count: int) -> str:
    return f"{FUSED_STREAM_TAG}/shard{index + 1}of{count}"


def _run_shard(
    shard: _ShardSpec,
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Tuple[int, ...],
    groups: Optional[Tuple[int, ...]],
    rng_mode: str,
    validate: bool,
    backend: Optional[str],
    dp_state: Optional[str],
    attempt: int,
) -> Tuple[_ShardSpec, List[Tuple[float, str, SweepPoint]]]:
    """Worker-side execution of one shard (module-level, picklable)."""
    for value, label in shard.members:
        fire_fault_hooks(value, label, attempt)
    specs: Dict[float, NetworkSpec] = {}
    cells: List[_Cell] = []
    for value, label in shard.members:
        if value not in specs:
            specs[value] = spec_builder(value)
        factory = policies[label]
        cells.append(
            _Cell(
                value=value,
                label=label,
                spec=specs[value],
                factory=factory,
                policy=factory(),
            )
        )
    fallback: List[_Cell] = []
    _simulate_cells(
        cells, seeds, rng_mode, validate, backend, num_intervals, groups,
        _shard_tag(shard.index, shard.count), fallback, dp_state=dp_state,
    )
    for cell in fallback:
        cell.point = run_single(
            cell.spec, cell.factory, num_intervals, seeds, groups,
            engine="batch", rng=rng_mode,
        )
    return shard, [(c.value, c.label, c.point) for c in cells]


class _ShardOrchestrator(_Orchestrator):
    """Drives whole shards through the parallel fault machinery.

    Inherits retry/backoff, pool respawn on worker death, and
    ``cell_timeout`` expiry unchanged; only the work unit and the
    outcome fan-out differ — one shard success resolves (and
    checkpoints) every member cell, one permanent shard failure fails
    them all individually so the report still names each lost cell.
    """

    task_fn = staticmethod(_run_shard)

    def __init__(self, states, *, cells_by_id, **kwargs):
        super().__init__(states, **kwargs)
        self._cells_by_id: Dict[Tuple[float, str], _Cell] = cells_by_id

    def _record_success(self, state, outcome) -> None:
        for value, label, point in outcome:
            cell = self._cells_by_id[(value, label)]
            cell.point = point
            cell.failed = False
            if self.store is not None and cell.key is not None:
                # Checkpoint immediately: a sweep killed right now
                # resumes from every shard recorded up to this moment.
                self.store.put(cell.key, point)
                cell.cached = True
            self.outcomes[(value, label)] = point

    def _record_permanent_failure(self, state, exc: BaseException) -> None:
        shard: _ShardSpec = state.cell
        if not self.faults.best_effort:
            raise SweepCellError(
                shard.value, shard.label, self.seeds, state.attempts, exc
            ) from exc
        for value, label in shard.members:
            self.failures.append(
                CellFailure(
                    value=value,
                    policy=label,
                    seeds=self.seeds,
                    attempts=state.attempts,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            )
            cell = self._cells_by_id[(value, label)]
            cell.point = nan_point(label, self.groups)
            cell.failed = True


def _run_sweep_fused_sharded(
    cells: List[_Cell],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Tuple[int, ...],
    groups: Optional[Sequence[int]],
    rng_mode: str,
    validate: bool,
    backend: Optional[str],
    faults: Optional[FaultPolicy],
    store: Optional[SweepCache],
    shards: int,
    failures: List[CellFailure],
    dp_state: Optional[str] = None,
) -> None:
    """Split the grid into row-contiguous shards and dispatch them.

    Shard membership is a pure function of the sweep definition and the
    shard count — computed over the *full* cell list, before cache
    state, so a resumed sweep splits identically to the original.  A
    shard only skips when **every** member is warm: warm members of a
    cold shard are recomputed (bit-identically — same stack, same
    stream tag) so resume equals an uninterrupted run at the same shard
    count.

    Without a fault policy the shards still go through the orchestrator
    (zero retries, strict), so a worker exception surfaces as a
    :class:`~repro.experiments.faults.SweepCellError` naming the shard.
    Unpicklable builders/policies fall back to sequential in-process
    shard execution — identical results, since shard draw streams
    depend only on the shard count, not on where they run.
    """
    count = max(1, min(int(shards), len(cells)))
    base, extra = divmod(len(cells), count)
    by_id: Dict[Tuple[float, str], _Cell] = {
        (c.value, c.label): c for c in cells
    }
    shard_specs: List[_ShardSpec] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        members = cells[start:start + size]
        start += size
        shard_specs.append(
            _ShardSpec(
                index=index,
                count=count,
                label=f"shard {index + 1}/{count} ({len(members)} cells)",
                members=tuple((c.value, c.label) for c in members),
            )
        )
    cold = [
        sh
        for sh in shard_specs
        if any(by_id[m].point is None for m in sh.members)
    ]
    if not cold:
        return
    for sh in cold:
        for m in sh.members:
            by_id[m].point = None
            by_id[m].cached = False

    submit_args = (
        spec_builder, policies, num_intervals, seeds,
        tuple(groups) if groups is not None else None,
        rng_mode, validate, backend, dp_state,
    )
    try:
        pickle.dumps((spec_builder, policies))
        picklable = True
    except Exception:
        picklable = False

    if picklable:
        _ShardOrchestrator(
            [_CellState(cell=sh) for sh in cold],
            cells_by_id=by_id,
            faults=faults or FaultPolicy(retries=0, backoff_base=0.0),
            store=store,
            max_workers=None,
            submit_args=submit_args,
            seeds=seeds,
            groups=tuple(groups) if groups is not None else None,
            outcomes={},
            failures=failures,
        ).run()
        return

    warnings.warn(
        "spec_builder/policies are not picklable; running shards "
        "sequentially in-process (results are identical — shard draw "
        "streams depend only on the shard count, not on where they run)",
        UserWarning,
        stacklevel=3,
    )
    for sh in cold:
        attempt = 0
        while True:
            try:
                _, points = _run_shard(sh, *submit_args, attempt)
            except Exception as exc:
                attempt += 1
                if faults is not None and attempt <= faults.retries:
                    delay = faults.backoff(attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if faults is None:
                    raise
                if not faults.best_effort:
                    raise SweepCellError(
                        sh.value, sh.label, seeds, attempt, exc
                    ) from exc
                for value, label in sh.members:
                    failures.append(
                        CellFailure(
                            value=value,
                            policy=label,
                            seeds=seeds,
                            attempts=attempt,
                            error_type=type(exc).__name__,
                            message=str(exc),
                        )
                    )
                    cell = by_id[(value, label)]
                    cell.point = nan_point(label, groups)
                    cell.failed = True
                break
            else:
                for value, label, point in points:
                    cell = by_id[(value, label)]
                    cell.point = point
                    cell.failed = False
                    if store is not None and cell.key is not None:
                        store.put(cell.key, point)
                        cell.cached = True
                break


def _run_sweep_topology(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Tuple[int, ...],
    groups: Optional[Sequence[int]],
    rng_mode: str,
    validate: bool,
    backend: Optional[str],
    dp_state: Optional[str],
    store: Optional[SweepCache],
    faults: Optional[FaultPolicy],
    topology,
    shards: Optional[int],
) -> SweepResult:
    """Multi-cell sweep: capable cells run on the topology engine.

    Each capable (value, policy) cell is already a mega-batch — every
    (seed, cell-of-topology) pair is one engine row, and ``shards``
    splits the *cells of the topology* across worker processes
    (:func:`~repro.topology.engine.run_topology_batch`) instead of
    splitting the sweep grid.  Families without ``supports_topology``
    degrade to the per-cell batch runner with one ``UserWarning`` and
    are cached under the same key a topology-free sweep would use (they
    compute the identical point).
    """
    groups_t = tuple(groups) if groups is not None else None
    degraded = [
        label
        for label, factory in policies.items()
        if not _policy_supports_topology(factory())
    ]
    if degraded:
        _warn_topology_degrade(degraded, stacklevel=4)
    failures: List[CellFailure] = []
    uncacheable: List[str] = []
    result = SweepResult(parameter_name=parameter_name, values=list(values))
    for value in values:
        spec = spec_builder(value)
        topo = _resolve_topology(topology, spec)
        for label, factory in policies.items():
            policy = factory()
            capable = label not in degraded
            eff_dp = (
                dp_state if _policy_supports_incremental(policy) else None
            )
            key = None
            point = None
            if store is not None:
                key = store.cell_key(
                    spec=spec,
                    policy=policy,
                    seeds=seeds,
                    num_intervals=num_intervals,
                    groups=groups_t,
                    sync_rng=rng_mode == "sync",
                    rng=key_rng("fused", rng_mode),
                    topology=topo if capable else None,
                )
                if key is None:
                    if label not in uncacheable:
                        uncacheable.append(label)
                else:
                    point = store.get(key)
            if point is None:

                def _compute(spec=spec, policy=policy, factory=factory,
                             topo=topo, capable=capable, eff_dp=eff_dp):
                    if capable:
                        return _run_single_topology(
                            spec, policy, num_intervals, seeds, groups,
                            topo, backend=backend, rng=rng_mode,
                            dp_state=eff_dp, validate=validate,
                            shards=shards,
                        )
                    return run_single(
                        spec, factory, num_intervals, seeds, groups,
                        engine="batch", backend=backend, rng=rng_mode,
                        dp_state=dp_state,
                    )

                if faults is None:
                    point = _compute()
                else:

                    def _attempt(attempt, value=value, label=label,
                                 _compute=_compute):
                        fire_fault_hooks(float(value), label, attempt)
                        return _compute()

                    point = call_with_retries(
                        _attempt,
                        value=float(value),
                        label=label,
                        seeds=seeds,
                        faults=faults,
                        failures=failures,
                    )
                if point is None:  # permanent best-effort failure
                    point = nan_point(label, groups_t)
                elif store is not None and key is not None:
                    store.put(key, point)
            result.points.append(
                replace(point, parameter=float(value), policy=label)
            )
    warn_uncacheable(uncacheable, stacklevel=3)
    if failures:
        result.failures = SweepFailureReport(failures)
    return result


def run_sweep_fused(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Union[Dict[str, PolicyFactory], Sequence[str]],
    num_intervals: int,
    seeds: Sequence[int] = (0,),
    groups: Optional[Sequence[int]] = None,
    *,
    sync_rng: bool = False,
    rng: Optional[str] = None,
    shards: Optional[int] = None,
    cache: Union[None, bool, str, SweepCache] = None,
    validate: bool = True,
    backend: Optional[str] = None,
    dp_state: Optional[str] = None,
    faults: Optional[FaultPolicy] = None,
    topology=None,
) -> SweepResult:
    """Drop-in :func:`~repro.experiments.runner.run_sweep`, grid-fused.

    Same signature and :class:`SweepResult` contract as ``run_sweep``,
    plus:

    sync_rng:
        Drive every row with scalar-identical streams (bit-exact against
        the scalar and per-cell batch engines, but slow) instead of the
        default free streams; the same as ``rng="sync"``.
    rng:
        Draw discipline (:data:`~repro.sim.rng.RNG_MODES`).  ``None``
        means ``"free"`` (or ``"sync"`` when ``sync_rng``): kernels draw
        only what they consume from independently derived substreams —
        statistically equivalent to (but not bit-identical with) the
        scalar engine, and fast.  Free and sync cells are cached under
        distinct keys.
    shards:
        Split the grid into this many row-contiguous shards and run them
        as separate mega-batches through the fault-tolerant process
        orchestrator of :mod:`repro.experiments.parallel` (pool respawn
        on worker death, per-shard retries under ``faults``, per-cell
        cache checkpoints the moment a shard resolves).  Results are a
        pure function of (seeds, shard count): reruns and cache resumes
        at the same shard count are identical, different shard counts
        are statistically equivalent.  ``None``/``1`` keeps the
        single-process path.
    cache:
        ``True`` / directory / :class:`~repro.experiments.cache.SweepCache`
        enables the on-disk cell cache; finished cells are stored and hit
        cells skip simulation entirely.
    validate:
        Per-step deliveries-vs-arrivals assertion (on by default;
        benchmarks disable it).
    backend:
        Kernel backend for the mega-batches
        (:data:`~repro.sim.batch_kernels.KERNEL_BACKENDS`); all backends
        are bit-identical, so the cache key deliberately excludes it.
    dp_state:
        DP-family priority-state maintenance mode
        (:data:`~repro.sim.batch_kernels.DP_STATE_MODES`): ``"dense"``,
        ``"incremental"``, or ``None`` (resolve from the environment and
        the family capability).  Both modes are bit-identical, so —
        like ``backend`` — the cache key deliberately excludes it.
    faults:
        ``None`` (default) keeps fail-fast semantics.  A
        :class:`~repro.experiments.faults.FaultPolicy` retries failures
        with backoff; since a mega-batch shares one simulator, a group
        fails (and retries) as a unit, while fallback cells retry
        individually.  Permanent failures raise
        :class:`~repro.experiments.faults.SweepCellError` (``strict``)
        or yield NaN points plus a
        :class:`~repro.experiments.faults.SweepFailureReport` on the
        result (``best_effort``).  With faults enabled the groups run
        sequentially instead of in draw-sharing lockstep — value-neutral
        (sharing never changes draws), it only forgoes that perf
        optimization.
    topology:
        A :class:`~repro.topology.graph.CellTopology` — or a builder
        called with each value's spec — switches capable policy families
        (``supports_topology``) onto the multi-cell engine: every
        (seed, cell) pair of the topology becomes one engine row, and
        ``shards`` splits the topology's cells across worker processes
        instead of splitting the sweep grid.  Families without the
        capability degrade to the per-cell batch runner with one
        ``UserWarning`` per sweep.
    """
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    if not seeds:
        raise ValueError("need at least one seed")
    rng_mode = normalize_rng_mode(rng, sync_rng)
    _check_dp_state(dp_state)
    if shards is not None and int(shards) < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    seeds = tuple(int(s) for s in seeds)
    store = resolve_cache(cache)
    policies = registry.resolve_policies(policies)

    if topology is not None:
        return _run_sweep_topology(
            parameter_name, values, spec_builder, policies, num_intervals,
            seeds, groups, rng_mode, validate, backend, dp_state, store,
            faults, topology, shards,
        )

    cells: List[_Cell] = []
    for value in values:
        spec = spec_builder(value)
        for label, factory in policies.items():
            cells.append(
                _Cell(
                    value=float(value),
                    label=label,
                    spec=spec,
                    factory=factory,
                    policy=factory(),
                )
            )

    # Cache lookups first: hit cells never touch an engine.  Cells whose
    # policy (or spec) has no registered fingerprint simply run uncached
    # — announced once per sweep, never a failure.
    if store is not None:
        uncacheable: List[str] = []
        for cell in cells:
            cell.key = store.cell_key(
                spec=cell.spec,
                policy=cell.policy,
                seeds=seeds,
                num_intervals=num_intervals,
                groups=groups,
                sync_rng=rng_mode == "sync",
                rng=key_rng("fused", rng_mode),
            )
            if cell.key is not None:
                cell.point = store.get(cell.key)
                cell.cached = cell.point is not None
            elif cell.label not in uncacheable:
                uncacheable.append(cell.label)
        warn_uncacheable(uncacheable, stacklevel=2)

    failures: List[CellFailure] = []
    fallback: List[_Cell] = []
    if shards is not None and int(shards) > 1 and len(cells) > 1:
        _run_sweep_fused_sharded(
            cells, spec_builder, policies, num_intervals, seeds, groups,
            rng_mode, validate, backend, faults, store, int(shards),
            failures, dp_state=dp_state,
        )
    elif faults is None:
        _simulate_cells(
            cells, seeds, rng_mode, validate, backend, num_intervals,
            groups, FUSED_STREAM_TAG, fallback, dp_state=dp_state,
        )
    else:
        # Faulty groups must be rebuildable in isolation, so each group
        # runs its own build + interval loop (no cross-family lockstep;
        # draw sharing is value-neutral, so results are unchanged).
        fused_groups, fallback = _partition(cells, rng_mode)
        with perf.stage("fused.run"):
            for group_cells in fused_groups.values():
                _run_fused_group_with_faults(
                    group_cells, seeds, rng_mode, validate, backend,
                    num_intervals, groups, faults, failures, fallback,
                    dp_state=dp_state,
                )

    for cell in fallback:
        if faults is None:
            cell.point = run_single(
                cell.spec, cell.factory, num_intervals, seeds, groups,
                engine="batch", rng=rng_mode,
            )
        else:

            def _attempt(attempt, cell=cell):
                fire_fault_hooks(cell.value, cell.label, attempt)
                return run_single(
                    cell.spec, cell.factory, num_intervals, seeds,
                    groups, engine="batch", rng=rng_mode,
                )

            point = call_with_retries(
                _attempt,
                value=cell.value,
                label=cell.label,
                seeds=seeds,
                faults=faults,
                failures=failures,
            )
            if point is None:  # permanent best-effort failure
                cell.failed = True
                point = nan_point(cell.label, groups)
            cell.point = point

    if store is not None:
        for cell in cells:
            if cell.key is not None and not cell.cached and not cell.failed:
                store.put(cell.key, cell.point)

    result = SweepResult(parameter_name=parameter_name, values=list(values))
    for cell in cells:
        # dataclasses.replace keeps every other SweepPoint field intact
        # (rebuilding field-by-field would silently drop fields added to
        # SweepPoint later).
        result.points.append(
            replace(cell.point, parameter=cell.value, policy=cell.label)
        )
    if failures:
        result.failures = SweepFailureReport(failures)
    return result
