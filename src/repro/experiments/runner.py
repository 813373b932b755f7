"""Sweep runner: evaluate policies across a parameter grid with seeds.

Every figure in the paper is a sweep of one scenario parameter (arrival
rate or delivery ratio) against total timely-throughput deficiency for 2-3
algorithms.  :func:`run_sweep` is the shared engine; figure modules supply
the spec builder and grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import registry
from ..core.requirements import NetworkSpec
from ..sim.batch_sim import run_simulation_batch, supports_batch_engine
from ..sim.interval_sim import run_simulation
from .configs import PolicyFactory
from .faults import (
    CellFailure,
    FaultPolicy,
    SweepFailureReport,
    call_with_retries,
    fire_fault_hooks,
    nan_point,
)

__all__ = ["SweepPoint", "SweepResult", "run_sweep", "run_single"]

#: Valid values for the runner's ``engine`` argument.
_ENGINES = ("scalar", "batch", "fused")


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated measurements for one (parameter value, policy) cell."""

    parameter: float
    policy: str
    total_deficiency: float  # mean across seeds
    deficiency_std: float
    group_deficiency: Optional[Tuple[float, ...]] = None
    collisions: float = 0.0
    mean_overhead_us: float = 0.0


@dataclass
class SweepResult:
    """All cells of one sweep, indexed for reporting.

    ``failures`` is ``None`` for a fully successful sweep; a best-effort
    run that permanently lost cells attaches the structured
    :class:`~repro.experiments.faults.SweepFailureReport` naming them
    (the corresponding points hold NaN measurements).
    """

    parameter_name: str
    values: List[float] = field(default_factory=list)
    points: List[SweepPoint] = field(default_factory=list)
    failures: Optional[SweepFailureReport] = None

    def _lookup(self, by_value: Dict[float, float], policy: str) -> List[float]:
        missing = [v for v in self.values if v not in by_value]
        if missing:
            known = sorted({p.policy for p in self.points})
            raise KeyError(
                f"sweep of {self.parameter_name!r} has no point for policy "
                f"{policy!r} at value(s) {missing} (policies present: "
                f"{known})"
            )
        return [by_value[v] for v in self.values]

    def series(self, policy: str) -> List[float]:
        """Deficiency series (aligned with ``values``) for one policy.

        Raises a ``KeyError`` naming the policy and the missing parameter
        value(s) if any (value, policy) cell is absent.
        """
        by_value = {
            p.parameter: p.total_deficiency
            for p in self.points
            if p.policy == policy
        }
        return self._lookup(by_value, policy)

    def group_series(self, policy: str, group: int) -> List[float]:
        """Per-group deficiency series; ``KeyError`` semantics as
        :meth:`series` (a point without group data counts as missing)."""
        by_value = {}
        for p in self.points:
            if p.policy == policy and p.group_deficiency is not None:
                by_value[p.parameter] = p.group_deficiency[group]
        return self._lookup(by_value, policy)

    @property
    def policies(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.policy not in seen:
                seen.append(p.policy)
        return seen


def _policy_supports_incremental(policy: object) -> bool:
    """Whether the family declares ``supports_incremental_dp``."""
    descriptor = registry.descriptor_for(policy)
    return (
        descriptor is not None
        and descriptor.capabilities.supports_incremental_dp
    )


def _policy_supports_topology(policy: object) -> bool:
    """Whether the family declares ``supports_topology``."""
    descriptor = registry.descriptor_for(policy)
    return (
        descriptor is not None and descriptor.capabilities.supports_topology
    )


def _resolve_topology(topology, spec: NetworkSpec):
    """A concrete :class:`~repro.topology.graph.CellTopology` for ``spec``.

    ``topology`` may be a ready topology or a builder called with the
    spec (sweeps change the spec per value; a builder like
    ``lambda spec: grid_cells(spec.num_links, 4)`` adapts to each one).
    """
    from ..topology import CellTopology

    if topology is None:
        return None
    if not isinstance(topology, CellTopology):
        topology = topology(spec)
    if topology.num_links != spec.num_links:
        raise ValueError(
            f"topology covers {topology.num_links} links but the spec has "
            f"{spec.num_links}"
        )
    return topology


def _warn_topology_degrade(labels: Sequence[str], stacklevel: int = 3) -> None:
    warnings.warn(
        "topology= is ignored for policy families without the "
        f"supports_topology capability: {', '.join(labels)}; those cells "
        "run single-domain exactly as they would without a topology",
        UserWarning,
        stacklevel=stacklevel,
    )


def _run_single_topology(
    spec: NetworkSpec,
    policy,
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]],
    topology,
    backend: Optional[str] = None,
    rng: Optional[str] = None,
    dp_state: Optional[str] = None,
    validate: bool = True,
    shards: Optional[int] = None,
) -> SweepPoint:
    """One (spec, policy) cell on the multi-cell topology engine."""
    from ..topology import run_topology_batch

    result = run_topology_batch(
        spec,
        policy,
        seeds,
        topology,
        num_intervals,
        rng=rng,
        backend=backend,
        dp_state=dp_state,
        validate=validate,
        shards=shards,
    )
    totals = result.total_deficiency()  # (S,)
    group_mean = None
    if groups is not None:
        gid = np.asarray(groups, dtype=int)
        short = np.maximum(
            np.asarray(spec.requirement_vector)[None, :]
            - result.mean_deliveries(),
            0.0,
        )  # (S, N)
        per_group = np.stack(
            [
                short[:, gid == g].sum(axis=1)
                for g in range(int(gid.max()) + 1)
            ],
            axis=1,
        )
        group_mean = tuple(float(x) for x in per_group.mean(axis=0))
    return SweepPoint(
        parameter=float("nan"),  # filled by run_sweep
        policy=registry.policy_label(policy),
        total_deficiency=float(totals.mean()),
        deficiency_std=float(totals.std()),
        group_deficiency=group_mean,
        collisions=float(result.collision_sums.astype(float).mean()),
        mean_overhead_us=float(result.mean_overhead_us().mean()),
    )


def _check_dp_state(dp_state: Optional[str]) -> None:
    """Reject unknown ``dp_state`` strings before any per-family degrade.

    Non-DP families run with the request nulled out, which would
    otherwise let a typo pass silently.
    """
    from ..sim.batch_kernels import DP_STATE_MODES

    if dp_state is not None and dp_state not in DP_STATE_MODES:
        raise ValueError(
            f"unknown dp_state {dp_state!r}; expected one of "
            f"{DP_STATE_MODES} or None"
        )


def _run_single_batch(
    spec: NetworkSpec,
    policy,
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]],
    backend: Optional[str] = None,
    rng: Optional[str] = None,
    dp_state: Optional[str] = None,
) -> SweepPoint:
    """One (spec, policy) cell on the batch engine: all seeds in one run."""
    batch = run_simulation_batch(
        spec, policy, num_intervals, seeds, backend=backend, rng=rng,
        dp_state=dp_state,
    )
    totals = batch.total_deficiency()  # (S,)
    collisions = batch.collisions.sum(axis=0).astype(float)  # (S,)
    overheads = (
        batch.overhead_time_us.mean(axis=0)
        if num_intervals
        else np.zeros(len(seeds))
    )
    group_mean = None
    if groups is not None:
        from ..analysis.metrics import group_deficiency

        deliveries = batch.deliveries  # (K, S, N)
        per_seed = [
            group_deficiency(
                deliveries[:, s], spec.requirement_vector, groups
            )
            for s in range(batch.num_seeds)
        ]
        group_mean = tuple(float(x) for x in np.mean(per_seed, axis=0))
    return SweepPoint(
        parameter=float("nan"),  # filled by run_sweep
        policy=registry.policy_label(policy),
        total_deficiency=float(totals.mean()),
        deficiency_std=float(totals.std()),
        group_deficiency=group_mean,
        collisions=float(collisions.mean()),
        mean_overhead_us=float(np.mean(overheads)),
    )


def run_single(
    spec: NetworkSpec,
    factory: PolicyFactory,
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]] = None,
    engine: str = "scalar",
    backend: Optional[str] = None,
    rng: Optional[str] = None,
    dp_state: Optional[str] = None,
    topology=None,
) -> SweepPoint:
    """Average one policy's deficiency on one spec across seeds.

    ``engine="batch"`` simulates all seeds simultaneously on the
    vectorized engine when the (spec, policy) pair supports it, and falls
    back to the scalar engine per policy otherwise (e.g. FCSMA/DCF, which
    have no batch kernels) — same statistics either way, only the random
    draw order differs.  ``engine="fused"`` is accepted for symmetry with
    :func:`run_sweep` but behaves as ``"batch"`` here: with a single cell
    there is no grid to fuse.  ``backend`` selects the batch kernel
    backend (ignored by the scalar engine); all backends are
    bit-identical.  ``rng`` selects the batch draw discipline
    (:data:`~repro.sim.rng.RNG_MODES`; ``None`` is ``"free"``) and is
    rejected on the scalar engine.  ``dp_state`` selects the
    DP-family priority-state maintenance mode
    (:data:`~repro.sim.batch_kernels.DP_STATE_MODES`; batch/fused
    engines only, bit-identical either way).  ``topology`` — a
    :class:`~repro.topology.graph.CellTopology` or a builder called with
    the spec — runs capable families (``supports_topology``) through the
    multi-cell engine (:func:`~repro.topology.engine.run_topology_batch`);
    non-capable families degrade to the single-domain path with one
    ``UserWarning``.
    """
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    _check_dp_state(dp_state)
    if rng is not None and engine == "scalar":
        raise ValueError(
            f"rng={rng!r} requires engine='batch' or 'fused'; the scalar "
            "engine has a single per-seed draw discipline"
        )
    if topology is not None and engine == "scalar":
        raise ValueError(
            "topology= requires engine='batch' or 'fused'; the scalar "
            "engine is single-domain only"
        )
    if engine in ("batch", "fused"):
        policy = factory()
        eff_dp = dp_state
        if dp_state is not None and not _policy_supports_incremental(policy):
            # A sweep-level dp_state request addresses the DP family;
            # other families run exactly as with dp_state=None (direct
            # run_simulation_batch calls stay strict).
            eff_dp = None
        if topology is not None:
            if _policy_supports_topology(policy):
                return _run_single_topology(
                    spec, policy, num_intervals, seeds, groups,
                    _resolve_topology(topology, spec),
                    backend=backend, rng=rng, dp_state=eff_dp,
                )
            _warn_topology_degrade([registry.policy_label(policy)])
        if supports_batch_engine(spec, policy, rng=rng):
            return _run_single_batch(
                spec, policy, num_intervals, seeds, groups, backend, rng,
                eff_dp,
            )
    totals: List[float] = []
    group_totals: List[np.ndarray] = []
    collisions: List[float] = []
    overheads: List[float] = []
    name = ""
    for seed in seeds:
        policy = factory()
        # Registry-backed label: the descriptor's (unique) registered name
        # when the instance is exactly a registered class, the instance's
        # own ``name`` for subclass variants (e.g. "DB-DP(est)").
        name = registry.policy_label(policy)
        result = run_simulation(spec, policy, num_intervals, seed=seed)
        totals.append(result.total_deficiency())
        summary = result.summary()
        collisions.append(float(summary.total_collisions))
        overheads.append(summary.mean_overhead_us)
        if groups is not None:
            from ..analysis.metrics import group_deficiency

            group_totals.append(
                group_deficiency(
                    result.deliveries, spec.requirement_vector, groups
                )
            )
    group_mean = (
        tuple(float(x) for x in np.mean(group_totals, axis=0))
        if group_totals
        else None
    )
    return SweepPoint(
        parameter=float("nan"),  # filled by run_sweep
        policy=name,
        total_deficiency=float(np.mean(totals)),
        deficiency_std=float(np.std(totals)),
        group_deficiency=group_mean,
        collisions=float(np.mean(collisions)),
        mean_overhead_us=float(np.mean(overheads)),
    )


def run_sweep(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Union[Dict[str, PolicyFactory], Sequence[str]],
    num_intervals: int,
    seeds: Sequence[int] = (0,),
    groups: Optional[Sequence[int]] = None,
    engine: str = "scalar",
    backend: Optional[str] = None,
    cache=None,
    faults: Optional[FaultPolicy] = None,
    rng: Optional[str] = None,
    shards: Optional[int] = None,
    dp_state: Optional[str] = None,
    topology=None,
) -> SweepResult:
    """Run every (value, policy) cell and aggregate across seeds.

    ``policies`` maps labels to zero-argument factories, or is a sequence
    of registered policy names (``repro.core.registry.available()``) which
    the registry resolves to default-config factories.

    See :func:`run_single` for ``engine`` semantics; ``engine="fused"``
    delegates the whole grid to
    :func:`~repro.experiments.grid.run_sweep_fused`, which batches every
    fusable (value, seed) cell of a policy family into one engine pass.
    ``rng`` selects the batch draw discipline
    (:data:`~repro.sim.rng.RNG_MODES`; batch/fused engines only) and
    ``shards`` splits a fused sweep across worker processes — see
    :func:`~repro.experiments.grid.run_sweep_fused` for both.
    ``topology`` — a :class:`~repro.topology.graph.CellTopology` or a
    builder called with each value's spec — runs capable policy families
    (``supports_topology``) through the multi-cell engine; families
    without the capability degrade to their single-domain path with one
    ``UserWarning`` per sweep, and their cells are cached under the same
    key as a topology-free sweep (they compute the identical point).

    cache:
        ``True`` / directory / :class:`~repro.experiments.cache.SweepCache`
        checkpoints each finished cell on disk and serves warm cells
        without simulating, so an interrupted sweep resumes from
        everything already computed (scalar/batch cells are
        deterministic per cell, making the resumed result bit-identical
        to an uninterrupted run).
    faults:
        ``None`` (default) keeps the historical fail-fast behaviour: a
        cell's exception propagates unwrapped.  A
        :class:`~repro.experiments.faults.FaultPolicy` retries failing
        cells with backoff; permanent failures raise
        :class:`~repro.experiments.faults.SweepCellError` naming the
        (value, policy) cell (``strict``) or yield NaN points plus a
        :class:`~repro.experiments.faults.SweepFailureReport` on the
        result (``best_effort``).  ``cell_timeout`` is only enforceable
        by :func:`~repro.experiments.parallel.run_sweep_parallel`.
    """
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    if not seeds:
        raise ValueError("need at least one seed")
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if shards is not None and engine != "fused":
        raise ValueError(
            f"shards={shards!r} requires engine='fused'; the per-cell "
            "engines parallelize with run_sweep_parallel instead"
        )
    if engine == "fused":
        from .grid import run_sweep_fused

        return run_sweep_fused(
            parameter_name,
            values,
            spec_builder,
            policies,
            num_intervals,
            seeds,
            groups,
            backend=backend,
            dp_state=dp_state,
            cache=cache,
            faults=faults,
            rng=rng,
            shards=shards,
            topology=topology,
        )
    if rng is not None and engine == "scalar":
        raise ValueError(
            f"rng={rng!r} requires engine='batch' or 'fused'; the scalar "
            "engine has a single per-seed draw discipline"
        )
    if topology is not None and engine == "scalar":
        raise ValueError(
            "topology= requires engine='batch' or 'fused'; the scalar "
            "engine is single-domain only"
        )
    # Local import: cache.py imports SweepPoint from this module.
    from .cache import key_rng, resolve_cache, warn_uncacheable

    policies = registry.resolve_policies(policies)
    store = resolve_cache(cache)
    seeds_t = tuple(int(s) for s in seeds)
    groups_t = tuple(groups) if groups is not None else None
    degraded_topo: List[str] = []
    if topology is not None:
        degraded_topo = [
            label
            for label, factory in policies.items()
            if not _policy_supports_topology(factory())
        ]
        if degraded_topo:
            _warn_topology_degrade(degraded_topo, stacklevel=2)
    failures: List[CellFailure] = []
    uncacheable: List[str] = []
    result = SweepResult(parameter_name=parameter_name, values=list(values))
    for value in values:
        spec = spec_builder(value)
        topo = _resolve_topology(topology, spec)
        for label, factory in policies.items():
            cell_topo = topo if label not in degraded_topo else None
            key = None
            point = None
            if store is not None:
                key = store.cell_key(
                    spec=spec,
                    policy=factory(),
                    seeds=seeds_t,
                    num_intervals=num_intervals,
                    groups=groups_t,
                    sync_rng=rng == "sync",
                    engine=engine,
                    rng=key_rng(engine, rng),
                    topology=cell_topo,
                )
                if key is None:
                    if label not in uncacheable:
                        uncacheable.append(label)
                else:
                    point = store.get(key)
            if point is None:
                if faults is None:
                    point = run_single(
                        spec, factory, num_intervals, seeds, groups, engine,
                        backend, rng, dp_state, topology=cell_topo,
                    )
                else:

                    def _attempt(attempt, spec=spec, factory=factory,
                                 value=value, label=label,
                                 cell_topo=cell_topo):
                        fire_fault_hooks(float(value), label, attempt)
                        return run_single(
                            spec, factory, num_intervals, seeds, groups,
                            engine, backend, rng, dp_state,
                            topology=cell_topo,
                        )

                    point = call_with_retries(
                        _attempt,
                        value=float(value),
                        label=label,
                        seeds=seeds_t,
                        faults=faults,
                        failures=failures,
                    )
                if point is None:  # permanent best-effort failure
                    point = nan_point(label, groups_t)
                elif store is not None and key is not None:
                    # Checkpoint: a sweep killed after this cell resumes
                    # warm from here.
                    store.put(key, point)
            # Keep every other field of the worker's point intact
            # (rebuilding field-by-field drops fields added later).
            result.points.append(
                replace(point, parameter=float(value), policy=label)
            )
    warn_uncacheable(uncacheable)
    if failures:
        result.failures = SweepFailureReport(failures)
    return result
