"""Fault-tolerant parallel sweep execution across processes.

Full-horizon figure sweeps are embarrassingly parallel over (parameter,
policy, seed) cells; this module fans them out with
``concurrent.futures.ProcessPoolExecutor``.  Cell specifications are plain
picklable descriptions (builder + value + policy name), reconstructed in the
workers, so results are bit-identical to the sequential runner for the same
seeds.

The orchestration layer survives the faults a long sweep actually meets:

* a worker **exception** retries the cell up to
  :class:`~repro.experiments.faults.FaultPolicy` ``retries`` times with
  exponential backoff, then fails the cell permanently — ``strict`` mode
  raises a :class:`~repro.experiments.faults.SweepCellError` naming the
  (value, policy) cell and its seed tuple, ``best_effort`` mode fills the
  cell with NaN and records it in the result's
  :class:`~repro.experiments.faults.SweepFailureReport`;
* a worker **death** (segfault, OOM kill, ``os._exit``) breaks the whole
  pool — the orchestrator respawns it and resubmits only the unfinished
  cells.  Each worker reports its pid when it starts a cell, so only the
  cell whose worker died is charged an attempt; the pool-mates the break
  interrupted are requeued with their attempt refunded.  When that charge
  fails the sweep (``strict``), the interrupted pool-mates are still run
  to completion and checkpointed before the error is raised;
* a worker **hang** is bounded by ``cell_timeout``: the cell counts as
  failed, and the pool is respawned (terminating the hung process) so its
  slot is reclaimed — interrupted innocent cells are resubmitted with
  their attempt refunded;
* every completed cell is **checkpointed** through the content-addressed
  :class:`~repro.experiments.cache.SweepCache` the moment its future
  resolves (pass ``cache=True`` / a directory / a store), so a sweep
  killed at 50% resumes warm — cached cells are never submitted to the
  pool — and finishes bit-identical to an uninterrupted run;
* fatal errors shut the pool down with ``cancel_futures=True`` and
  terminate its workers instead of blocking in ``__exit__`` on cells that
  no longer matter.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import registry
from ..core.requirements import NetworkSpec
from .cache import SweepCache, key_rng, resolve_cache, warn_uncacheable
from .configs import PolicyFactory
from .faults import (
    CellFailure,
    FaultPolicy,
    SweepCellError,
    SweepFailureReport,
    fire_fault_hooks,
    nan_point,
)
from .runner import SweepPoint, SweepResult, run_single

__all__ = ["run_sweep_parallel"]

#: Poll interval (seconds) used to observe when a queued future starts
#: running, which is when its ``cell_timeout`` clock starts.
_TIMEOUT_POLL_S = 0.05

#: Seconds to wait for a terminated worker process to exit.
_JOIN_TIMEOUT_S = 5.0

#: Worker side of the start channel, set by the pool initializer.
_started = None


def _init_worker(started) -> None:
    global _started
    _started = started


def _tracked(token: int, fn: Callable, *args):
    """Report ``(token, pid)`` on the start channel, then run the task.

    The report is written before the task runs, so when a worker dies
    the orchestrator knows which task was on it.
    """
    _started.put((token, os.getpid()))
    return fn(*args)


def _crashed(future: Future) -> bool:
    """Whether a future resolved because its pool broke."""
    return (
        future.done()
        and not future.cancelled()
        and isinstance(future.exception(timeout=0), BrokenProcessPool)
    )


@dataclass(frozen=True)
class _Cell:
    """One (value, policy) cell of the sweep — everything picklable."""

    value: float
    label: str


def _run_cell(
    cell: _Cell,
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]],
    engine: str,
    attempt: int,
) -> Tuple[_Cell, SweepPoint]:
    fire_fault_hooks(cell.value, cell.label, attempt)
    spec = spec_builder(cell.value)
    point = run_single(
        spec, policies[cell.label], num_intervals, seeds, groups, engine
    )
    return cell, point


def _harvest_failures_last(future: Future) -> bool:
    """Sort key ordering successful futures before failed/cancelled ones."""
    if future.cancelled():
        return True
    return future.exception(timeout=0) is not None


@dataclass
class _CellState:
    """Orchestrator-side bookkeeping for one uncached cell."""

    cell: _Cell
    key: Optional[str] = None  # cache key, when the cell is cacheable
    attempts: int = 0  # submissions so far
    not_before: float = 0.0  # monotonic time gating the next submission


class _Orchestrator:
    """Drives one pool generation after another until every cell settles.

    The loop submits eligible cells — never more than there are
    workers, so every in-flight cell owns a worker — waits for
    completions, harvests them (success → outcome + cache checkpoint;
    failure → retry or permanent failure), and respawns the pool
    whenever it breaks or a running cell exceeds its timeout.

    The work unit is pluggable: subclasses may override :attr:`task_fn`
    (a picklable module-level callable invoked as
    ``task_fn(state.cell, *submit_args, attempts)``) together with
    :meth:`_record_success` / :meth:`_record_permanent_failure` to
    orchestrate coarser units than one cell — the fused sweep runner
    dispatches whole row-contiguous *shards* this way and inherits the
    retry/backoff/respawn/checkpoint machinery unchanged.
    """

    #: The picklable work function submitted to the pool.
    task_fn = staticmethod(_run_cell)

    def __init__(
        self,
        states: List[_CellState],
        *,
        faults: FaultPolicy,
        store: Optional[SweepCache],
        max_workers: Optional[int],
        submit_args: Tuple,
        seeds: Tuple[int, ...],
        groups: Optional[Tuple[int, ...]],
        outcomes: Dict[Tuple[float, str], SweepPoint],
        failures: List[CellFailure],
    ):
        self.queue: List[_CellState] = list(states)
        self.faults = faults
        self.store = store
        self.max_workers = max_workers
        self.submit_args = submit_args
        self.seeds = seeds
        self.groups = groups
        self.outcomes = outcomes
        self.failures = failures
        self.inflight: Dict[Future, _CellState] = {}
        #: first time each inflight future was observed running (None =
        #: still queued inside the pool); the timeout clock starts here.
        self.started: Dict[Future, Optional[float]] = {}
        self.workers = max_workers or os.cpu_count() or 1
        self._tokens = count()
        #: submission token of each inflight future, and the pid of the
        #: worker each token started on (reported through the channel)
        self.token: Dict[Future, int] = {}
        self.worker_pid: Dict[int, int] = {}
        self._channel = None
        #: a strict failure waiting for the interrupted pool-mates of the
        #: break that caused it to finish (see _respawn)
        self._abort: Optional[SweepCellError] = None

    # -- main loop -----------------------------------------------------
    def run(self) -> None:
        pool = self._new_pool()
        try:
            while self.queue or self.inflight:
                try:
                    self._submit_ready(pool)
                    respawn = self._poll()
                except BrokenProcessPool:
                    # submit() on a broken pool; inflight futures carry
                    # the same exception and are settled on respawn.
                    respawn = "broken"
                if respawn:
                    pool = self._respawn(pool, broken=respawn == "broken")
        except BaseException as exc:
            self._shutdown(pool)
            if isinstance(exc, SweepCellError) and self._abort is not None:
                raise self._abort from None
            raise
        finally:
            self._channel.close()
        pool.shutdown(wait=True)
        if self._abort is not None:
            raise self._abort

    # -- pool lifecycle ------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        # A fresh start channel per pool: a worker killed mid-report
        # can leave only its own generation's channel unusable.
        if self._channel is not None:
            self._channel.close()
        self._channel = multiprocessing.SimpleQueue()
        self.worker_pid.clear()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._channel,),
        )

    def _shutdown(self, pool: ProcessPoolExecutor) -> Dict[int, object]:
        """Abandon a pool without blocking on cells we no longer want.

        ``cancel_futures=True`` drops every queued work item;
        terminating the worker processes reclaims hung or mid-cell
        workers (a plain ``shutdown(wait=True)`` would block on them
        forever).  Returns the pool's worker processes by pid, all
        exited.
        """
        try:
            procs = dict(pool._processes or {})
        except AttributeError:  # pragma: no cover - implementation detail
            procs = {}
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in procs.values():
            proc.join(timeout=_JOIN_TIMEOUT_S)
        return procs

    def _read_channel(self) -> None:
        """Record every start report the workers have written so far."""
        channel = self._channel
        while not channel.empty():
            token, pid = channel.get()
            self.worker_pid[token] = pid

    def _respawn(
        self, pool: ProcessPoolExecutor, broken: bool
    ) -> ProcessPoolExecutor:
        """Replace a broken or hung pool; keep finished work, requeue the rest.

        The old pool's workers are stopped first, so every exit code is
        final.  Futures that finished on their own are harvested
        normally.  Every other in-flight cell was interrupted; on a
        break, the ones whose worker died on its own (any exit but the
        SIGTERM of the pool's teardown) are charged an attempt with the
        pool's ``BrokenProcessPool``.  If no such worker ran a cell — it
        was killed by a SIGTERM from outside, or died before reporting —
        every interrupted cell is charged, so a pool that keeps breaking
        still runs out of retries.  The rest are requeued with the
        attempt refunded.  A strict failure raised by the charge waits
        until those pool-mates have run: the sweep then stops without
        starting anything else.
        """
        procs = self._shutdown(pool)
        self._read_channel()
        died = set()
        for pid, proc in procs.items():
            code = proc.exitcode
            for _ in range(50):  # another thread may still be reaping it
                if code is not None:
                    break
                time.sleep(0.01)
                code = proc.exitcode
            if code not in (None, 0, -signal.SIGTERM):
                died.add(pid)
        finished, interrupted = [], []
        for future in self.inflight:
            if future.done() and not future.cancelled() and not _crashed(future):
                finished.append(future)
            else:
                interrupted.append(future)
        charged: List[Future] = []
        if broken:
            charged = [
                f for f in interrupted
                if self.worker_pid.get(self.token[f]) in died
            ]
            if not charged:
                charged = interrupted
        innocents: List[_CellState] = []
        for future in interrupted:
            if future in charged:
                continue
            state = self._forget(future)
            state.attempts = max(0, state.attempts - 1)
            state.not_before = 0.0
            innocents.append(state)
            self.queue.append(state)
        # Successes first, as in _poll: checkpoint finished work before a
        # strict failure can abort the sweep.
        for future in sorted(finished, key=_harvest_failures_last):
            self._harvest(future)
        for future in charged:
            state = self._forget(future)
            exc = future.exception(timeout=0) if _crashed(future) else None
            try:
                self._record_failure(
                    state,
                    exc or BrokenProcessPool(
                        "a worker process died while running this cell"
                    ),
                )
            except SweepCellError as err:
                if not innocents:
                    raise
                if self._abort is None:
                    self._abort = err
                self.queue = innocents
        return self._new_pool()

    # -- submission ----------------------------------------------------
    def _submit_ready(self, pool: ProcessPoolExecutor) -> None:
        now = time.monotonic()
        for state in [s for s in self.queue if s.not_before <= now]:
            if len(self.inflight) >= self.workers:
                break
            token = next(self._tokens)
            future = pool.submit(
                _tracked, token, self.task_fn, state.cell,
                *self.submit_args, state.attempts,
            )
            self.queue.remove(state)
            state.attempts += 1
            self.inflight[future] = state
            self.started[future] = None
            self.token[future] = token

    # -- waiting -------------------------------------------------------
    def _poll(self) -> Optional[str]:
        """Wait for progress; harvest completions; expire timeouts.

        Returns why the pool must be respawned: ``"broken"`` (a worker
        died; the cells it interrupted are settled by :meth:`_respawn`),
        ``"timeout"`` (a running cell timed out and its worker has to be
        reclaimed), or ``None``.
        """
        if not self.inflight:
            # Every remaining cell is backing off; sleep to its retry time.
            delay = min(s.not_before for s in self.queue) - time.monotonic()
            if delay > 0:
                time.sleep(min(delay, 1.0))
            return None
        done, _ = wait(
            set(self.inflight),
            timeout=self._wait_timeout(),
            return_when=FIRST_COMPLETED,
        )
        self._read_channel()
        # Successes first: every completed cell is checkpointed before a
        # strict failure in the same batch aborts the sweep, so a resume
        # restarts from all finished work.
        for future in sorted(done, key=_harvest_failures_last):
            if not _crashed(future):
                self._harvest(future)
        if any(_crashed(f) for f in done):
            return "broken"
        return "timeout" if self._expire_timeouts() else None

    def _wait_timeout(self) -> Optional[float]:
        """How long ``wait`` may block before bookkeeping must run."""
        now = time.monotonic()
        candidates: List[float] = []
        cell_timeout = self.faults.cell_timeout
        if cell_timeout is not None:
            for future in self.inflight:
                started = self.started.get(future)
                if started is None:
                    # Not yet observed running; poll to start its clock.
                    candidates.append(_TIMEOUT_POLL_S)
                else:
                    candidates.append(max(0.0, started + cell_timeout - now))
        if self.queue:
            next_retry = min(s.not_before for s in self.queue)
            candidates.append(max(0.0, next_retry - now))
        return min(candidates) if candidates else None

    def _expire_timeouts(self) -> bool:
        cell_timeout = self.faults.cell_timeout
        if cell_timeout is None:
            return False
        now = time.monotonic()
        for future in self.inflight:
            if self.started.get(future) is None and future.running():
                self.started[future] = now
        expired = [
            future
            for future in self.inflight
            if (started := self.started.get(future)) is not None
            and now - started >= cell_timeout
        ]
        for future in expired:
            state = self._forget(future)
            future.cancel()  # no-op for a running future; the respawn reclaims it
            self._record_failure(
                state,
                TimeoutError(
                    f"cell exceeded cell_timeout={cell_timeout}s "
                    f"(attempt {state.attempts})"
                ),
            )
        return bool(expired)

    # -- outcome recording ---------------------------------------------
    def _forget(self, future: Future) -> Optional[_CellState]:
        """Drop a future's bookkeeping; returns its cell state."""
        self.started.pop(future, None)
        self.worker_pid.pop(self.token.pop(future, None), None)
        return self.inflight.pop(future, None)

    def _harvest(self, future: Future) -> None:
        state = self._forget(future)
        if state is None:
            return
        try:
            _, point = future.result(timeout=0)
        except Exception as exc:  # worker exception or BrokenProcessPool
            self._record_failure(state, exc)
        else:
            self._record_success(state, point)

    def _record_success(self, state: _CellState, point: SweepPoint) -> None:
        self.outcomes[(state.cell.value, state.cell.label)] = point
        if self.store is not None and state.key is not None:
            # Checkpoint immediately: a sweep killed right now resumes
            # from every cell recorded up to this moment.
            self.store.put(state.key, point)

    def _record_failure(self, state: _CellState, exc: BaseException) -> None:
        if state.attempts <= self.faults.retries:
            state.not_before = time.monotonic() + self.faults.backoff(
                state.attempts
            )
            self.queue.append(state)
            return
        self._record_permanent_failure(state, exc)

    def _record_permanent_failure(
        self, state: _CellState, exc: BaseException
    ) -> None:
        cell = state.cell
        if not self.faults.best_effort:
            raise SweepCellError(
                cell.value, cell.label, self.seeds, state.attempts, exc
            ) from exc
        self.failures.append(
            CellFailure(
                value=cell.value,
                policy=cell.label,
                seeds=self.seeds,
                attempts=state.attempts,
                error_type=type(exc).__name__,
                message=str(exc),
            )
        )
        self.outcomes[(cell.value, cell.label)] = nan_point(
            cell.label, self.groups
        )


def run_sweep_parallel(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Union[Dict[str, PolicyFactory], Sequence[str]],
    num_intervals: int,
    seeds: Sequence[int] = (0,),
    groups: Optional[Sequence[int]] = None,
    max_workers: Optional[int] = None,
    engine: str = "scalar",
    cache: Union[None, bool, str, SweepCache] = None,
    faults: Optional[FaultPolicy] = None,
) -> SweepResult:
    """Parallel drop-in for :func:`repro.experiments.runner.run_sweep`.

    ``spec_builder`` and the policy factories must be picklable (module-level
    functions / classes — every builder in :mod:`repro.experiments.configs`
    qualifies).  A sequence of registered policy names also works: the
    registry resolves each name to its (picklable) policy class.  Results
    are ordered exactly like the sequential runner's.
    ``engine="batch"`` composes with process parallelism: each worker then
    runs its cell's whole seed stack vectorized.  ``engine="fused"`` is
    accepted but equivalent to ``"batch"`` here — each worker owns a
    single cell, so there is no grid left to fuse inside it; use the
    sequential :func:`~repro.experiments.grid.run_sweep_fused` when you
    want whole-sweep fusion instead of process fan-out.

    cache:
        ``True`` / directory / :class:`~repro.experiments.cache.SweepCache`
        enables per-cell checkpointing: warm cells are served from disk
        without ever being submitted to the pool, and each completed cell
        is stored the moment its future resolves, so an interrupted sweep
        resumes from everything already finished (same keys as the
        sequential runners — scalar/batch cells are deterministic per
        cell, making a resumed sweep bit-identical to an uninterrupted
        one).
    faults:
        A :class:`~repro.experiments.faults.FaultPolicy`; the default
        retries each failing cell twice with exponential backoff and
        raises :class:`~repro.experiments.faults.SweepCellError` (naming
        the cell, its seeds, and the attempt count) on permanent
        failure.  ``mode="best_effort"`` instead fills permanently
        failed cells with NaN points and attaches a
        :class:`~repro.experiments.faults.SweepFailureReport` to the
        result.  ``cell_timeout`` bounds each cell's wall-clock run.
    """
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    if not seeds:
        raise ValueError("need at least one seed")
    if engine == "fused":
        warnings.warn(
            "run_sweep_parallel(engine='fused') degrades to per-cell "
            "engine='batch': each worker owns a single cell, so there is "
            "no grid to fuse; use repro.experiments.grid.run_sweep_fused "
            "for whole-sweep fusion",
            UserWarning,
            stacklevel=2,
        )
    faults = faults or FaultPolicy()
    policies = registry.resolve_policies(policies)
    seeds_t = tuple(int(s) for s in seeds)
    groups_t = tuple(groups) if groups is not None else None
    store = resolve_cache(cache)
    # run_single treats "fused" as "batch" (one cell has no grid to
    # fuse), so both share the per-cell "batch" cache namespace.
    key_engine = "batch" if engine == "fused" else engine

    outcomes: Dict[Tuple[float, str], SweepPoint] = {}
    failures: List[CellFailure] = []
    states: List[_CellState] = []
    uncacheable: List[str] = []
    for value in values:
        for label in policies:
            cell = _Cell(value=float(value), label=label)
            key = None
            if store is not None:
                key = store.cell_key(
                    spec=spec_builder(cell.value),
                    policy=policies[label](),
                    seeds=seeds_t,
                    num_intervals=num_intervals,
                    groups=groups_t,
                    sync_rng=False,
                    engine=key_engine,
                    rng=key_rng(key_engine, None),
                )
                if key is None:
                    if label not in uncacheable:
                        uncacheable.append(label)
                else:
                    point = store.get(key)
                    if point is not None:
                        # Warm cell: never submitted to the pool.
                        outcomes[(cell.value, cell.label)] = point
                        continue
            states.append(_CellState(cell=cell, key=key))
    warn_uncacheable(uncacheable)

    if states:
        _Orchestrator(
            states,
            faults=faults,
            store=store,
            max_workers=max_workers,
            submit_args=(
                spec_builder,
                policies,
                num_intervals,
                seeds_t,
                groups_t,
                engine,
            ),
            seeds=seeds_t,
            groups=groups_t,
            outcomes=outcomes,
            failures=failures,
        ).run()

    result = SweepResult(parameter_name=parameter_name, values=list(values))
    for value in values:
        for label in policies:
            point = outcomes[(float(value), label)]
            # dataclasses.replace keeps every other field of the worker's
            # point intact; rebuilding field-by-field here silently
            # dropped any field added to SweepPoint later.
            result.points.append(
                replace(point, parameter=float(value), policy=label)
            )
    if failures:
        result.failures = SweepFailureReport(failures)
    return result
