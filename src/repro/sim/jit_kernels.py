"""Optional Numba-compiled inner loops for the workspace batch kernels.

The workspace NumPy path (``backend="numpy"`` in
:mod:`repro.sim.batch_kernels`) resolves each interval with closed-form
array passes; its remaining cost is a fixed number of small-array NumPy
calls per interval.  When Numba is installed, ``backend="jit"`` replaces
the two irreducibly sequential pieces — ordered service under a cap
staircase, and the DP interval timeline with empty-packet coupling — with
``nopython`` per-row loops over the *same* workspace arrays.  The loops
are verbatim transcriptions of the engine's exact sequential semantics
(``BatchDPKernel._resolve_row_sequential`` and the ordered-service
recursion of ``BatchPolicyKernel._solve_ordered_ws``), so their outputs
are bit-identical to the NumPy path: every accumulated quantity is a
small exact integer (stored in float32/float64 well below the mantissa
limit), which makes the arithmetic order-independent.

Numba is an *optional* dependency:

* ``HAS_NUMBA`` reports whether it imported; when absent, requesting the
  JIT backend falls back to the workspace NumPy path (the caller warns
  once — see ``batch_kernels.resolve_backend``).
* For testing the loop *semantics* without Numba, ``force_python = True``
  (or ``REPRO_JIT_FORCE_PY=1``) routes ``backend="jit"`` through the
  pure-Python bodies of the same functions.  That is slow but exercises
  exactly the code Numba would compile, so the cross-backend test-suite
  proves the JIT path correct even on hosts without numba; the CI leg
  that installs numba re-proves it compiled.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

__all__ = [
    "HAS_NUMBA",
    "available",
    "force_python",
    "serve_rows",
    "dp_timeline_rows",
    "dp_incremental_rows",
    "warm_compile",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None
    prange = range
    HAS_NUMBA = False


#: Batch-row threshold above which the ``prange`` variants are used.
#: Rows are fully independent (each writes a disjoint slice), so serial
#: and parallel variants are bit-identical — the threshold only avoids
#: paying thread fork/join overhead on small stacks.
_PARALLEL_MIN_ROWS = 128

#: Route ``backend="jit"`` through the pure-Python loop bodies even when
#: numba is missing (or present).  Test hook; also settable via the
#: ``REPRO_JIT_FORCE_PY=1`` environment variable.
force_python = os.environ.get("REPRO_JIT_FORCE_PY", "") == "1"


def available() -> bool:
    """Whether ``backend="jit"`` can run (compiled or forced-Python)."""
    return HAS_NUMBA or force_python


def _serve_rows_py(order, backlog, needed_cum, cap, delivered, att_pos):
    """Sequential in-order service with one constant attempt cap.

    Per replication row: walk links in service order, granting each link
    ``min(remaining budget, attempts needed to drain)`` attempts and
    counting delivered packets off its pre-drawn retry cumsums
    (``needed_cum[s, l, t]`` = attempts needed for the first ``t + 1``
    packets).  Writes ``delivered`` by link and ``att_pos`` by service
    position, exactly like
    :meth:`repro.sim.batch_kernels.BatchPolicyKernel._solve_ordered_ws`.
    """
    S, N = order.shape
    for s in prange(S):
        used = 0
        for j in range(N):
            link = order[s, j]
            b = backlog[s, link]
            u = 0
            d = 0
            if b > 0:
                budget = cap - used
                if budget > 0:
                    tot = needed_cum[s, link, b - 1]
                    if tot <= budget:
                        u = int(tot)
                        d = b
                    else:
                        u = budget
                        for a in range(b):
                            if needed_cum[s, link, a] <= budget:
                                d += 1
                            else:
                                break
                    used += u
            delivered[s, link] = d
            att_pos[s, j] = u


def _dp_timeline_rows_py(
    order,
    backoff_pos,
    is_empty_pos,
    backlog,
    needed_cum,
    interval_us,
    data_air,
    slot,
    empty_air,
    delivered,
    att_pos,
    fits_pos,
    start_pos,
    att_totals,
):
    """The DP kernel's exact interval timeline, every row sequentially.

    A transcription of ``BatchDPKernel._resolve_row_sequential`` resumed
    from position 0 for every row: the attempt ceiling of each service
    position is the staircase set by its backoff slots and the empty
    claims already on air, and whether an empty claim fits depends on the
    service time used before it.  ``needed_cum`` is the cumulative draw
    block (attempts needed for the first ``t + 1`` packets).  Outputs
    feed the same downstream NumPy stages (busy/overhead/commit) as the
    closed-form path.
    """
    S, N = order.shape
    for s in prange(S):
        att_total = 0
        empties_fit = 0
        for j in range(N):
            link = order[s, j]
            b = backlog[s, link]
            dead = backoff_pos[s, j] * slot + empties_fit * empty_air
            start = att_total * data_air + dead
            fits = False
            used = 0
            served = 0
            if b > 0:
                cap = int((interval_us - dead) // data_air)
                budget = cap - att_total
                if budget > 0:
                    tot = needed_cum[s, link, b - 1]
                    if tot <= budget:
                        used = int(tot)
                        served = b
                    else:
                        used = budget
                        for a in range(b):
                            if needed_cum[s, link, a] <= budget:
                                served += 1
                            else:
                                break
                    att_total += used
            elif is_empty_pos[s, j]:
                if empty_air > 0:
                    fits = start + empty_air <= interval_us
                else:
                    fits = start < interval_us
                if fits:
                    empties_fit += 1
            delivered[s, link] = served
            att_pos[s, j] = used
            fits_pos[s, j] = fits
            start_pos[s, j] = start
        att_totals[s] = att_total


def _dp_incremental_rows_py(
    inv,
    cand,
    swap,
    wants_a,
    wants_b,
    bmin,
    bmax,
    backlog,
    needed_rank,
    interval_us,
    data_air,
    slot,
    empty_air,
    delivered,
    attempts,
    track_attempts,
    att_totals,
    num_empties,
    idle_slots,
    tx_a,
    start_a,
):
    """The DP interval timeline on the *incremental* sparse state.

    The single-pair incremental-path analogue of
    :func:`_dp_timeline_rows_py`: instead of a materialized service
    order/backoff/empty triple, each row walks the persistent inverse
    permutation ``inv`` directly, deriving the position's link and backoff
    from the candidate index ``cand[s]`` and the commit-coin flag
    ``swap[s]`` (the only data-dependent positions are ``c - 1`` and
    ``c``, which hold the candidate pair with backoffs ``bmin``/``bmax``
    and may claim with empty packets per ``wants_a``/``wants_b``).

    ``needed_rank[s, r]`` is the cumulative retry row of the ``r``-th
    backlogged link in this interval's service order (the channel draws'
    rank layout); the walk counts backlogged links as it meets them.
    Only the first ``needed_rank.shape[1]`` of them can receive attempts,
    so the count never indexes past the block when a row is read.  The
    caller zeroes last interval's serve set in ``delivered``/``attempts``
    beforehand; links that receive attempts are written here.  The walk
    stops at the first position past the pair whose attempt ceiling
    (every later backoff is at least ``j + 3``) is exhausted — no later
    link can transmit and no claims remain.  Per-row outputs: total
    attempts, fitting empties, the idle backoff bound, and the
    position-``c - 1`` transmitted flag and start time the swap commit
    needs.
    """
    S, N = inv.shape
    for s in prange(S):
        c = cand[s]
        sw = swap[s]
        att_total = 0
        empties_fit = 0
        idle = 0
        ne = 0
        txa = False
        sta = 0.0
        r = 0
        for j in range(N):
            if j == c - 1:
                link = inv[s, c] if sw else inv[s, c - 1]
                b = bmin[s]
            elif j == c:
                link = inv[s, c - 1] if sw else inv[s, c]
                b = bmax[s]
            elif j > c:
                link = inv[s, j]
                b = j + 2
            else:
                link = inv[s, j]
                b = j
            bl = backlog[s, link]
            dead = b * slot + empties_fit * empty_air
            start = att_total * data_air + dead
            if j == c - 1:
                sta = start
            if bl > 0:
                cap = int((interval_us - dead) // data_air)
                budget = cap - att_total
                if budget > 0:
                    tot = needed_rank[s, r, bl - 1]
                    if tot <= budget:
                        used = int(tot)
                        served = bl
                    else:
                        used = budget
                        served = 0
                        for a in range(bl):
                            if needed_rank[s, r, a] <= budget:
                                served += 1
                            else:
                                break
                    att_total += used
                    delivered[s, link] = served
                    if track_attempts:
                        attempts[s, link] = used
                    if b > idle:
                        idle = b
                    if j == c - 1:
                        txa = True
                r += 1
            elif (j == c - 1 and wants_a[s]) or (j == c and wants_b[s]):
                if empty_air > 0:
                    fits = start + empty_air <= interval_us
                else:
                    fits = start < interval_us
                if fits:
                    empties_fit += 1
                    ne += 1
                    if b > idle:
                        idle = b
                    if j == c - 1:
                        txa = True
            if j >= c and (
                int(
                    (interval_us - (j + 3) * slot - empties_fit * empty_air)
                    // data_air
                )
                <= att_total
            ):
                break
        att_totals[s] = att_total
        num_empties[s] = ne
        idle_slots[s] = idle
        tx_a[s] = txa
        start_a[s] = sta


if HAS_NUMBA:  # pragma: no cover - exercised in the numba CI leg
    # Two compilations of the same loop body: with ``parallel=False``
    # numba treats ``prange`` as ``range`` (sequential); with
    # ``parallel=True`` the independent rows fan out over threads.
    _serve_rows_jit = njit(cache=False)(_serve_rows_py)
    _dp_timeline_rows_jit = njit(cache=False)(_dp_timeline_rows_py)
    _dp_incremental_rows_jit = njit(cache=False)(_dp_incremental_rows_py)
    _serve_rows_par = njit(cache=False, parallel=True)(_serve_rows_py)
    _dp_timeline_rows_par = njit(cache=False, parallel=True)(
        _dp_timeline_rows_py
    )
    _dp_incremental_rows_par = njit(cache=False, parallel=True)(
        _dp_incremental_rows_py
    )
else:
    _serve_rows_jit = None
    _dp_timeline_rows_jit = None
    _dp_incremental_rows_jit = None
    _serve_rows_par = None
    _dp_timeline_rows_par = None
    _dp_incremental_rows_par = None


def _pick(serial, par, num_rows):
    if num_rows >= _PARALLEL_MIN_ROWS:
        return par
    return serial


def serve_rows(order, backlog, needed, cap, delivered, att_pos):
    if HAS_NUMBA and not force_python:
        impl = _pick(_serve_rows_jit, _serve_rows_par, order.shape[0])
        impl(order, backlog, needed, cap, delivered, att_pos)
    else:
        _serve_rows_py(order, backlog, needed, cap, delivered, att_pos)


def dp_timeline_rows(
    order,
    backoff_pos,
    is_empty_pos,
    backlog,
    needed,
    interval_us,
    data_air,
    slot,
    empty_air,
    delivered,
    att_pos,
    fits_pos,
    start_pos,
    att_totals,
):
    if HAS_NUMBA and not force_python:
        impl = _pick(
            _dp_timeline_rows_jit, _dp_timeline_rows_par, order.shape[0]
        )
    else:
        impl = _dp_timeline_rows_py
    impl(
        order,
        backoff_pos,
        is_empty_pos,
        backlog,
        needed,
        interval_us,
        data_air,
        slot,
        empty_air,
        delivered,
        att_pos,
        fits_pos,
        start_pos,
        att_totals,
    )


def dp_incremental_rows(
    inv,
    cand,
    swap,
    wants_a,
    wants_b,
    bmin,
    bmax,
    backlog,
    needed_rank,
    interval_us,
    data_air,
    slot,
    empty_air,
    delivered,
    attempts,
    track_attempts,
    att_totals,
    num_empties,
    idle_slots,
    tx_a,
    start_a,
):
    if HAS_NUMBA and not force_python:
        impl = _pick(
            _dp_incremental_rows_jit,
            _dp_incremental_rows_par,
            inv.shape[0],
        )
    else:
        impl = _dp_incremental_rows_py
    impl(
        inv,
        cand,
        swap,
        wants_a,
        wants_b,
        bmin,
        bmax,
        backlog,
        needed_rank,
        interval_us,
        data_air,
        slot,
        empty_air,
        delivered,
        attempts,
        track_attempts,
        att_totals,
        num_empties,
        idle_slots,
        tx_a,
        start_a,
    )


#: Signatures already compiled this process, keyed by
#: ``(stage, dtype strings)``; warm-compiling an already-warm signature
#: is free, so kernels can call :func:`warm_compile` at every bind.
_warmed: set = set()


def warm_compile(stage: str, *dtypes) -> float:
    """Force compilation of one jit stage for the given array dtypes.

    Numba compiles lazily on first call, which would otherwise land the
    multi-second compile cost inside the first measured interval.  The
    kernels call this at bind time with the exact dtypes their workspace
    arrays use, so steady-state timings never include compilation; the
    seconds spent compiling are returned for separate reporting (0.0 when
    numba is absent, forced-python is active, or the signature is warm).

    ``stage`` is ``"serve_rows"`` (dtypes: order, backlog, needed,
    delivered, att_pos), ``"dp_timeline_rows"`` (dtypes: order, backoff,
    is_empty, backlog, needed, delivered, att_pos, fits, start,
    att_totals) or ``"dp_incremental_rows"`` (dtypes: inv, cand, swap,
    wants_a, wants_b, bmin, bmax, backlog, needed_rank, delivered,
    attempts, att_totals, num_empties, idle_slots, tx_a, start_a).
    Both the serial and parallel variants are compiled.
    """
    if not HAS_NUMBA or force_python:
        return 0.0
    key = (stage,) + tuple(np.dtype(d).str for d in dtypes)
    if key in _warmed:
        return 0.0
    t0 = perf_counter()
    S, N, A = 2, 2, 1
    z = lambda dt, *shape: np.zeros(shape, dtype=dt)  # noqa: E731
    if stage == "serve_rows":
        order_dt, backlog_dt, needed_dt, delivered_dt, att_dt = dtypes
        args = (
            z(order_dt, S, N),
            z(backlog_dt, S, N),
            z(needed_dt, S, N, A),
            4,
            z(delivered_dt, S, N),
            z(att_dt, S, N),
        )
        _serve_rows_jit(*args)
        _serve_rows_par(*args)
    elif stage == "dp_timeline_rows":
        (
            order_dt, backoff_dt, empty_dt, backlog_dt, needed_dt,
            delivered_dt, att_dt, fits_dt, start_dt, tot_dt,
        ) = dtypes
        args = (
            z(order_dt, S, N),
            z(backoff_dt, S, N),
            z(empty_dt, S, N),
            z(backlog_dt, S, N),
            z(needed_dt, S, N, A),
            4000.0,
            400.0,
            60.0,
            100.0,
            z(delivered_dt, S, N),
            z(att_dt, S, N),
            z(fits_dt, S, N),
            z(start_dt, S, N),
            z(tot_dt, S),
        )
        _dp_timeline_rows_jit(*args)
        _dp_timeline_rows_par(*args)
    elif stage == "dp_incremental_rows":
        (
            inv_dt, cand_dt, swap_dt, wa_dt, wb_dt,
            bmin_dt, bmax_dt, backlog_dt, needed_dt,
            delivered_dt, att_dt, tot_dt, ne_dt,
            idle_dt, tx_dt, start_dt,
        ) = dtypes
        args = (
            z(inv_dt, S, N),
            z(cand_dt, S),
            z(swap_dt, S),
            z(wa_dt, S),
            z(wb_dt, S),
            z(bmin_dt, S),
            z(bmax_dt, S),
            z(backlog_dt, S, N),
            z(needed_dt, S, N, A),
            4000.0,
            400.0,
            60.0,
            100.0,
            z(delivered_dt, S, N),
            z(att_dt, S, N),
            True,
            z(tot_dt, S),
            z(ne_dt, S),
            z(idle_dt, S),
            z(tx_dt, S),
            z(start_dt, S),
        )
        _dp_incremental_rows_jit(*args)
        _dp_incremental_rows_par(*args)
    else:
        raise ValueError(f"unknown jit stage {stage!r}")
    _warmed.add(key)
    return perf_counter() - t0
