"""On-demand compiled cell kernel for multi-cell DB-DP runs.

``_cellsim.c`` (next to this module) holds a sequential, per-row port of
the batch engine's single-pair DP interval semantics.  This wrapper
compiles it with the system C compiler the first time it is needed —
no new Python dependencies, no build step in the package — and drives
it through :mod:`ctypes`:

* the shared object is cached in the temp directory keyed by the SHA-256
  of the source plus the compiler flags, so edits recompile and repeat
  runs reuse the cache across processes (the final rename is atomic);
* if no compiler is present (or ``REPRO_CELLSIM=0``),
  :func:`compiled_available` is simply ``False`` and callers fall back
  to the numpy lowering in :mod:`repro.topology.engine`.

The compiled engine is *statistically equivalent* to the numpy engine's
``rng="free"`` discipline — same per-interval distributions, different
generator — not bit-identical to it.  It is, however, deterministic in
itself: per-row xoshiro streams are seeded from numpy ``SeedSequence``
material keyed by (seed value, global cell index), and boundary
ownership comes from the *same* :class:`BoundaryOwnerDraws` stream the
numpy engine uses, so results are a pure function of (spec, policy
parameters, topology, seeds) regardless of packing or host.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core import registry
from ..core.policies import IntervalMac
from ..core.requirements import NetworkSpec
from ..traffic.arrivals import BernoulliArrivals, BurstyVideoArrivals
from .boundary import BoundaryOwnerDraws
from .engine import TopologyResult
from .graph import CellTopology
from .pack import CellPacking

__all__ = [
    "compiled_available",
    "compile_error",
    "run_topology_compiled",
]

_SOURCE = Path(__file__).with_name("_cellsim.c")
_BASE_FLAGS = ("-O3", "-fPIC", "-shared")
_SEED_SALT = 0xCE11  # namespaces compiled streams away from everything else

_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None
_load_tried = False


def _compiler() -> Optional[str]:
    return (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )


def _build(cc: str) -> Path:
    source = _SOURCE.read_bytes()
    # -march=native is attempted first and dropped if the toolchain
    # rejects it; both flag sets get their own cache entry.
    for extra in (("-march=native",), ()):
        flags = _BASE_FLAGS + extra
        digest = hashlib.sha256(
            source + repr((cc, flags)).encode()
        ).hexdigest()[:20]
        lib_path = Path(tempfile.gettempdir()) / f"repro_cellsim_{digest}.so"
        if lib_path.exists():
            return lib_path
        tmp = lib_path.with_name(lib_path.name + f".tmp{os.getpid()}")
        cmd = [cc, *flags, str(_SOURCE), "-o", str(tmp), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, lib_path)  # atomic: concurrent builders race safely
            return lib_path
        tmp.unlink(missing_ok=True)
        last_err = proc.stderr.strip() or f"exit {proc.returncode}"
    raise RuntimeError(f"cellsim build failed: {last_err}")


def _i64p(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _load() -> ctypes.CDLL:
    global _lib, _load_error, _load_tried
    if _lib is not None:
        return _lib
    if _load_tried and _load_error is not None:
        raise RuntimeError(_load_error)
    _load_tried = True
    try:
        if os.environ.get("REPRO_CELLSIM", "1") == "0":
            raise RuntimeError("disabled via REPRO_CELLSIM=0")
        cc = _compiler()
        if cc is None:
            raise RuntimeError("no C compiler on PATH (set CC to override)")
        lib = ctypes.CDLL(str(_build(cc)))
        lib.cellsim_run.restype = None
        _lib = lib
        return lib
    except Exception as exc:  # cache the reason; callers probe via compile_error
        _load_error = str(exc)
        raise RuntimeError(_load_error) from None


def compiled_available() -> bool:
    """True iff the C cell kernel can be (or already was) built and loaded."""
    try:
        _load()
        return True
    except RuntimeError:
        return False


def compile_error() -> Optional[str]:
    """Why :func:`compiled_available` is False (None when it is True)."""
    compiled_available()
    return _load_error


# ----------------------------------------------------------------------
def _policy_params(policy: IntervalMac) -> Tuple[float, float]:
    if not registry.has_kernel(policy):
        raise TypeError(
            f"{type(policy).__name__}'s family has no batch kernel"
        )
    num_pairs = getattr(policy, "num_pairs", None)
    bias = getattr(policy, "bias", None)
    glauber_r = getattr(bias, "glauber_r", None)
    coeff = getattr(getattr(bias, "influence", None), "coefficient", None)
    if num_pairs != 1 or glauber_r is None or coeff is None:
        raise TypeError(
            "the compiled cell kernel implements the single-pair DB-DP "
            "family (num_pairs=1, Glauber bias with log influence); got "
            f"{type(policy).__name__} — use the numpy topology engine"
        )
    return float(glauber_r), float(coeff)


def _arrival_params(spec: NetworkSpec) -> Tuple[np.ndarray, int]:
    """Per-link activation probabilities plus the shared burst size."""
    arrivals = spec.arrivals
    if isinstance(arrivals, BurstyVideoArrivals):
        return np.asarray(arrivals.alphas, dtype=float), int(arrivals.burst_max)
    if isinstance(arrivals, BernoulliArrivals):
        return np.asarray(arrivals.rates, dtype=float), 1
    raise TypeError(
        f"{type(arrivals).__name__} is not supported by the compiled cell "
        "kernel (bursty-video or Bernoulli only); use the numpy engine"
    )


def _integer_us(timing) -> Tuple[int, int, int, int]:
    values = (
        timing.interval_us,
        timing.data_airtime_us,
        timing.empty_airtime_us,
        timing.backoff_slot_us,
    )
    if not all(float(v).is_integer() for v in values):
        raise TypeError(
            f"the compiled cell kernel needs integer-microsecond timing, "
            f"got {values}"
        )
    return tuple(int(v) for v in values)


def _row_states(seeds: Sequence[int], num_cells: int) -> np.ndarray:
    # 8 interleaved xoshiro lanes per row, 4 words of state each.
    states = np.empty((num_cells * len(seeds), 32), dtype=np.uint64)
    for c in range(num_cells):
        for i, s in enumerate(seeds):
            states[c * len(seeds) + i] = np.random.SeedSequence(
                (int(s), int(c), _SEED_SALT)
            ).generate_state(32, dtype=np.uint64)
    return states


def run_topology_compiled(
    spec: NetworkSpec,
    policy: IntervalMac,
    seeds: Sequence[int],
    topology: CellTopology,
    num_intervals: int,
) -> TopologyResult:
    """Run the whole multi-cell topology through the C cell kernel.

    Raises ``RuntimeError`` when no compiler is available and
    ``TypeError`` when the (policy, spec) pair falls outside the
    kernel's supported family — callers that want graceful degradation
    should check :func:`compiled_available` and catch ``TypeError``,
    then fall back to :func:`~repro.topology.engine.run_topology_batch`.
    """
    lib = _load()
    glauber_r, coeff = _policy_params(policy)
    _arrival_params(spec)  # validate the process family up front
    T, air, empty, slot = _integer_us(spec.timing)
    packing = CellPacking(spec, topology)
    seeds = tuple(int(s) for s in seeds)
    S, C, W = len(seeds), topology.num_cells, packing.width
    K = int(num_intervals)
    if S == 0 or K <= 0:
        raise ValueError("need at least one seed and one interval")

    two32 = float(2**32)
    athr = np.empty((C, W), dtype=np.uint64)
    pthr = np.empty((C, W), dtype=np.uint64)
    probs = np.empty((C, W), dtype=np.float64)
    reqs = np.empty((C, W), dtype=np.float64)
    burst_max = None
    for c, spec_c in enumerate(packing.cell_specs):
        alphas, bmax = _arrival_params(spec_c)
        burst_max = bmax if burst_max is None else burst_max
        athr[c] = np.rint(alphas * two32).astype(np.uint64)
        p = np.asarray(spec_c.reliabilities, dtype=float)
        pthr[c] = np.rint(p * two32).astype(np.uint64)
        probs[c] = p
        reqs[c] = np.asarray(spec_c.requirement_vector, dtype=float)

    # Boundary CSR over packed slots + the shared owner stream (uint8
    # ordinals, identical to what the numpy engine's masker consumes).
    B = len(topology.boundary_links)
    locs, bidx, bmem, offsets = [], [], [], [0]
    for c in range(C):
        slots = np.flatnonzero(packing.boundary_index_matrix[c] >= 0)
        locs.extend(int(j) for j in slots)
        bidx.extend(int(packing.boundary_index_matrix[c, j]) for j in slots)
        bmem.extend(int(packing.boundary_member_matrix[c, j]) for j in slots)
        offsets.append(len(locs))
    bnd_offsets = np.asarray(offsets, dtype=np.int64)
    bnd_local = np.asarray(locs or [0], dtype=np.int64)
    bnd_index = np.asarray(bidx or [0], dtype=np.int64)
    bnd_member = np.asarray(bmem or [0], dtype=np.int64)
    if B:
        owner_draws = BoundaryOwnerDraws(topology, seeds)
        owners = np.empty((K, S, B), dtype=np.uint8)
        for k in range(K):
            owners[k] = owner_draws.owners_at(k)
    else:
        owners = np.zeros(1, dtype=np.uint8)

    row_cells = np.arange(C, dtype=np.int64)
    row_states = _row_states(seeds, C)
    num_rows = C * S
    delivery_sums = np.zeros((num_rows, W), dtype=np.int64)
    overhead_sums = np.zeros(num_rows, dtype=np.float64)
    inv_out = np.zeros((num_rows, W), dtype=np.int32)

    u64p = ctypes.POINTER(ctypes.c_uint64)
    f64p = ctypes.POINTER(ctypes.c_double)
    lib.cellsim_run(
        ctypes.c_int64(num_rows),
        ctypes.c_int64(S),
        ctypes.c_int64(W),
        ctypes.c_int64(K),
        ctypes.c_int64(int(burst_max)),
        athr.ctypes.data_as(u64p),
        pthr.ctypes.data_as(u64p),
        probs.ctypes.data_as(f64p),
        reqs.ctypes.data_as(f64p),
        ctypes.c_int64(T),
        ctypes.c_int64(air),
        ctypes.c_int64(empty),
        ctypes.c_int64(slot),
        ctypes.c_double(glauber_r),
        ctypes.c_double(coeff),
        ctypes.c_int64(B),
        _i64p(bnd_offsets),
        _i64p(bnd_local),
        _i64p(bnd_index),
        _i64p(bnd_member),
        owners.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        _i64p(row_cells),
        row_states.ctypes.data_as(u64p),
        _i64p(delivery_sums),
        overhead_sums.ctypes.data_as(f64p),
        inv_out.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
    )

    return TopologyResult(
        topology=topology,
        cells=tuple(range(C)),
        seeds=seeds,
        num_intervals=K,
        requirements=spec.requirement_vector,
        delivery_sums=packing.aggregate_rows(delivery_sums, S),
        collision_sums=np.zeros(S, dtype=np.int64),
        overhead_cell_rows=(overhead_sums / K).reshape(C, S),
    )
