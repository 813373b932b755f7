"""Cross-backend bit-identity: workspace NumPy vs JIT kernels.

Both kernel backends consume the same generator values in the same
order, and every derived quantity is an exact small integer in float
storage, so the closed-form workspace passes and the compiled (or
forced-Python) per-row loops must agree **bit for bit** — under both
draw disciplines (``free`` and ``sync``), on full fused sweeps and on
direct batch runs, priorities included.

The JIT leg runs compiled when numba is importable; otherwise it runs
the pure-Python bodies of the same loop functions
(``jit_kernels.force_python``), which exercises exactly the code numba
would compile.  The CI workflow runs this module both with and without
numba installed, so both flavors are proven.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import (
    DBDPPolicy,
    ELDFPolicy,
    LDFPolicy,
    RoundRobinPolicy,
    StaticPriorityPolicy,
    run_simulation_batch,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.sim import jit_kernels
from repro.sim.batch_kernels import KERNEL_BACKENDS, resolve_backend

SEEDS = (0, 1, 2, 3)
INTERVALS = 250
ALPHAS = (0.45, 0.55, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
RNG_MODES = ("free", "sync")


@pytest.fixture
def jit_runnable(monkeypatch):
    """Make backend='jit' runnable: compiled if numba is present, else
    forced through the pure-Python loop bodies."""
    if not jit_kernels.HAS_NUMBA:
        monkeypatch.setattr(jit_kernels, "force_python", True)
    return jit_kernels.HAS_NUMBA


def _fused(backend, rng):
    return run_sweep_fused(
        "alpha",
        ALPHAS,
        lambda a: video_symmetric_spec(a, delivery_ratio=0.9),
        POLICIES,
        INTERVALS if rng == "free" else INTERVALS // 5,
        SEEDS,
        validate=False,
        backend=backend,
        rng=rng,
    )


class TestFusedSweepBackendIdentity:
    @pytest.mark.parametrize("rng", RNG_MODES)
    def test_jit_matches_numpy_bitwise(self, rng, jit_runnable):
        assert _fused("jit", rng).points == _fused("numpy", rng).points


class TestDirectBatchBackendIdentity:
    @pytest.mark.parametrize("rng", RNG_MODES)
    @pytest.mark.parametrize(
        "factory",
        [DBDPPolicy, ELDFPolicy, LDFPolicy, RoundRobinPolicy,
         StaticPriorityPolicy],
        ids=lambda f: f.__name__,
    )
    def test_backends_agree_on_every_field(self, factory, rng, jit_runnable):
        # 12 links under the video timing: enough contention that the
        # interval budget truncates service on loaded rows.
        spec = video_symmetric_spec(0.6, num_links=12)
        results = {
            backend: run_simulation_batch(
                spec, factory(), INTERVALS, SEEDS,
                record_priorities=True, backend=backend, rng=rng,
            )
            for backend in KERNEL_BACKENDS
        }
        assert KERNEL_BACKENDS == ("numpy", "jit")
        ref, got = results["numpy"], results["jit"]
        for field in (
            "arrivals", "deliveries", "attempts", "busy_time_us",
            "overhead_time_us", "collisions", "priorities",
        ):
            np.testing.assert_array_equal(
                getattr(got, field),
                getattr(ref, field),
                err_msg=f"{factory.__name__}/{rng}/{field}",
            )


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_explicit_backends_pass_through(self):
        assert resolve_backend("numpy") == "numpy"

    def test_default_prefers_jit_when_compiled_else_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.setattr(jit_kernels, "force_python", False)
        expected = "jit" if jit_kernels.HAS_NUMBA else "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the silent default never warns
            assert resolve_backend(None) == expected

    def test_default_ignores_jit_when_forced_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.setattr(jit_kernels, "force_python", True)
        assert resolve_backend(None) == "numpy"

    @pytest.mark.skipif(
        jit_kernels.HAS_NUMBA, reason="needs a numba-free environment"
    )
    def test_jit_without_numba_degrades_with_warning(self, monkeypatch):
        monkeypatch.setattr(jit_kernels, "force_python", False)
        with pytest.warns(RuntimeWarning, match="falls back"):
            assert resolve_backend("jit") == "numpy"

    @pytest.mark.skipif(
        not jit_kernels.HAS_NUMBA, reason="compiled leg needs numba"
    )
    def test_jit_with_numba_resolves_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("jit") == "jit"
