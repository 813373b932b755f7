"""Cross-backend bit-identity: workspace NumPy vs compiled C kernels.

Both kernel backends consume the same generator values in the same
order, every count is an exact small integer in float storage, and the
C row walks evaluate every timeline float with numpy's operations in
numpy's order, so the closed-form workspace passes and the compiled
per-row loops must agree **bit for bit** — under both draw disciplines
(``free`` and ``sync``), on full fused sweeps and on direct batch runs,
priorities included, with integer and non-integer timings.

The ``"c"`` cases skip, naming the reason, only where no C compiler
works.  :class:`TestNoCompilerFallback` forces that situation and checks
the numpy fallback; CI runs this module once with the system compiler
and once with ``CC=/bin/false``.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from unittest import mock

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
from repro.sim import ckernels, clib, perf
from repro.sim.batch_kernels import (
    KERNEL_BACKENDS,
    BatchDPKernel,
    resolve_backend,
)
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import cellsim, partition_cells, run_topology_batch

SEEDS = (0, 1, 2, 3)
INTERVALS = 250
ALPHAS = (0.45, 0.55, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
RNG_MODES = ("free", "sync")


FIELDS = (
    "deliveries", "attempts", "busy_time_us", "overhead_time_us",
    "collisions", "priorities",
)


@pytest.fixture
def no_compiler(monkeypatch):
    """A host whose C compiler fails: the shared loader forgets every
    library it loaded and every later build runs ``/bin/false``."""
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    monkeypatch.setattr(clib, "_libs", {})


def _batch(spec, factory, backend, intervals=INTERVALS, rng="free"):
    return run_simulation_batch(
        spec, factory(), intervals, SEEDS,
        record_priorities=True, backend=backend, rng=rng,
    )


def _assert_same(got, ref, fields=FIELDS, label=""):
    for field in fields:
        np.testing.assert_array_equal(
            getattr(got, field), getattr(ref, field),
            err_msg=f"{label}/{field}",
        )


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
    def test_c_matches_numpy_bitwise(self, rng, c_backend):
        assert _fused("c", rng).points == _fused("numpy", rng).points


class TestDirectBatchBackendIdentity:
    @pytest.mark.parametrize("rng", RNG_MODES)
    @pytest.mark.parametrize(
        "factory",
        [DBDPPolicy, ELDFPolicy, LDFPolicy, RoundRobinPolicy,
         StaticPriorityPolicy],
        ids=lambda f: f.__name__,
    )
    def test_backends_agree_on_every_field(self, factory, rng, c_backend):
        # 12 links under the video timing: enough contention that the
        # interval budget truncates service on loaded rows.
        spec = video_symmetric_spec(0.6, num_links=12)
        assert KERNEL_BACKENDS == ("numpy", "c")
        _assert_same(
            _batch(spec, factory, "c", rng=rng),
            _batch(spec, factory, "numpy", rng=rng),
            ("arrivals",) + FIELDS,
            f"{factory.__name__}/{rng}",
        )


class TestRankLayoutBackendIdentity:
    """Beyond the transmission budget (N=80 > 61 on the video timing)
    every consumer reads the rank-layout channel block: the dense
    ordered-service and DP paths through its link plane, the incremental
    DP path through its rank rows.  The C row walks must read the same
    values as the NumPy passes."""

    @pytest.mark.parametrize(
        "factory",
        [
            LDFPolicy,
            RoundRobinPolicy,
            StaticPriorityPolicy,
            DBDPPolicy,
            lambda: DBDPPolicy(num_pairs=2),
        ],
        ids=["LDF", "RoundRobin", "StaticPriority", "DB-DP", "DB-DP-2pair"],
    )
    def test_backends_agree_at_n80(self, factory, c_backend):
        spec = video_symmetric_spec(0.6, num_links=80)
        ref = _batch(spec, factory, "numpy", 150)
        assert ref.deliveries.sum() > 0
        _assert_same(_batch(spec, factory, "c", 150), ref)


class TestNonIntegerTimingBackendIdentity:
    """Non-integer timings leave the kernels' exact-divide shortcut
    (``_exact_div`` False): attempt ceilings take numpy's fmod-based
    floor division and the timeline runs in float64, where the operation
    order decides the last bit.  Dense (N=12) and incremental (N=80) DP
    and the ordered-service kernel must still agree bit for bit."""

    @staticmethod
    def _spec(num_links):
        base = video_symmetric_spec(0.6, num_links=num_links)
        timing = dataclasses.replace(
            base.timing,
            interval_us=20_000.3,
            data_airtime_us=330.7,
            empty_airtime_us=66.1,
            backoff_slot_us=9.3,
        )
        return dataclasses.replace(base, timing=timing)

    @pytest.mark.parametrize("num_links", [12, 80])
    @pytest.mark.parametrize(
        "factory", [DBDPPolicy, LDFPolicy], ids=["DB-DP", "LDF"]
    )
    def test_backends_agree(self, factory, num_links, c_backend):
        spec = self._spec(num_links)
        ref = _batch(spec, factory, "numpy", 150)
        assert ref.deliveries.sum() > 0
        _assert_same(_batch(spec, factory, "c", 150), ref)

    @pytest.mark.parametrize("dp_state", ["dense", "incremental"])
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS, indirect=True)
    def test_busy_time_is_float64_attempts_times_air(self, backend, dp_state):
        # A 3000.3 us interval holds 9 transmissions, so N=12 exceeds the
        # budget and the kernel picks the incremental path unless forced
        # dense.  Busy time is attempts x air in float64 plus the claims'
        # airtime (0, 1 or 2 fitting claims of 66.1 us); a product
        # formed in the float32 draw dtype misses every candidate.
        spec = self._spec(12)
        timing = dataclasses.replace(spec.timing, interval_us=3000.3)
        spec = dataclasses.replace(spec, timing=timing)
        with mock.patch.object(
            BatchDPKernel, "_force_dense", dp_state == "dense"
        ):
            sim = BatchIntervalSimulator(
                spec, DBDPPolicy(), SEEDS, backend=backend, rng="free",
                record_traces=True, validate=False,
            )
        assert (sim.backend, sim.dp_state) == (backend, dp_state)
        res = sim.run(150)
        air, claim = timing.data_airtime_us, timing.empty_airtime_us
        work = res.attempts.sum(axis=-1).astype(np.float64) * air
        assert (work != work.astype(np.float32)).any()
        candidates = work[..., None] + claim * np.arange(3.0)
        assert (res.busy_time_us[..., None] == candidates).any(axis=-1).all()

    def test_dense_start_planes_agree(self, c_backend):
        # Service starts are rounded floats here; a different operation
        # order shows in their last bit long before it flips a decision.
        sims = {
            backend: BatchIntervalSimulator(
                self._spec(12), DBDPPolicy(), SEEDS, backend=backend
            )
            for backend in KERNEL_BACKENDS
        }
        assert not sims["c"].kernel._exact_div
        for _ in range(60):
            for sim in sims.values():
                sim.step()
            np.testing.assert_array_equal(
                sims["c"].kernel._ws.start, sims["numpy"].kernel._ws.start
            )


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_removed_jit_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("jit")

    def test_explicit_backends_pass_through(self):
        assert resolve_backend("numpy") == "numpy"

    def test_default_prefers_c_when_compiled_else_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        expected = "c" if ckernels.available() else "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the silent default never warns
            assert resolve_backend(None) == expected

    def test_c_with_compiler_resolves_silently(self, c_backend):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("c") == "c"


class TestBuildCost:
    def test_build_is_its_own_perf_stage(self, c_backend, monkeypatch):
        # A forgotten library is loaded again (from the host's .so
        # cache, or compiled): once per process, outside kernel.*.
        monkeypatch.setattr(clib, "_libs", {})
        spec = video_symmetric_spec(0.6, num_links=12)
        perf.reset()
        perf.enable()
        try:
            _batch(spec, DBDPPolicy, "c", intervals=5)
            _batch(spec, LDFPolicy, "c", intervals=5)
            stages = perf.counters.snapshot()
        finally:
            perf.disable()
            perf.reset()
        assert stages["clib.build"]["calls"] == 1
        assert stages["kernel.dp.timeline"]["calls"] == 5

    def test_cold_build_evicts_all_but_newest_builds(
        self, c_backend, monkeypatch, tmp_path
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setattr(clib.tempfile, "gettempdir", lambda: str(cache))
        source = tmp_path / "_demo.c"
        source.write_text("int demo(void) { return 1; }\n")
        stale = []
        for age in range(6):  # six older builds, newest first
            path = cache / f"repro_demo_{age:020x}.so"
            path.write_bytes(b"")
            os.utime(path, (1e9 - age, 1e9 - age))
            stale.append(path)
        bystanders = [
            cache / f"repro_demo_{0:020x}.so.tmp4242",  # in-flight build
            cache / f"repro_other_{0:020x}.so",  # another source
            cache / f"repro_demo_x_{0:020x}.so",  # another stem
        ]
        for path in bystanders:
            path.write_bytes(b"")
        built = clib._build(source, clib.compiler())
        kept = stale[: clib.KEEP_BUILDS - 1]
        assert sorted(cache.glob("repro_demo_*.so")) == sorted(
            [built, *kept, bystanders[2]]
        )
        assert all(path.exists() for path in bystanders)
        # A warm hit compiles and evicts nothing, and refreshes the
        # build's mtime, so eviction ranks builds by last use.
        os.utime(built, (1e9 - 100, 1e9 - 100))
        assert clib._build(source, clib.compiler()) == built
        assert all(path.exists() for path in kept)
        assert built.stat().st_mtime > kept[0].stat().st_mtime


class TestNoCompilerFallback:
    """With the compiler lookup failing, everything still runs on numpy."""

    def test_default_resolves_to_numpy_silently(self, no_compiler):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None) == "numpy"
        assert "/bin/false" in ckernels.load_error()

    def test_c_without_compiler_degrades_with_warning(self, no_compiler):
        spec = video_symmetric_spec(0.6, num_links=12)
        with pytest.warns(RuntimeWarning, match="falls back") as caught:
            got = _batch(spec, DBDPPolicy, "c")
        assert len(caught) == 1
        _assert_same(got, _batch(spec, DBDPPolicy, "numpy"))

    def test_topology_engine_runs(self, no_compiler):
        assert not cellsim.compiled_available()
        assert "/bin/false" in cellsim.compile_error()
        spec = video_symmetric_spec(0.55, num_links=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_topology_batch(
                spec, DBDPPolicy(), SEEDS, partition_cells(12, 3), 40
            )
        assert result.delivery_sums.sum() > 0
