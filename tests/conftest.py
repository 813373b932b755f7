"""Shared fixtures for the test-suite.

Small, fast network specs reused across modules.  Anything paper-scale
(20 links, 5000 intervals) lives in the integration tests with reduced
horizons.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BernoulliArrivals,
    BernoulliChannel,
    BurstyVideoArrivals,
    ConstantArrivals,
    NetworkSpec,
    idealized_timing,
    low_latency_timing,
    video_timing,
)
from repro.sim import ckernels


@pytest.fixture
def tiny_spec() -> NetworkSpec:
    """3 links, perfect channels, one packet each, idealized timing."""
    return NetworkSpec.from_delivery_ratios(
        arrivals=ConstantArrivals.symmetric(3, 1),
        channel=BernoulliChannel.symmetric(3, 1.0),
        timing=idealized_timing(6),
        delivery_ratios=1.0,
    )


@pytest.fixture
def lossy_spec() -> NetworkSpec:
    """4 links, p = 0.7, Bernoulli(0.8) arrivals, idealized timing."""
    return NetworkSpec.from_delivery_ratios(
        arrivals=BernoulliArrivals.symmetric(4, 0.8),
        channel=BernoulliChannel.symmetric(4, 0.7),
        timing=idealized_timing(10),
        delivery_ratios=0.9,
    )


@pytest.fixture
def video_spec() -> NetworkSpec:
    """Small version of the paper's video scenario (6 links)."""
    return NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(6, 0.5),
        channel=BernoulliChannel.symmetric(6, 0.7),
        timing=video_timing(),
        delivery_ratios=0.9,
    )


@pytest.fixture
def control_spec() -> NetworkSpec:
    """Small version of the paper's low-latency scenario (5 links)."""
    return NetworkSpec.from_delivery_ratios(
        arrivals=BernoulliArrivals.symmetric(5, 0.7),
        channel=BernoulliChannel.symmetric(5, 0.7),
        timing=low_latency_timing(),
        delivery_ratios=0.95,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def c_backend() -> str:
    """``"c"``, or skip (with the reason) where the compiled kernel
    library cannot build — bit-identity against numpy would otherwise
    compare numpy with its own fallback."""
    error = ckernels.load_error()
    if error is not None:
        pytest.skip(f"kernel backend 'c' unavailable: {error}")
    return "c"


@pytest.fixture
def backend(request) -> str:
    """A kernel backend parametrized indirectly over
    :data:`~repro.sim.batch_kernels.KERNEL_BACKENDS`; ``"c"`` cases skip
    like :func:`c_backend`."""
    if request.param == "c":
        return request.getfixturevalue("c_backend")
    return request.param
