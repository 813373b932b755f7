"""Property: in-place ``fill_batch`` equals one whole draw, for any chunking.

``ArrivalProcess.fill_batch`` draws each phase of a family over
leading-axis chunks of about ``FILL_CHUNK`` elements and writes into a
caller-owned, possibly strided view.  That is only sound if NumPy's
Generator draws are strictly sequential across calls — including the
half-used uint32 a bounded-integer draw leaves in the bit generator and
the variable number of doubles a Poisson draw consumes.  Hypothesis picks
the family, its parameters, the block shape, the view layout and the
chunk size; the result must equal the one-shot reference formula of each
family (the allocating draws the in-place fill replaced) and leave the
generator in the same state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArrivalProcess,
    BernoulliArrivals,
    BurstyVideoArrivals,
    ConstantArrivals,
    CorrelatedBurstArrivals,
    TruncatedPoissonArrivals,
)
from repro.traffic import arrivals as arrivals_module


class ScalarOnlyArrivals(ArrivalProcess):
    """Only ``sample``: exercises the generic per-row fill."""

    def __init__(self, num_links: int):
        self._n = num_links

    @property
    def num_links(self):
        return self._n

    @property
    def mean_rates(self):
        return np.full(self._n, 1.5)

    @property
    def max_per_link(self):
        return 3

    def sample(self, rng):
        on = rng.random(self._n) < 0.5
        return np.where(on, rng.integers(1, 4, size=self._n), 0)


def _reference(proc, rng, m):
    """The one-shot ``(m, N)`` draw each family's fill must reproduce."""
    n = proc.num_links
    if isinstance(proc, BernoulliArrivals):
        return (rng.random((m, n)) < np.asarray(proc.rates)).astype(np.int64)
    if isinstance(proc, BurstyVideoArrivals):
        active = rng.random((m, n)) < np.asarray(proc.alphas)
        bursts = rng.integers(1, proc.burst_max + 1, size=(m, n))
        return np.where(active, bursts, 0).astype(np.int64)
    if isinstance(proc, TruncatedPoissonArrivals):
        raw = rng.poisson(np.asarray(proc.poisson_rates), size=(m, n))
        return np.minimum(raw, proc.cap).astype(np.int64)
    if isinstance(proc, CorrelatedBurstArrivals):
        events = rng.random(m) < proc.event_prob
        bursts = rng.integers(1, proc.burst_max + 1, size=(m, n))
        return np.where(events[:, None], bursts, 0).astype(np.int64)
    if isinstance(proc, ConstantArrivals):
        return np.tile(np.asarray(proc.counts, dtype=np.int64), (m, 1))
    return np.stack([proc.sample(rng) for _ in range(m)]).astype(np.int64)


@st.composite
def processes(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    probs = st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
    )
    family = draw(
        st.sampled_from(
            ["bernoulli", "bursty", "poisson", "correlated", "constant",
             "scalar-only"]
        )
    )
    if family == "bernoulli":
        return BernoulliArrivals(rates=tuple(draw(probs)))
    if family == "bursty":
        return BurstyVideoArrivals(
            alphas=tuple(draw(probs)),
            burst_max=draw(st.integers(min_value=1, max_value=9)),
        )
    if family == "poisson":
        # Rates on both sides of 10, where NumPy switches from the
        # multiplication method to PTRS (a different draw count per value).
        rates = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=40.0),
                min_size=n,
                max_size=n,
            )
        )
        return TruncatedPoissonArrivals(
            poisson_rates=tuple(rates),
            cap=draw(st.integers(min_value=1, max_value=50)),
        )
    if family == "correlated":
        return CorrelatedBurstArrivals(
            n,
            draw(st.floats(min_value=0.0, max_value=1.0)),
            burst_max=draw(st.integers(min_value=1, max_value=9)),
        )
    if family == "constant":
        counts = st.lists(
            st.integers(min_value=0, max_value=6), min_size=n, max_size=n
        )
        return ConstantArrivals(counts=tuple(draw(counts)))
    return ScalarOnlyArrivals(n)


@given(
    proc=processes(),
    depth=st.integers(min_value=1, max_value=12),
    rows=st.integers(min_value=1, max_value=5),
    pad=st.integers(min_value=0, max_value=3),
    chunk=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_chunked_fill_equals_whole_draw(proc, depth, rows, pad, chunk, seed):
    n = proc.num_links
    # A (depth, rows, N) view into a wider block: strided whenever pad > 0,
    # the shape of a fused-grid group's slice of the arrival block.
    block = np.full((depth, rows + pad, n), -1, dtype=np.int64)
    view = block[:, pad:]
    saved = arrivals_module.FILL_CHUNK
    arrivals_module.FILL_CHUNK = chunk
    try:
        rng = np.random.default_rng(seed)
        assert proc.fill_batch(rng, view) is view
    finally:
        arrivals_module.FILL_CHUNK = saved
    ref_rng = np.random.default_rng(seed)
    expected = _reference(proc, ref_rng, depth * rows)
    np.testing.assert_array_equal(view.reshape(-1, n), expected)
    assert np.all(block[:, :pad] == -1)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    # sample_batch is fill_batch over a fresh array: one more whole draw.
    assert np.array_equal(
        proc.sample_batch(rng, rows), _reference(proc, ref_rng, rows)
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state
