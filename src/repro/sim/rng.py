"""Random-stream management for reproducible simulations.

The DP protocol needs one *shared* random stream (Step 1 of Algorithm 2:
every device derives the same candidate index ``C(k)`` from a common seed,
e.g. coarse-synchronized system time) plus *local* streams per component
(arrivals, channel outcomes, per-link coin flips).  :class:`RngBundle`
derives all of them from one master seed via ``numpy.random.SeedSequence``
spawning, so any simulation is reproducible from a single integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RngBundle",
    "BatchRngBundle",
    "RNG_MODES",
    "normalize_rng_mode",
]

#: The two RNG disciplines a batch simulation can run under:
#:
#: * ``"sync"`` — per-seed scalar clone streams; bit-identical to the
#:   scalar engine (the oracle / cross-validation mode).
#: * ``"free"`` — independently-derived per-(seed-tuple, stream)
#:   substreams where each kernel draws only what it actually consumes.
#:   Statistical equivalence with the scalar engine is the contract, not
#:   bit-identity (the default, production throughput mode).
RNG_MODES = ("sync", "free")


def normalize_rng_mode(rng: Optional[str] = None, sync_rng: bool = False) -> str:
    """Resolve an ``rng=`` argument plus the ``sync_rng`` flag to a mode.

    ``rng=None`` defers to ``sync_rng`` (``True`` → ``"sync"``, else the
    default ``"free"``).  An explicit ``rng="sync"`` is the same as
    ``sync_rng=True``; combining ``sync_rng=True`` with ``rng="free"`` is
    contradictory and raises.
    """
    if rng is None:
        return "sync" if sync_rng else "free"
    mode = str(rng).lower()
    if mode not in RNG_MODES:
        raise ValueError(
            f"unknown rng mode {rng!r}; expected one of {RNG_MODES}"
        )
    if sync_rng and mode != "sync":
        raise ValueError(
            f"rng={mode!r} contradicts sync_rng=True; pass one or the other"
        )
    return mode


class RngBundle:
    """Named, independent ``numpy.random.Generator`` streams from one seed.

    Streams are created lazily and deterministically: the stream named
    ``"channel"`` is the same generator sequence for a given master seed no
    matter how many other streams exist or in what order they were first
    requested (each name hashes to a fixed spawn key).
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        if name not in self._streams:
            # Derive a per-name child seed from the master seed and a stable
            # hash of the name; SeedSequence mixes both into a full-entropy
            # state, so distinct names give independent streams.
            name_key = [ord(c) for c in name]
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=name_key)
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    # Convenience accessors for the streams every simulation uses. ---------
    @property
    def arrivals(self) -> np.random.Generator:
        return self.stream("arrivals")

    @property
    def channel(self) -> np.random.Generator:
        return self.stream("channel")

    @property
    def policy(self) -> np.random.Generator:
        """Local policy randomness (per-link coin flips, backoff draws)."""
        return self.stream("policy")

    @property
    def shared(self) -> np.random.Generator:
        """The network-wide shared stream (candidate index ``C(k)``)."""
        return self.stream("shared")


class BatchRngBundle:
    """Random streams for a stack of ``S`` independent replications.

    Two families of streams coexist:

    * **Per-seed streams** (:attr:`bundles`, :meth:`per_seed`) — one
      :class:`RngBundle` per seed, constructed exactly as the scalar engine
      would.  Stream ``"channel"`` of seed ``s`` here is bit-identical to
      ``RngBundle(s).channel``, which is what makes scalar/batch
      cross-validation exact (the batch engine's ``sync`` mode draws from
      these in scalar consumption order).
    * **Free streams** (:meth:`free_stream`) — one generator per stream
      name that fills ``(S, ...)``-shaped arrays in single vectorized
      draws.  Its seed mixes the *whole* seed tuple, so a batch run is
      reproducible from the seed list, but individual slices are not meant
      to match any scalar stream.

    Free stream names live in a ``"free:"`` namespace so they can never
    collide with per-seed stream names.

    ``stream_tag`` shifts the whole free-stream namespace: two bundles
    with the same seeds but different tags draw independent free streams.
    The grid-fused sweep engine tags its mega-batches (``"fused"``) so a
    fused stack never replays the draws of a plain per-cell batch run that
    happens to share the same seed list — the two modes stay independent
    samples of the same distribution.  Per-seed bundles are unaffected by
    the tag (they must remain scalar-identical), and seeds may repeat: a
    fused stack has one row per (sweep cell, seed) pair, and each row gets
    its own scalar-identical :class:`RngBundle` exactly as the per-cell
    runner would construct it.
    """

    def __init__(self, seeds: Sequence[int], stream_tag: Optional[str] = None):
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        self._seeds = seeds
        self._stream_tag = stream_tag
        self._bundles = tuple(RngBundle(s) for s in seeds)
        self._free_streams: Dict[str, np.random.Generator] = {}

    @property
    def seeds(self) -> Tuple[int, ...]:
        return self._seeds

    @property
    def num_seeds(self) -> int:
        return len(self._seeds)

    @property
    def bundles(self) -> Tuple[RngBundle, ...]:
        """The scalar-identical per-seed bundles (one per replication)."""
        return self._bundles

    def per_seed(self, name: str) -> Tuple[np.random.Generator, ...]:
        """The scalar-identical stream ``name`` of every seed, in order."""
        return tuple(b.stream(name) for b in self._bundles)

    @property
    def stream_tag(self) -> Optional[str]:
        return self._stream_tag

    def free_stream(self, name: str) -> np.random.Generator:
        """One generator per stream name for the ``rng="free"`` discipline.

        Kernels running free draw *only what they consume* from these
        substreams — block shapes, chunk depths, and per-interval
        consumption are the kernel's own choice, which is why free mode
        promises statistical equivalence rather than bit-identity with the
        scalar engine.  Determinism is still exact: the stream is a pure
        function of (seed tuple, stream tag, name).
        """
        if name not in self._free_streams:
            namespace = "free:"
            if self._stream_tag is not None:
                namespace = f"free[{self._stream_tag}]:"
            name_key = [ord(c) for c in namespace + name]
            seq = np.random.SeedSequence(
                entropy=list(self._seeds), spawn_key=name_key
            )
            self._free_streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._free_streams[name]
